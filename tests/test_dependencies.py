"""The package runs without its test-only dependencies."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A None entry in sys.modules makes every later `import scipy` fail.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import persched as ps
cfg = ps.load_experiment("configs/quick.yaml")
report = ps.run(cfg.system, cfg.admm)
print(report.converged, report.iterations, repr(report.j_polished))
"""


# The oracle and the random baseline, through the console entry point.
COMPARE_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from persched import cli
sys.exit(cli.main(["compare", "configs/compare_line4.yaml", "--out", sys.argv[1]]))
"""


def run_without_scipy(code, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quick_config_solves_without_scipy():
    converged, iterations, j_polished = run_without_scipy(WITHOUT_SCIPY).split()
    assert converged == "True"
    assert int(iterations) == 3
    assert abs(float(j_polished) - 1.046002023337083) <= 1e-9


def test_line4_compare_runs_without_scipy(tmp_path):
    run_without_scipy(COMPARE_WITHOUT_SCIPY, str(tmp_path))
    with (tmp_path / "compare.csv").open(newline="") as handle:
        rows = {row["method"]: row for row in csv.DictReader(handle)}
    assert list(rows) == ["admm_polished", "random_baseline", "oracle"]
    assert rows["random_baseline"]["count"] == "200"
    # 121 feasible masks of two sensors at K = 4, eta = 2: 11 per sensor.
    assert rows["oracle"]["count"] == "121"
    assert abs(float(rows["oracle"]["J"]) - 1.3121217155351417) <= 1e-9
