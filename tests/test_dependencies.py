"""The package runs without its test-only dependencies."""

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


def test_quick_config_solves_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    converged, iterations, j_polished = result.stdout.split()
    assert converged == "True"
    assert int(iterations) == 3
    assert abs(float(j_polished) - 1.046002023337083) <= 1e-9
