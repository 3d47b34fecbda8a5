"""The demo scripts run to completion against the current API.

Demo 03 solves the 25-state benchmark over a sweep of penalties, the
high-penalty solves among them, in a few seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "01_periodic_estimation.py",
        "02_sensor_staggering.py",
        "03_sparsity_tradeoff.py",
        "04_baselines_and_oracle.py",
    ],
)
def test_demo_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
