"""Benchmark of persched: three workloads timed end to end, plus a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick

Workloads (bench/README.md gives the reasons and reference figures):

- ``solve``: ``persched run configs/benchmark.yaml`` in-process, written to
  a scratch ``--out`` directory under ``.bench_out/``.
- ``baseline``: ``random_baseline`` on the same plant, 500 trials of K=10,
  eta=5 and 20 activations, seeded with ``--seed``.
- ``oracle``: ``exhaustive_search`` on the plant of
  ``configs/compare_line4.yaml`` with K=7 and eta=3 (4,096 leaves).

With ``--trace 0`` the run repeats the workload's call for ``--seconds``
seconds (at least twice) with nothing wrapped, and prints the end-to-end
metrics. With ``--trace 1`` it makes one plain call and one call with every
public persched function wrapped (bench/layers.py), and prints the
per-layer metrics. Every result is checked against bench/reference.py,
which scores schedules apart from persched. ``--quick`` runs all three
workloads at reduced size, plain and traced, with every check on, and
exits 1 if any check fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread, fixed before NumPy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layers import Tracer  # noqa: E402
from reference import ReferenceEvaluator, leaf_count, sample_masks  # noqa: E402
import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SOLVE_CONFIG = "configs/benchmark.yaml"
LINE4_CONFIG = "configs/compare_line4.yaml"
SETUP_REPEATS = 7
MIN_CALLS = 2
REL_TOL = 1e-9

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import persched; "
    "persched.load_experiment(sys.argv[2])"
)

UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "schedules_per_s": "1/s",
    "j_polished": "trace",
    "peak_rss_mb": "MB",
}


def import_persched():
    """persched from this checkout's src/, never from anywhere else."""
    package_dir = SRC / "persched"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no persched sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import persched
    from persched import cli

    if Path(persched.__file__).resolve().parent != package_dir:
        raise SystemExit(f"error: imported persched from {persched.__file__}")
    return persched, cli


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Workload:
    """One public call of persched, its inputs, and the checks on its result.

    Subclasses set ``config`` and ``quick_config`` (the plant's file at full
    and at reduced size, also read by the set-up timing), build their inputs
    and references in ``__init__``, and define ``call`` (the timed
    operation), ``check`` (a list of problems, empty when the result is
    right), ``scored`` (schedules scored by one call) and ``quality`` (the J
    the call produced).
    """

    config = quick_config = SOLVE_CONFIG

    def __init__(self, persched, cli, seed: int, quick: bool):
        self.ps = persched
        self.cli = cli
        self.seed = seed
        self.config_name = self.quick_config if quick else self.config
        self.config_path = ROOT / self.config_name
        self.experiment = persched.load_experiment(self.config_path)
        self.sys = self.experiment.system
        self.ref = ReferenceEvaluator.for_system(self.sys)

    def j_range(self, K: int) -> tuple:
        """Reference J with every sensor on every step, and with none."""
        M = self.sys.n_sensors
        return self.ref.J(np.ones((K, M))), self.ref.J(np.zeros((K, M)))

    def check_mask(self, mask: np.ndarray, K: int, eta) -> list:
        """Problems with ``mask`` as a schedule; ``eta`` is one bound or one per sensor."""
        M = self.sys.n_sensors
        if mask.shape != (K, M) or not np.isin(mask, (0, 1)).all():
            return [f"schedule of shape {mask.shape} is not a {K} x {M} 0/1 mask"]
        if (mask.sum(axis=0) > np.asarray(eta)).any():
            return [f"activation counts {mask.sum(axis=0).tolist()} exceed eta={eta}"]
        return []


class SolveWorkload(Workload):
    name = "solve"
    quick_config = "configs/quick.yaml"

    def __init__(self, persched, cli, seed, quick):
        super().__init__(persched, cli, seed, quick)
        admm = self.experiment.admm
        self.K = admm.period
        self.eta = admm.eta_tuple(self.sys.n_sensors)
        self.j_all, self.j_none = self.j_range(self.K)
        self.calls = 0
        self.first_report = None

    def call(self):
        self.calls += 1
        out = OUT / f"solve-{self.calls}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(["run", str(self.config_path), "--out", str(out)])
        return code, out

    def check(self, result) -> list:
        code, out = result
        problems = [] if code == 0 else [f"persched run exited with {code}"]
        for name in ("report.json", "schedule.txt", "trace.csv"):
            if not (out / name).is_file():
                return problems + [f"{name} was not written"]
        raw = (out / "report.json").read_bytes()
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            problems.append("report.json differs from the first repetition's")
        report = json.loads(raw)
        text = (out / "schedule.txt").read_text()
        mask = np.array([[int(t) for t in line.split()] for line in text.splitlines() if line.strip()])
        if not report["converged"]:
            problems.append("the solve did not converge")
        bad_mask = self.check_mask(mask, self.K, self.eta)
        if bad_mask:
            return problems + bad_mask
        j = report["j_polished"]
        j_ref = self.ref.J(mask)
        if not close(j, j_ref):
            problems.append(f"j_polished {j!r} differs from the reference J {j_ref!r}")
        gains = np.array(report["gains_polished"])
        if np.any(gains.transpose(0, 2, 1)[mask == 0] != 0.0):
            problems.append("polished gains are nonzero on inactive sensor columns")
        if not self.j_all * (1 - REL_TOL) <= j <= self.j_none * (1 + REL_TOL):
            problems.append(f"j_polished {j!r} outside [{self.j_all!r}, {self.j_none!r}]")
        return problems

    def scored(self, result) -> int:
        return 1

    def quality(self, result) -> float:
        return json.loads((result[1] / "report.json").read_text())["j_polished"]


class BaselineWorkload(Workload):
    name = "baseline"
    K, ETA, TOTAL = 10, 5, 20
    SAMPLE = 8

    def __init__(self, persched, cli, seed, quick):
        super().__init__(persched, cli, seed, quick)
        self.trials = 20 if quick else 500
        self.j_all, self.j_none = self.j_range(self.K)
        rng = np.random.default_rng(seed)
        self.sample_problems = []
        for mask in sample_masks(rng, self.K, self.sys.n_sensors, self.ETA, self.SAMPLE, self.TOTAL):
            j = persched.evaluate_schedule(self.sys, persched.Schedule(mask)).J
            j_ref = self.ref.J(mask)
            if not close(j, j_ref):
                self.sample_problems.append(f"evaluate_schedule gives {j!r}, the reference {j_ref!r}")

    def call(self):
        return self.ps.random_baseline(self.sys, self.K, self.ETA, self.TOTAL, self.trials, self.seed)

    def check(self, result) -> list:
        problems = list(self.sample_problems)
        values = np.array(result.values)
        if len(values) != self.trials:
            problems.append(f"{len(values)} values for {self.trials} trials")
        if not ((values >= self.j_all * (1 - REL_TOL)) & (values <= self.j_none * (1 + REL_TOL))).all():
            problems.append(f"a value lies outside [{self.j_all!r}, {self.j_none!r}]")
        stats = (("mean", values.mean()), ("std", values.std()), ("min", values.min()), ("max", values.max()))
        for name, expected in stats:
            if not abs(getattr(result, name) - expected) <= REL_TOL * abs(values.mean()):
                problems.append(f"{name} {getattr(result, name)!r} disagrees with the values")
        return problems

    def scored(self, result) -> int:
        return len(result.values)

    def quality(self, result) -> float:
        return result.mean


class OracleWorkload(Workload):
    name = "oracle"
    config = quick_config = LINE4_CONFIG
    SAMPLE = 64

    def __init__(self, persched, cli, seed, quick):
        super().__init__(persched, cli, seed, quick)
        self.K, self.eta = (4, 2) if quick else (7, 3)
        self.leaves = leaf_count(self.K, [self.eta] * self.sys.n_sensors)
        rng = np.random.default_rng(seed)
        masks = sample_masks(rng, self.K, self.sys.n_sensors, self.eta, self.SAMPLE)
        self.sample_best = min(self.ref.J(mask) for mask in masks)

    def call(self):
        return self.ps.exhaustive_search(self.sys, self.K, self.eta)

    def check(self, result) -> list:
        problems = []
        if result.n_evaluated + result.n_skipped != self.leaves:
            problems.append(
                f"{result.n_evaluated} scored + {result.n_skipped} skipped != {self.leaves} leaves"
            )
        mask = np.asarray(result.schedule.mask)
        bad_mask = self.check_mask(mask, self.K, self.eta)
        if bad_mask:
            return problems + bad_mask
        j_ref = self.ref.J(mask)
        if not close(result.J, j_ref):
            problems.append(f"oracle J {result.J!r} differs from the reference J {j_ref!r}")
        if result.J > self.sample_best * (1 + REL_TOL):
            problems.append(f"oracle J {result.J!r} exceeds a sampled schedule's {self.sample_best!r}")
        return problems

    def scored(self, result) -> int:
        return result.n_evaluated

    def quality(self, result) -> float:
        return result.J


WORKLOADS = {w.name: w for w in (SolveWorkload, BaselineWorkload, OracleWorkload)}


def time_setup(config: str, repeats: int) -> float:
    """Median time, at the reference speed, of a fresh process importing
    persched and building the workload's plant."""
    command = [sys.executable, "-c", SETUP_CODE, str(SRC), str(ROOT / config)]
    times = []
    for _ in range(repeats):
        _, elapsed, slowness = speed.timed(
            subprocess.run, command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            sample_during=False,
        )
        times.append(elapsed / slowness)
    return statistics.median(times)


def count_failed(workload, results) -> int:
    failed = 0
    for i, result in enumerate(results, 1):
        problems = workload.check(result)
        for problem in problems:
            print(f"{workload.name} call {i}: check failed: {problem}")
        failed += bool(problems)
    return failed


def timed_call(workload, label: str) -> tuple:
    """One call of the workload; returns (result, time at the reference
    speed, slowness)."""
    result, elapsed, slowness = speed.timed(workload.call)
    print(f"{workload.name} {label}: {elapsed:.4f} s wall, slowness {slowness:.4f}, "
          f"{elapsed / slowness:.4f} s at the reference speed")
    return result, elapsed / slowness, slowness


def measure(workload, seconds: float, setup_repeats: int) -> tuple:
    """Set-up time, then the call repeated untraced for ``seconds`` (at
    least MIN_CALLS times)."""
    setup_s = time_setup(workload.config_name, setup_repeats)
    results, times = [], []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < seconds:
        result, call_s, _ = timed_call(workload, f"call {len(times) + 1}")
        results.append(result)
        times.append(call_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = count_failed(workload, results)
    call_s = statistics.median(times)
    values = {
        "setup_s": setup_s,
        "solve_s": call_s,
        "schedules_per_s": workload.scored(results[0]) / call_s,
        "j_polished": statistics.median(workload.quality(r) for r in results),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    return len(results), failed, metrics


def trace(workload) -> tuple:
    """One plain call, then one call with every public function wrapped.
    Per-layer seconds are scaled to the reference speed like the calls."""
    plain, plain_s, _ = timed_call(workload, "plain call")
    tracer = Tracer()
    with tracer:
        traced, traced_s, slowness = timed_call(workload, "traced call")
    failed = count_failed(workload, [plain, traced])
    metrics = {}
    for name, value in tracer.metrics().items():
        if name.endswith(("_s", ".s")):
            metrics[name] = {"value": value / slowness, "unit": "s"}
        else:
            metrics[name] = {"value": value, "unit": "count"}
    metrics["lstep.accepted_per_trial"]["unit"] = "ratio"
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    return 2, failed, metrics


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "process_threads": len(os.listdir("/proc/self/task")),
    }


def run_one(persched, cli, name: str, seed: int, seconds: float, traced: bool, quick: bool) -> tuple:
    workload = WORKLOADS[name](persched, cli, seed, quick)
    if traced:
        return trace(workload)
    return measure(workload, seconds, 1 if quick else SETUP_REPEATS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="every workload at reduced size")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")

    persched, cli = import_persched()
    print("environment: " + json.dumps(environment(), sort_keys=True))
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        if args.quick:
            total_failed = 0
            for name in WORKLOADS:
                for traced in (False, True):
                    attempted, failed, metrics = run_one(persched, cli, name, args.seed, 0.0, traced, True)
                    total_failed += failed
                    summary = {k: v["value"] for k, v in metrics.items()}
                    print(f"{name} trace={int(traced)}: {attempted} calls, {failed} failed: {json.dumps(summary)}")
            print("quick check " + ("passed" if total_failed == 0 else f"FAILED ({total_failed} calls)"))
            return int(total_failed > 0)
        attempted, failed, metrics = run_one(
            persched, cli, args.workload, args.seed, args.seconds, bool(args.trace), False
        )
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
