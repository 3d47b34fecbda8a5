"""Shared fixtures: random instance factories and cached benchmark runs.

The acceptance tests register one line per criterion through
``record_criterion``; the terminal summary hook prints the collected lines
after the test run so the pass/fail status of every criterion is visible in
plain pytest output. Benchmark solves are expensive, so the runs shared by
several criteria are computed once per session.
"""

from pathlib import Path

import numpy as np
import pytest

import persched as ps
from persched import linalg, lstep, periodic

ROOT = Path(__file__).resolve().parent.parent

_CRITERION_LINES = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"criterion {number:2d}: {status}  {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])


def spectral_radius(a):
    """Largest eigenvalue magnitude of a square matrix."""
    return float(np.abs(np.linalg.eigvals(a)).max())


def phi(sys, targets, rho, gains):
    """The gain subproblem's objective at ``gains``: lstep's own expression on
    the covariance cycle."""
    return lstep._phi_from_cycle(targets, rho, gains, ps.covariance_limit_cycle(sys, gains))


def gradient(sys, targets, rho, gains):
    """The subproblem's gradient at ``gains``, from lstep's first-order terms
    as lstep.solve forms it."""
    _, b, vld = lstep._first_order(sys, gains, *periodic._gradient_cycles(sys, gains))
    return vld + rho * gains - (b + rho * targets)


def anderson_moore(sys, targets, rho, gains):
    """The coordinate-solve candidate at ``gains``, from lstep's first-order
    terms as lstep.solve forms it."""
    cycle, v_next = periodic._gradient_cycles(sys, gains)
    d, b, _ = lstep._first_order(sys, gains, cycle, v_next)
    return linalg._solve_gain_sylvester(v_next, d, rho, b + rho * targets)


def random_stable_system(rng, n, m, radius=0.85):
    """Random plant with a Schur-stable A and well-conditioned noise.

    A is rescaled to the requested spectral radius, B is the identity so
    the process noise excites every state, and Q and R are random SPD
    matrices bounded away from singular.
    """
    a = rng.normal(size=(n, n))
    a *= radius / max(spectral_radius(a), 1e-12)
    c = rng.normal(size=(m, n))
    q_half = rng.normal(size=(n, n))
    q = q_half @ q_half.T / n + 0.1 * np.eye(n)
    r_half = rng.normal(size=(m, m))
    r = r_half @ r_half.T / m + 0.1 * np.eye(m)
    return ps.SystemModel(A=a, B=np.eye(n), C=c, Q=q, R=r)


def detectable_plant(rng, n, m, top):
    """Non-normal plant whose spectral radius ``top`` (1 to 1.2, or just
    below 1) belongs to a real mode that a dense C observes; the other modes
    lie within 0.9 of the origin."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    t = np.triu(rng.normal(scale=0.3, size=(n, n)), 1)
    np.fill_diagonal(t, rng.uniform(-0.9, 0.9, size=n))
    t[0, 0] = top
    return ps.SystemModel(
        A=q @ t @ q.T, B=np.eye(n), C=rng.normal(size=(m, n)), Q=np.eye(n), R=np.eye(m)
    )


def random_schedule(rng, K, m, min_total=1):
    """Uniform random 0/1 mask with at least ``min_total`` activations."""
    while True:
        mask = (rng.random((K, m)) < 0.5).astype(int)
        if mask.sum() >= min_total:
            return ps.Schedule(mask)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def benchmark_sys():
    """The 25-state, ten-sensor diffusion plant that the CLI and the bench
    solve, from configs/benchmark.yaml."""
    return ps.load_experiment(ROOT / "configs" / "benchmark.yaml").system


@pytest.fixture(scope="session")
def benchmark_penalized(benchmark_sys):
    """Solver reports for the two penalized benchmark cells, keyed by gamma."""
    out = {}
    for gamma in (0.1, 0.15):
        cfg = ps.AdmmConfig(period=10, gamma=gamma, eta=5)
        out[gamma] = ps.run(benchmark_sys, cfg)
    return out


@pytest.fixture(scope="session")
def benchmark_gamma0_sweep(benchmark_sys):
    """Unpenalized benchmark solves over eta = 1..10, keyed by eta."""
    out = {}
    for eta in range(1, 11):
        cfg = ps.AdmmConfig(period=10, gamma=0.0, eta=eta)
        out[eta] = ps.run(benchmark_sys, cfg)
    return out
