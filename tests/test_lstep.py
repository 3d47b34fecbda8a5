"""Gain subproblem: objective, gradient, coordinate solve, line search."""

import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persched as ps
from persched import (
    DimensionError,
    InputError,
    InstabilityError,
    LStepProblem,
    Schedule,
    admm,
    linalg,
    lstep,
    periodic,
)
from tests.conftest import (
    anderson_moore,
    detectable_plant,
    gradient,
    phi,
    random_stable_system,
)

BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.yaml"


def finite_difference_gradient(prob, base, step=1e-6):
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        high_point = base.copy()
        high_point[idx] += step
        low_point = base.copy()
        low_point[idx] -= step
        high = phi(prob, high_point)
        low = phi(prob, low_point)
        grad[idx] = (high - low) / (2.0 * step)
    return grad


def riccati_start(sys, K):
    return ps.evaluate_schedule(sys, Schedule(np.ones((K, sys.n_sensors)))).gains


class TestLStepProblem:
    def test_rho_zero_allowed(self, rng):
        sys = random_stable_system(rng, 2, 1)
        prob = LStepProblem(sys=sys, U=np.zeros((2, 2, 1)), rho=0.0)
        assert prob.K == 2

    def test_negative_rho_rejected(self, rng):
        sys = random_stable_system(rng, 2, 1)
        with pytest.raises(InputError, match="rho"):
            LStepProblem(sys=sys, U=np.zeros((1, 2, 1)), rho=-1.0)

    def test_target_shape_checked(self, rng):
        sys = random_stable_system(rng, 2, 1)
        message = r"^targets must have shape \(K, 2, 1\), got \(1, 3, 1\)$"
        with pytest.raises(DimensionError, match=message):
            LStepProblem(sys=sys, U=np.zeros((1, 3, 1)), rho=1.0)

    def test_stores_a_frozen_private_copy(self, rng):
        sys = random_stable_system(rng, 2, 1)
        u = np.ones((2, 2, 1))
        prob = LStepProblem(sys=sys, U=u, rho=1.0)
        u[0] = 0.0
        assert u.flags.writeable
        assert not prob.U.flags.writeable
        np.testing.assert_array_equal(prob.U, np.ones((2, 2, 1)))


class TestPhiValue:
    def test_equals_trace_sum_plus_penalty(self, rng):
        sys = random_stable_system(rng, 3, 2)
        gains = riccati_start(sys, 2)
        u = rng.normal(size=gains.shape)
        prob = LStepProblem(sys=sys, U=u, rho=4.0)
        cycle = ps.covariance_limit_cycle(sys, gains)
        expected = np.trace(cycle, axis1=1, axis2=2).sum() + 2.0 * np.sum((gains - u) ** 2)
        assert lstep._phi_from_cycle(prob, gains, cycle) == pytest.approx(expected, rel=1e-12)

    def test_unstable_gains_raise(self):
        # A - L C = 2.5: the cycle raises, and the line search scores the
        # trial point as infinitely bad. Along L = -2 s from 0 the loops
        # 2.5, 1.5 and 1.0 are rejected, and 0.75, at s = 0.125, is the
        # first a search with no sufficient-decrease bar can accept.
        sys = ps.SystemModel(
            A=np.array([[0.5]]), B=np.eye(1), C=np.eye(1), Q=np.eye(1), R=np.eye(1)
        )
        prob = LStepProblem(sys=sys, U=np.zeros((1, 1, 1)), rho=1.0)
        gains = np.array([[[-2.0]]])
        with pytest.raises(InstabilityError):
            ps.covariance_limit_cycle(sys, gains)
        start = np.zeros((1, 1, 1))
        trials, (s, trial, _, trial_phi) = lstep._armijo(prob, start, gains, np.inf, -1.0)
        assert (trials, s) == (4, 0.125)
        np.testing.assert_array_equal(trial, [[[-0.25]]])
        assert trial_phi == pytest.approx(1.0625 / 0.4375 + 0.5 * 0.0625, rel=1e-12)


class TestGradientPhi:
    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 3))
            K = int(rng.integers(1, 4))
            sys = random_stable_system(rng, n, m)
            gains = riccati_start(sys, K) + 0.01 * rng.normal(size=(K, n, m))
            prob = LStepProblem(
                sys=sys, U=rng.normal(size=(K, n, m)), rho=float(rng.uniform(0.0, 10.0))
            )
            analytic = gradient(prob, gains)
            numeric = finite_difference_gradient(prob, gains)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_zero_at_unconstrained_optimum(self, rng):
        # With rho = 0 the Riccati-optimal gains are stationary.
        sys = random_stable_system(rng, 3, 2)
        gains = riccati_start(sys, 3)
        prob = LStepProblem(sys=sys, U=np.zeros((3, 3, 2)), rho=0.0)
        grad = gradient(prob, gains)
        assert np.abs(grad).max() < 1e-7


class TestAndersonMooreUpdate:
    def test_fixed_point_at_stationarity(self, rng):
        sys = random_stable_system(rng, 3, 2)
        gains = riccati_start(sys, 2)
        prob = LStepProblem(sys=sys, U=gains.copy(), rho=3.0)
        candidate = anderson_moore(prob, gains)
        np.testing.assert_allclose(candidate, gains, atol=1e-8)

    def test_direction_is_descent(self, rng):
        # Directional derivative of the coordinate-solve direction stays
        # negative away from stationarity.
        count = 0
        for _ in range(20):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 3))
            K = int(rng.integers(1, 4))
            sys = random_stable_system(rng, n, m)
            gains = riccati_start(sys, K) + 0.05 * rng.normal(size=(K, n, m))
            prob = LStepProblem(
                sys=sys, U=rng.normal(size=(K, n, m)), rho=float(rng.uniform(0.1, 10.0))
            )
            grad = gradient(prob, gains)
            if np.linalg.norm(grad) < 1e-8:
                continue
            direction = anderson_moore(prob, gains) - gains
            assert float(np.sum(grad * direction)) < 0.0
            count += 1
        assert count >= 15

    def test_matches_per_step_reference(self, rng):
        # Reference: one vectorized solve of
        # 2 V_{k+1} L_k D_k + rho L_k = 2 V_{k+1} A P_k C^T + rho U_k per step,
        # for a single-step period and for more sensors than states.
        for n, m, K in ((3, 2, 1), (2, 4, 3)):
            sys = random_stable_system(rng, n, m)
            gains = riccati_start(sys, K) + 0.01 * rng.normal(size=(K, n, m))
            prob = LStepProblem(sys=sys, U=rng.normal(size=(K, n, m)), rho=3.0)
            cycle = ps.covariance_limit_cycle(sys, gains)
            values = periodic._gradient_cycles(sys, gains)[1]
            expected = np.empty((K, n, m))
            for k in range(K):
                v_next = values[k]
                d = sys.R + sys.C @ cycle[k] @ sys.C.T
                rhs = 2.0 * v_next @ sys.A @ cycle[k] @ sys.C.T + prob.rho * prob.U[k]
                lhs = 2.0 * np.kron(v_next, d.T) + prob.rho * np.eye(n * m)
                expected[k] = np.linalg.solve(lhs, rhs.ravel()).reshape(n, m)
            np.testing.assert_allclose(
                anderson_moore(prob, gains), expected, rtol=1e-9, atol=1e-11
            )


class TestArmijoStep:
    """The backtracking line search inside solve."""

    def test_accepted_step_decreases_phi(self, rng, monkeypatch):
        sys = random_stable_system(rng, 3, 1)
        gains = riccati_start(sys, 2) + 0.05 * rng.normal(size=(2, 3, 1))
        prob = LStepProblem(sys=sys, U=np.zeros((2, 3, 1)), rho=2.0)
        monkeypatch.setattr(lstep, "_MAX_ITERS", 1)
        result = lstep.solve(prob, gains, tol=0.0)
        (s,), (slope,) = result.step_sizes, result.descent_history
        assert 0.0 < s <= 1.0
        phi0, phi1 = result.phi_history
        assert phi1 == phi(prob, result.gains)
        assert phi1 < phi0 + lstep._ARMIJO_ALPHA * s * slope < phi0


class TestSolve:
    def test_converges_and_decreases_monotonically(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 3))
            K = int(rng.integers(1, 4))
            sys = random_stable_system(rng, n, m)
            init = riccati_start(sys, K)
            prob = LStepProblem(
                sys=sys,
                U=init + rng.normal(scale=0.2, size=(K, n, m)),
                rho=float(rng.uniform(1.0, 10.0)),
            )
            result = lstep.solve(prob, init, tol=1e-6)
            assert result.converged
            assert result.grad_norm <= 1e-6
            diffs = np.diff(result.phi_history)
            assert (diffs < 0.0).all()
            assert (np.array(result.descent_history) < 0.0).all()

    def test_stationary_start_returns_immediately(self, rng):
        sys = random_stable_system(rng, 3, 2)
        init = riccati_start(sys, 2)
        prob = LStepProblem(sys=sys, U=init.copy(), rho=5.0)
        result = lstep.solve(prob, init, tol=1e-5)
        assert result.converged
        assert result.iterations <= 1

    def test_solution_matches_stationarity_condition(self, rng):
        sys = random_stable_system(rng, 3, 1)
        init = riccati_start(sys, 2)
        prob = LStepProblem(sys=sys, U=rng.normal(size=(2, 3, 1)), rho=4.0)
        result = lstep.solve(prob, init, tol=1e-9)
        fixed = anderson_moore(prob, result.gains)
        np.testing.assert_allclose(fixed, result.gains, atol=1e-6)

    def test_carried_start_cycles_change_nothing(self, rng):
        # A solve handed its start's cycles runs as one that computes them,
        # and returns its own gains' cycles for the next solve to take.
        sys = random_stable_system(rng, 3, 2)
        init = riccati_start(sys, 2)
        prob = LStepProblem(sys=sys, U=init + rng.normal(scale=0.2, size=init.shape), rho=4.0)
        plain = lstep.solve(prob, init, tol=1e-9)
        carried = lstep.solve(prob, init, tol=1e-9, cycles=periodic._gradient_cycles(sys, init))
        assert plain.iterations > 0 and plain.phi_history == carried.phi_history
        np.testing.assert_array_equal(plain.gains, carried.gains)
        for got, own in zip(plain.cycles, periodic._gradient_cycles(sys, plain.gains)):
            np.testing.assert_array_equal(got, own)

    def test_unstable_init_rejected(self):
        sys = ps.SystemModel(
            A=np.array([[0.5]]), B=np.eye(1), C=np.eye(1), Q=np.eye(1), R=np.eye(1)
        )
        prob = LStepProblem(sys=sys, U=np.zeros((1, 1, 1)), rho=1.0)
        with pytest.raises(InstabilityError, match="initial"):
            lstep.solve(prob, np.array([[[3.0]]]))

    def test_proximal_pull_moves_toward_targets(self, rng):
        # Growing rho drags the solution toward the targets.
        sys = random_stable_system(rng, 2, 1)
        init = riccati_start(sys, 1)
        u = init + 0.3
        dists = []
        for rho in (0.1, 10.0, 1000.0):
            prob = LStepProblem(sys=sys, U=u, rho=rho)
            result = lstep.solve(prob, init, tol=1e-9)
            dists.append(float(np.linalg.norm(result.gains - u)))
        assert dists[0] > dists[1] > dists[2]


def count_calls(monkeypatch, owner, name, counts):
    """Replace owner.name by a wrapper that counts its calls in counts[name]
    and the calls that raised InstabilityError in counts[name + " unstable"]."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        try:
            return fn(*args, **kwargs)
        except InstabilityError:
            counts[name + " unstable"] += 1
            raise

    monkeypatch.setattr(owner, name, wrapper)


def unstable_problem(seed, n, m, K, top):
    """A gain subproblem on an unstable but detectable plant, started from the
    all-on Riccati gains, with random targets as in criterion 2."""
    rng = np.random.default_rng(seed)
    sys = detectable_plant(rng, n, m, top)
    prob = LStepProblem(sys=sys, U=rng.normal(size=(K, n, m)), rho=float(rng.uniform(0.5, 10.0)))
    return prob, riccati_start(sys, K)


class TestStabilityVerdict:
    """The covariance loop's radius test in the gradient cycles is the line
    search's and the start test's only stability check."""

    def test_one_eigenvalue_call_per_cycle(self, monkeypatch):
        # The plant's solve rejects destabilizing trial points; each is judged
        # by the monodromy Pi the cycles compute anyway. A loop with
        # ||Pi||_F < 1 - 1e-9 is cleared by the norm; each other cycle call,
        # and so every destabilizing one, takes one spectrum. The value loop,
        # whose monodromy is the covariance loop's transposed, takes none.
        prob, init = unstable_problem(3, 5, 5, 3, 1.1)
        counts, norms = Counter(), []
        stable_loops = periodic._stable_loops

        def recording(pi):
            norms.append(np.linalg.norm(pi, axis=(1, 2)))
            return stable_loops(pi)

        count_calls(monkeypatch, lstep, "_gradient_cycles", counts)
        monkeypatch.setattr(periodic, "_stable_loops", recording)
        count_calls(monkeypatch, np.linalg, "eigvals", counts)
        lstep.solve(prob, init, tol=1e-8)
        assert [len(n) for n in norms] == [1] * counts["_gradient_cycles"]
        uncleared = sum(int(n[0] >= 1.0 - 1e-9) for n in norms)
        assert counts["_gradient_cycles unstable"] > 0
        assert counts["eigvals"] == uncleared >= counts["_gradient_cycles unstable"]
        assert counts["eigvals"] < counts["_gradient_cycles"]

    def test_start_in_the_margin_band_rejected(self):
        # A start whose monodromy spectral radius lies in [1 - 1e-9, 1).
        sys = ps.SystemModel(
            A=np.array([[1.0 - 1e-10]]), B=np.eye(1), C=np.eye(1), Q=np.eye(1), R=np.eye(1)
        )
        prob = LStepProblem(sys=sys, U=np.zeros((1, 1, 1)), rho=1.0)
        with pytest.raises(InstabilityError, match="initial"):
            lstep.solve(prob, np.zeros((1, 1, 1)))

    def test_benchmark_solve_scores_40_trial_points(self, monkeypatch):
        exp = ps.load_experiment(BENCHMARK_CONFIG)
        assert exp.admm.gamma == 0.15
        results = []
        solve = lstep.solve

        def recording(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(lstep, "solve", recording)
        report = ps.run(exp.system, exp.admm)
        assert (report.iterations, len(results)) == (6, 6)
        assert sum(r.iterations for r in results) == 27
        assert sum(r.armijo_trials for r in results) == 40

    def test_benchmark_solve_takes_one_spectrum_per_gradient_cycles_call(self, monkeypatch):
        # One call for the first solve's start (1), per Armijo trial (40) and
        # per jump (2): each later solve starts from the gains of the last
        # solve or of a kept jump, with the cycles computed there. The norm
        # certificate clears every closed loop of the run, the cycles' and
        # evaluate_schedule's, so the 4 eigvals calls left are the
        # detectability gate's spectra of A (model._unit_circle_eigenvalues).
        exp = ps.load_experiment(BENCHMARK_CONFIG)
        counts = Counter()
        for owner in (lstep, admm):
            count_calls(monkeypatch, owner, "_gradient_cycles", counts)
        count_calls(monkeypatch, np.linalg, "eigvals", counts)
        ps.run(exp.system, exp.admm)
        assert (counts["_gradient_cycles"], counts["eigvals"]) == (43, 4)


class TestOneObjectivePerPoint:
    """Each point a solve scores, its start and every Armijo trial that
    stabilizes, takes one objective evaluation; an accepted trial's
    objective serves the next iteration."""

    def test_unstable_plant_solve(self, monkeypatch):
        prob, init = unstable_problem(3, 5, 5, 3, 1.1)
        counts = Counter()
        for name in ("_phi_from_cycle", "_gradient_cycles"):
            count_calls(monkeypatch, lstep, name, counts)
        result = lstep.solve(prob, init, tol=1e-8)
        assert result.iterations > 1 and counts["_gradient_cycles unstable"] > 0
        stable_trials = result.armijo_trials - counts["_gradient_cycles unstable"]
        assert counts["_phi_from_cycle"] == 1 + stable_trials
        assert result.phi_history[-1] == result.phi

    def test_benchmark_solve(self, monkeypatch):
        # 6 starts and 40 trials, none destabilizing: 46 evaluations, where
        # scoring each iteration's gains again took 27 more.
        exp = ps.load_experiment(BENCHMARK_CONFIG)
        counts = Counter()
        for name in ("_phi_from_cycle", "_gradient_cycles"):
            count_calls(monkeypatch, lstep, name, counts)
        ps.run(exp.system, exp.admm)
        assert counts["_gradient_cycles unstable"] == 0
        assert counts["_phi_from_cycle"] == 46


class TestOneEntry:
    """lstep.solve checks its start once, then runs on private kernels that
    trust the arrays it built."""

    def test_solve_checks_the_gains_once(self, monkeypatch):
        prob, init = unstable_problem(3, 5, 5, 3, 1.1)
        modules = [ps] + [
            importlib.import_module(f"persched.{info.name}")
            for info in pkgutil.iter_modules(ps.__path__)
        ]
        counts = Counter()
        # The gain check, and the one symmetry check left in the package,
        # wherever a module binds them.
        for owner, name in ((linalg, "_array"), (linalg, "require_symmetric")):
            fn = getattr(owner, name)
            for module in modules:
                if getattr(module, name, None) is fn:
                    count_calls(monkeypatch, module, name, counts)
        result = lstep.solve(prob, init, tol=1e-8)
        assert result.iterations > 1 and result.armijo_trials > result.iterations
        assert counts["_array"] == 1
        assert counts["require_symmetric"] == 0


def unstable_case(test):
    """Draw (seed, n, m, K, top) for unstable but detectable plants, spectral
    radius 1 to 1.2, with K = 1 and M > N always among them."""
    test = example(seed=3, n=5, m=5, K=3, top=1.1)(test)
    test = example(seed=5, n=2, m=4, K=1, top=1.2)(test)
    test = given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(1, 7),
        K=st.integers(1, 4),
        top=st.floats(1.0, 1.2),
    )(test)
    return settings(max_examples=12, deadline=None, derandomize=True, database=None)(test)


class TestUnstablePlantProperties:
    """Solves on plants whose open loop is unstable, where the line search
    meets trial points that destabilize the periodic closed loop."""

    def test_solve_keeps_criterion_2_invariants(self, monkeypatch):
        counts = Counter()
        count_calls(monkeypatch, lstep, "_gradient_cycles", counts)
        destabilizing = []

        @unstable_case
        def check(seed, n, m, K, top):
            prob, init = unstable_problem(seed, n, m, K, top)
            counts.clear()
            result = lstep.solve(prob, init, tol=1e-8)
            destabilizing.append(counts["_gradient_cycles unstable"])
            assert all(s < 0.0 for s in result.descent_history)
            assert (np.diff(result.phi_history) < 0.0).all()
            ps.covariance_limit_cycle(prob.sys, result.gains)
            assert result.armijo_trials >= result.iterations
            # One pair of cycles for the start, one per scored trial point.
            assert result.armijo_trials == counts["_gradient_cycles"] - 1

        check()
        assert sum(destabilizing) > 0

    @unstable_case
    def test_run_polishes_a_feasible_schedule(self, seed, n, m, K, top):
        rng = np.random.default_rng(seed)
        sys = detectable_plant(rng, n, m, top)
        eta = int(rng.integers(1, K + 1))
        report = ps.run(sys, ps.AdmmConfig(period=K, gamma=0.0, eta=eta, max_iters=5))
        assert (report.schedule.activation_counts <= eta).all()
        assert report.j_polished == ps.evaluate_schedule(sys, report.schedule).J
