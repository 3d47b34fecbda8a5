"""Periodic machinery: limit cycles, schedules, fixed-schedule gains."""

import itertools
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persched as ps
from persched import lstep, periodic
from persched import (
    DimensionError,
    InitializationError,
    InputError,
    InstabilityError,
    Schedule,
    SystemModel,
)
from persched.model import _pbh_rank_drop
from persched.periodic import (
    _gradient_cycles,
    check_schedule_detectability,
    chunk_length,
)
from tests import reference
from tests.conftest import (
    detectable_plant,
    random_schedule,
    random_stable_system,
    spectral_radius,
)
from tests.test_admm import hidden_mode_plant
from tests.test_baselines import LINE4_CONFIG, scalar_unstable_system


class TestSchedule:
    def test_text_round_trip(self):
        mask = np.array([[1, 0], [0, 1], [1, 1]])
        sched, again = Schedule(mask), Schedule(mask.copy())
        assert sched.to_text() == "1 0\n0 1\n1 1"
        assert again == sched
        assert hash(again) == hash(sched)

    def test_counting(self):
        sched = Schedule(np.array([[1, 0, 1], [0, 0, 1]]))
        np.testing.assert_array_equal(sched.activation_counts, [1, 0, 2])
        assert sched.total_activations == 3
        assert sched.K == 2
        assert sched.n_sensors == 3

    def test_constructors(self):
        # Any 0/1 array is a mask, kept as int8.
        assert Schedule(np.ones((2, 3))).total_activations == 6
        empty = Schedule(np.zeros((2, 3)))
        assert (empty.total_activations, empty.mask.dtype) == (0, np.int8)

    def test_rejects_non_binary(self):
        with pytest.raises(InputError, match="^mask entries must be 0 or 1$"):
            Schedule(np.array([[0, 2]]))

    def test_mask_is_read_only(self):
        sched = Schedule(np.array([[1, 0]]))
        with pytest.raises(ValueError):
            sched.mask[0, 0] = 0


def gain_plant():
    return random_stable_system(np.random.default_rng(11), 3, 2)


# Every public function that takes gains, as f(sys, gains).
GAIN_ENTRY_POINTS = {
    "covariance_limit_cycle": ps.covariance_limit_cycle,
    "schedule_from_gains": lambda sys, g: ps.schedule_from_gains(g),
    "lstep.solve": lambda sys, g: lstep.solve(sys, np.zeros((2, 3, 2)), 1.0, g),
}

# The private kernels lstep.solve runs after its one check, keyed by the
# computation each makes: the attribute and the modules that bind it.
# _first_order forms the terms of the Anderson-Moore update and the gradient.
SOLVE_KERNELS = {
    "closed_loop_factors": ("_loop", (periodic,)),
    "value_cycle": ("_gradient_cycles", (lstep,)),
    "anderson_moore_update": ("_first_order", (lstep,)),
}

GAIN_PATHS = sorted({**GAIN_ENTRY_POINTS, **SOLVE_KERNELS})


def through(monkeypatch, name):
    """The public function by which gains reach ``name``, and a list to which
    each call of the kernel ``name`` appends its array arguments (None for a
    public function)."""
    if name in GAIN_ENTRY_POINTS:
        return GAIN_ENTRY_POINTS[name], None
    attr, owners = SOLVE_KERNELS[name]
    kernel, calls = getattr(owners[0], attr), []

    def spy(*args):
        calls.append([a for a in args if isinstance(a, np.ndarray)])
        return kernel(*args)

    for owner in owners:
        monkeypatch.setattr(owner, attr, spy)
    return GAIN_ENTRY_POINTS["lstep.solve"], calls


class TestGainContract:
    """Gains are plain (K, N, M) float arrays. The public functions that take
    them check them once; lstep.solve's private kernels see only the
    read-only gains it built from checked ones, never a caller's gains or
    gains it rejected; and gains the package builds are read-only."""

    @pytest.mark.parametrize("name", GAIN_PATHS)
    def test_accepts_a_plain_array_and_leaves_it_alone(self, name, monkeypatch):
        entry, calls = through(monkeypatch, name)
        gains = np.full((2, 3, 2), 1e-3)
        entry(gain_plant(), gains)
        assert gains.flags.writeable
        np.testing.assert_array_equal(gains, np.full((2, 3, 2), 1e-3))
        if calls is not None:
            assert calls, f"lstep.solve never ran {name}"
            for arrays in calls:
                for arr in arrays:
                    assert not arr.flags.writeable
                    assert not np.shares_memory(arr, gains)

    @pytest.mark.parametrize("name", GAIN_PATHS)
    def test_rejects_non_finite_gains(self, name, monkeypatch):
        entry, calls = through(monkeypatch, name)
        gains = np.full((2, 3, 2), 1e-3)
        gains[1, 2, 0] = np.nan
        message = "^gains must be a finite real array, got non-finite entries$"
        with pytest.raises(InputError, match=message):
            entry(gain_plant(), gains)
        assert not calls

    @pytest.mark.parametrize(
        "name, shape",
        [
            pytest.param(name, shape, id=f"{name}-{'x'.join(map(str, shape))}")
            for name in GAIN_PATHS
            for shape in [(2, 3, 2, 1), (0, 3, 2), (2, 2, 2), (2, 3, 1)]
            # schedule_from_gains has no plant to match N and M against.
            if name != "schedule_from_gains" or shape[0] != 2 or len(shape) == 4
        ],
    )
    def test_rejects_a_mismatched_shape(self, name, shape, monkeypatch):
        entry, calls = through(monkeypatch, name)
        message = rf"^gains must have shape .*, got {re.escape(str(shape))}$"
        with pytest.raises(DimensionError, match=message):
            entry(gain_plant(), np.zeros(shape))
        assert not calls

    def test_single_matrix_is_a_one_step_period(self):
        sys = gain_plant()
        gain = np.full((3, 2), 1e-3)
        cycle = ps.covariance_limit_cycle(sys, gain)
        assert cycle.shape == (1, 3, 3)
        np.testing.assert_array_equal(cycle, ps.covariance_limit_cycle(sys, gain[np.newaxis]))

    def test_schedule_reads_column_norms(self):
        # Column norms 5 and 1 lead; the threshold is 1e-6 of the largest.
        gains = np.zeros((2, 3, 2))
        gains[0, :, 0] = [3.0, 4.0, 0.0]
        gains[0, :, 1] = [0.0, 0.0, 6e-6]
        gains[1, :, 0] = [2e-6, 0.0, 0.0]
        gains[1, :, 1] = [1.0, 0.0, 0.0]
        np.testing.assert_array_equal(ps.schedule_from_gains(gains).mask, [[1, 1], [0, 1]])

    def test_solve_keeps_no_reference_to_a_writeable_start(self):
        sys = gain_plant()
        init = ps.evaluate_schedule(sys, Schedule(np.ones((2, 2)))).gains.copy()
        result = lstep.solve(sys, init.copy(), 1.0, init)
        assert result.gains is not init
        before = result.gains.copy()
        init[:] = 0.0
        np.testing.assert_array_equal(result.gains, before)

    def test_package_gains_are_read_only_arrays(self):
        sys = gain_plant()
        evaluation = ps.evaluate_schedule(sys, Schedule(np.ones((2, 2))))
        solved = lstep.solve(sys, evaluation.gains + 0.1, 1.0, evaluation.gains)
        driver = ps.AdmmDriver(sys, ps.AdmmConfig(period=2, gamma=0.01, eta=2, max_iters=3))
        driver.step()
        report = ps.run(sys, ps.AdmmConfig(period=2, gamma=0.01, eta=2, max_iters=3))
        built = {
            "ScheduleEvaluation.gains": evaluation.gains,
            "LStepResult.gains": solved.gains,
            "AdmmDriver.L": driver.L,
            "SolveReport.gains_raw": report.gains_raw,
            "SolveReport.gains_polished": report.gains_polished,
        }
        for name, gains in built.items():
            assert type(gains) is np.ndarray, name
            assert gains.shape == (2, 3, 2), name
            assert not gains.flags.writeable, name


class TestCovarianceLimitCycle:
    def test_k1_all_sensors_matches_dare(self, rng):
        sys = random_stable_system(rng, 4, 2)
        gains = ps.evaluate_schedule(sys, Schedule(np.ones((1, 2)))).gains
        cycle = ps.covariance_limit_cycle(sys, gains)
        expected = scipy.linalg.solve_discrete_are(sys.A.T, sys.C.T, sys.q_eff, sys.R)
        np.testing.assert_allclose(cycle[0], expected, rtol=1e-7, atol=1e-9)

    def test_methods_agree(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            K = int(rng.integers(1, 6))
            sys = random_stable_system(rng, n, m)
            gains = ps.evaluate_schedule(sys, random_schedule(rng, K, m)).gains
            ref = ps.covariance_limit_cycle(sys, gains)
            for method in (reference.covariance_cycle_lifted, reference.covariance_cycle_recursion):
                np.testing.assert_allclose(method(sys, gains), ref, rtol=1e-8, atol=1e-9)

    def test_satisfies_recursion(self, rng):
        sys = random_stable_system(rng, 3, 2)
        gains = ps.evaluate_schedule(sys, Schedule(np.array([[1, 0], [0, 1], [1, 1]]))).gains
        cycle = ps.covariance_limit_cycle(sys, gains)
        # The largest one-step defect ||P_{k+1} - (F_k P_k F_k^T + W_k)||_F, with wraparound.
        factors, noise = reference._loop(sys, gains)
        predicted = factors @ cycle @ factors.transpose(0, 2, 1) + noise
        assert np.linalg.norm(np.roll(cycle, -1, axis=0) - predicted, axis=(1, 2)).max() < 1e-10

    def test_zero_gains_reduce_to_lyapunov(self, rng):
        sys = random_stable_system(rng, 3, 1)
        gains = np.zeros((2, 3, 1))
        cycle = ps.covariance_limit_cycle(sys, gains)
        expected = scipy.linalg.solve_discrete_lyapunov(sys.A, sys.q_eff)
        np.testing.assert_allclose(cycle[0], expected, rtol=1e-9)
        np.testing.assert_allclose(cycle[1], expected, rtol=1e-9)

    def test_unstable_loop_raises(self):
        sys = SystemModel(
            A=np.array([[1.5]]), B=np.eye(1), C=np.eye(1), Q=np.eye(1), R=np.eye(1)
        )
        with pytest.raises(InstabilityError, match="monodromy"):
            ps.covariance_limit_cycle(sys, np.zeros((2, 1, 1)))


def value_next(sys, gains):
    """V_1, ..., V_K, the value cycle half of periodic._gradient_cycles."""
    return _gradient_cycles(sys, gains)[1]


def value_cycle(sys, gains):
    """V_0, ..., V_{K-1} from the kernel's V_1, ..., V_K."""
    return np.roll(value_next(sys, gains), 1, axis=0)


class TestValueCycle:
    """The value cycle the gain step reads, from periodic._gradient_cycles."""

    def test_satisfies_recursion(self, rng):
        sys = random_stable_system(rng, 3, 2)
        gains = ps.evaluate_schedule(sys, Schedule(np.array([[1, 1], [1, 0]]))).gains
        values = value_cycle(sys, gains)
        factors = reference.closed_loop(sys, gains)
        for k in range(2):
            expected = factors[k].T @ values[(k + 1) % 2] @ factors[k] + np.eye(3)
            np.testing.assert_allclose(values[k], expected, rtol=1e-9, atol=1e-10)

    def test_methods_agree(self, rng):
        sys = random_stable_system(rng, 3, 1)
        gains = ps.evaluate_schedule(sys, Schedule(np.array([[1], [0], [1], [0]]))).gains
        ref = value_cycle(sys, gains)
        for method in (reference.value_cycle_lifted, reference.value_cycle_recursion):
            other = method(sys, gains)
            assert len(other) == len(ref)
            for a, b in zip(ref, other):
                np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-9)

    def test_dominates_identity(self, rng):
        sys = random_stable_system(rng, 4, 2)
        gains = ps.evaluate_schedule(sys, Schedule(np.ones((3, 2)))).gains
        for v in value_next(sys, gains):
            assert np.linalg.eigvalsh(v - np.eye(4)).min() > -1e-10


def monodromy(sys, gains):
    """F_{K-1} ... F_0, the product of the closed-loop factors."""
    pi = np.eye(sys.n_states)
    for factor in reference.closed_loop(sys, gains):
        pi = factor @ pi
    return pi


def monodromy_radius(sys, gains):
    """Spectral radius of the closed-loop monodromy."""
    return spectral_radius(monodromy(sys, gains))


class TestMonodromy:
    def test_default_cycles_compute_eigenvalues_once(self, rng, monkeypatch):
        # The kernel's radius test on the monodromy is the cycle's only one,
        # and it takes a spectrum only for a loop its norm certificate,
        # ||Pi||_F < 1 - 1e-9, cannot clear: the first gains are cleared,
        # the second, with the same spectrum and a large ||Pi||_F, are not.
        sys = random_stable_system(rng, 4, 2)
        gains = ps.evaluate_schedule(sys, Schedule(np.ones((3, 2)))).gains
        skew, unskew = np.diag([1e3, 1.0, 1.0, 1.0]), np.diag([1e-3, 1.0, 1.0, 1.0])
        skewed = SystemModel(
            A=skew @ sys.A @ unskew, B=skew @ sys.B, C=sys.C @ unskew, Q=sys.Q, R=sys.R
        )
        cases = ((sys, gains, []), (skewed, skew @ gains, ["eigvals"]))
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        for plant, loop_gains, expected in cases:
            norm = np.linalg.norm(monodromy(plant, loop_gains))
            assert (norm >= 1.0 - 1e-9) == bool(expected)
        for name in ("eig", "eigvals", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        for plant, loop_gains, expected in cases:
            for cycle_fn in (ps.covariance_limit_cycle, value_next):
                calls.clear()
                cycle_fn(plant, loop_gains)
                assert calls == expected

    def test_stability_margin(self, rng):
        # Stable exactly when the monodromy spectral radius is below 1 - 1e-9,
        # the PBH gate's margin; with zero gains over K = 2 the monodromy is
        # A^2. The third radius lies in the band [1 - 1e-9, 1).
        gains = np.zeros((2, 3, 1))
        cases = ((0.5, True), (0.999, True), (np.sqrt(1.0 - 1e-10), False), (1.001, False))
        for radius, stable in cases:
            sys = random_stable_system(rng, 3, 1, radius=radius)
            rho = monodromy_radius(sys, gains)
            assert rho == pytest.approx(radius**2, rel=1e-9)
            assert (rho < 1.0 - 1e-9) is stable
            for cycle_fn in (ps.covariance_limit_cycle, value_next):
                if stable:
                    cycle_fn(sys, gains)
                    continue
                with pytest.raises(InstabilityError, match="monodromy") as info:
                    cycle_fn(sys, gains)
                assert ">= 1 - 1e-09" in str(info.value)


class TestObjective:
    def test_equals_mean_trace(self, rng):
        sys = random_stable_system(rng, 3, 2)
        result = ps.evaluate_schedule(sys, Schedule(np.ones((2, 2))))
        cycle = ps.covariance_limit_cycle(sys, result.gains)
        expected = (np.trace(cycle[0]) + np.trace(cycle[1])) / 2.0
        assert result.J == pytest.approx(expected, rel=1e-12)
        assert periodic._trace_sum(cycle) / 2 == pytest.approx(expected, rel=1e-12)

    def test_mean_and_sum(self):
        # The trace sum runs over the last two axes and the period axis
        # before them, one figure per leading index.
        stack = np.stack([np.eye(2), 3.0 * np.eye(2)])
        assert periodic._trace_sum(stack) == 8.0
        np.testing.assert_array_equal(periodic._trace_sum(np.stack([stack, 2 * stack])), [8, 16])


class TestScheduleFromGains:
    def test_threshold_behavior(self):
        gains = np.zeros((2, 2, 2))
        gains[0, :, 0] = [1.0, 0.0]
        gains[1, :, 1] = [1e-9, 0.0]
        sched = ps.schedule_from_gains(gains)
        np.testing.assert_array_equal(sched.mask, [[1, 0], [0, 0]])
        # The threshold is relative: uniformly tiny gains keep every column,
        # and only all-zero gains give an empty schedule.
        np.testing.assert_array_equal(ps.schedule_from_gains(np.full((2, 2, 2), 1e-20)).mask, 1)
        np.testing.assert_array_equal(ps.schedule_from_gains(np.zeros((2, 2, 2))).mask, 0)


class TestInitGainsForSchedule:
    def test_k1_matches_classical_kalman_gain(self, rng):
        sys = random_stable_system(rng, 4, 2)
        gains = ps.evaluate_schedule(sys, Schedule(np.ones((1, 2)))).gains
        p = scipy.linalg.solve_discrete_are(sys.A.T, sys.C.T, sys.q_eff, sys.R)
        expected = sys.A @ p @ sys.C.T @ np.linalg.inv(sys.C @ p @ sys.C.T + sys.R)
        np.testing.assert_allclose(gains[0], expected, rtol=1e-7, atol=1e-9)

    def test_sparsity_pattern_is_exact(self, rng):
        sys = random_stable_system(rng, 3, 3)
        mask = np.array([[1, 0, 1], [0, 1, 0]])
        gains = ps.evaluate_schedule(sys, Schedule(mask)).gains
        norms = np.linalg.norm(gains, axis=1)
        assert (norms[mask == 0] == 0.0).all()
        assert (norms[mask == 1] > 0.0).all()

    def test_cyclic_and_lifted_agree(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            K = int(rng.integers(1, 5))
            sys = random_stable_system(rng, n, m)
            sched = random_schedule(rng, K, m)
            a = ps.evaluate_schedule(sys, sched).gains
            b = reference.lifted_riccati_gains(sys, sched)
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-8)

    def test_empty_schedule_on_stable_plant(self, rng):
        sys = random_stable_system(rng, 3, 2)
        gains = ps.evaluate_schedule(sys, Schedule(np.zeros((2, 2)))).gains
        np.testing.assert_array_equal(gains, np.zeros((2, 3, 2)))

    def test_undetectable_schedule_raises(self):
        sys = SystemModel(
            A=np.array([[1.2]]), B=np.eye(1), C=np.eye(1), Q=np.eye(1), R=np.eye(1)
        )
        with pytest.raises(InitializationError, match="undetectable"):
            ps.evaluate_schedule(sys, Schedule(np.zeros((2, 1))))
        check_schedule_detectability(sys, Schedule(np.ones((2, 1))))

    def test_mismatched_sensor_count(self, rng):
        sys = random_stable_system(rng, 2, 2)
        message = r"^sched\.mask must have shape \(K, 2\), got \(2, 3\)$"
        with pytest.raises(DimensionError, match=message):
            ps.evaluate_schedule(sys, Schedule(np.ones((2, 3))))


def modal_plant(rng, poles, visible):
    """Plant with eigenvalues ``poles`` in a random basis, where sensor m sees
    mode j exactly when visible[m][j] is set."""
    n, m = len(poles), len(visible)
    basis = rng.normal(size=(n, n))
    inverse = np.linalg.inv(basis)
    c_modal = rng.normal(size=(m, n)) * np.asarray(visible, dtype=float)
    a = basis @ np.diag(poles) @ inverse
    return SystemModel(A=a, B=np.eye(n), C=c_modal @ inverse, Q=np.eye(n), R=np.eye(m))


def gate_rejects(sys, mask):
    try:
        check_schedule_detectability(sys, Schedule(np.asarray(mask)))
    except InitializationError:
        return True
    return False


class TestDetectabilityGate:
    def test_k1_gate_matches_validate_assumptions(self, rng):
        # Sensor 0 alone sees the unstable mode of the first plant; the rest
        # have two unstable modes, each seen by a random subset of sensors,
        # or are dense random unstable plants.
        plants = [modal_plant(rng, [1.3, 0.5, -0.2], [[1, 1, 1], [0, 1, 1], [0, 1, 0]])]
        for _ in range(12):
            visible = np.ones((3, 4), dtype=int)
            visible[:, :2] = rng.random((3, 2)) < 0.5
            plants.append(modal_plant(rng, [1.2, -1.05, 0.6, 0.1], visible))
        for _ in range(4):
            a = rng.normal(size=(3, 3))
            a *= rng.uniform(1.05, 1.5) / spectral_radius(a)
            sensors = rng.normal(size=(2, 3))
            plants.append(SystemModel(A=a, B=np.eye(3), C=sensors, Q=np.eye(3), R=np.eye(2)))
        verdicts = []
        for sys in plants:
            for row in itertools.product((0, 1), repeat=sys.n_sensors):
                active = np.array(row, dtype=bool)
                if not active.any():
                    continue
                restricted = SystemModel(
                    A=sys.A, B=sys.B, C=sys.C[active], Q=sys.Q, R=sys.R[np.ix_(active, active)]
                )
                check = {c.name: c for c in ps.validate_assumptions(restricted).checks}
                rejected = gate_rejects(sys, [row])
                assert rejected == (not check["(A, C) detectable"].passed), (sys.A, row)
                verdicts.append(rejected)
        assert any(verdicts) and not all(verdicts)
        single = plants[0]
        for row in itertools.product((0, 1), repeat=3):
            if any(row):
                assert gate_rejects(single, [row]) == (row[0] == 0)

    def test_rank_drop_at_a_computed_eigenvalue_of_a_non_normal_plant(self):
        # With no sensor rows the unstable mode at 1.2 is unobserved, but the
        # pencil A - lam I at the computed lam keeps a smallest singular value
        # of about 4.7 times matrix_rank's default tolerance on this plant.
        sys = detectable_plant(np.random.default_rng(29), 3, 1, 1.2)
        lam = _pbh_rank_drop(sys.A, np.zeros((0, 3)))
        assert lam == pytest.approx(1.2, rel=1e-12)
        with pytest.raises(InitializationError, match="undetectable at eigenvalue 1.2"):
            check_schedule_detectability(sys, Schedule(np.zeros((1, 1))))

    def test_gate_matches_pbh_on_the_reference_lift(self, rng):
        # The gate builds the block-cyclic lifted A and the block-diagonal
        # lifted C in place; the PBH test on the lifted pair built by the
        # references gives the same verdict for every mask at K = 2 and 3.
        sys = modal_plant(rng, [1.3, -1.1, 0.4], [[1, 0, 1], [0, 1, 1]])
        for K in (2, 3):
            a_lift = reference.lift([sys.A] * K)
            c_lift = reference.lift([sys.C] * K, cyclic=False)
            verdicts = set()
            for bits in itertools.product((0, 1), repeat=K * sys.n_sensors):
                mask = np.reshape(bits, (K, sys.n_sensors))
                hidden = _pbh_rank_drop(a_lift, c_lift[np.reshape(mask, -1) == 1]) is not None
                assert gate_rejects(sys, mask) == hidden, mask
                verdicts.add(hidden)
            assert verdicts == {True, False}

    def test_one_step_observation_passes_at_k3(self, rng):
        sys = modal_plant(rng, [1.3, 0.5, -0.2], [[1, 1, 1], [0, 1, 1], [0, 1, 0]])
        once = [[1, 0, 0], [0, 1, 1], [0, 1, 1]]
        assert not gate_rejects(sys, once)
        assert np.isfinite(ps.evaluate_schedule(sys, Schedule(np.array(once))).J)
        with pytest.raises(InitializationError, match="undetectable at eigenvalue"):
            ps.evaluate_schedule(sys, Schedule(np.array([[0, 1, 1]] * 3)))


class TestEvaluateSchedule:
    def test_consistent_with_components(self, rng):
        sys = random_stable_system(rng, 3, 2)
        sched = Schedule(np.array([[1, 0], [1, 1]]))
        result = ps.evaluate_schedule(sys, sched)
        assert result._fields == ("J", "gains")
        cycle = ps.covariance_limit_cycle(sys, result.gains)
        assert result.J == pytest.approx(np.trace(cycle, axis1=1, axis2=2).mean(), rel=1e-12)

    def test_small_covariances_keep_their_gains(self):
        # The scalar plant A = 0.9, C = 1, Q = R = s: J / s and the gain do
        # not depend on s, so the settle test must not either.
        def scaled(s):
            sys = SystemModel(A=[[0.9]], B=[[1.0]], C=[[1.0]], Q=[[s]], R=[[s]])
            result = ps.evaluate_schedule(sys, Schedule(np.ones((1, 1))))
            return result.J / s, result.gains[0, 0, 0]

        np.testing.assert_allclose(scaled(1e-20), scaled(1.0), rtol=1e-12, atol=0.0)

    def test_more_measurements_never_hurt(self, rng):
        for _ in range(5):
            sys = random_stable_system(rng, 3, 2)
            partial = random_schedule(rng, 3, 2)
            full = Schedule(np.ones((3, 2)))
            assert ps.evaluate_schedule(sys, full).J <= ps.evaluate_schedule(
                sys, partial
            ).J + 1e-9


def restricted_riccati_J(sys, mask, tol=1e-10, max_sweeps=10000):
    """Reference J: each step's Riccati update restricted to the active rows
    of C and the active block of R, iterated to the same stopping rule as the
    library, then scored by the default covariance limit cycle."""
    K, n, m = mask.shape[0], sys.n_states, sys.n_sensors

    def step(p, active):
        idx = np.flatnonzero(active)
        c_s, r_ss = sys.C[idx], sys.R[np.ix_(idx, idx)]
        cross = sys.A @ p @ c_s.T
        gain_s = np.linalg.solve((c_s @ p @ c_s.T + r_ss).T, cross.T).T
        gain = np.zeros((n, m))
        gain[:, idx] = gain_s
        p_next = sys.q_eff + sys.A @ p @ sys.A.T - gain_s @ cross.T
        return gain, (p_next + p_next.T) / 2

    p = sys.q_eff.copy()
    for _ in range(max_sweeps):
        start = p
        for k in range(K):
            _, p = step(p, mask[k])
        if np.linalg.norm(p - start) <= tol * max(1.0, np.linalg.norm(p)):
            break
    else:
        raise AssertionError("reference Riccati iteration did not settle")
    gains = np.empty((K, n, m))
    for k in range(K):
        gains[k], p = step(p, mask[k])
    cycle = ps.covariance_limit_cycle(sys, gains)
    return float(np.trace(cycle, axis1=1, axis2=2).mean())


def random_masks(rng, T, K, m):
    return (rng.random((T, K, m)) < 0.5).astype(np.int8)


def unstable_three_state_system():
    """Unstable mode 1.1 seen only by sensor 0; the other modes are stable."""
    return SystemModel(
        A=np.array([[1.1, 0.2, 0.0], [0.0, 0.5, 0.1], [0.0, 0.0, 0.3]]),
        B=np.eye(3),
        C=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
        Q=np.eye(3),
        R=np.array([[1.0, 0.3], [0.3, 2.0]]),
    )


class TestEvaluateSchedules:
    @pytest.mark.parametrize(
        "n, m, K, T",
        [(3, 2, 3, 12), (4, 3, 1, 9), (2, 4, 3, 10), (3, 2, 4, 1), (25, 4, 4, 40)],
        ids=["stable", "K=1", "M>N", "T=1", "partial-chunk"],
    )
    def test_matches_restricted_reference(self, rng, n, m, K, T):
        sys = random_stable_system(rng, n, m)
        masks = random_masks(rng, T, K, m)
        if n == 25:  # one full chunk and a partial one
            assert chunk_length(n, K) < T < 2 * chunk_length(n, K)
        values = ps.evaluate_schedules(sys, masks)
        expected = [restricted_riccati_J(sys, mask) for mask in masks]
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)

    def test_equals_evaluate_schedule(self, rng):
        sys = random_stable_system(rng, 4, 3)
        for _ in range(6):
            sched = random_schedule(rng, 3, 3, min_total=0)
            single = ps.evaluate_schedule(sys, sched).J
            assert ps.evaluate_schedules(sys, sched.mask[np.newaxis])[0] == single

    def test_J_ignores_companions_at_benchmark_size(self, benchmark_sys):
        # The hypothesis plants are too small to reach the sizes where BLAS
        # switches kernels. On the 25-state benchmark plant at K = 10, 30
        # draws span two full chunks and a partial one, and each J must equal
        # the J of its schedule scored alone, bit for bit.
        masks = random_masks(np.random.default_rng(7), 30, 10, benchmark_sys.n_sensors)
        step = chunk_length(benchmark_sys.n_states, 10)
        assert 2 * step < len(masks) < 3 * step
        values = ps.evaluate_schedules(benchmark_sys, masks)
        expected = [ps.evaluate_schedule(benchmark_sys, Schedule(mask)).J for mask in masks]
        np.testing.assert_array_equal(values, expected)

    def test_inactive_gain_columns_are_exactly_zero(self, rng):
        sys = random_stable_system(rng, 4, 3)
        mask = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]])
        gains = ps.evaluate_schedule(sys, Schedule(mask)).gains
        inactive = gains.transpose(0, 2, 1)[mask == 0]
        assert (inactive == 0.0).all()
        assert not np.signbit(inactive).any()
        assert (gains.transpose(0, 2, 1)[mask == 1] != 0.0).any(axis=1).all()

    @pytest.mark.parametrize("unstable", ["scalar", "three-state"])
    def test_invalid_schedules_give_nan_where_evaluate_schedule_raises(self, rng, unstable):
        sys = scalar_unstable_system() if unstable == "scalar" else unstable_three_state_system()
        masks = random_masks(rng, 24, 3, sys.n_sensors)
        masks[0] = 0
        values = ps.evaluate_schedules(sys, masks)
        raised = []
        for mask, value in zip(masks, values):
            try:
                expected = ps.evaluate_schedule(sys, Schedule(mask)).J
            except (InitializationError, InstabilityError):
                raised.append(True)
                continue
            raised.append(False)
            assert value == expected
        assert 0 < sum(raised) < len(masks)
        np.testing.assert_array_equal(np.isnan(values), raised)

    def test_rejects_bad_masks(self, rng):
        sys = random_stable_system(rng, 2, 2)
        message = r"^masks must have shape \(T, K, 2\), got \(3, 2\)$"
        with pytest.raises(DimensionError, match=message):
            ps.evaluate_schedules(sys, np.ones((3, 2)))
        message = r"^masks must have shape \(T, K, 2\), got \(1, 2, 3\)$"
        with pytest.raises(DimensionError, match=message):
            ps.evaluate_schedules(sys, np.ones((1, 2, 3)))
        with pytest.raises(InputError, match="^masks entries must be 0 or 1$"):
            ps.evaluate_schedules(sys, np.full((1, 2, 2), 2))


def hard_plant(rng, n, m, cond_r, unstable):
    """Plant with a dense, correlated R of condition number ``cond_r`` and,
    when ``unstable``, one real mode at 1.2, which leaves the schedules that
    do not see it undetectable; the other modes lie within 0.9 of the
    origin."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    t = np.triu(rng.normal(scale=0.3, size=(n, n)), 1)
    np.fill_diagonal(t, rng.uniform(-0.9, 0.9, size=n))
    if unstable:
        t[0, 0] = 1.2
    u, _ = np.linalg.qr(rng.normal(size=(m, m)))
    r = (u * np.geomspace(1.0, cond_r, m)) @ u.T
    return SystemModel(A=q @ t @ q.T, B=np.eye(n), C=rng.normal(size=(m, n)), Q=np.eye(n), R=r)


def hard_masks(rng, K, m):
    """A random stack led by the all-empty and the all-on schedule, then one
    schedule with a step that measures nothing and one with a step that
    measures everything."""
    masks = (rng.random((int(rng.integers(4, 10)), K, m)) < rng.uniform(0.2, 0.8)).astype(np.int8)
    masks[0], masks[1] = 0, 1
    masks[2, rng.integers(K)] = 0
    masks[3, rng.integers(K)] = 1
    return masks


def single_J(sys, mask):
    """evaluate_schedule's J, or NaN where it raises."""
    try:
        return ps.evaluate_schedule(sys, Schedule(mask)).J
    except (InitializationError, InstabilityError):
        return np.nan


def hard_case(test):
    """Draw (seed, n, m, K, cond(R), unstable) for the masked-Riccati
    properties, with the named corners always among the examples."""
    test = example(seed=3, n=2, m=5, K=1, cond_r=1e6, unstable=True)(test)
    test = example(seed=4, n=3, m=10, K=3, cond_r=1e4, unstable=False)(test)
    test = given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(1, 12),
        K=st.integers(1, 4),
        cond_r=st.sampled_from([1.0, 1e2, 1e4, 1e6]),
        unstable=st.booleans(),
    )(test)
    return settings(max_examples=40, deadline=None, derandomize=True, database=None)(test)


class TestMaskedRiccatiProperties:
    """evaluate_schedules on plants beyond the stable diffusion family:
    dense correlated R with cond(R) up to 1e6, an unstable but detectable A,
    M > N, K = 1, and steps that measure nothing or everything."""

    @hard_case
    def test_matches_restricted_reference(self, seed, n, m, K, cond_r, unstable):
        rng = np.random.default_rng(seed)
        sys = hard_plant(rng, n, m, cond_r, unstable)
        masks = hard_masks(rng, K, m)
        values = ps.evaluate_schedules(sys, masks)
        if not unstable:
            assert np.isfinite(values).all()
        # Both sides are backward stable; their J differ by the roundoff the
        # innovation's conditioning, at most cond(R), amplifies.
        rtol = max(1e-12, 10.0 * np.linalg.cond(sys.R) * np.finfo(float).eps)
        for mask, value in zip(masks, values):
            if np.isfinite(value):
                np.testing.assert_allclose(value, restricted_riccati_J(sys, mask), rtol=rtol)

    @hard_case
    def test_J_ignores_companions_in_the_stack(self, seed, n, m, K, cond_r, unstable):
        # Neighbours whose leading rows agree share those steps of the period
        # map, so the stacks include runs of equal prefixes: sorted with
        # duplicates, one mask repeated, and pairs that differ in the last
        # row only. On an unstable plant the detectability gate drops
        # schedules first, so the neighbours of a chunk are not the stack's.
        rng = np.random.default_rng(seed)
        sys = hard_plant(rng, n, m, cond_r, unstable)
        masks = hard_masks(rng, K, m)
        flipped = masks.copy()
        flipped[:, -1, rng.integers(m)] ^= 1
        order = np.concatenate([rng.permutation(len(masks)), rng.integers(len(masks), size=4)])
        duplicated = masks[order]
        stacks = {
            "unsorted, with duplicates": duplicated,
            "sorted, with duplicates": duplicated[
                np.lexsort(duplicated.reshape(len(duplicated), -1).T[::-1])
            ],
            "one mask repeated": np.repeat(masks[rng.integers(len(masks))][np.newaxis], 5, axis=0),
            "pairs that differ in the last row": np.stack([masks, flipped], axis=1).reshape(-1, K, m),
        }
        single = {x.tobytes(): single_J(sys, x) for x in np.concatenate([masks, flipped])}
        for name, stack in stacks.items():
            expected = [single[x.tobytes()] for x in stack]
            np.testing.assert_array_equal(ps.evaluate_schedules(sys, stack), expected, err_msg=name)

    @hard_case
    def test_inactive_gain_columns_are_positive_zero(self, seed, n, m, K, cond_r, unstable):
        rng = np.random.default_rng(seed)
        sys = hard_plant(rng, n, m, cond_r, unstable)
        for mask in hard_masks(rng, K, m):
            try:
                gains = ps.evaluate_schedule(sys, Schedule(mask)).gains
            except InitializationError:
                assert unstable
                continue
            inactive = gains.transpose(0, 2, 1)[mask == 0]
            assert (inactive == 0.0).all() and not np.signbit(inactive).any()


class TestStableLoops:
    """_stable_loops' norm certificate, rho(Pi) <= ||Pi||_F, lets a loop skip
    the eigensolve only when it proves the loop stable: its verdicts are the
    radius rule's, and the eigensolve sees exactly the loops it cannot clear."""

    @staticmethod
    def assert_radius_rule(monkeypatch, pi):
        seen, eigvals = [], np.linalg.eigvals
        expected = np.flatnonzero(np.abs(eigvals(pi)).max(1) < 1 - 1e-9)
        with np.errstate(over="ignore"):  # an infinite norm does not clear
            uncleared = np.array([x for x in pi if not np.linalg.norm(x) < 1 - 1e-9])

        def recording(x):
            seen.extend(x)
            return eigvals(x)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, stable = periodic._stable_loops(pi)
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        np.testing.assert_array_equal(stable, expected)
        shape = (-1, *pi.shape[1:])
        np.testing.assert_array_equal(np.reshape(seen, shape), np.reshape(uncleared, shape))
        return rho

    @hard_case
    def test_hard_case_monodromies(self, seed, n, m, K, cond_r, unstable):
        # The Riccati loops of a hard_case draw, each also scaled to
        # ||Pi||_F = 0.5 (cleared) and to radius 1.1 (unstable, not cleared),
        # and the open loop A^K.
        rng = np.random.default_rng(seed)
        sys = hard_plant(rng, n, m, cond_r, unstable)
        loops = [np.linalg.matrix_power(sys.A, K)]
        for mask in hard_masks(rng, K, m):
            try:
                pi = monodromy(sys, ps.evaluate_schedule(sys, Schedule(mask)).gains)
            except InitializationError:
                continue
            loops += [pi, 0.5 * pi / np.linalg.norm(pi)]
            if spectral_radius(pi) > 0.0:
                loops.append(1.1 * pi / spectral_radius(pi))
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_radius_rule(monkeypatch, np.stack(loops))

    def test_corner_loops(self, monkeypatch):
        # Cleared: 0, tiny, 0.3 I. Not cleared: a non-normal stable loop with
        # rho = 0.5 and ||Pi||_F about 10.02, a radius in the margin band
        # [1 - 1e-9, 1), a radius of 1.1, entries near 1e200 whose squared
        # norm would overflow, one loop stable and one not, and a loop whose
        # Frobenius norm itself lies past the float range.
        pi = np.stack(
            [
                np.zeros((2, 2)),
                1e-320 * np.eye(2),
                0.3 * np.eye(2),
                [[0.5, 10.0], [0.0, 0.5]],
                np.diag([1.0 - 5e-10, 0.0]),
                np.diag([1.1, 0.2]),
                [[0.5, 1e200], [0.0, 0.5]],
                [[1e200, 0.0], [0.0, 0.5]],
                [[1.5e308, 1.5e308], [0.0, 0.5]],
            ]
        )
        assert np.linalg.norm(pi[3]) == pytest.approx(10.02, abs=0.005)
        rho = self.assert_radius_rule(monkeypatch, pi)
        np.testing.assert_allclose(rho[3:], [0.5, 1 - 5e-10, 1.1, 0.5, 1e200, 1.5e308], rtol=1e-12)
        assert 0.0 <= rho[1] < 1e-300 and rho[2] == pytest.approx(0.3 * np.sqrt(2.0))

    def test_non_finite_loops_read_radius_inf(self, monkeypatch):
        # An infinite or NaN entry makes a loop unstable at radius inf with
        # no eigensolve; the finite loops beside it are judged as before.
        pi = np.stack(
            [
                0.3 * np.eye(2),
                [[np.inf, 0.0], [0.0, 0.5]],
                [[np.nan, 0.0], [0.0, 0.5]],
                [[0.5, -np.inf], [np.inf, 0.5]],
                np.diag([1.1, 0.2]),
            ]
        )
        seen, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda x: seen.append(x) or eigvals(x))
        rho, stable = periodic._stable_loops(pi)
        np.testing.assert_array_equal(stable, [0])
        np.testing.assert_array_equal(rho[1:4], np.inf)
        assert rho[4] == pytest.approx(1.1, rel=1e-12)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], pi[4:])

    @pytest.mark.parametrize(
        "entry",
        [
            ps.covariance_limit_cycle,
            lambda sys, gains: lstep.solve(sys, np.zeros(gains.shape), 10.0, gains),
        ],
        ids=["covariance_limit_cycle", "lstep.solve"],
    )
    @pytest.mark.parametrize("size", [1e40, 1e200])
    def test_overflowed_monodromy_is_unstable(self, size, entry, benchmark_sys, monkeypatch):
        # Gains of this size overflow the product around the period (and at
        # 1e200 the noises too): the loop reads radius inf, takes no
        # eigensolve, and is refused as unstable, like any other.
        seen, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda x: seen.append(x) or eigvals(x))
        gains = np.full((10, 25, 10), size)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InstabilityError) as info:
                entry(benchmark_sys, gains)
        cause = info.value.__cause__ or info.value
        assert str(cause) == "monodromy spectral radius inf >= 1 - 1e-09"
        assert not seen


def monodromy_case(test):
    """Draw (seed, n, m, K, top): stable plants (top = 0) and unstable but
    detectable ones (top 1 to 1.2) under schedules that keep them
    detectable, with K = 1 and M > N among them."""
    test = example(seed=4, n=3, m=2, K=4, top=0.0)(test)
    test = example(seed=5, n=2, m=4, K=1, top=1.2)(test)
    test = example(seed=6, n=3, m=5, K=3, top=1.0)(test)
    test = given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        m=st.integers(1, 5),
        K=st.integers(1, 4),
        top=st.one_of(st.just(0.0), st.floats(1.0, 1.2)),
    )(test)
    return settings(max_examples=24, deadline=None, derandomize=True, database=None)(test)


class TestMonodromyFromThePeriodMap:
    """_periodic_riccati judges a schedule's closed loop by the period map's
    derivative at its fixed point X: Pi^T = (I + G X)^-1 E of the undoubled
    (E, G). That is the transposed product of the factors A - L_k C of the
    gains evaluate_schedule returns, and _stable_loops gives both the same
    verdict."""

    # Forward error of a product of K factors, and of a solve in I + G X,
    # is a small multiple of K N eps times the product of the factors'
    # norms, and of cond(I + G X) times the norms of E and the solution
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # 3.5 and 7.1); 2^10 of it covers the period map's rank-M updates that
    # built E and G.
    SLACK = 2.0**10

    @monodromy_case
    def test_solve_is_the_product_of_the_closed_loop_factors(self, seed, n, m, K, top):
        rng = np.random.default_rng(seed)
        sys = random_stable_system(rng, n, m) if top == 0.0 else detectable_plant(rng, n, m, top)
        mask = (rng.random((K, m)) < 0.5).astype(np.int8)
        if gate_rejects(sys, mask):
            mask[:] = 1
        seen, stable_loops = [], periodic._stable_loops
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(periodic, "_stable_loops", lambda x: seen.append(x) or stable_loops(x))
            gains = ps.evaluate_schedule(sys, Schedule(mask)).gains
        (e, g, h), _ = period_triple(sys, mask[np.newaxis])
        _, x = periodic._doubled_fixed_point(e, g, h)
        lhs = np.eye(n) + g[0] @ x[0]
        pi_t = np.linalg.solve(lhs, e[0])
        # The kernel's verdict reads exactly this solve, and nothing else.
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], pi_t[np.newaxis])
        factors = reference.closed_loop(sys, gains)
        product = monodromy(sys, gains)
        scale = np.prod([np.linalg.norm(f) for f in factors]) + np.linalg.cond(lhs) * (
            np.linalg.norm(pi_t) + np.linalg.norm(e[0])
        )
        tol = self.SLACK * K * n * np.finfo(float).eps * scale
        np.testing.assert_allclose(pi_t.T, product, rtol=0.0, atol=tol)
        rho, stable = stable_loops(np.stack([pi_t, product]))
        np.testing.assert_array_equal(stable, [0, 1])
        assert abs(rho[0] - rho[1]) <= tol


def period_triple(sys, masks):
    """periodic._period_map's (E, G, H) of a (T, K, M) 0/1 stack, with the
    masked operands it was built from."""
    ops = periodic._masked_operands(sys, masks == 1)
    return periodic._period_map(sys, masks == 1, *ops), ops


def riccati_steps(sys, p, ops):
    """P_0, ..., P_K of K periodic._riccati_step calls from the (T, N, N) P
    on the _masked_operands ops."""
    out = [p]
    for k in range(ops[0].shape[1]):
        out.append(periodic._riccati_step(sys, out[-1], *(x[:, k] for x in ops))[1])
    return out


def random_psd(rng, T, n):
    half = rng.normal(size=(T, n, n))
    return half @ half.transpose(0, 2, 1)


# The open ROADMAP item on the doubled Riccati cycle's drift, by its title,
# which re-anchors do not renumber.
NEAR_CIRCLE_ITEM = "ROADMAP: J near the unit circle from the gains' own cycle"


class TestPeriodicDoubling:
    """The fixed-schedule kernel: the period map as one (E, G, H) triple and
    its doubling, on the plants of TestMaskedRiccatiProperties."""

    @hard_case
    def test_triple_is_the_period_of_riccati_steps(self, seed, n, m, K, cond_r, unstable):
        rng = np.random.default_rng(seed)
        sys = hard_plant(rng, n, m, cond_r, unstable)
        masks = hard_masks(rng, K, m)
        (e, g, h), ops = period_triple(sys, masks)
        x = random_psd(rng, len(masks), n)
        mapped = h + e.transpose(0, 2, 1) @ x @ np.linalg.solve(np.eye(n) + g @ x, e)
        stepped = riccati_steps(sys, x, ops)[-1]
        # Each step's G and E updates carry the roundoff of the innovation
        # S_k = c_k H c_k^T + r_k's inverse, whose conditioning cond(R) bounds.
        rtol = 1e3 * np.linalg.cond(sys.R) * np.finfo(float).eps
        scale = np.linalg.norm(stepped, axis=(1, 2))
        assert (np.linalg.norm(mapped - stepped, axis=(1, 2)) <= rtol * scale).all()

    @hard_case
    def test_doubled_fixed_point_solves_the_period_equation(self, seed, n, m, K, cond_r, unstable):
        # Every detectable schedule settles; its P_0 comes back to itself
        # after one period of Riccati steps.
        rng = np.random.default_rng(seed)
        sys = hard_plant(rng, n, m, cond_r, unstable)
        masks = hard_masks(rng, K, m)
        (e, g, h), ops = period_triple(sys, masks)
        with np.errstate(all="ignore"):
            settled, p = periodic._doubled_fixed_point(e, g, h)
        hidden_mode = periodic._detectability_gate(sys, K)
        if hidden_mode is None:
            assert settled.size == len(masks)
        else:
            assert {t for t, mask in enumerate(masks) if hidden_mode(mask) is None} <= set(settled)
        back = riccati_steps(sys, p, [x[settled] for x in ops])[-1]
        rtol = 1e3 * np.linalg.cond(sys.R) * np.finfo(float).eps
        scale = np.linalg.norm(p, axis=(1, 2))
        assert (np.linalg.norm(back - p, axis=(1, 2)) <= rtol * scale).all()

    def test_doubled_fixed_point_ignores_when_its_stack_mates_settle(
        self, benchmark_sys, monkeypatch
    ):
        # Twelve sparse benchmark schedules (a fifth of the entries on, as in
        # random_baseline's draws) settle at the 4th or the 5th doubling, and
        # a first triple (2^600 I, 0, 0) settles at its first: H = 0 is its
        # fixed point, and squaring its E would overflow. Each slice must come
        # back bit for bit as it does alone, and a settled slice's E and G
        # must not be squared again, in the stack as alone.
        sys = benchmark_sys
        masks = (np.random.default_rng(11).random((12, 10, sys.n_sensors)) < 0.2).astype(np.int8)
        triple, _ = period_triple(sys, masks)
        zero = np.zeros((1, sys.n_states, sys.n_states))
        first = (np.ldexp(np.eye(sys.n_states), 600)[np.newaxis], zero, zero)
        e, g, h = (np.concatenate(pair) for pair in zip(first, triple))
        inv, doublings = np.linalg.inv, []

        def counted(x):
            doublings[-1] += 1
            return inv(x)

        monkeypatch.setattr(periodic.np.linalg, "inv", counted)
        alone = []
        with np.errstate(over="raise"):
            for t in range(len(h)):
                doublings.append(0)
                alone.append(periodic._doubled_fixed_point(*(x[t : t + 1] for x in (e, g, h))))
            doublings.append(0)
            settled, p = periodic._doubled_fixed_point(e, g, h)
        solo = doublings[:-1]
        assert solo[0] == 1 and len(set(solo[1:])) > 1 and doublings[-1] == max(solo)
        assert all(idx.tolist() == [0] for idx, _ in alone)
        np.testing.assert_array_equal(settled, np.arange(len(h)))
        expected = np.concatenate([x for _, x in alone])
        np.testing.assert_array_equal(p.view(np.uint64), expected.view(np.uint64))

    def test_period_map_inverts_only_m_by_m_innovations(self, benchmark_sys, monkeypatch):
        # The K steps fold by rank-M updates from each step's M x M inverse
        # innovation: on the benchmark plant (N = 25, M = 10) no inverse or
        # solve the period map makes has an N-wide operand.
        sys = benchmark_sys
        masks = random_masks(np.random.default_rng(4), chunk_length(sys.n_states, 10), 10, 10)
        ops = periodic._masked_operands(sys, masks == 1)
        widths = []

        def recorded(fn):
            def call(*operands):
                widths.extend(np.shape(x)[-1] for x in operands)
                return fn(*operands)

            return call

        for name in ("inv", "solve"):
            monkeypatch.setattr(periodic.np.linalg, name, recorded(getattr(np.linalg, name)))
        periodic._period_map(sys, masks == 1, *ops)
        assert widths and set(widths) == {sys.n_sensors}

    def test_oracle_shares_the_steps_of_equal_leading_rows(self, monkeypatch):
        # The oracle's necklaces come in lexicographic order, so on the line
        # plant at K = 7 its one chunk of 586 schedules holds these many
        # distinct leading rows at depths 1 to 7, and the period map steps
        # only those: 1,090 slices where one per schedule and step would be
        # 4,102. The gain pass after it steps every schedule.
        sys = ps.load_experiment(LINE4_CONFIG).system
        sizes, step = [], periodic._riccati_step

        def recorded(sys, p, c, c_t, r):
            sizes.append(len(c))
            return step(sys, p, c, c_t, r)

        monkeypatch.setattr(periodic, "_riccati_step", recorded)
        ps.exhaustive_search(sys, 7, 3)
        assert chunk_length(sys.n_states, 7) >= 586
        assert sizes == [1, 3, 11, 38, 124, 327, 586] + [586] * 7
        assert sum(sizes) == 5192

    def test_diverging_doubling_stops_at_its_first_nonfinite_h(self, monkeypatch):
        # The empty schedule leaves the mode at 1.2 unobserved. After d
        # doublings H holds sum_{i < 2^d} 1.44^i, which first overflows at
        # d = 11 (1.44^2048 > 1.8e308); inf <= tol * inf must not read as
        # settled, and the doubling must stop there, not at its cap.
        sys = SystemModel(
            A=np.diag([1.2, 0.5, 0.3]),
            B=np.eye(3),
            C=np.array([[0.0, 1.0, 0.0]]),
            Q=np.eye(3),
            R=np.eye(1),
        )
        (e, g, h), _ = period_triple(sys, np.zeros((1, 1, 1), dtype=np.int8))
        inverses, inv = [], np.linalg.inv

        def counted(x):
            inverses.append(x)
            return inv(x)

        monkeypatch.setattr(periodic.np.linalg, "inv", counted)
        with np.errstate(all="ignore"):
            settled, p = periodic._doubled_fixed_point(e, g, h)
        assert settled.size == 0 and p.shape == (0, 3, 3)
        assert len(inverses) == 11 < periodic._RICCATI_MAX_DOUBLINGS
        assert np.isfinite(inverses[-1]).all()

    @pytest.mark.parametrize(
        "gap",
        [
            1e-3,
            *(
                pytest.param(gap, marks=pytest.mark.xfail(strict=True, reason=NEAR_CIRCLE_ITEM))
                for gap in (1e-5, 1e-7, 1e-8)
            ),
        ],
    )
    def test_J_near_the_unit_circle_is_the_trace_of_its_gains_cycle(self, gap):
        # A mode no sensor sees at 1 - gap: the Lyapunov cycle of fixed gains
        # holds to about eps / gap, while the doubled Riccati cycle drifts by
        # about eps / gap^2 (NEAR_CIRCLE_ITEM). At gaps 1e-5, 1e-7 and 1e-8
        # the drift reads about 1.7e-7, 6e-3 and 0.5 of J.
        sys = hidden_mode_plant(np.random.default_rng(9), 3, 1, 1.0 - gap)
        evaluation = ps.evaluate_schedule(sys, Schedule(np.ones((1, 1))))
        cycle = ps.covariance_limit_cycle(sys, evaluation.gains)
        lyapunov_J = np.trace(cycle, axis1=1, axis2=2).mean()
        bound = 1e3 * np.finfo(float).eps / gap * evaluation.J
        assert abs(evaluation.J - lyapunov_J) <= bound


def detectable_gains(rng, sys, K, near_unit):
    """Riccati gains of a random schedule, or of the all-on one where the
    random one is rejected. With ``near_unit`` they are scaled by the t in
    [0, 1] at which bisection brings the monodromy spectral radius to 0.999:
    at t = 0 it is top^K >= 1."""
    mask = (rng.random((K, sys.n_sensors)) < 0.5).astype(np.int8)
    try:
        gains = ps.evaluate_schedule(sys, Schedule(mask)).gains
    except InitializationError:
        gains = ps.evaluate_schedule(sys, Schedule(np.ones((K, sys.n_sensors)))).gains
    if not near_unit:
        return gains
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if monodromy_radius(sys, mid * gains) > 0.999:
            lo = mid
        else:
            hi = mid
    return hi * gains


def detectable_case(test):
    """Draw (seed, n, m, K, top, near_unit) for the limit-cycle properties,
    with K = 1 and M > N at a near-unit monodromy always among them."""
    test = example(seed=5, n=2, m=4, K=1, top=1.2, near_unit=True)(test)
    test = example(seed=6, n=4, m=6, K=3, top=1.0, near_unit=False)(test)
    test = given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(1, 7),
        K=st.integers(1, 4),
        top=st.floats(1.0, 1.2),
        near_unit=st.booleans(),
    )(test)
    return settings(max_examples=12, deadline=None, derandomize=True, database=None)(test)


class TestLimitCycleProperties:
    """The limit-cycle kernel on unstable but detectable plants (spectral
    radius 1 to 1.2), under Riccati gains and under gains whose monodromy
    spectral radius is 0.999, with K = 1 and M > N among the draws."""

    @detectable_case
    def test_cycles_match_references(self, seed, n, m, K, top, near_unit):
        rng = np.random.default_rng(seed)
        sys = detectable_plant(rng, n, m, top)
        gains = detectable_gains(rng, sys, K, near_unit)
        cycles = dict(zip(("covariance", "value"), _gradient_cycles(sys, gains)))
        # The gain step's covariance cycle is the public one, bit for bit.
        np.testing.assert_array_equal(cycles["covariance"], ps.covariance_limit_cycle(sys, gains))
        # Both come back read-only, (K, N, N) and symmetric bit for bit.
        for cycle in cycles.values():
            assert cycle.shape == (K, n, n) and not cycle.flags.writeable
            np.testing.assert_array_equal(cycle, cycle.transpose(0, 2, 1))
        # The recursions stop at a 1e-12 relative change per period, which
        # leaves 1e-12 / (1 - 0.999) of the limit. The lifted references
        # solve directly and hold to within about 1e-11 at 0.999, so their
        # bar does not loosen near the unit circle.
        rtol_recursion = 1e-7 if near_unit else 1e-9
        rtol_lifted = 1e-9
        references = {
            "covariance": (reference.covariance_cycle_recursion, reference.covariance_cycle_lifted),
            "value": (reference.value_cycle_recursion, reference.value_cycle_lifted),
        }
        for name, (recursion, lifted) in references.items():
            for method, rtol in ((recursion, rtol_recursion), (lifted, rtol_lifted)):
                expected = method(sys, gains)
                if name == "value":  # the kernel lists V_1, ..., V_K
                    expected = np.roll(expected, -1, axis=0)
                np.testing.assert_allclose(
                    cycles[name], expected, rtol=0.0, atol=rtol * np.abs(expected).max()
                )

    @detectable_case
    def test_value_cycle_satisfies_recursion(self, seed, n, m, K, top, near_unit):
        rng = np.random.default_rng(seed)
        sys = detectable_plant(rng, n, m, top)
        gains = detectable_gains(rng, sys, K, near_unit)
        values = value_cycle(sys, gains)
        factors = reference.closed_loop(sys, gains)
        scale = max(np.abs(v).max() for v in values)
        for k in range(K):
            expected = factors[k].T @ values[(k + 1) % K] @ factors[k] + np.eye(n)
            np.testing.assert_allclose(values[k], expected, rtol=0.0, atol=1e-10 * scale)

    @detectable_case
    def test_evaluate_schedule_raises_where_evaluate_schedules_gives_nan(
        self, seed, n, m, K, top, near_unit
    ):
        rng = np.random.default_rng(seed)
        sys = detectable_plant(rng, n, m, top)
        masks = hard_masks(rng, K, m)
        np.testing.assert_array_equal(
            ps.evaluate_schedules(sys, masks), [single_J(sys, mask) for mask in masks]
        )


class TestGradientCycles:
    """periodic._gradient_cycles, the gain step's one kernel for both of its
    cycles: P is covariance_limit_cycle's bit for bit and V the lifted
    reference's, from one radius test, on stable plants and on a plant whose
    hidden mode holds the monodromy radius at 1 - 1e-7.
    TestLimitCycleProperties checks the same on unstable but detectable
    plants, K = 1 and M > N among the draws."""

    @staticmethod
    def assert_matches_references(sys, gains):
        cycle, v_next = _gradient_cycles(sys, gains)
        np.testing.assert_array_equal(cycle, ps.covariance_limit_cycle(sys, gains))
        for stack in (cycle, v_next):
            assert stack.shape == cycle.shape and not stack.flags.writeable
            np.testing.assert_array_equal(stack, stack.transpose(0, 2, 1))
        # The lifted reference lists V_0, ..., V_{K-1}; the kernel V_1, ..., V_K.
        expected = np.roll(reference.value_cycle_lifted(sys, gains), -1, axis=0)
        np.testing.assert_allclose(
            v_next, expected, rtol=0.0, atol=1e-9 * np.abs(expected).max()
        )

    def test_stable_plants(self, rng):
        for n, m, K in ((3, 2, 2), (4, 1, 3), (2, 4, 1)):
            sys = random_stable_system(rng, n, m)
            gains = ps.evaluate_schedule(sys, Schedule(np.ones((K, m)))).gains
            self.assert_matches_references(sys, gains + 0.01 * rng.normal(size=gains.shape))

    def test_hidden_mode_just_inside_the_unit_circle(self):
        sys = hidden_mode_plant(np.random.default_rng(9), 3, 1, 1.0 - 1e-7)
        for K in (1, 2):
            gains = ps.evaluate_schedule(sys, Schedule(np.ones((K, 1)))).gains
            assert monodromy_radius(sys, gains) == pytest.approx((1.0 - 1e-7) ** K, rel=1e-9)
            self.assert_matches_references(sys, gains)

    def test_destabilizing_gains_name_the_covariance_radius(self, rng, monkeypatch):
        # Zero gains leave the monodromy A^3 at radius 1.1^3; the one
        # eigenvalue call is the covariance loop's, and the error names it.
        sys = detectable_plant(rng, 3, 2, 1.1)
        gains = np.zeros((3, 3, 2))
        calls, eigvals = [], np.linalg.eigvals

        def counted(x):
            calls.append(x)
            return eigvals(x)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        with pytest.raises(InstabilityError, match="monodromy spectral radius") as info:
            _gradient_cycles(sys, gains)
        assert len(calls) == 1 and calls[0].shape == (1, 3, 3)
        np.testing.assert_array_equal(calls[0][0], sys.A @ sys.A @ sys.A)
        radius = float(str(info.value).split()[3])
        assert radius == pytest.approx(1.1**3, rel=1e-12)


class TestScaleEquivariance:
    """Q and R scaled by 2^s scale the covariance cycles and J by 2^s and
    keep the gains, bit for bit: every scaling the kernels make is by a
    power of two and every test they make is relative."""

    @pytest.mark.parametrize("s", [-900, -600, -67, -1, 1, 67, 600, 900])
    def test_benchmark_plant_scales_exactly(self, s, benchmark_sys):
        sys = benchmark_sys
        scaled = SystemModel(A=sys.A, B=sys.B, C=sys.C, Q=np.ldexp(sys.Q, s), R=np.ldexp(sys.R, s))
        sched = ps.default_init_schedule(sys, 10, 5)
        base = ps.evaluate_schedule(sys, sched)
        np.testing.assert_array_equal(
            ps.covariance_limit_cycle(scaled, base.gains),
            np.ldexp(ps.covariance_limit_cycle(sys, base.gains), s),
        )
        evaluation = ps.evaluate_schedule(scaled, sched)
        np.testing.assert_array_equal(evaluation.gains, base.gains)
        assert evaluation.J == np.ldexp(base.J, s)
        masks = random_masks(np.random.default_rng(5), 16, 10, 10)
        masks[0] = sched.mask
        J = ps.evaluate_schedules(sys, masks)
        assert np.isfinite(J).sum() >= 2
        np.testing.assert_array_equal(ps.evaluate_schedules(scaled, masks), np.ldexp(J, s))
