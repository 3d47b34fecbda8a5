"""Exhaustive oracle and matched-cardinality random baseline."""

import itertools
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persched as ps
import persched.baselines as baselines
import persched.periodic as periodic
from persched import (
    BudgetError,
    InitializationError,
    InputError,
    InstabilityError,
    Schedule,
    SystemModel,
)
from persched.baselines import BaselineResult, _count_table, _draw_mask, _necklaces
from persched.periodic import chunk_length
from tests.conftest import random_stable_system, spectral_radius
from tests.reference import draw_mask_per_call, necklaces_brute_force

LINE4_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "compare_line4.yaml"


def integer_message(args):
    """The integer rule's error for the one bad argument in ``args``."""
    ((name, value),) = args.items()
    return re.escape(f"{name} must be an integer, got {value!r}")


def manual_best(sys, K, eta_scalar):
    """Reference enumeration: score every feasible mask directly. Returns the
    best J and mask and the counts of scored and skipped (invalid) masks."""
    m = sys.n_sensors
    best = (np.inf, None)
    n_evaluated = n_skipped = 0
    for bits in itertools.product((0, 1), repeat=K * m):
        mask = np.array(bits).reshape(K, m)
        if (mask.sum(axis=0) > eta_scalar).any():
            continue
        try:
            j = ps.evaluate_schedule(sys, Schedule(mask)).J
        except (InitializationError, InstabilityError):
            n_skipped += 1
            continue
        n_evaluated += 1
        if j < best[0]:
            best = (j, mask)
    return best[0], best[1], n_evaluated, n_skipped


def rotations(mask):
    """The K row rotations of a mask, as row-major bit strings."""
    return ["".join(map(str, np.roll(mask, -r, axis=0).ravel())) for r in range(len(mask))]


def random_unstable_system(rng, n, m):
    """Random plant with spectral radius 1.1-1.4 and half of C zeroed, so
    some schedules leave an unstable mode unobserved."""
    a = rng.normal(size=(n, n))
    a *= rng.uniform(1.1, 1.4) / spectral_radius(a)
    c = rng.normal(size=(m, n))
    c[rng.random((m, n)) < 0.5] = 0.0
    return SystemModel(A=a, B=np.eye(n), C=c, Q=np.eye(n), R=np.eye(m))


def scalar_unstable_system():
    return SystemModel(
        A=np.array([[1.2]]), B=np.eye(1), C=np.eye(1), Q=np.eye(1), R=np.eye(1)
    )


class TestExhaustiveSearch:
    def test_non_integral_eta_rejected(self, rng):
        sys = random_stable_system(rng, 3, 2)
        with pytest.raises(InputError, match=r"eta\[0\] must be an integer, got 1.7"):
            ps.exhaustive_search(sys, K=2, eta=1.7)
        with pytest.raises(InputError, match=r"eta\[1\] must be an integer, got 1.5"):
            ps.random_baseline(sys, K=2, eta=(1, 1.5), total_activations=1, trials=1, seed=0)

    @pytest.mark.parametrize(
        "args, case",
        [
            ({"K": 2.5}, "K = 2.5 is not an integer"),
            ({"K": True}, "K = True is not an integer"),
        ],
    )
    def test_invalid_counts_rejected(self, rng, args, case):
        # ``case`` says what is wrong; the error names the argument and its value.
        sys = random_stable_system(rng, 3, 2)
        with pytest.raises(InputError, match=integer_message(args)):
            ps.exhaustive_search(sys, **{"K": 2, "eta": 1, **args})

    def test_integral_float_counts_accepted(self, rng):
        sys = random_stable_system(rng, 3, 2)
        expected = ps.exhaustive_search(sys, K=2, eta=1)
        for K in (2.0, np.int64(2)):
            assert ps.exhaustive_search(sys, K=K, eta=1) == expected

    def test_matches_manual_enumeration(self, rng):
        sys = random_stable_system(rng, 3, 2)
        result = ps.exhaustive_search(sys, K=2, eta=1)
        j_ref, mask_ref, n_evaluated, n_skipped = manual_best(sys, 2, 1)
        assert result.J == pytest.approx(j_ref, rel=1e-12)
        np.testing.assert_array_equal(result.schedule.mask, mask_ref)
        assert result.n_evaluated == n_evaluated
        assert result.n_skipped == n_skipped == 0

    def test_beats_every_feasible_schedule(self, rng):
        sys = random_stable_system(rng, 3, 2)
        result = ps.exhaustive_search(sys, K=3, eta=2)
        for bits in itertools.product((0, 1), repeat=6):
            mask = np.array(bits).reshape(3, 2)
            if (mask.sum(axis=0) > 2).any():
                continue
            assert result.J <= ps.evaluate_schedule(sys, Schedule(mask)).J + 1e-12

    def test_tie_keeps_lexicographically_smallest(self):
        # Two interchangeable sensors on a decoupled symmetric plant, each
        # once per period of 2: each sensor's own state sees one measurement
        # per period whatever the step, so the synchronous schedule (bits
        # 0011) and the staggered one (0110, not a rotation of it) score
        # identically, and the winner must be the mask whose row-major bit
        # string sorts first.
        sys = SystemModel(
            A=0.5 * np.eye(2), B=np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2)
        )
        tied = np.array([[[0, 0], [1, 1]], [[0, 1], [1, 0]]], dtype=np.int8)
        scores = ps.evaluate_schedules(sys, tied)
        assert scores[0] == scores[1]
        result = ps.exhaustive_search(sys, K=2, eta=1)
        assert result.J == scores[0]
        np.testing.assert_array_equal(result.schedule.mask, tied[0])

    def test_tie_rule_holds_across_chunks(self, monkeypatch):
        # Every cyclic shift of the line plant's optimum is the same periodic
        # schedule started at another step, so all seven tie up to roundoff:
        # each shift's fixed point is doubled from its own first step, and
        # one of the seven lands 1 ulp away. The search scores the class
        # once, through the shift whose bit string sorts first, and that
        # shift must be the winner. The 586 classes fit one chunk at the
        # default size, so chunks of 200 make them span three, and the
        # strict < across chunks applies.
        monkeypatch.setattr(periodic, "_CHUNK_FLOATS", 200 * 7 * 4 * 4)
        sys = ps.load_experiment(LINE4_CONFIG).system
        result = ps.exhaustive_search(sys, K=7, eta=3)
        assert result.n_evaluated == 4096
        assert 586 > 2 * chunk_length(sys.n_states, 7)
        shifts = np.stack([np.roll(result.schedule.mask, s, axis=0) for s in range(7)])
        scores = ps.evaluate_schedules(sys, shifts)
        assert scores[0] == result.J
        np.testing.assert_allclose(scores, result.J, rtol=4 * np.finfo(float).eps, atol=0.0)
        bits = ["".join(map(str, mask.ravel())) for mask in shifts]
        assert bits[0] == min(bits) == "00100110010011"
        assert result.J == pytest.approx(1.3134386888690204, rel=1e-12)

    @pytest.mark.parametrize("unstable", [False, True])
    def test_rotation_classes_match_per_leaf_reference(self, rng, unstable):
        # (N, M, K, eta): K = 4 includes classes of 1, 2 and 4 masks, such
        # as 0000, 0101 and 0001 for one sensor.
        cases = [(2, 1, 4, 4), (3, 2, 4, 2), (2, 2, 3, 2), (3, 3, 2, 1)]
        class_sizes, skipped = set(), 0
        for n, m, K, eta in cases:
            for _ in range(2):
                if unstable:
                    sys = random_unstable_system(rng, n, m)
                else:
                    sys = random_stable_system(rng, n, m)
                result = ps.exhaustive_search(sys, K=K, eta=eta)
                j_ref, _, n_evaluated, n_skipped = manual_best(sys, K, eta)
                assert result.n_evaluated == n_evaluated
                assert result.n_skipped == n_skipped
                assert result.J == pytest.approx(j_ref, rel=1e-12)
                # Rotations of one schedule tie up to roundoff, so the winner is
                # the smallest rotation of a mask that is optimal within it.
                winner = result.schedule.mask
                assert rotations(winner)[0] == min(rotations(winner))
                j_winner = ps.evaluate_schedule(sys, result.schedule).J
                assert j_winner == pytest.approx(j_ref, rel=1e-12)
                skipped += n_skipped
            if K == 4:
                for bits in itertools.product((0, 1), repeat=K * m):
                    mask = np.array(bits).reshape(K, m)
                    if (mask.sum(axis=0) <= eta).all():
                        class_sizes.add(len(set(rotations(mask))))
        assert class_sizes == {1, 2, 4}
        assert (skipped > 0) == unstable

    def test_one_score_per_rotation_class(self, monkeypatch):
        # The 4,096 leaves of the line plant at K = 7, eta = 3 form 586
        # rotation classes: 4,095 masks in classes of 7 plus the empty mask.
        rows = []

        def spy(sys, masks):
            rows.append(len(masks))
            return ps.evaluate_schedules(sys, masks)

        monkeypatch.setattr(baselines, "evaluate_schedules", spy)
        sys = ps.load_experiment(LINE4_CONFIG).system
        result = ps.exhaustive_search(sys, K=7, eta=3)
        assert sum(rows) == 586
        assert max(rows) <= chunk_length(sys.n_states, 7)
        assert result.n_evaluated == 4096
        assert result.n_skipped == 0

    def test_budget_refusal_is_upfront(self, rng, monkeypatch):
        # Two sensors free at all 11 steps: (2^11)^2 masks, past the
        # 1,000,000 the oracle enumerates, refused before any is scored.
        def never(sys, masks):
            raise AssertionError("a schedule was scored")

        monkeypatch.setattr(baselines, "evaluate_schedules", never)
        sys = random_stable_system(rng, 2, 2)
        message = "^4194304 candidate schedules exceed the enumeration budget of 1000000$"
        with pytest.raises(BudgetError, match=message):
            ps.exhaustive_search(sys, K=11, eta=11)

    def test_undetectable_candidates_skipped(self):
        sys = scalar_unstable_system()
        result = ps.exhaustive_search(sys, K=2, eta=1)
        # The empty schedule leaves the unstable mode unobserved.
        assert result.n_skipped == 1
        assert result.n_evaluated == 2
        assert result.schedule.total_activations == 1

    def test_raises_when_nothing_is_estimable(self):
        # The unstable mode at 1.2 is unseen by the one sensor, which reads
        # only the stable state, so every schedule leaves it unobserved.
        sys = SystemModel(
            A=np.diag([1.2, 0.5]), B=np.eye(2), C=[[0.0, 1.0]], Q=np.eye(2), R=np.eye(1)
        )
        with pytest.raises(
            InitializationError,
            match="^every feasible schedule left the estimator invalid; raise the bounds$",
        ):
            ps.exhaustive_search(sys, K=2, eta=1)

    def test_long_period_keeps_its_own_stack(self):
        # 1,201 leaves, far inside the budget, but K * M = 1200 bits deep: a
        # walk nesting one Python frame per bit raises RecursionError here.
        sys = SystemModel(A=0.5 * np.eye(1), B=np.eye(1), C=np.eye(1), Q=np.eye(1), R=np.eye(1))
        result = ps.exhaustive_search(sys, K=1200, eta=1)
        assert result.n_evaluated == 1201
        assert result.n_skipped == 0


class TestLiftedShortPeriods:
    """A K'-periodic schedule repeated K/K' times, for K' dividing K, is a
    K-periodic schedule with the same J whose per-sensor counts scale by
    K/K', so the oracle at (K, eta' K/K') is no worse than at (K', eta')."""

    @pytest.mark.parametrize("K", [4, 6])
    def test_oracle_no_worse_than_a_divisor_period(self, K):
        sys = ps.load_experiment(LINE4_CONFIG).system
        for short in (d for d in range(1, K) if K % d == 0):
            for eta in range(1, short + 1):
                coarse = ps.exhaustive_search(sys, K=short, eta=eta)
                fine = ps.exhaustive_search(sys, K=K, eta=eta * K // short)
                # Both hold in exact arithmetic; each score here carries roundoff.
                assert fine.J <= coarse.J * (1 + 1e-12)
                tiled = Schedule(np.tile(coarse.schedule.mask, (K // short, 1)))
                assert ps.evaluate_schedule(sys, tiled).J == pytest.approx(coarse.J, rel=1e-12)


@st.composite
def walk_cases(draw):
    """(K, per-sensor bounds) for the walk, at most 15 bits, so that the
    brute-force listing stays small."""
    K = draw(st.integers(1, 6))
    bounds = tuple(draw(st.lists(st.integers(0, K), min_size=1, max_size=min(3, 15 // K))))
    return K, bounds


class TestNecklaceWalk:
    """_necklaces against the brute-force listing of rotation classes."""

    # Fixed corners: K = 1, the periodic class 0101, only the empty mask.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(walk_cases())
    @example((1, (1, 1)))
    @example((4, (2,)))
    @example((3, (0, 0)))
    def test_matches_brute_force(self, case):
        walked = list(_necklaces(*case))
        assert walked == necklaces_brute_force(*case)

    def test_used_up_bound_keeps_the_walk_linear(self):
        # With one sensor and one activation, every branch 0^j 1 has used its
        # bound. Walking each such branch bit by bit is quadratic in K, about
        # 4 s at K = 4,800 on a 2-core machine; the linear walk takes 0.01 s.
        start = time.perf_counter()
        walked = [size for _, size in _necklaces(4800, (1,))]
        assert walked == [1, 4800]
        assert time.perf_counter() - start < 0.5

    def test_periodic_class_counts_its_period(self):
        walked = dict(_necklaces(4, (2,)))
        assert walked == {(0, 0, 0, 0): 1, (0, 0, 0, 1): 4, (0, 0, 1, 1): 4, (0, 1, 0, 1): 2}


class TestRandomBaseline:
    def test_deterministic_in_seed(self, rng):
        sys = random_stable_system(rng, 3, 2)
        a = ps.random_baseline(sys, K=3, eta=2, total_activations=3, trials=20, seed=11)
        b = ps.random_baseline(sys, K=3, eta=2, total_activations=3, trials=20, seed=11)
        assert a.values == b.values
        c = ps.random_baseline(sys, K=3, eta=2, total_activations=3, trials=20, seed=12)
        assert a.values != c.values

    def test_unique_feasible_mask_collapses_statistics(self, rng):
        sys = random_stable_system(rng, 2, 2)
        result = ps.random_baseline(sys, K=2, eta=2, total_activations=4, trials=8, seed=3)
        expected = ps.evaluate_schedule(sys, Schedule(np.ones((2, 2)))).J
        assert result.std == 0.0
        assert result.mean == pytest.approx(expected, rel=1e-12)
        assert result.min == result.max == result.values[0]

    def test_invalid_draw_raises(self):
        # With no activation the scalar plant's unstable mode goes unobserved.
        with pytest.raises(InitializationError, match="invalid"):
            ps.random_baseline(
                scalar_unstable_system(), K=2, eta=1, total_activations=0, trials=3, seed=0
            )

    def test_infeasible_total_rejected(self, rng):
        sys = random_stable_system(rng, 2, 1)
        with pytest.raises(InputError, match="^total_activations must be in 0..1, got 3$"):
            ps.random_baseline(sys, K=2, eta=1, total_activations=3, trials=5, seed=0)

    def test_zero_trials_rejected(self, rng):
        sys = random_stable_system(rng, 2, 1)
        with pytest.raises(InputError, match="^trials must be at least 1, got 0$"):
            ps.random_baseline(sys, K=2, eta=1, total_activations=1, trials=0, seed=0)

    @pytest.mark.parametrize(
        "args, case",
        [
            ({"total_activations": 1.5}, "total_activations = 1.5 is not an integer"),
            ({"total_activations": True}, "total_activations = True is not an integer"),
            ({"trials": 2.5}, "trials = 2.5 is not an integer"),
            ({"trials": True}, "trials = True is not an integer"),
            ({"K": 1.5}, "K = 1.5 is not an integer"),
            ({"K": True}, "K = True is not an integer"),
            ({"K": 0, "eta": 0, "total_activations": 0}, "K must be at least 1"),
        ],
    )
    def test_invalid_counts_rejected(self, rng, args, case):
        # ``case`` says what is wrong; a non-integer's error names the
        # argument and its value.
        sys = random_stable_system(rng, 2, 1)
        kwargs = {"K": 2, "eta": 1, "total_activations": 1, "trials": 5, "seed": 0}
        match = integer_message(args) if case.endswith("is not an integer") else case
        with pytest.raises(InputError, match=match):
            ps.random_baseline(sys, **{**kwargs, **args})

    def test_integral_float_counts_accepted(self, rng):
        sys = random_stable_system(rng, 2, 1)
        a = ps.random_baseline(sys, K=2.0, eta=1, total_activations=1.0, trials=np.int64(4), seed=0)
        b = ps.random_baseline(sys, K=2, eta=1, total_activations=1, trials=4, seed=0)
        assert a == b

    def test_negative_seed_rejected(self, rng):
        sys = random_stable_system(rng, 2, 1)
        with pytest.raises(InputError, match="^seed must be nonnegative, got -1$"):
            ps.random_baseline(sys, K=2, eta=1, total_activations=1, trials=5, seed=-1)

    @pytest.mark.parametrize("seed", [True, False, 2.5, "7"])
    def test_non_integer_seed_rejected(self, rng, seed):
        sys = random_stable_system(rng, 2, 1)
        with pytest.raises(InputError, match=f"seed must be an integer, got {seed!r}"):
            ps.random_baseline(sys, K=2, eta=1, total_activations=1, trials=5, seed=seed)

    def test_integral_seed_accepted(self, rng):
        sys = random_stable_system(rng, 3, 2)
        kwargs = {"K": 3, "eta": 2, "total_activations": 3, "trials": 20}
        expected = ps.random_baseline(sys, **kwargs, seed=7)
        for seed in (np.int64(7), 7.0):
            assert ps.random_baseline(sys, **kwargs, seed=seed) == expected

    def test_statistics_consistent(self, rng):
        sys = random_stable_system(rng, 3, 2)
        result = ps.random_baseline(sys, K=3, eta=2, total_activations=2, trials=30, seed=9)
        arr = np.array(result.values)
        assert result.mean == pytest.approx(arr.mean())
        assert result.std == pytest.approx(arr.std())
        assert result.min == pytest.approx(arr.min())
        assert result.max == pytest.approx(arr.max())


class TestDrawUniformity:
    def test_draws_are_feasible(self):
        bounds = (2, 1)
        table = _count_table(3, bounds)
        gen = np.random.default_rng(77)
        laws = {}
        for _ in range(200):
            mask = _draw_mask(gen, 3, bounds, total=2, table=table, laws=laws)
            assert mask.sum() == 2
            assert (mask.sum(axis=0) <= np.array(bounds)).all()

    def test_uniform_over_masks_not_count_splits(self):
        # With K = 3, bounds (2, 1), total 2 there are 9 masks splitting the
        # activations (1, 1) across sensors and 3 masks splitting (2, 0).
        # Uniformity over masks puts the (2, 0) split at probability 1/4; a
        # sampler uniform over splits would sit near 1/2 instead.
        bounds = (2, 1)
        table = _count_table(3, bounds)
        gen = np.random.default_rng(123)
        draws, laws = 4000, {}
        heavy = sum(
            _draw_mask(gen, 3, bounds, total=2, table=table, laws=laws)[:, 0].sum() == 2
            for _ in range(draws)
        )
        assert abs(heavy / draws - 0.25) < 0.035

    def test_all_masks_reachable(self):
        bounds = (1, 1)
        table = _count_table(2, bounds)
        gen = np.random.default_rng(5)
        seen, laws = set(), {}
        for _ in range(300):
            mask = _draw_mask(gen, 2, bounds, total=1, table=table, laws=laws)
            seen.add(tuple(mask.ravel()))
        assert len(seen) == 4

    @pytest.mark.parametrize(
        "K, bounds, total",
        [
            (3, (0, 0), 0),
            (4, (2, 0, 3), 0),
            (4, (2, 0, 3), 2),
            (4, (2, 0, 3), 5),
            (10, (5,) * 10, 20),
        ],
    )
    def test_matches_per_call_reference(self, K, bounds, total):
        # The cached count laws give the per-call draw's masks bit for bit and
        # leave the generator where one rng.choice per count would.
        table = _count_table(K, bounds)
        for seed in range(1, 6):
            gen, ref, laws = np.random.default_rng(seed), np.random.default_rng(seed), {}
            for _ in range(20):
                mask = _draw_mask(gen, K, bounds, total, table, laws)
                expected = draw_mask_per_call(ref, K, bounds, total, table)
                assert mask.dtype == expected.dtype
                np.testing.assert_array_equal(mask, expected)
            assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("K", range(1, 13))
    def test_steps_match_choice_at_every_count(self, K):
        # One sensor bounded by K with a total of c draws exactly c steps:
        # Floyd's draws and the c - 1 dropped draws of choice's shuffle must
        # give the steps of rng.choice(K, size=c, replace=False) and leave
        # the generator where it does, as the next rng.random() shows (and
        # the state, whose buffered 32-bit half a single dropped draw may use).
        table = _count_table(K, (K,))
        for c in range(K + 1):
            for seed in range(6):
                gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                mask = _draw_mask(gen, K, (K,), c, table, {})
                np.testing.assert_array_equal(mask, draw_mask_per_call(ref, K, (K,), c, table))
                assert mask.sum() == c
                assert gen.bit_generator.state == ref.bit_generator.state
                assert gen.random() == ref.random()


class TestCountTable:
    def test_counts_match_enumeration(self):
        K, bounds = 3, (2, 1)
        table = _count_table(K, bounds)
        for total in range(4):
            brute = 0
            for bits in itertools.product((0, 1), repeat=K * 2):
                mask = np.array(bits).reshape(K, 2)
                if (mask.sum(axis=0) <= np.array(bounds)).all() and mask.sum() == total:
                    brute += 1
            assert table[0][total] == brute


class TestBaselineResult:
    def test_from_values(self):
        result = BaselineResult.from_values([2.0, 4.0])
        assert result.mean == 3.0
        assert result.std == 1.0
        assert result.values == (2.0, 4.0)
