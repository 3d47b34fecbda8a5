"""Sparsification step: column thresholding against per-sensor and brute-force references."""

import re

import numpy as np
import pytest

import persched as ps
from persched import DimensionError, InputError
from persched.gstep import ZERO_COLUMN_TOL
from tests import reference


def single_sensor(cols):
    """A (K, N) stack of one sensor's columns as (K, N, 1) targets."""
    return np.asarray(cols, dtype=float)[:, :, np.newaxis]


class TestColumnStack:
    """How g_step reads each sensor's K columns out of the targets."""

    def test_single_column_promoted(self):
        out = ps.g_step(np.array([[3.0], [4.0]]), gamma=0.0, rho=1.0, eta=1)
        np.testing.assert_array_equal(out, [[[3.0], [4.0]]])

    def test_bad_rank_rejected(self):
        for s in (np.ones(3), np.ones((1, 2, 2, 1))):
            message = rf"^targets must have shape \(K, N, M\), got {re.escape(str(s.shape))}$"
            with pytest.raises(DimensionError, match=message):
                ps.g_step(s, gamma=0.0, rho=1.0, eta=1)

    def test_nonzero_count_uses_tolerance(self):
        # At or below ZERO_COLUMN_TOL a column is never kept, even at gamma = 0.
        cols = [[1.0, 0.0], [0.5 * ZERO_COLUMN_TOL, 0.0], [ZERO_COLUMN_TOL, 0.0], [0.0, 0.0]]
        out = ps.g_step(single_sensor(cols), gamma=0.0, rho=1.0, eta=4)
        np.testing.assert_array_equal(out[1:], 0.0)
        np.testing.assert_array_equal(out[0], [[1.0], [0.0]])

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InputError, match="finite"):
                ps.g_step(single_sensor([[bad, 0.0]]), gamma=0.0, rho=1.0, eta=1)


class TestGStepArguments:
    def test_scalar_eta_broadcast(self):
        out = ps.g_step(np.ones((3, 2, 4)), gamma=0.1, rho=1.0, eta=2)
        np.testing.assert_array_equal(np.count_nonzero(out[:, 0, :], axis=0), [2, 2, 2, 2])

    def test_eta_length_mismatch(self):
        with pytest.raises(InputError, match="entries"):
            ps.g_step(np.zeros((2, 2, 3)), gamma=0.0, rho=1.0, eta=(1, 2))

    @pytest.mark.parametrize("eta", [1.9, (1, 1.5, 2)])
    def test_non_integral_eta_rejected(self, eta):
        with pytest.raises(InputError, match=r"eta\[\d\] must be an integer"):
            ps.g_step(np.zeros((2, 2, 3)), gamma=0.0, rho=1.0, eta=eta)

    def test_eta_above_period_rejected(self):
        with pytest.raises(InputError, match="eta"):
            ps.g_step(np.zeros((2, 2, 1)), gamma=0.0, rho=1.0, eta=3)

    def test_empty_target_stack_rejected(self):
        message = r"^targets must have shape \(K, N, M\), got \(0, 2, 1\)$"
        with pytest.raises(DimensionError, match=message):
            ps.g_step(np.zeros((0, 2, 1)), gamma=0.0, rho=1.0, eta=0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(InputError, match="gamma"):
            ps.g_step(np.zeros((1, 2, 1)), gamma=-0.1, rho=1.0, eta=1)

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(InputError, match="rho"):
            ps.g_step(np.zeros((1, 2, 1)), gamma=0.0, rho=0.0, eta=1)

    def test_leaves_the_callers_targets_alone(self):
        s = np.ones((2, 3, 2))
        out = ps.g_step(s, gamma=0.1, rho=1.0, eta=1)
        assert s.flags.writeable
        np.testing.assert_array_equal(s, np.ones((2, 3, 2)))
        assert not np.shares_memory(out, s)


class TestSolveEqualityConstrained:
    """gamma = 0 leaves only the cap: each sensor keeps its eta largest
    columns verbatim and zeroes the rest."""

    def test_keeps_largest_columns_verbatim(self):
        s = np.zeros((3, 2, 2))
        s[:, :, 0] = [[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]]
        s[:, :, 1] = [[0.0, -5.0], [0.0, 1.0], [0.0, 4.0]]
        out = ps.g_step(s, gamma=0.0, rho=1.0, eta=(2, 1))
        np.testing.assert_array_equal(out[:, :, 0], [[0.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(out[:, :, 1], [[0.0, -5.0], [0.0, 0.0], [0.0, 0.0]])

    def test_tie_goes_to_smaller_step(self):
        cols = [[0.0, 2.0], [2.0, 0.0], [1.0, 1.0], [0.0, -2.0]]
        # Steps 0, 1 and 3 tie at norm 2; each cap keeps the earliest of them.
        for eta, kept in ((1, [0]), (2, [0, 1]), (3, [0, 1, 3])):
            out = ps.g_step(single_sensor(cols), gamma=0.0, rho=1.0, eta=eta)[:, :, 0]
            expected = np.zeros((4, 2))
            expected[kept] = np.asarray(cols)[kept]
            np.testing.assert_array_equal(out, expected)

    def test_extremes(self):
        s = np.arange(1.0, 13.0).reshape(2, 3, 2)
        np.testing.assert_array_equal(ps.g_step(s, 0.0, 1.0, eta=0), np.zeros_like(s))
        np.testing.assert_array_equal(ps.g_step(s, 0.0, 1.0, eta=2), s)


class TestSelectByGamma:
    """A column stays when its proximal saving (rho/2) ||col||^2 covers gamma."""

    def test_threshold_norm(self):
        # With gamma = 0.1 and rho = 10, a column survives when its norm is
        # at least sqrt(2 * gamma / rho) = sqrt(0.02).
        edge = np.sqrt(0.02)
        cols = np.array([[edge + 1e-6, 0.0], [edge, 0.0], [edge - 1e-6, 0.0]])
        out = ps.g_step(single_sensor(cols), gamma=0.1, rho=10.0, eta=3)[:, :, 0]
        np.testing.assert_array_equal(out[2], [0.0, 0.0])
        np.testing.assert_array_equal(out[:2], cols[:2])

    def test_equality_keeps_the_column(self):
        # ||(3, 4)|| = 5 exactly, so the saving (2/2) * 25 equals gamma = 25.
        s = single_sensor([[3.0, 4.0]])
        np.testing.assert_array_equal(ps.g_step(s, gamma=25.0, rho=2.0, eta=1), s)
        above = np.nextafter(25.0, np.inf)
        np.testing.assert_array_equal(ps.g_step(s, gamma=above, rho=2.0, eta=1), np.zeros_like(s))

    def test_cap_binds(self):
        out = ps.g_step(single_sensor([[3.0], [2.0], [1.0]]), gamma=0.0, rho=1.0, eta=2)
        np.testing.assert_array_equal(out.ravel(), [3.0, 2.0, 0.0])

    def test_zero_columns_never_selected(self):
        out = ps.g_step(single_sensor([[1.0], [0.0], [0.0]]), gamma=0.0, rho=1.0, eta=3)
        np.testing.assert_array_equal(out.ravel(), [1.0, 0.0, 0.0])

    def test_huge_gamma_clears_everything(self):
        out = ps.g_step(np.ones((4, 2, 3)), gamma=1e6, rho=1.0, eta=4)
        np.testing.assert_array_equal(out, np.zeros((4, 2, 3)))


def random_problem(rng):
    """Random targets with exact norm ties (a column copied to another step,
    possibly negated), zero columns, and gamma at zero, at random, exactly on
    one column's saving, or far above every saving."""
    K, n, m = (int(rng.integers(1, hi + 1)) for hi in (10, 25, 10))
    s = rng.normal(scale=rng.uniform(0.05, 2.0), size=(K, n, m))
    for _ in range(int(rng.integers(0, 3))):
        j, k = rng.integers(m), rng.integers(K, size=2)
        s[k[0], :, j] = rng.choice([-1.0, 1.0]) * s[k[1], :, j]
    for _ in range(int(rng.integers(0, 3))):
        s[rng.integers(K), :, rng.integers(m)] = 0.0
    rho = float(rng.uniform(0.1, 20.0))
    norms = np.linalg.norm(s[:, :, int(rng.integers(m))], axis=1)
    gamma = [0.0, float(rng.uniform(0.0, 1.0)), 0.5 * rho * float(rng.choice(norms)) ** 2, 1e6][
        int(rng.integers(4))
    ]
    eta = tuple(int(e) for e in rng.integers(0, K + 1, size=m))
    return s, gamma, rho, eta


class TestGStep:
    def test_matches_per_sensor_reference_bitwise(self, rng):
        for _ in range(2000):
            args = random_problem(rng)
            out = ps.g_step(*args)
            expected = reference.g_step_per_sensor(*args)
            assert out.shape == expected.shape and out.dtype == expected.dtype
            assert out.tobytes() == expected.tobytes()

    def test_norm_layout_at_the_gamma_threshold(self):
        # The column (1, s, ..., s) with s = 5 * 2^-29: summed over one
        # sensor's contiguous (K, N) stack, its squared norm rounds up to
        # 1 + 6 ulp; summed step by step down axis 1 of the (K, N, M)
        # targets, it stays 1. With gamma exactly on the saving of the
        # sensor-stack norm, the column must be kept.
        s = np.full((1, 16, 2), 0.5)
        s[0, :, 0] = [1.0] + [5.0 * 2.0**-29] * 15
        norm = np.linalg.norm(s[:, :, 0], axis=1)[0]
        assert np.linalg.norm(s, axis=1)[0, 0] < norm
        args = (s, 0.5 * 2.0 * norm**2, 2.0, (1, 1))
        out = ps.g_step(*args)
        np.testing.assert_array_equal(out, s)
        assert out.tobytes() == reference.g_step_per_sensor(*args).tobytes()

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            K = int(rng.integers(1, 5))
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            s = rng.normal(scale=rng.uniform(0.05, 2.0), size=(K, n, m))
            # Plant exact zero columns now and then so the zero-tolerance
            # path gets exercised too.
            if rng.uniform() < 0.3:
                s[rng.integers(K), :, rng.integers(m)] = 0.0
            gamma = float(rng.uniform(0.0, 1.0))
            rho = float(rng.uniform(0.1, 20.0))
            eta = tuple(int(e) for e in rng.integers(0, K + 1, size=m))
            achieved = reference.g_objective(s, gamma, rho, ps.g_step(s, gamma, rho, eta))
            optimum = reference.g_optimum_enumerated(s, gamma, rho, eta)
            assert achieved == pytest.approx(optimum, abs=1e-12)

    def test_output_feasible(self, rng):
        for _ in range(50):
            K, n, m = 5, 3, 4
            s = rng.normal(size=(K, n, m))
            gamma = float(rng.uniform(0.0, 0.5))
            eta = tuple(int(e) for e in rng.integers(0, K + 1, size=m))
            out = ps.g_step(s, gamma, 10.0, eta)
            counts = (np.linalg.norm(out, axis=1) > ZERO_COLUMN_TOL).sum(axis=0)
            assert (counts <= np.array(eta)).all()

    def test_kept_columns_are_verbatim(self, rng):
        s = rng.normal(size=(4, 3, 2))
        out = ps.g_step(s, gamma=0.05, rho=10.0, eta=4)
        kept = np.linalg.norm(out, axis=1) > ZERO_COLUMN_TOL
        for k, m in zip(*np.nonzero(kept)):
            np.testing.assert_array_equal(out[k, :, m], s[k, :, m])

    def test_gamma_zero_keeps_all_within_cap(self, rng):
        s = rng.normal(size=(3, 2, 2))
        np.testing.assert_array_equal(ps.g_step(s, gamma=0.0, rho=5.0, eta=3), s)


class TestGObjective:
    """The reference objective that criterion 3 and test_matches_brute_force score with."""

    def test_hand_value(self):
        s = np.zeros((2, 2, 1))
        s[0, :, 0] = [3.0, 4.0]
        g = np.zeros_like(s)
        # One nonzero column kept at half size: card = 1, distance
        # ||g - s||^2 = 2.5^2 + 2^2 = 10.25, objective 0.7 + 10.25.
        g[0, :, 0] = [0.5, 2.0]
        assert reference.g_objective(s, 0.7, 2.0, g) == pytest.approx(0.7 + 10.25)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match="shape"):
            reference.g_objective(np.zeros((2, 2, 1)), 0.0, 1.0, np.zeros((2, 2, 2)))
