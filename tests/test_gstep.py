"""Sparsification step: per-sensor column thresholding against brute force."""

import itertools

import numpy as np
import pytest

import persched as ps
from persched import DimensionError, InputError
from persched.gstep import ZERO_COLUMN_TOL, ColumnStack, GStepProblem


def brute_force_g(prob: GStepProblem) -> float:
    """Minimum objective over every feasible support, sensor by sensor.

    The objective separates across sensors, so enumerate kept-step subsets
    independently per sensor and add up the per-sensor minima.
    """
    total = 0.0
    for m in range(prob.n_sensors):
        stack = prob.sensor_stack(m)
        norms = stack.norms
        best = np.inf
        for size in range(prob.eta[m] + 1):
            for kept in itertools.combinations(range(prob.K), size):
                mask = np.zeros(prob.K, dtype=bool)
                mask[list(kept)] = True
                card = int(np.sum(norms[mask] > ZERO_COLUMN_TOL))
                dist = float(np.sum(norms[~mask] ** 2))
                best = min(best, prob.gamma * card + 0.5 * prob.rho * dist)
        total += best
    return total


class TestColumnStack:
    def test_single_column_promoted(self):
        stack = ColumnStack(np.array([3.0, 4.0]))
        assert stack.K == 2
        np.testing.assert_allclose(stack.norms, [3.0, 4.0])

    def test_nonzero_count_uses_tolerance(self):
        cols = np.array([[1.0, 0.0], [0.5 * ZERO_COLUMN_TOL, 0.0], [0.0, 0.0]])
        assert ColumnStack(cols).n_nonzero == 1

    def test_inconsistent_stored_norms_rejected(self):
        with pytest.raises(InputError, match="norms"):
            ColumnStack(np.eye(2), norms=np.array([2.0, 1.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError, match="finite"):
            ColumnStack(np.array([[np.nan, 0.0]]))


class TestGStepProblem:
    def test_scalar_eta_broadcast(self):
        prob = GStepProblem(S=np.zeros((3, 2, 4)), gamma=0.1, rho=1.0, eta=2)
        assert prob.eta == (2, 2, 2, 2)

    def test_eta_length_mismatch(self):
        with pytest.raises(InputError, match="entries"):
            GStepProblem(S=np.zeros((2, 2, 3)), gamma=0.0, rho=1.0, eta=(1, 2))

    @pytest.mark.parametrize("eta", [1.9, (1, 1.5, 2)])
    def test_non_integral_eta_rejected(self, eta):
        with pytest.raises(InputError, match="not an integer"):
            GStepProblem(S=np.zeros((2, 2, 3)), gamma=0.0, rho=1.0, eta=eta)

    def test_eta_above_period_rejected(self):
        with pytest.raises(InputError, match="eta"):
            GStepProblem(S=np.zeros((2, 2, 1)), gamma=0.0, rho=1.0, eta=3)

    def test_negative_gamma_rejected(self):
        with pytest.raises(InputError, match="gamma"):
            GStepProblem(S=np.zeros((1, 2, 1)), gamma=-0.1, rho=1.0, eta=1)

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(InputError, match="rho"):
            GStepProblem(S=np.zeros((1, 2, 1)), gamma=0.0, rho=0.0, eta=1)


class TestSolveEqualityConstrained:
    def test_keeps_largest_columns_verbatim(self):
        cols = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
        out = ps.solve_equality_constrained(ColumnStack(cols), q=2)
        np.testing.assert_array_equal(out, [[0.0, 0.0], [3.0, 0.0], [2.0, 0.0]])

    def test_tie_goes_to_smaller_step(self):
        cols = np.array([[0.0, 2.0], [2.0, 0.0], [1.0, 1.0]])
        out = ps.solve_equality_constrained(ColumnStack(cols), q=1)
        np.testing.assert_array_equal(out, [[0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])

    def test_extremes(self):
        stack = ColumnStack(np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(
            ps.solve_equality_constrained(stack, 0), np.zeros((2, 1))
        )
        np.testing.assert_array_equal(
            ps.solve_equality_constrained(stack, 2), stack.columns
        )

    def test_q_out_of_range(self):
        with pytest.raises(InputError, match="q"):
            ps.solve_equality_constrained(ColumnStack(np.ones((2, 1))), 3)


class TestSelectByGamma:
    def test_threshold_norm(self):
        # With gamma = 0.1 and rho = 10, a column survives when its norm is
        # at least sqrt(2 * gamma / rho) = sqrt(0.02).
        edge = np.sqrt(0.02)
        cols = np.array([[edge + 1e-6, 0.0], [edge, 0.0], [edge - 1e-6, 0.0]])
        q, out = ps.select_by_gamma(ColumnStack(cols), gamma=0.1, rho=10.0, eta=3)
        assert q == 2
        np.testing.assert_array_equal(out[2], [0.0, 0.0])
        np.testing.assert_array_equal(out[:2], cols[:2])

    def test_cap_binds(self):
        cols = np.array([[3.0], [2.0], [1.0]])
        q, out = ps.select_by_gamma(ColumnStack(cols), gamma=0.0, rho=1.0, eta=2)
        assert q == 2
        np.testing.assert_array_equal(out.ravel(), [3.0, 2.0, 0.0])

    def test_zero_columns_never_selected(self):
        cols = np.array([[1.0], [0.0], [0.0]])
        q, out = ps.select_by_gamma(ColumnStack(cols), gamma=0.0, rho=1.0, eta=3)
        assert q == 1
        np.testing.assert_array_equal(out.ravel(), [1.0, 0.0, 0.0])

    def test_huge_gamma_clears_everything(self):
        q, out = ps.select_by_gamma(ColumnStack(np.ones((4, 2))), 1e6, 1.0, 4)
        assert q == 0
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_invalid_arguments(self):
        stack = ColumnStack(np.ones((2, 1)))
        with pytest.raises(InputError, match="gamma"):
            ps.select_by_gamma(stack, -1.0, 1.0, 1)
        with pytest.raises(InputError, match="rho"):
            ps.select_by_gamma(stack, 0.0, -1.0, 1)
        with pytest.raises(InputError, match="eta"):
            ps.select_by_gamma(stack, 0.0, 1.0, 5)


class TestGStep:
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
            prob = GStepProblem(
                S=s,
                gamma=float(rng.uniform(0.0, 1.0)),
                rho=float(rng.uniform(0.1, 20.0)),
                eta=tuple(int(e) for e in rng.integers(0, K + 1, size=m)),
            )
            out = ps.g_step(prob)
            achieved = ps.g_objective(prob, out)
            assert achieved == pytest.approx(brute_force_g(prob), abs=1e-12)

    def test_output_feasible(self, rng):
        for _ in range(50):
            K, n, m = 5, 3, 4
            prob = GStepProblem(
                S=rng.normal(size=(K, n, m)),
                gamma=float(rng.uniform(0.0, 0.5)),
                rho=10.0,
                eta=tuple(int(e) for e in rng.integers(0, K + 1, size=m)),
            )
            counts = (np.linalg.norm(ps.g_step(prob), axis=1) > ZERO_COLUMN_TOL).sum(axis=0)
            assert (counts <= np.array(prob.eta)).all()

    def test_kept_columns_are_verbatim(self, rng):
        prob = GStepProblem(S=rng.normal(size=(4, 3, 2)), gamma=0.05, rho=10.0, eta=4)
        out = ps.g_step(prob)
        kept = np.linalg.norm(out, axis=1) > ZERO_COLUMN_TOL
        for k, m in zip(*np.nonzero(kept)):
            np.testing.assert_array_equal(out[k, :, m], prob.S[k, :, m])

    def test_gamma_zero_keeps_all_within_cap(self, rng):
        s = rng.normal(size=(3, 2, 2))
        prob = GStepProblem(S=s, gamma=0.0, rho=5.0, eta=3)
        np.testing.assert_array_equal(ps.g_step(prob), s)


class TestGObjective:
    def test_hand_value(self):
        s = np.zeros((2, 2, 1))
        s[0, :, 0] = [3.0, 4.0]
        prob = GStepProblem(S=s, gamma=0.7, rho=2.0, eta=2)
        g = np.zeros_like(s)
        # One nonzero column kept at half size: card = 1, distance
        # ||g - s||^2 = 2.5^2 + 2^2 = 10.25, objective 0.7 + 10.25.
        g[0, :, 0] = [0.5, 2.0]
        assert ps.g_objective(prob, g) == pytest.approx(0.7 + 10.25)

    def test_shape_mismatch(self):
        prob = GStepProblem(S=np.zeros((2, 2, 1)), gamma=0.0, rho=1.0, eta=2)
        with pytest.raises(DimensionError, match="shape"):
            ps.g_objective(prob, np.zeros((2, 2, 2)))
