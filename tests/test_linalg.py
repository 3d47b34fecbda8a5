"""Kernel tests against scipy references and hand-computed cases."""

import re

import numpy as np
import pytest
import scipy.linalg

from persched import (
    ConvergenceError,
    DimensionError,
    InputError,
    InstabilityError,
    SystemModel,
    Schedule,
    covariance_limit_cycle,
    evaluate_schedule,
    matrix_exponential,
)
from persched.linalg import (
    _array,
    _smith_doubling,
    _solve_gain_sylvester,
    _symmetrize,
    psd_sqrt,
    require_symmetric,
)
from persched.periodic import _limit_cycles
from tests.conftest import spectral_radius


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        d = np.diag([0.3, -1.2, 2.0])
        np.testing.assert_allclose(
            matrix_exponential(d), np.diag(np.exp([0.3, -1.2, 2.0])), rtol=1e-12
        )

    def test_nilpotent_closed_form(self):
        # exp([[0, a], [0, 0]]) = [[1, a], [0, 1]] exactly.
        a = np.array([[0.0, 3.7], [0.0, 0.0]])
        np.testing.assert_allclose(matrix_exponential(a), np.array([[1.0, 3.7], [0.0, 1.0]]))

    def test_rotation_closed_form(self):
        theta = 0.9
        gen = np.array([[0.0, -theta], [theta, 0.0]])
        expected = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        np.testing.assert_allclose(matrix_exponential(gen), expected, atol=1e-12)

    def test_matches_scipy_on_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            scale = float(rng.uniform(0.1, 5.0))
            a = rng.normal(size=(n, n)) * scale
            np.testing.assert_allclose(
                matrix_exponential(a),
                scipy.linalg.expm(a),
                rtol=1e-10,
                atol=1e-10 * np.linalg.norm(scipy.linalg.expm(a)),
            )

    def test_rejects_nonsquare(self):
        message = r"^matrix_exponential argument must have shape \(N, N\), got \(2, 3\)$"
        with pytest.raises(DimensionError, match=message):
            matrix_exponential(np.ones((2, 3)))


def dlyap(f, w):
    """X = F X F^T + W for one stable F through the Lyapunov kernel, with the
    symmetrized W the limit-cycle kernel hands it."""
    f = np.asarray(f, dtype=float)
    w = _symmetrize(np.asarray(w, dtype=float))
    return _smith_doubling(f[None], w[None])[0]


class TestSolveDlyap:
    """The Lyapunov kernel, _smith_doubling, and the radius test of the
    limit-cycle kernel that guards it."""

    def test_scalar(self):
        # x = 0.5^2 x + 3 gives x = 4.
        np.testing.assert_allclose(dlyap([[0.5]], [[3.0]]), [[4.0]])

    def test_matches_scipy(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            f = rng.normal(size=(n, n))
            f *= 0.9 / max(spectral_radius(f), 1e-12)
            w = rng.normal(size=(n, n))
            w = w @ w.T + 0.01 * np.eye(n)
            expected = scipy.linalg.solve_discrete_lyapunov(f, w)
            np.testing.assert_allclose(dlyap(f, w), expected, rtol=1e-8, atol=1e-10)

    def test_methods_agree(self, rng):
        # Doubling against the vectorized form (I - F kron F) vec(X) = vec(W),
        # solved directly with row-major vec.
        for n in (5, 25):
            f = rng.normal(size=(n, n))
            f *= 0.8 / spectral_radius(f)
            w = rng.normal(size=(n, n))
            w = w @ w.T
            kron = np.linalg.solve(np.eye(n * n) - np.kron(f, f), w.ravel()).reshape(n, n)
            np.testing.assert_allclose(dlyap(f, w), kron, rtol=1e-9, atol=1e-11)

    def test_near_unit_radius_matches_scipy(self, rng):
        n = 25
        f = rng.normal(size=(n, n))
        f *= 0.999 / spectral_radius(f)
        w = rng.normal(size=(n, n))
        w = w @ w.T / n + np.eye(n)
        expected = scipy.linalg.solve_discrete_lyapunov(f, w)
        x = dlyap(f, w)
        np.testing.assert_allclose(x, expected, rtol=1e-7, atol=1e-9 * np.abs(expected).max())

    def test_non_normal_transient_growth_matches_scipy(self, rng):
        # Stable but far from normal: ||F^j|| climbs past 20 before the
        # radius 0.95 wins, so the series is dominated by its transient.
        n = 25
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        t = np.diag(np.linspace(0.5, 0.95, n)) + np.diag(np.full(n - 1, 0.2), 1)
        f = q @ t @ q.T
        peak = max(np.linalg.norm(np.linalg.matrix_power(f, j), 2) for j in range(400))
        assert peak > 20.0
        w = np.eye(n)
        expected = scipy.linalg.solve_discrete_lyapunov(f, w)
        x = dlyap(f, w)
        np.testing.assert_allclose(x, expected, rtol=1e-7, atol=1e-9 * np.abs(expected).max())

    @pytest.mark.parametrize("superdiagonal, min_peak", [(0.25, 150.0), (0.3, 1000.0)])
    def test_residual_contract_scales_with_solution(self, rng, superdiagonal, min_peak):
        # ||F^j|| peaks in the hundreds or thousands and ||X|| reaches 1e6 to
        # 1e8: an absolute residual bar in ||W|| alone cannot be met in
        # floating point, though the doubling solution is accurate.
        n = 25
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        t = np.diag(np.linspace(0.5, 0.95, n)) + np.diag(np.full(n - 1, superdiagonal), 1)
        f = q @ t @ q.T
        peak = max(np.linalg.norm(np.linalg.matrix_power(f, j), 2) for j in range(400))
        assert peak > min_peak
        w = np.eye(n)
        expected = scipy.linalg.solve_discrete_lyapunov(f, w)
        x = dlyap(f, w)
        assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_solution_is_symmetric_psd(self, rng):
        f = 0.7 * rng.normal(size=(4, 4)) / 2
        x = dlyap(f, np.eye(4))
        np.testing.assert_allclose(x, x.T)
        assert np.linalg.eigvalsh(x).min() > 0

    @staticmethod
    def scalar_plant(a):
        return SystemModel(A=[[a]], B=np.eye(1), C=np.eye(1), Q=np.eye(1), R=np.eye(1))

    def test_unstable_raises(self):
        # With zero gains the covariance cycle's monodromy is A itself.
        with pytest.raises(InstabilityError, match="spectral radius"):
            covariance_limit_cycle(self.scalar_plant(1.0), np.zeros((1, 1, 1)))

    def test_margin_matches_the_limit_cycle_kernel(self):
        # Inside the unit circle but not inside the kernel's margin.
        with pytest.raises(InstabilityError, match=r">= 1 - 1e-09"):
            covariance_limit_cycle(self.scalar_plant(1.0 - 1e-10), np.zeros((1, 1, 1)))

    def test_overflowing_doubling_fails_to_settle(self):
        # X = 1e308 / 0.19 I is solved at W's unit shift, then overflows when
        # scaled back.
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="failed to settle"):
            dlyap(0.9 * np.eye(2), 1e308 * np.eye(2))

    @pytest.mark.parametrize("w", [1e153, 1e154, 1e200, 1e300])
    def test_overflowing_norms_solve_in_full_range(self, w):
        # X = 0.81 X + w I is w / 0.19 I, representable though from about
        # 1e154 its squared norm is not: W is solved at its unit shift, an
        # exact power of two, and X scaled back.
        x = dlyap(0.9 * np.eye(2), w * np.eye(2))
        np.testing.assert_allclose(x, np.eye(2) * w / 0.19, rtol=1e-14, atol=0.0)

    def test_each_slice_scales_by_its_own_power_of_two(self):
        # A huge slice beside a small one: each keeps its digits.
        w = np.stack([1e200 * np.eye(2), 1e-3 * np.eye(2)])
        x = _smith_doubling(0.9 * np.stack([np.eye(2)] * 2), w)
        np.testing.assert_allclose(x, w / 0.19, rtol=1e-12, atol=0.0)

    def test_covariance_cycle_of_a_huge_noise(self):
        # Scalar plant A = 0.9, Q = 1e154, zero gains: P = Q / 0.19.
        sys = SystemModel(A=[[0.9]], B=np.eye(1), C=np.eye(1), Q=[[1e154]], R=np.eye(1))
        cycle = covariance_limit_cycle(sys, np.zeros((1, 1, 1)))
        np.testing.assert_allclose(cycle, [[[1e154 / 0.19]]], rtol=1e-12, atol=0.0)

    def test_tiny_noises_solve_to_full_relative_accuracy(self):
        # Each slice is scaled by its own power of two; an absolute settle
        # test would stop at X = W + F W F^T = 1.81 W.
        scales = np.array([1e-20, 1e-300, 0.0, 1.0])
        w = scales[:, None, None] * np.eye(2)
        x = _smith_doubling(0.9 * np.stack([np.eye(2)] * 4), w)
        np.testing.assert_allclose(x, w / 0.19, rtol=1e-12, atol=0.0)

    def test_covariance_cycle_of_a_tiny_noise(self):
        # Scalar plant A = 0.9, Q = 1e-20: P = Q / 0.19, and so is J, the
        # gains of the all-on schedule being about 1e-20.
        sys = SystemModel(A=[[0.9]], B=np.eye(1), C=np.eye(1), Q=[[1e-20]], R=np.eye(1))
        cycle = covariance_limit_cycle(sys, np.zeros((1, 1, 1)))
        np.testing.assert_allclose(cycle, [[[1e-20 / 0.19]]], rtol=1e-12, atol=0.0)
        J = evaluate_schedule(sys, Schedule(np.ones((1, 1)))).J
        assert J == pytest.approx(1e-20 / 0.19, rel=1e-12, abs=0.0)

    def test_residual_contract_rejects_a_settled_non_solution(self):
        # A quarter turn F maps W = diag(1, -1) to -W, so the first doubling
        # step cancels the sum to exactly 0 and the next one settles there.
        # X = 0 leaves the residual -W: the kernel must refuse it.
        f = np.array([[[0.0, -1.0], [1.0, 0.0]]])
        w = np.diag([1.0, -1.0])[np.newaxis]
        with pytest.raises(ConvergenceError, match="exceeds contract"):
            _smith_doubling(f, w)

    @staticmethod
    def stack_at_radii(rng, n, radii):
        fs, ws = [], []
        for rho in radii:
            f = rng.normal(size=(n, n))
            fs.append(f * rho / spectral_radius(f))
            w = rng.normal(size=(n, n))
            ws.append(_symmetrize(w @ w.T / n + np.eye(n)))
        return np.stack(fs), np.stack(ws)

    def test_stacked_slices_match_single_solves(self, rng):
        # rho = 0.999 needs several more doublings than rho = 0.3, so the
        # slices settle at different iterations.
        radii = (0.3, 0.999, 0.8, 0.5)
        for n in (3, 25):
            f, w = self.stack_at_radii(rng, n, radii)
            x = _smith_doubling(f, w)
            assert x.shape == (4, n, n)
            for k in range(4):
                single = dlyap(f[k], w[k])
                np.testing.assert_allclose(
                    x[k], single, rtol=1e-12, atol=1e-12 * np.abs(single).max()
                )

    def test_result_ignores_memory_layout(self, rng):
        # The kernel takes F in any memory layout; a transposed view must
        # round exactly as its C-ordered copy.
        f, w = self.stack_at_radii(rng, 25, (0.9,))
        view = f[0].T
        np.testing.assert_array_equal(dlyap(view, w[0]), dlyap(np.ascontiguousarray(view), w[0]))

    def test_stacked_unstable_slice_raises(self, rng):
        # The limit-cycle kernel solves loops whose monodromies share one
        # spectrum, here F and F^T, in one stacked doubling, and the first
        # loop's radius judges the stack: at 1.01 it raises, naming it.
        for radius in (0.3, 0.999, 1.01):
            f, w = self.stack_at_radii(rng, 3, (radius,))
            pair, noise = np.concatenate([f, f.transpose(0, 2, 1)]), np.concatenate([w, w])
            if radius > 1.0:
                with pytest.raises(InstabilityError, match="spectral radius 1.01"):
                    _limit_cycles(pair[np.newaxis], noise[np.newaxis])
                continue
            cycles = _limit_cycles(pair[np.newaxis], noise[np.newaxis])
            assert cycles.shape == (2, 1, 3, 3) and not cycles.flags.writeable
            for cycle, factor in zip(cycles, pair):
                single = dlyap(factor, w[0])
                np.testing.assert_allclose(
                    cycle[0], single, rtol=1e-12, atol=1e-12 * np.abs(single).max()
                )


class TestSolveGainSylvester:
    """The stacked kernel of the coordinate solve, on symmetric V and D and
    rho >= 0 as lstep builds them."""

    def test_recovers_planted_solution(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            v_half = rng.normal(size=(n, n))
            v = v_half @ v_half.T + 0.2 * np.eye(n)
            d_half = rng.normal(size=(m, m))
            d = d_half @ d_half.T + 0.2 * np.eye(m)
            rho = float(rng.uniform(0.0, 20.0))
            planted = rng.normal(size=(n, m))
            rhs = 2.0 * v @ planted @ d + rho * planted
            sol = _solve_gain_sylvester(v[None], d[None], rho, rhs[None])
            np.testing.assert_allclose(sol[0], planted, rtol=1e-8, atol=1e-9)

    def test_matches_kron_solve(self, rng):
        n, m = 3, 2
        v = np.eye(n) + 0.1 * np.ones((n, n))
        d_half = rng.normal(size=(m, m))
        d = d_half @ d_half.T + np.eye(m)
        rho = 5.0
        rhs = rng.normal(size=(n, m))
        # Vectorized form: (2 D^T kron V + rho I) vec(L) = vec(RHS) with
        # row-major vec, matching numpy's ravel.
        lhs = 2.0 * np.kron(v, d.T) + rho * np.eye(n * m)
        expected = np.linalg.solve(lhs, rhs.ravel()).reshape(n, m)
        sol = _solve_gain_sylvester(v[None], d[None], rho, rhs[None])
        np.testing.assert_allclose(sol[0], expected, rtol=1e-9)

    def test_requires_positive_definite(self):
        with pytest.raises(InputError, match="positive definite"):
            _solve_gain_sylvester(
                np.diag([1.0, 0.0])[None], np.eye(2)[None], 1.0, np.ones((1, 2, 2))
            )

    @staticmethod
    def _spd_stack(rng, K, n):
        half = rng.normal(size=(K, n, n))
        return _symmetrize(half @ half.transpose(0, 2, 1) + 0.2 * np.eye(n))

    def test_stacked_matches_per_slice(self, rng):
        K, n, m, rho = 6, 4, 3, 2.5
        v = self._spd_stack(rng, K, n)
        d = self._spd_stack(rng, K, m)
        rhs = rng.normal(size=(K, n, m))
        stacked = _solve_gain_sylvester(v, d, rho, rhs)
        assert stacked.shape == (K, n, m)
        for k in range(K):
            single = _solve_gain_sylvester(v[k : k + 1], d[k : k + 1], rho, rhs[k : k + 1])
            np.testing.assert_allclose(stacked[k], single[0], rtol=1e-12, atol=1e-12)

    def test_stacked_non_positive_definite_slice_rejected(self, rng):
        K, n, m = 4, 3, 2
        for name, side in (("V", n), ("D", m)):
            ops = {"V": self._spd_stack(rng, K, n), "D": self._spd_stack(rng, K, m)}
            ops[name][2] = np.diag(np.r_[0.0, np.ones(side - 1)])
            with pytest.raises(InputError, match=f"{name} must be positive definite"):
                _solve_gain_sylvester(ops["V"], ops["D"], 1.0, np.ones((K, n, m)))


class TestHelpers:
    def test_symmetrize(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(_symmetrize(a), [[1.0, 1.0], [1.0, 1.0]])

    def test_symmetrize_is_the_plain_expression_bit_for_bit(self, rng):
        # The sum runs on a C-ordered copy of the transpose in place; every
        # bit, signed zeros, infinities and NaN payloads included, must be
        # 0.5 * (x + x^T)'s, and the input must stay untouched.
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-310, -3.5])
        stack = rng.normal(size=(3, 5, 5))
        stack.reshape(-1)[rng.choice(stack.size, 40, replace=False)] = rng.choice(special, 40)
        # Mirrored pairs whose sum depends on the operand order: NaNs of
        # either sign, inf against -inf, and +0.0 against -0.0.
        stack[0, 0, 1], stack[0, 1, 0] = np.nan, -np.nan
        stack[0, 2, 3], stack[0, 3, 2] = np.inf, -np.inf
        stack[0, 0, 4], stack[0, 4, 0] = 0.0, -0.0
        for x in (stack, stack[0], stack[0].T, stack.transpose(0, 2, 1), stack[:, ::2, ::2]):
            before = x.copy()
            with np.errstate(invalid="ignore"):
                out = _symmetrize(x)
                expected = 0.5 * (x + x.swapaxes(-1, -2))
            assert out.shape == x.shape and out.dtype == expected.dtype
            np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))
            assert not np.shares_memory(out, x)
            np.testing.assert_array_equal(x.view(np.uint64), before.view(np.uint64))

    def test_require_symmetric_tolerance(self):
        a = np.eye(3)
        a[0, 1] = 1e-12
        out = require_symmetric(a)
        np.testing.assert_allclose(out, out.T)
        with pytest.raises(InputError, match="not symmetric"):
            require_symmetric(np.array([[1.0, 1.0], [0.0, 1.0]]))
        # The bound is 1e-8 relative to the norm, and not an argument.
        require_symmetric(np.array([[1.0, 5e-9], [0.0, 1.0]]))
        with pytest.raises(InputError, match="^matrix is not symmetric within tolerance 1e-08$"):
            require_symmetric(np.array([[1.0, 5e-8], [0.0, 1.0]]))
        with pytest.raises(TypeError):
            require_symmetric(np.array([[1.0, 5.0], [0.0, 1.0]]), tol=float("nan"))

    def test_psd_sqrt_squares_back(self, rng):
        half = rng.normal(size=(4, 4))
        mat = half @ half.T
        root = psd_sqrt(mat)
        np.testing.assert_allclose(root @ root, mat, rtol=1e-9, atol=1e-10)
        with pytest.raises(InputError, match="positive semidefinite"):
            psd_sqrt(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("s", [-900, -67, 67, 900])
    def test_psd_sqrt_tests_at_every_scale(self, rng, s):
        # The semidefinite test is relative to the largest eigenvalue, with
        # no absolute floor, and no squared norm overflows.
        half = rng.normal(size=(4, 4))
        mat = np.ldexp(half @ half.T, s)
        root = psd_sqrt(mat)
        np.testing.assert_allclose(root @ root, mat, rtol=1e-9, atol=1e-10 * np.abs(mat).max())
        with pytest.raises(InputError, match="positive semidefinite"):
            psd_sqrt(np.ldexp(np.diag([1.0, -0.5]), s))


class TestArrayRule:
    """linalg._array, the one shape rule for array arguments."""

    def test_exact_and_free_lengths(self):
        np.testing.assert_array_equal(_array([[1, 2], [3, 4]], "x", ("N", "N")), [[1, 2], [3, 4]])
        assert _array(np.ones((2, 3)), "x", (2, "M")).shape == (2, 3)
        for shape in [(2, 3), (3,), (0, 0), (1, 2, 2)]:
            message = rf"^x must have shape \(N, N\), got {re.escape(str(shape))}$"
            with pytest.raises(DimensionError, match=message):
                _array(np.ones(shape), "x", ("N", "N"))
        with pytest.raises(DimensionError, match=r"^x must have shape \(2, M\), got \(3, 1\)$"):
            _array(np.ones((3, 1)), "x", (2, "M"))
        with pytest.raises(DimensionError, match=r"^x must have shape \(2,\), got \(3,\)$"):
            _array([1, 2, 3], "x", (2,))

    def test_a_matrix_is_not_a_stack_of_one(self):
        with pytest.raises(DimensionError, match=r"^x must have shape \(K, 2, 3\), got \(2, 3\)$"):
            _array(np.ones((2, 3)), "x", ("K", 2, 3))

    def test_float_array_read_without_a_copy(self):
        x = np.ones((2, 2))
        assert _array(x, "x", ("N", "N")) is x
        as_float = _array(np.eye(2, dtype=np.int8), "x", ("N", "N"))
        assert as_float.dtype == float
        np.testing.assert_array_equal(as_float, np.eye(2))

    def test_dtype_none_keeps_an_integer_stack(self):
        masks = np.ones((3, 2, 2), dtype=np.int8)
        assert _array(masks, "masks", ("T", "K", 2), dtype=None) is masks

    def test_dtype_int_reads_each_entry(self):
        read = _array([[np.int64(1), 2.0]], "x", ("S", 2), dtype=int)
        assert read.dtype == int and read.tolist() == [[1, 2]]
        for bad in (0.5, True, "1", None):
            message = rf"^x must be an integer, got {re.escape(repr(bad))}$"
            with pytest.raises(InputError, match=message):
                _array([[0, bad]], "x", ("S", 2), dtype=int)

    @pytest.mark.parametrize(
        "value, got",
        [
            ([[1.0, 2.0], [3.0]], "a ragged sequence"),
            ([["1", "2"], ["3", "4"]], "dtype <U1"),
            ([[1j, 0], [0, 1]], "dtype complex128"),
            ([[None, 0], [0, 1]], "dtype object"),
            ([[np.nan, 0], [0, 1]], "non-finite entries"),
            ([[np.inf, 0], [0, 1]], "non-finite entries"),
        ],
    )
    def test_unreadable_value_is_an_input_error(self, value, got):
        with pytest.raises(InputError, match=rf"^x must be a finite real array, got {got}$"):
            _array(value, "x", ("N", "N"))
