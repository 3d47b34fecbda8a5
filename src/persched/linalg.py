"""Dense linear-algebra kernels used throughout the package.

All functions take and return plain ``numpy.ndarray`` objects and never
mutate their inputs. Solvers re-symmetrize symmetric outputs, so downstream
covariance recursions do not accumulate asymmetry, and they verify their own
residual contracts before returning.

One scaling rule, _unit_shift, serves every kernel whose tests must not
depend on the size of its operands: the symmetry and semidefinite checks,
the Smith doubling, and the periodic module's Riccati doubling judge a
matrix at the power of two that brings its largest entry into [1, 2). Such
a scaling is exact, so a result scaled back is what the unscaled problem
gives in unbounded range.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError, DimensionError, InputError

__all__ = [
    "as_matrix",
    "symmetrize",
    "require_symmetric",
    "psd_sqrt",
    "matrix_exponential",
]

# Eigenvalues within this margin of the unit circle count as unstable modes,
# in the model's PBH tests and the periodic module's detectability gate, and
# a loop counts as stable, in the periodic limit-cycle kernel, only when its
# spectral radius is below 1 - _UNIT_MARGIN.
_UNIT_MARGIN = 1e-9

# Coefficients of the degree-6 diagonal Pade approximant of exp(x).
_PADE6 = (1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D float array with finite entries."""
    if np.ndim(x) != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {np.shape(x)}")
    return _stack(x, name)[0]


def _stack(x, name: str) -> np.ndarray:
    """Coerce a matrix, or a (K, r, c) stack of them, to a 3-D float array
    with finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 2:
        arr = arr[np.newaxis]
    if arr.ndim != 3:
        raise DimensionError(f"{name} must be 2-D or a 3-D stack, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _square(x, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(x, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def _unit_shift(x: np.ndarray) -> np.ndarray:
    """The exponent s of each (r, c) slice of x, shaped to broadcast against
    it, for which max |2^s x| lies in [1, 2); 1 for a zero slice. np.ldexp
    by it is exact while no entry leaves the float range."""
    return 1 - np.frexp(np.abs(x).max(axis=(-2, -1), keepdims=True))[1]


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every slice of a (T, r, c) stack."""
    rows = x.reshape(len(x), 1, -1)
    return (rows @ rows.transpose(0, 2, 1))[:, 0, 0]


def symmetrize(x: np.ndarray) -> np.ndarray:
    """Return the symmetric part (X + X^T) / 2, slice by slice for a stack."""
    return 0.5 * (x + x.swapaxes(-1, -2))


def require_symmetric(x, name: str = "matrix", tol: float = 1e-8) -> np.ndarray:
    """Validate symmetry within ``tol`` relative to the norm, judged at the
    matrix's _unit_shift so that no squared norm overflows, and return the
    symmetrized copy."""
    arr = _square(x, name)
    unit = np.ldexp(arr, _unit_shift(arr))[np.newaxis]
    if _squared_norms(unit - unit.transpose(0, 2, 1))[0] > tol**2 * _squared_norms(unit)[0]:
        raise InputError(f"{name} is not symmetric within tolerance {tol:g}")
    return symmetrize(arr)


def psd_sqrt(x, name: str = "matrix") -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition, taken at
    the matrix's _unit_shift so that the semidefinite test, every eigenvalue
    at least -1e-10 times the largest magnitude, is the same at every scale."""
    arr = require_symmetric(x, name)
    shift = _unit_shift(arr).item()
    w, u = np.linalg.eigh(np.ldexp(arr, shift))
    if w.min() < -1e-10 * np.abs(w).max():
        raise InputError(f"{name} is not positive semidefinite")
    return (u * np.sqrt(np.clip(np.ldexp(w, -shift), 0.0, None))) @ u.T


def matrix_exponential(x) -> np.ndarray:
    """Matrix exponential e^X by scaling and squaring.

    The argument is scaled by a power of two until its 1-norm is at most
    0.5, a degree-6 diagonal Pade approximant is evaluated, and the result
    is squared back up.

    Parameters
    ----------
    x : array_like
        Square matrix.

    Returns
    -------
    numpy.ndarray
        e^X, same shape as ``x``.
    """
    a = _square(x, "matrix_exponential argument")
    n = a.shape[0]
    norm1 = float(np.linalg.norm(a, 1))
    squarings = 0
    if norm1 > 0.5:
        squarings = int(np.ceil(np.log2(norm1 / 0.5)))
        a = a / (2.0**squarings)

    eye = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    c = _PADE6
    even = c[0] * eye + c[2] * a2 + c[4] * a4 + c[6] * (a2 @ a4)
    odd = a @ (c[1] * eye + c[3] * a2 + c[5] * a4)
    result = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        result = result @ result
    return result


def _smith_doubling(fm: np.ndarray, wm: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Solve the discrete Lyapunov equations X = F X F^T + W of (T, n, n)
    stacks F and symmetric W, whose spectral radii ``rho`` (named in the
    error message) the caller has already tested to be below 1 - _UNIT_MARGIN.

    Smith doubling: X <- X + G X G^T, G <- G^2 from X = W, G = F, each slice
    with its own stopping point. Each W slice is solved at its _unit_shift,
    max |W| in [1, 2), and X is scaled back: the scalings are exact, and for
    a semidefinite W then ||X|| >= ||W|| >= 1, so neither max(1, .) floor
    binds and the settle test and the residual contract
    ||X - FXF^T - W|| / max(1, ||W|| + ||F||^2 ||X||) <= 1e-9
    (Frobenius norms) are relative at every scale of W, no squared norm
    overflowing. Raises ConvergenceError unless every slice meets the
    contract, or when an X scaled back lies past the float range."""
    shift = _unit_shift(wm)
    wm = np.ldexp(wm, shift)
    # live: slices still doubling; g in C order, so rounding ignores F's layout.
    x, live, xl, g = np.empty_like(wm), np.arange(len(fm)), wm, np.ascontiguousarray(fm)
    for _ in range(200):
        term = g @ xl @ g.transpose(0, 2, 1)
        xl = xl + term
        settled = _squared_norms(term) <= 1e-32 * np.maximum(1.0, _squared_norms(xl))
        if np.count_nonzero(settled):
            x[live[settled]] = xl[settled]
            live, xl, g = live[~settled], xl[~settled], g[~settled]
            if not live.size:
                break
        g = g @ g
    else:
        raise ConvergenceError("doubling iteration failed to settle")

    x = symmetrize(x)
    residual = np.sqrt(_squared_norms(x - fm @ x @ fm.transpose(0, 2, 1) - wm))
    # Scaled by the size of the terms, so a large X from a non-normal F is judged fairly.
    scale = np.sqrt(_squared_norms(wm)) + _squared_norms(fm) * np.sqrt(_squared_norms(x))
    # An overflowed norm, of the residual or of a term, leaves the excess NaN, and fails.
    excess = np.where(np.isfinite(scale), residual / np.maximum(1.0, scale), np.nan)
    worst = int(np.argmax(excess))
    if not excess[worst] <= 1e-9:
        raise ConvergenceError(
            f"Lyapunov residual {residual[worst]:.3g} exceeds contract for radius {rho[worst]:.6g}"
        )
    with np.errstate(over="ignore"):
        x = np.ldexp(x, -shift)
    if not np.isfinite(x).all():
        raise ConvergenceError("doubling iteration failed to settle within the float range")
    return x


def _solve_gain_sylvester(v: np.ndarray, d: np.ndarray, rho: float, rhs: np.ndarray) -> np.ndarray:
    """Solve 2 V_k L_k D_k + rho L_k = RHS_k for each slice of (K, n, n),
    (K, m, m) and (K, n, m) stacks, V and D symmetric and rho >= 0 as the
    caller built them; returns the (K, n, m) stack of the L_k.

    Both sides are diagonalized, so each equation reduces to an entrywise
    division in the joint eigenbasis. Raises InputError unless every V_k and
    D_k is positive definite, and ConvergenceError unless every slice meets
    ||2 V L D + rho L - RHS|| <= 1e-9 max(1, ||RHS||) (Frobenius norms).
    """
    sv, uv = np.linalg.eigh(v)
    sd, ud = np.linalg.eigh(d)
    if sv.min() <= 0.0:
        raise InputError("V must be positive definite")
    if sd.min() <= 0.0:
        raise InputError("D must be positive definite")

    denom = 2.0 * sv[:, :, np.newaxis] * sd[:, np.newaxis, :] + rho
    sol = uv @ ((uv.transpose(0, 2, 1) @ rhs @ ud) / denom) @ ud.transpose(0, 2, 1)

    residual = np.linalg.norm(2.0 * v @ sol @ d + rho * sol - rhs, axis=(1, 2))
    if np.any(residual > 1e-9 * np.maximum(1.0, np.linalg.norm(rhs, axis=(1, 2)))):
        raise ConvergenceError(f"gain equation residual {residual.max():.3g} exceeds contract")
    return sol
