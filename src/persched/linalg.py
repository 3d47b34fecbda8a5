"""Dense linear-algebra kernels used throughout the package.

All functions take and return plain ``numpy.ndarray`` objects and never
mutate their inputs. Solvers re-symmetrize symmetric outputs, so downstream
covariance recursions do not accumulate asymmetry, and they verify their own
residual contracts before returning.
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


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every slice of a (T, r, c) stack."""
    rows = x.reshape(len(x), 1, -1)
    return (rows @ rows.transpose(0, 2, 1))[:, 0, 0]


def symmetrize(x: np.ndarray) -> np.ndarray:
    """Return the symmetric part (X + X^T) / 2, slice by slice for a stack."""
    return 0.5 * (x + x.swapaxes(-1, -2))


def require_symmetric(x, name: str = "matrix", tol: float = 1e-8) -> np.ndarray:
    """Validate symmetry within ``tol`` relative to the norm and return the
    symmetrized copy."""
    arr = _square(x, name)[np.newaxis]
    scale = max(1.0, _squared_norms(arr)[0])
    if _squared_norms(arr - arr.transpose(0, 2, 1))[0] > tol**2 * scale:
        raise InputError(f"{name} is not symmetric within tolerance {tol:g}")
    return symmetrize(arr[0])


def psd_sqrt(x, name: str = "matrix") -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition."""
    arr = require_symmetric(x, name)
    w, u = np.linalg.eigh(arr)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -1e-10 * scale:
        raise InputError(f"{name} is not positive semidefinite")
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T


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
    with its own stopping point. Raises ConvergenceError unless every slice
    meets the residual contract
    ||X - FXF^T - W|| / max(1, ||W|| + ||F||^2 ||X||) <= 1e-9
    (Frobenius norms).

    Every scaling here is by a power of two, so exact. A slice whose max |W|
    is below 1 is solved with W scaled into [1, 2) and X scaled back: for a
    semidefinite W, ||X|| >= ||W|| >= 1 then, so neither max(1, .) floor
    binds, and the settle test and the contract stay relative however small
    W is. A failed solve, as any is once a squared norm overflows (entries
    past about 1e154) though X is representable, runs once more with each
    slice's W scaled to max |W| near 2^100 and X scaled back: with the floors
    not binding it computes what the unscaled solve would in unbounded range.
    An X past the float range raises the first solve's error."""
    exponent = np.frexp(np.abs(wm).max(axis=(1, 2), keepdims=True))[1]
    lift = np.maximum(0, 1 - exponent)
    try:
        return np.ldexp(_doubling(fm, np.ldexp(wm, lift), rho), -lift)
    except ConvergenceError:
        shift = 100 - exponent
        x = np.ldexp(_doubling(fm, np.ldexp(wm, shift), rho), -shift)
        if not np.isfinite(x).all():
            raise
        return x


def _doubling(fm: np.ndarray, wm: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """One Smith doubling solve of _smith_doubling, in W's own scale."""
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
    # An overflowed norm, of the residual or of a term, leaves the excess NaN,
    # and fails: past about 1e154 the settle test above is no test either.
    excess = np.where(np.isfinite(scale), residual / np.maximum(1.0, scale), np.nan)
    worst = int(np.argmax(excess))
    if not excess[worst] <= 1e-9:
        raise ConvergenceError(
            f"Lyapunov residual {residual[worst]:.3g} exceeds contract for radius {rho[worst]:.6g}"
        )
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
