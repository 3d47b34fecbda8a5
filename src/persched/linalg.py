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

Two value rules, _integral and _real, check the type and the range of every
scalar argument of the package's public types and entries, and one shape
rule, _array, reads and checks every array argument; each names the
argument at the start of its message when it refuses.
"""

from __future__ import annotations

import numbers

import numpy as np

from .exceptions import ConvergenceError, DimensionError, InputError

__all__ = [
    "require_symmetric",
    "psd_sqrt",
    "matrix_exponential",
]

# Eigenvalues within this margin of the unit circle count as unstable modes,
# in the model's PBH tests and the periodic module's detectability gate, and
# a loop counts as stable, in the periodic limit-cycle kernel, only when its
# spectral radius is below 1 - _UNIT_MARGIN.
_UNIT_MARGIN = 1e-9
# Relative asymmetry that require_symmetric accepts.
_SYMMETRY_TOL = 1e-8

# Coefficients of the degree-6 diagonal Pade approximant of exp(x).
_PADE6 = (1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280)


def _array(value, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """The one shape rule for an array argument: ``value`` read as an array
    with one axis per entry of ``shape``. An int entry is an exact length; a
    letter is a free one, any positive length, which each other entry of the
    same letter must repeat, so ("N", "N") asks for a square matrix.

    A wrong shape is the DimensionError "{name} must have shape (...), got
    (...)". A value NumPy cannot read as a finite real array (ragged, text,
    complex, object or non-finite) is an InputError naming the argument.
    dtype float gives a float array, not copied when it is one; None keeps
    the array as read, so a 0/1 int8 stack is not copied; int reads each
    entry by _integral and gives an int array."""
    try:
        arr = np.asarray(value, dtype=object if dtype is int else None)
    except ValueError:
        raise InputError(f"{name} must be a finite real array, got a ragged sequence") from None
    if dtype is not int and arr.dtype.kind not in "biuf":
        raise InputError(f"{name} must be a finite real array, got dtype {arr.dtype}")
    free = {}  # letter -> the length it first met
    fits = arr.ndim == len(shape) and all(
        n > 0 and n == free.setdefault(d, n) if isinstance(d, str) else n == d
        for n, d in zip(arr.shape, shape)
    )
    if not fits:
        dims = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise DimensionError(f"{name} must have shape ({dims}), got {arr.shape}")
    if dtype is int:
        return np.array([_integral(x, name) for x in arr.flat], dtype=int).reshape(arr.shape)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise InputError(f"{name} must be a finite real array, got non-finite entries")
    return arr if dtype is None else arr.astype(dtype, copy=False)


def _scalar(value, name: str, what: str):
    """A real scalar that is not a boolean, as given; a zero-dimensional
    array counts as its one entry."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be {what}, got {value!r}")
    return value


def _integral(value, name: str, least=None, most=None) -> int:
    """The one integer rule for a scalar argument: a Python or NumPy
    integer, or an integral float such as 4.0, as an int, in least..most
    where given. A boolean, a string or 4.5 is an InputError rather than a
    silent truncation."""
    scalar = _scalar(value, name, "an integer")
    if not isinstance(scalar, numbers.Integral) and not float(scalar).is_integer():
        raise InputError(f"{name} must be an integer, got {value!r}")
    return _bounded(int(scalar), value, name, least, most)


def _real(value, name: str, least=None, above=None) -> float:
    """The one real-number rule for a scalar argument: a finite Python or
    NumPy int or float, as a float, at least ``least`` or above ``above``
    where given. A boolean or a string is an InputError rather than a silent
    1.0 or a later TypeError."""
    try:
        real = float(_scalar(value, name, "a number"))
    except OverflowError:  # an int past the float range
        real = np.inf
    if not np.isfinite(real):
        raise InputError(f"{name} must be finite, got {value!r}")
    return _bounded(real, value, name, least, above=above)


def _bounded(number, value, name: str, least=None, most=None, above=None):
    """number, when it lies in the range; else the InputError
    "{name} must be {range}, got {value!r}", the range read as "nonnegative",
    "positive", "at least N" or "in L..U"."""
    if above is not None:
        inside, wording = number > above, "positive" if above == 0 else f"above {above}"
    elif most is not None:
        inside, wording = least <= number <= most, f"in {least}..{most}"
    elif least is not None:
        inside, wording = least <= number, "nonnegative" if least == 0 else f"at least {least}"
    else:
        return number
    if not inside:
        raise InputError(f"{name} must be {wording}, got {value!r}")
    return number


def _unit_shift(x: np.ndarray) -> np.ndarray:
    """The exponent s of each (r, c) slice of x, shaped to broadcast against
    it, for which max |2^s x| lies in [1, 2); 1 for a zero slice. np.ldexp
    by it is exact while no entry leaves the float range."""
    return 1 - np.frexp(np.abs(x).max(axis=(-2, -1), keepdims=True))[1]


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every slice of a (T, r, c) stack."""
    rows = x.reshape(len(x), 1, -1)
    return (rows @ rows.transpose(0, 2, 1))[:, 0, 0]


def _symmetrize(x: np.ndarray) -> np.ndarray:
    """Return the symmetric part (X + X^T) / 2, slice by slice for a stack,
    as a new array. X^T is first copied to C order and the sum made in
    place: adding a strided transposed view costs NumPy almost twice as
    much, and X + X^T keeps its operand order, so every bit (NaN payloads
    included) is what the plain expression gives."""
    out = np.array(x.swapaxes(-1, -2), dtype=np.result_type(x, 0.5), order="C")
    np.add(x, out, out=out)
    out *= 0.5
    return out


def _unit_symmetrize(x: np.ndarray) -> np.ndarray:
    """_symmetrize of a matrix taken at its _unit_shift and scaled back, so
    that X + X^T cannot overflow while X is finite. Both scalings are exact,
    so every entry in the normal range has the bits _symmetrize gives it."""
    shift = _unit_shift(x)
    return np.ldexp(_symmetrize(np.ldexp(x, shift)), -shift)


def require_symmetric(x, name: str = "matrix") -> np.ndarray:
    """Validate symmetry within _SYMMETRY_TOL relative to the norm and return
    the symmetrized copy, both at the matrix's _unit_shift, so that neither
    a squared norm nor X + X^T overflows."""
    arr = _array(x, name, ("N", "N"))
    unit = np.ldexp(arr, _unit_shift(arr))[np.newaxis]
    skew = _squared_norms(unit - unit.transpose(0, 2, 1))[0]
    if skew > _SYMMETRY_TOL**2 * _squared_norms(unit)[0]:
        raise InputError(f"{name} is not symmetric within tolerance {_SYMMETRY_TOL:g}")
    return _unit_symmetrize(arr)


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
    a = _array(x, "matrix_exponential argument", ("N", "N"))
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


def _smith_doubling(fm: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """Solve the discrete Lyapunov equations X = F X F^T + W of (T, n, n)
    stacks F and symmetric W, each F judged stable by the caller,
    periodic._stable_loops, which may clear it by a norm bound on its radius.

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

    x = _symmetrize(x)
    residual = np.sqrt(_squared_norms(x - fm @ x @ fm.transpose(0, 2, 1) - wm))
    # Scaled by the size of the terms, so a large X from a non-normal F is judged fairly.
    scale = np.sqrt(_squared_norms(wm)) + _squared_norms(fm) * np.sqrt(_squared_norms(x))
    # An overflowed norm, of the residual or of a term, leaves the excess NaN, and fails.
    excess = np.where(np.isfinite(scale), residual / np.maximum(1.0, scale), np.nan)
    worst = int(np.argmax(excess))
    if not excess[worst] <= 1e-9:
        raise ConvergenceError(f"Lyapunov residual {residual[worst]:.3g} exceeds contract")
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
