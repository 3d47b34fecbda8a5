"""Closed-form sparsification step.

Minimizes, independently for each sensor, a cardinality penalty plus a
proximal pull toward the current targets, subject to a per-sensor cap on
how many steps of the period the sensor may be active. The minimizer keeps
a prefix of the largest gain columns and zeroes the rest; which prefix
length wins follows from comparing the penalty weight against the sorted
column energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DimensionError, InputError

__all__ = [
    "GStepProblem",
    "ColumnStack",
    "solve_equality_constrained",
    "select_by_gamma",
    "g_step",
    "g_objective",
    "normalize_eta",
    "ZERO_COLUMN_TOL",
]

# Columns with 2-norm at or below this are structurally zero: they never
# count toward cardinality and are never selected for keeping.
ZERO_COLUMN_TOL = 1e-14


def _as_target_array(s) -> np.ndarray:
    arr = np.asarray(s, dtype=float)
    if arr.ndim == 2:
        arr = arr[np.newaxis]
    if arr.ndim != 3:
        raise DimensionError(f"targets must stack to (K, N, M), got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise InputError("targets must be finite")
    return arr


def normalize_eta(eta, n_sensors: Optional[int], K: int, lowest: int = 0) -> tuple:
    """Per-sensor activation bounds as a tuple of ints.

    A scalar ``eta`` is broadcast to ``n_sensors`` entries (one when
    ``n_sensors`` is None); a sequence must have ``n_sensors`` entries, any
    number when it is None. Every bound must be an integer in lowest..K.
    """
    if np.isscalar(eta):
        raw = (eta,) * (1 if n_sensors is None else n_sensors)
    else:
        raw = tuple(eta)
        if n_sensors is not None and len(raw) != n_sensors:
            raise InputError(f"eta has {len(raw)} entries, expected {n_sensors}")
    bounds = tuple(_integral_bound(e, m) for m, e in enumerate(raw))
    for m, e in enumerate(bounds):
        if not lowest <= e <= K:
            raise InputError(f"eta[{m}] = {e} outside the valid range {lowest}..{K}")
    return bounds


def _integral_bound(e, m: int) -> int:
    try:
        if int(e) == e:
            return int(e)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"eta[{m}] = {e} is not an integer")


@dataclass(frozen=True, eq=False)
class GStepProblem:
    """One sparsification subproblem: targets S, weight gamma, penalty rho,
    and per-sensor activation bounds eta."""

    S: np.ndarray
    gamma: float
    rho: float
    eta: tuple

    def __post_init__(self):
        s = _as_target_array(self.S)
        s.setflags(write=False)
        if self.gamma < 0:
            raise InputError("gamma must be nonnegative")
        if self.rho <= 0:
            raise InputError("rho must be positive")
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "eta", normalize_eta(self.eta, s.shape[2], s.shape[0]))

    @property
    def K(self) -> int:
        return self.S.shape[0]

    @property
    def n_states(self) -> int:
        return self.S.shape[1]

    @property
    def n_sensors(self) -> int:
        return self.S.shape[2]

    def sensor_stack(self, m: int) -> "ColumnStack":
        """Column m of every target, as one per-sensor stack."""
        return ColumnStack(self.S[:, :, m])


@dataclass(frozen=True, eq=False)
class ColumnStack:
    """The K columns a single sensor contributes, one per period step.

    ``columns[k]`` is that sensor's length-N gain column at step k; norms
    are the per-step 2-norms, computed once at construction.
    """

    columns: np.ndarray
    norms: np.ndarray = None

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim == 1:
            cols = cols[:, np.newaxis]
        if cols.ndim != 2:
            raise DimensionError(f"columns must be (K, N), got ndim={cols.ndim}")
        if not np.all(np.isfinite(cols)):
            raise InputError("columns must be finite")
        norms = np.linalg.norm(cols, axis=1)
        if self.norms is not None:
            given = np.asarray(self.norms, dtype=float)
            if given.shape != norms.shape or np.abs(given - norms).max() > 1e-12:
                raise InputError("stored norms disagree with the columns")
        cols = np.ascontiguousarray(cols)
        cols.setflags(write=False)
        norms.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "norms", norms)

    @property
    def K(self) -> int:
        return self.columns.shape[0]

    @property
    def n_nonzero(self) -> int:
        """Count of structurally nonzero columns."""
        return int(np.sum(self.norms > ZERO_COLUMN_TOL))


def _keep_order(stack: ColumnStack) -> np.ndarray:
    """Step indices sorted by descending norm, ties broken by smaller index."""
    return np.lexsort((np.arange(stack.K), -stack.norms))


def solve_equality_constrained(stack: ColumnStack, q: int) -> np.ndarray:
    """Best approximation of the stack keeping at most q columns.

    Keeps the q largest columns by 2-norm (ties go to the smaller step
    index) verbatim and zeroes the rest. With q at or above the number of
    nonzero columns the stack comes back unchanged; q = 0 gives all zeros.
    """
    if not 0 <= q <= stack.K:
        raise InputError(f"q = {q} outside the valid range 0..{stack.K}")
    out = np.zeros_like(stack.columns)
    keep = _keep_order(stack)[:q]
    out[keep] = stack.columns[keep]
    return out


def select_by_gamma(stack: ColumnStack, gamma: float, rho: float, eta: int) -> tuple:
    """Optimal kept-column count for one sensor, and the thresholded stack.

    Keeping the q-th largest column is worth its proximal saving
    (rho/2) * norm^2 against the penalty gamma, so the optimum keeps the
    longest prefix of sorted columns whose saving still covers gamma,
    capped by eta and by the number of nonzero columns. Equality keeps the
    column. Returns (q_star, solution).
    """
    if gamma < 0:
        raise InputError("gamma must be nonnegative")
    if rho <= 0:
        raise InputError("rho must be positive")
    if not 0 <= eta <= stack.K:
        raise InputError(f"eta = {eta} outside the valid range 0..{stack.K}")
    order = _keep_order(stack)
    limit = min(int(eta), stack.n_nonzero)
    sorted_norms = stack.norms[order[:limit]]
    savings = 0.5 * rho * sorted_norms**2
    q_star = int(np.sum(savings >= gamma))
    return q_star, solve_equality_constrained(stack, q_star)


def g_step(prob: GStepProblem) -> np.ndarray:
    """Solve the sparsification step for every sensor.

    Applies select_by_gamma independently per sensor column and reassembles
    the K matrices. The output always satisfies the per-sensor activation
    bounds, since each sensor keeps at most eta_m columns.
    """
    out = np.zeros_like(prob.S)
    for m in range(prob.n_sensors):
        _, solution = select_by_gamma(prob.sensor_stack(m), prob.gamma, prob.rho, prob.eta[m])
        out[:, :, m] = solution
    return out


def g_objective(prob: GStepProblem, g) -> float:
    """Sparsification objective at a candidate: gamma times the number of
    nonzero columns plus the proximal distance (rho/2)||G - S||_F^2."""
    arr = _as_target_array(g)
    if arr.shape != prob.S.shape:
        raise DimensionError(f"candidate shape {arr.shape} does not match targets {prob.S.shape}")
    card = int(np.sum(np.linalg.norm(arr, axis=1) > ZERO_COLUMN_TOL))
    dist = float(np.sum((arr - prob.S) ** 2))
    return prob.gamma * card + 0.5 * prob.rho * dist
