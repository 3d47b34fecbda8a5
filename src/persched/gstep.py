"""Closed-form sparsification step.

Minimizes a cardinality penalty plus a proximal pull toward the current
targets, subject to a per-sensor cap on how many steps of the period the
sensor may be active. The problem separates by sensor: the minimizer keeps a
prefix of that sensor's largest gain columns and zeroes the rest, and the
prefix length follows from comparing the penalty weight against the sorted
column energies. One vectorized pass solves it for all sensors at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InputError
from .linalg import _stack

__all__ = [
    "GStepProblem",
    "g_step",
    "normalize_eta",
    "ZERO_COLUMN_TOL",
]

# Columns with 2-norm at or below this are structurally zero: they never
# count toward cardinality and are never selected for keeping.
ZERO_COLUMN_TOL = 1e-14


def normalize_eta(eta, n_sensors: Optional[int], K: int, lowest: int = 0) -> tuple:
    """Per-sensor activation bounds as a tuple of ints.

    A scalar ``eta``, anything of zero dimensions, is broadcast to
    ``n_sensors`` entries (one when ``n_sensors`` is None); a sequence must
    have ``n_sensors`` entries, any number when it is None. Every bound must
    be an integer in lowest..K.
    """
    if np.ndim(eta) == 0:
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
        if not isinstance(e, (bool, np.bool_)) and int(e) == e:
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
        s = np.array(_stack(self.S, "targets"))  # private copy: the caller's stays writeable
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


def g_step(prob: GStepProblem) -> np.ndarray:
    """Solve the sparsification step for every sensor at once.

    Sorts each sensor's K column norms in descending order (ties go to the
    smaller step) and keeps the longest prefix whose proximal saving
    (rho/2) * norm^2 still covers gamma, capped by eta_m and by the number of
    columns above ZERO_COLUMN_TOL. Equality keeps the column. Kept columns
    are copied verbatim and the rest are zero, so sensor m is active on at
    most eta_m steps.
    """
    # Norms over a contiguous (K, M, N) copy: the summation order, hence the
    # rounding at the gamma threshold, is that of one sensor's (K, N) stack.
    norms = np.linalg.norm(np.ascontiguousarray(prob.S.transpose(0, 2, 1)), axis=2)
    order = np.argsort(-norms, axis=0, kind="stable")
    ranked = np.take_along_axis(norms, order, axis=0)
    # Each test holds on a prefix of the ranked steps, so their conjunction does.
    keep = (
        (np.arange(prob.K)[:, np.newaxis] < np.array(prob.eta))
        & (ranked > ZERO_COLUMN_TOL)
        & (0.5 * prob.rho * ranked**2 >= prob.gamma)
    )
    kept = np.empty_like(keep)
    np.put_along_axis(kept, order, keep, axis=0)
    return np.where(kept[:, np.newaxis, :], prob.S, 0.0)
