"""Closed-form sparsification step.

Minimizes a cardinality penalty plus a proximal pull toward the current
targets, subject to a per-sensor cap on how many steps of the period the
sensor may be active. The problem separates by sensor: the minimizer keeps a
prefix of that sensor's largest gain columns and zeroes the rest, and the
prefix length follows from comparing the penalty weight against the sorted
column energies. One vectorized pass solves it for all sensors at once.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .exceptions import InputError
from .linalg import _array, _integral, _real

__all__ = [
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
    be an integer in lowest..K; the period K is the caller's checked int.
    """
    if not isinstance(eta, (list, tuple)) and np.ndim(eta) == 0:
        raw = (eta,) * (1 if n_sensors is None else n_sensors)
    else:
        raw = tuple(eta)
        if n_sensors is not None and len(raw) != n_sensors:
            raise InputError(f"eta has {len(raw)} entries, expected {n_sensors}")
    return tuple(_integral(e, f"eta[{m}]", least=lowest, most=K) for m, e in enumerate(raw))


def g_step(targets, gamma: float, rho: float, eta) -> np.ndarray:
    """Solve the sparsification step for every sensor at once: minimize
    gamma * card(G) + (rho/2) ||G - S||^2 for (K, N, M) targets S, gamma >= 0,
    rho > 0 and eta one bound or one per sensor, each an integer in 0..K.

    Sorts each sensor's K column norms in descending order (ties go to the
    smaller step) and keeps the longest prefix whose proximal saving
    (rho/2) * norm^2 still covers gamma, capped by eta_m and by the number of
    columns above ZERO_COLUMN_TOL. Equality keeps the column. Kept columns
    are copied verbatim and the rest are zero, so sensor m is active on at
    most eta_m steps.
    """
    s = _array(targets, "targets", ("K", "N", "M"), stack=True)
    gamma = _real(gamma, "gamma", least=0)
    rho = _real(rho, "rho", above=0)
    eta = normalize_eta(eta, s.shape[2], len(s))
    # Norms over a contiguous (K, M, N) copy: the summation order, hence the
    # rounding at the gamma threshold, is that of one sensor's (K, N) stack.
    norms = np.linalg.norm(np.ascontiguousarray(s.transpose(0, 2, 1)), axis=2)
    order = np.argsort(-norms, axis=0, kind="stable")
    ranked = np.take_along_axis(norms, order, axis=0)
    # Each test holds on a prefix of the ranked steps, so their conjunction does.
    keep = (
        (np.arange(len(s))[:, np.newaxis] < np.array(eta))
        & (ranked > ZERO_COLUMN_TOL)
        & (0.5 * rho * ranked**2 >= gamma)
    )
    kept = np.empty_like(keep)
    np.put_along_axis(kept, order, keep, axis=0)
    return np.where(kept[:, np.newaxis, :], s, 0.0)
