"""Smooth gain-design subproblem.

Minimizes the un-normalized trace of the covariance limit cycle plus a
proximal pull toward per-step targets, over the periodic gain sequence.
The solver alternates exact coordinate solves (freeze the covariance and
value cycles, solve a small Sylvester equation per step) with a backtracking
line search on the resulting direction; each accepted step strictly
decreases the objective and every iterate keeps the closed loop stable.

solve is the one public entry. It checks its arguments once, then runs on
private kernels. Each point it scores, the start and every Armijo trial,
gets its covariance and value cycles and their one stability verdict from
periodic._gradient_cycles, and its objective once; the accepted trial's
cycles and objective serve the next iteration. One kernel, _first_order,
forms the terms of the first-order condition: solve takes the gradient and
the Anderson-Moore direction from them, and the ADMM driver's jump its dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InstabilityError
from .linalg import _array, _real, _solve_gain_sylvester, _symmetrize
from .model import SystemModel
from .periodic import _gradient_cycles, _trace_sum

__all__ = [
    "LStepResult",
    "solve",
    "TOL_FLOOR",
]

_MIN_STEP = 1e-12
# Iteration cap of solve.
_MAX_ITERS = 100
# Armijo sufficient-decrease fraction and backtracking factor.
_ARMIJO_ALPHA = 0.3
_ARMIJO_BETA = 0.5
# Default gradient-norm tolerance of solve; the ADMM driver's inexact inner
# rule never asks for less.
TOL_FLOOR = 1e-6


@dataclass(frozen=True)
class LStepResult:
    """Outcome of one gain-subproblem solve.

    ``converged`` reports whether the gradient norm reached the tolerance.
    A solve that did not converge stopped at one of three exits: the
    iteration cap; a non-negative directional derivative, which means the
    point is numerically stationary; or an Armijo step that underflowed,
    which sets ``line_search_failed``. Each exit returns the last accepted
    iterate, the best found.
    ``descent_history`` records the directional derivative of each
    Anderson-Moore direction, which stays negative away from stationarity.
    ``armijo_trials`` counts the trial points the line search scored (one
    _gradient_cycles call each), accepted or rejected. ``gains`` is a
    read-only (K, N, M) array and ``cycles`` its read-only covariance and
    value cycles from periodic._gradient_cycles, which a solve that starts
    from ``gains`` can take as its start's.
    """

    gains: np.ndarray
    phi: float
    grad_norm: float
    iterations: int
    step_sizes: tuple
    converged: bool
    line_search_failed: bool
    phi_history: tuple
    descent_history: tuple
    armijo_trials: int
    cycles: tuple


def _phi_from_cycle(
    targets: np.ndarray, rho: float, gains: np.ndarray, cycle: np.ndarray
) -> float:
    """Subproblem objective: un-normalized trace sum over the gains'
    covariance cycle plus (rho/2) times the squared distance to the targets."""
    return float(_trace_sum(cycle)) + 0.5 * rho * float(np.sum((gains - targets) ** 2))


def _first_order(sys: SystemModel, gains: np.ndarray, cycle: np.ndarray, v_next: np.ndarray):
    """D, B and 2 V L D as (K, ., .) stacks, for gains with covariance cycle
    {P_k} and V_{k+1} from periodic._gradient_cycles: D_k = R + C P_k C^T,
    B_k = 2 V_{k+1} A P_k C^T. The subproblem is stationary where
    2 V_{k+1} L_k D_k + rho L_k = B_k + rho U_k; its gradient is
    2 V L D + rho (L - U) - B, and the trace sum's 2 V L D - B."""
    d = _symmetrize(sys.R + sys.C @ cycle @ sys.C.T)
    return d, 2.0 * v_next @ sys.A @ cycle @ sys.C.T, 2.0 * v_next @ gains @ d


def _armijo(
    sys: SystemModel,
    targets: np.ndarray,
    rho: float,
    gains: np.ndarray,
    direction: np.ndarray,
    phi0: float,
    slope: float,
):
    """Backtracking search: the first s in {1, beta, beta^2, ...} with
    phi(L + s D) < phi0 + alpha * s * slope, for alpha = _ARMIJO_ALPHA and
    beta = _ARMIJO_BETA, where destabilizing trial points count as
    infinitely bad. Returns the number of trial points scored and
    (s, new gains, their cycles, their objective), or None in its place when
    s underflows."""
    s, trials = 1.0, 0
    while s >= _MIN_STEP:
        trial = gains + s * direction
        trial.setflags(write=False)
        trials += 1
        try:
            cycles = _gradient_cycles(sys, trial)
        except InstabilityError:
            pass  # infinitely bad
        else:
            phi = _phi_from_cycle(targets, rho, trial, cycles[0])
            if phi < phi0 + _ARMIJO_ALPHA * s * slope:
                return trials, (s, trial, cycles, phi)
        s *= _ARMIJO_BETA
    return trials, None


def solve(
    sys: SystemModel, targets, rho: float, init, tol: float = TOL_FLOOR, cycles=None
) -> LStepResult:
    """Minimize the trace sum of ``sys``'s covariance cycle plus (rho/2)
    times the squared distance to the (K, N, M) ``targets`` over the gains,
    from the stabilizing start ``init`` of the same shape; rho = 0 leaves
    the plain trace sum.

    Each iteration takes both cycles of the current gains, and their
    objective, from the start or the accepted trial point, checks the
    gradient norm against ``tol``, forms the coordinate-solve direction, and
    backtracks along it. The objective decreases strictly at every accepted
    step. On line-search failure the best iterate found so far is returned
    with the failure flag set instead of raising. The iteration cap
    (``_MAX_ITERS``) and the line search's constants (``_ARMIJO_ALPHA``,
    ``_ARMIJO_BETA``) are fixed. A writeable ``init`` is copied, so the
    result never shares the caller's array; ``targets`` are read, not
    copied. ``cycles``, when given, are periodic._gradient_cycles of
    ``init``, such as the ``cycles`` of the result that returned it; they
    stand for the start's own and its stability check.
    """
    targets = _array(targets, "targets", ("K", sys.n_states, sys.n_sensors), stack=True)
    rho = _real(rho, "rho", least=0)
    tol = _real(tol, "tol", least=0)
    gains = _array(init, "gains", targets.shape, stack=True)
    if gains.flags.writeable:
        gains = gains.copy()
        gains.setflags(write=False)
    if cycles is None:
        try:
            cycles = _gradient_cycles(sys, gains)
        except InstabilityError as exc:
            raise InstabilityError("initial gains do not stabilize the closed loop") from exc
    cycle, v_next = cycles
    phi = _phi_from_cycle(targets, rho, gains, cycle)

    phi_history = []
    step_sizes = []
    descent_history = []
    converged = False
    ls_failed = False
    iterations = 0
    armijo_trials = 0

    while True:
        d, b, vld = _first_order(sys, gains, cycle, v_next)
        rhs = b + rho * targets
        grad = vld + rho * gains - rhs
        grad_norm = float(np.linalg.norm(grad))
        phi_history.append(phi)
        if grad_norm <= tol:
            converged = True
            break
        if iterations >= _MAX_ITERS:
            break
        direction = _solve_gain_sylvester(v_next, d, rho, rhs) - gains
        slope = float(np.sum(grad * direction))
        descent_history.append(slope)
        if slope >= 0.0:
            # Numerically stationary: the coordinate solve returned the
            # current point up to roundoff, so no further progress is
            # possible at this tolerance.
            break
        trials, accepted = _armijo(sys, targets, rho, gains, direction, phi, slope)
        armijo_trials += trials
        if accepted is None:
            ls_failed = True
            break
        s, gains, (cycle, v_next), phi = accepted
        step_sizes.append(s)
        iterations += 1

    return LStepResult(
        gains=gains,
        phi=phi,
        grad_norm=grad_norm,
        iterations=iterations,
        step_sizes=tuple(step_sizes),
        converged=converged,
        line_search_failed=ls_failed,
        phi_history=tuple(phi_history),
        descent_history=tuple(descent_history),
        armijo_trials=armijo_trials,
        cycles=(cycle, v_next),
    )
