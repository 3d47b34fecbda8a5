"""Alternating-direction driver for joint gain and schedule design.

Splits the design into a smooth gain subproblem and a closed-form
sparsification step coupled through a scaled dual variable, then alternates:
pull the gains toward the current sparse copy, re-sparsify around the new
gains, update the dual, and stop once the two copies agree and the sparse
copy has settled. Once the sparse copy's support holds for two iterations,
the driver tries a jump to the exact fixed point on that support. The final
schedule is read off the sparse copy, which is feasible by construction, and
solved exactly (polished) for reporting; a support the jump already solved
is not solved again.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import lstep
from .exceptions import InputError, PerschedError
from .gstep import g_step, normalize_eta
from .linalg import _integral, _real
from .model import SystemModel
from .periodic import (
    Schedule,
    _gradient_cycles,
    _trace_sum,
    check_schedule_detectability,
    evaluate_schedule,
    schedule_from_gains,
)

__all__ = [
    "AdmmConfig",
    "IterationRecord",
    "SolveReport",
    "SweepCell",
    "AdmmDriver",
    "default_init_schedule",
    "run",
    "sweep",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AdmmConfig:
    """Solver settings.

    ``eta`` is either one bound shared by every sensor or a per-sensor
    sequence; bounds must be integers in 1..period, kept as an int or a
    tuple of ints. The solve starts from default_init_schedule's staggered
    schedule.

    The gain step is solved inexactly. The first inner solve runs to the
    gradient-norm tolerance ``lstep.TOL_FLOOR``; every later one stops at
    ``max(lstep.TOL_FLOOR, 0.1 * primal)``, where ``primal`` is the previous
    outer iteration's primal residual. The first solve stays tight because
    at gamma = 0 the first sparsification step already fixes the schedule.
    """

    period: int
    gamma: float
    eta: object
    rho: float = 10.0
    eps: float = 1e-3
    max_iters: int = 200

    def __post_init__(self):
        # Plain ints and floats: a NumPy scalar does not serialize.
        for name in ("period", "max_iters"):
            object.__setattr__(self, name, _integral(getattr(self, name), name, least=1))
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma", least=0))
        for name in ("rho", "eps"):
            object.__setattr__(self, name, _real(getattr(self, name), name, above=0))
        bounds = self.eta_tuple(None)
        object.__setattr__(self, "eta", bounds[0] if np.ndim(self.eta) == 0 else bounds)

    def eta_tuple(self, n_sensors: Optional[int]) -> tuple:
        """Per-sensor bounds, broadcast to n_sensors when a scalar was given."""
        return normalize_eta(self.eta, n_sensors, self.period, lowest=1)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    primal_residual: float
    g_change: float
    phi: float
    cardinality: int
    inner_iterations: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveReport:
    """Full outcome of one solver run.

    ``gains_raw`` and ``gains_polished`` are read-only (K, N, M) arrays.
    ``gains_raw`` and ``j_raw`` describe the solver's own gain iterate;
    ``gains_polished`` and ``j_polished`` re-solve the extracted schedule
    exactly and are the figures used for cross-method comparison.
    ``jump_iteration`` is the iteration after which the driver jumped to the
    support's fixed point, None when no jump was accepted. The polish reuses
    the jump's evaluation of the support, so after a kept jump ``gains_raw``
    are the polished gains and ``j_raw == j_polished`` by construction.
    ``line_search_failed`` is set when the Armijo search of some inner gain
    solve underflowed; that solve kept its best iterate and the outer loop
    went on, so the flag does not contradict ``converged``. ``wall_time``
    is informational and excluded from serialization so that identical runs
    produce identical files.
    """

    gains_raw: np.ndarray
    gains_polished: np.ndarray
    schedule: Schedule
    j_raw: float
    j_polished: float
    trace: tuple
    iterations: int
    converged: bool
    line_search_failed: bool
    wall_time: float
    config: AdmmConfig
    jump_iteration: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "jump_iteration": self.jump_iteration,
            "line_search_failed": self.line_search_failed,
            "j_raw": self.j_raw,
            "j_polished": self.j_polished,
            "schedule": self.schedule.to_text(),
            "total_activations": self.schedule.total_activations,
            "activation_counts": [int(c) for c in self.schedule.activation_counts],
            "gains_raw": self.gains_raw.tolist(),
            "gains_polished": self.gains_polished.tolist(),
            "trace": [rec.to_dict() for rec in self.trace],
            "config": self.config.to_dict(),
        }


@dataclass(frozen=True)
class SweepCell:
    """One gamma cell of a sweep; ``error`` is set when the run failed."""

    gamma: float
    report: Optional[SolveReport] = None
    error: Optional[str] = None


def default_init_schedule(sys: SystemModel, K: int, eta) -> Schedule:
    """Deterministic staggered starting schedule.

    Sensor m is activated at times (m + floor(j K / eta_m)) mod K for
    j = 0..eta_m-1: each sensor gets exactly eta_m evenly spread
    activations, with starting offsets staggered across sensors so steps
    are covered as uniformly as possible. K must be a positive integer, not
    a boolean. Raises when the request is all zero or the resulting schedule
    would leave an unstable mode unobserved.
    """
    K = _integral(K, "K", least=1)
    bounds = normalize_eta(eta, sys.n_sensors, K)
    if sum(bounds) < 1:
        raise InputError("at least one activation is required")
    mask = np.zeros((K, sys.n_sensors), dtype=np.int8)
    for m, e in enumerate(bounds):
        for j in range(e):
            mask[(m + (j * K) // e) % K, m] = 1
    sched = Schedule(mask)
    check_schedule_detectability(sys, sched)
    return sched


class AdmmDriver:
    """Stateful solver: construct, then ``run()``, or ``step()`` manually.

    After ``initialize()``, which the first ``step()`` or ``run()`` calls,
    the split variables are the (K, N, M) arrays ``L`` (read-only), ``G``
    and ``Lam``, ``trace`` holds one record per step taken since, and
    ``iteration`` is its length.
    Each step binds new objects to them, so references read earlier keep
    their values. The next gain solve starts from L with the cycles the
    last solve or kept jump computed for it, unless L was rebound since.
    """

    def __init__(self, sys: SystemModel, cfg: AdmmConfig):
        self.sys = sys
        self.cfg = cfg
        self.eta = cfg.eta_tuple(sys.n_sensors)
        self._initialized = False

    def initialize(self) -> None:
        """Set L from the starting schedule's exact gains, G and the dual Lam
        to zero, and start a new, empty trace."""
        sched = default_init_schedule(self.sys, self.cfg.period, self.eta)
        self.L = evaluate_schedule(self.sys, sched).gains
        self._carried = (None, None)  # gains and their _gradient_cycles
        shape = self.L.shape
        self.G = np.zeros(shape)
        self.Lam = np.zeros(shape)
        self.trace = []
        self.line_search_failed = False
        self._best_phi = np.inf
        self._best = None
        self._support = None
        self._fixed = {}  # support -> its ScheduleEvaluation, None if that raised
        self.jump_iteration = None
        self._initialized = True

    @property
    def iteration(self) -> int:
        return len(self.trace)

    def _inner_tol(self) -> float:
        """Gradient-norm tolerance of the next gain solve (rule in AdmmConfig).

        ADMM needs the gain step only as accurate as the residual it is
        shrinking (Boyd et al., FnT ML 2011, section 3.4.4).
        """
        if not self.trace:
            return lstep.TOL_FLOOR
        return max(lstep.TOL_FLOOR, 0.1 * self.trace[-1].primal_residual)

    def _meets_rule(self, record: IterationRecord) -> bool:
        return record.primal_residual <= self.cfg.eps and record.g_change <= self.cfg.eps

    def _jump(self, support: Schedule) -> None:
        """Move to the ADMM fixed point on ``support`` when there is one.

        The Riccati-optimal gains L* of the support minimize the trace sum
        over gains with that support, so with the dual set to minus the
        trace gradient at L*, (L*, g_step(L* + dual / rho), dual) is a fixed
        point of one iteration whenever the G-step keeps exactly that
        support. Any other outcome leaves the iterate alone: finite support
        identification (Liang, Fadili & Peyre, JOTA 172, 2017), accepted
        only when it checks, as in OSQP's polishing. The dual, the check and,
        after a kept jump, the next gain solve read one covariance cycle,
        that of L*'s _gradient_cycles. Whatever the outcome, ``_fixed``
        keeps the support's evaluation (None when it raised) for the polish.
        """
        cfg = self.cfg
        self._fixed[support] = None
        try:
            self._fixed[support] = fixed = evaluate_schedule(self.sys, support)
            gains = fixed.gains
            cycles = _gradient_cycles(self.sys, gains)
        except PerschedError:
            return
        _, b, vld = lstep._first_order(self.sys, gains, *cycles)
        lam = b - vld
        new_g = g_step(gains + lam / cfg.rho, cfg.gamma, cfg.rho, self.eta)
        if schedule_from_gains(new_g) != support:
            return
        self.L, self.G, self.Lam, self._carried = gains, new_g, lam, (gains, cycles)
        self.jump_iteration = self.iteration
        logger.debug("iteration %d: jumped to the fixed point of the support", self.iteration)

    def step(self) -> IterationRecord:
        """Advance one iteration: gain solve, sparsify, dual update, and the
        jump to the support's fixed point when the support has held."""
        if not self._initialized:
            self.initialize()
        cfg = self.cfg
        rho = cfg.rho

        u = self.G - self.Lam / rho
        carried = self._carried[1] if self._carried[0] is self.L else None
        result = lstep.solve(self.sys, u, rho, self.L, tol=self._inner_tol(), cycles=carried)
        if result.line_search_failed:
            self.line_search_failed = True
        new_l = result.gains

        s = new_l + self.Lam / rho
        new_g = g_step(s, cfg.gamma, rho, self.eta)

        g_change = float(sum(np.linalg.norm(new_g[k] - self.G[k]) for k in range(cfg.period)))
        self.Lam = self.Lam + rho * (new_l - new_g)
        primal = float(sum(np.linalg.norm(new_l[k] - new_g[k]) for k in range(cfg.period)))

        self.L, self._carried = new_l, (new_l, result.cycles)
        self.G = new_g

        support = schedule_from_gains(new_g)
        cardinality = support.total_activations
        record = IterationRecord(
            iteration=self.iteration + 1,
            primal_residual=primal,
            g_change=g_change,
            phi=result.phi,
            cardinality=cardinality,
            inner_iterations=result.iterations,
        )
        self.trace.append(record)
        if result.phi < self._best_phi:
            self._best_phi = result.phi
            self._best = (new_l, new_g.copy(), result.cycles)
        logger.debug(
            "iteration %d: primal %.3e, g_change %.3e, phi %.6g, cardinality %d",
            record.iteration,
            primal,
            g_change,
            result.phi,
            cardinality,
        )
        if support == self._support and not self._meets_rule(record) and support not in self._fixed:
            self._jump(support)
        self._support = support
        return record

    def run(self) -> SolveReport:
        """Iterate to the two-residual stopping rule or the cap.

        Convergence requires both the gain/copy gap and the change in the
        sparse copy to fall below eps. If the cap is hit instead, the
        iterate with the best subproblem objective seen so far is reported.
        Its j_raw comes from the covariance cycle of the gain solve or jump
        that gave those gains, unless the polish solved the same gains.
        """
        start = time.perf_counter()
        if not self._initialized:
            self.initialize()
        cfg = self.cfg
        converged = False
        while self.iteration < cfg.max_iters:
            if self._meets_rule(self.step()):
                converged = True
                break

        if converged or self._best is None:
            (final_l, cycles), final_g = self._carried, self.G
        else:
            final_l, final_g, cycles = self._best

        schedule = schedule_from_gains(final_g)
        polished = self._fixed.get(schedule) or evaluate_schedule(self.sys, schedule)
        if final_l is polished.gains:
            j_raw = polished.J
        else:
            j_raw = float(_trace_sum(cycles[0]) / cfg.period)
        report = SolveReport(
            gains_raw=final_l,
            gains_polished=polished.gains,
            schedule=schedule,
            j_raw=j_raw,
            j_polished=polished.J,
            trace=tuple(self.trace),
            iterations=self.iteration,
            converged=converged,
            line_search_failed=self.line_search_failed,
            wall_time=time.perf_counter() - start,
            config=cfg,
            jump_iteration=self.jump_iteration,
        )
        logger.info(
            "%s after %d iterations: J_polished %.6g, %d activations",
            "converged" if converged else "cap hit",
            report.iterations,
            report.j_polished,
            schedule.total_activations,
        )
        return report


def run(sys: SystemModel, cfg: AdmmConfig) -> SolveReport:
    """One full solve with the given configuration."""
    return AdmmDriver(sys, cfg).run()


def _run_cell(sys: SystemModel, cfg: AdmmConfig, gamma: float) -> SweepCell:
    try:
        return SweepCell(gamma=gamma, report=run(sys, replace(cfg, gamma=gamma)))
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the sweep
        logger.warning("sweep cell (gamma=%s) failed: %s", gamma, exc)
        return SweepCell(gamma=gamma, error=f"{type(exc).__name__}: {exc}")


def sweep(sys: SystemModel, base_cfg: AdmmConfig, gamma_list) -> list:
    """Run the solver once per gamma at the bounds ``base_cfg.eta``.

    Returns one SweepCell per gamma, in order; failures are captured per
    cell. Activation counts are expected to shrink as gamma grows; because
    the underlying problem is nonconvex this is checked softly and
    violations are logged, not raised.
    """
    gammas = list(gamma_list)
    if not gammas:
        raise InputError("gamma_list must be non-empty")
    results = [_run_cell(sys, base_cfg, g) for g in gammas]

    last = None
    for cell in results:
        if cell.report is None:
            continue
        count = cell.report.schedule.total_activations
        if last is not None and count > last:
            logger.warning(
                "activation count rose from %d to %d at gamma=%s", last, count, cell.gamma
            )
        last = count
    return results
