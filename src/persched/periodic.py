"""Periodic estimation for fixed gains or fixed schedules.

Covers the K-periodic machinery shared by the solver and the baselines:
covariance and value limit cycles, the trace objective, schedule extraction
from gain sparsity, and Riccati-optimal gains for a fixed activation
schedule.

One kernel, _limit_cycles, computes the periodic limit cycles of a stack of
loops with given gains whose monodromies share one spectrum: one pass around
the period, one radius test, one stacked N x N Lyapunov solve in the
monodromy matrices, one propagation. The value cycle is the covariance
recursion run backwards in time on the transposed factors with noise I
(Bittanti & Colaneri, *Periodic Systems*, 2009, ch. 3), whose monodromy is
the covariance loop's transposed, so _gradient_cycles stacks the two loops.

A schedule's gains come from the K coupled Riccati recursions it masks. The
map of one period is a single (E, G, H) triple, whose fixed point the
structure-preserving doubling algorithm reaches in a few squarings (Chu,
Fan, Lin & Wang, *Int. J. Control* 77(8), 2004; Hench & Laub, *IEEE TAC*
39(6), 1994). One rule, _compose, builds that triple from the K step
triples and squares it in the doubling. One pass around the period from the
fixed point gives the gains and their covariance cycle, the Riccati cycle,
so scoring a schedule takes no Lyapunov solve. Both paths judge stability
by one radius test, _stable_loops, the package's only stability verdict.
The lifted (block-cyclic) reformulation, which solves the same problems on
KN x KN operands, and the plain recursions iterated to a fixed point serve
as cross-checks in tests/reference.py; the detectability gate builds the
two lifts it needs in place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError, InitializationError, InputError, InstabilityError
from .linalg import _UNIT_MARGIN, _smith_doubling, _stack, _unit_shift, symmetrize
from .model import SystemModel, _rank_drop_at, _unit_circle_eigenvalues

__all__ = [
    "Schedule",
    "ScheduleEvaluation",
    "covariance_limit_cycle",
    "schedule_from_gains",
    "check_schedule_detectability",
    "evaluate_schedule",
    "evaluate_schedules",
    "chunk_length",
    "cycle_residual",
]

_RELATIVE_ZERO_TOL = 1e-6

# Fixed-schedule Riccati stopping rule. After 64 doublings H has taken 2^64
# periods; a loop whose monodromy radius is 1 - 1e-7 settles in about 30.
_RICCATI_TOL, _RICCATI_MAX_DOUBLINGS = 1e-10, 64

# A chunk's (T, N, N) covariance stack holds at most this many floats (64 KB):
# 13 schedules at N = 25, 512 at N = 4. Larger chunks grow the peak memory.
_CHUNK_FLOATS = 8192


@dataclass(frozen=True, eq=False)
class Schedule:
    """K x M binary sensor activation mask.

    Row k lists which sensors take a measurement at time k within the
    period; the pattern repeats with period K.
    """

    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask)
        if mask.ndim != 2:
            raise DimensionError(f"schedule mask must be 2-D, got ndim={mask.ndim}")
        if mask.shape[0] < 1 or mask.shape[1] < 1:
            raise DimensionError(f"schedule mask must be nonempty, got {mask.shape}")
        values = np.unique(mask)
        if not np.all(np.isin(values, (0, 1))):
            raise InputError("schedule mask entries must be 0 or 1")
        mask = mask.astype(np.int8)
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def all_on(cls, K: int, M: int) -> "Schedule":
        return cls(np.ones((K, M), dtype=np.int8))

    @classmethod
    def empty(cls, K: int, M: int) -> "Schedule":
        return cls(np.zeros((K, M), dtype=np.int8))

    def to_text(self) -> str:
        return "\n".join(" ".join(str(int(v)) for v in row) for row in self.mask)

    @property
    def K(self) -> int:
        return self.mask.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.mask.shape[1]

    @property
    def activation_counts(self) -> np.ndarray:
        """Per-sensor activation counts over one period."""
        return self.mask.sum(axis=0)

    @property
    def total_activations(self) -> int:
        return int(self.mask.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.mask.shape == other.mask.shape and bool(np.all(self.mask == other.mask))

    def __hash__(self):
        return hash((self.mask.shape, self.mask.tobytes()))


class ScheduleEvaluation(NamedTuple):
    """Riccati-optimal figure of merit for a fixed schedule: J, the read-only
    (K, N, M) gains and the read-only (K, N, N) Riccati cycle P_0..P_{K-1},
    which is the covariance cycle of those gains."""

    J: float
    gains: np.ndarray
    cycle: np.ndarray


def _gain_stack(gains) -> np.ndarray:
    """Gains L_0..L_{K-1} as a finite (K, N, M) float array, K >= 1; a single
    N x M gain is the K = 1 stack. The gain applied at absolute time t is
    L_{t mod K}. A float array is not copied."""
    g = _stack(gains, "gains")
    if g.shape[0] < 1:
        raise DimensionError("gain sequence must have at least one element")
    return g


def _check_gains(sys: SystemModel, gains) -> np.ndarray:
    """_gain_stack of gains that must fit the system's N states and M sensors."""
    g = _gain_stack(gains)
    if g.shape[1:] != (sys.n_states, sys.n_sensors):
        raise DimensionError(
            f"gains of shape (K, {g.shape[1]}, {g.shape[2]}) do not match "
            f"system with N={sys.n_states}, M={sys.n_sensors}"
        )
    return g


def _closed_loop(sys: SystemModel, gains: np.ndarray) -> np.ndarray:
    """Closed-loop factor A - L C for each gain of a stack."""
    return sys.A - gains @ sys.C


def _loop(sys: SystemModel, gains: np.ndarray) -> tuple:
    """Closed-loop factor A - L C and injected covariance B Q B^T + L R L^T
    for each gain of a stack such as the (K, N, M) gains of one period."""
    noise = symmetrize(sys.q_eff + gains @ sys.R @ gains.swapaxes(-1, -2))
    return _closed_loop(sys, gains), noise


def _stable_loops(pi: np.ndarray) -> tuple:
    """The (T,) spectral radii of a (T, N, N) monodromy stack and the indices
    of the loops whose radius is below 1 - _UNIT_MARGIN, the PBH gate's
    margin: the package's one stability verdict."""
    rho = np.abs(np.linalg.eigvals(pi)).max(axis=1)
    return rho, np.flatnonzero(rho < 1.0 - _UNIT_MARGIN)


def _limit_cycles(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The limit cycles X_{k+1} = F_k X_k F_k^T + W_k, X_K = X_0, of T loops
    whose monodromies Pi = F_{K-1} ... F_0 share one spectrum, from the
    (K, T, N, N) stacks f of factors F_k and w of noises W_k. One radius
    test, on the first loop's monodromy, judges them all: unless its
    spectral radius is below 1 - _UNIT_MARGIN, the PBH gate's margin,
    InstabilityError names it. Then X_0 = Pi X_0 Pi^T + sum_k Psi_k W_k
    Psi_k^T, Psi_k = F_{K-1} ... F_{k+1}, for every loop in one stacked
    Smith doubling, and one stacked propagation gives the rest. Returns the
    read-only (T, K, N, N) cycles. Every slice leaves through symmetrize, so
    each X_k equals its transpose bit for bit."""
    K, n = len(f), f.shape[-1]
    pi, w_acc = np.eye(n), np.zeros((n, n))
    for k in range(K - 1, -1, -1):
        w_acc = w_acc + pi @ w[k] @ pi.swapaxes(-1, -2)
        pi = pi @ f[k]
    rho, stable = _stable_loops(pi[:1])
    if not stable.size:
        raise InstabilityError(f"monodromy spectral radius {rho[0]:.12g} >= 1 - {_UNIT_MARGIN:g}")
    cycles = np.empty((len(pi), K, n, n))
    cycles[:, 0] = _smith_doubling(pi, symmetrize(w_acc), rho.repeat(len(pi)))
    for k in range(K - 1):
        cycles[:, k + 1] = symmetrize(f[k] @ cycles[:, k] @ f[k].transpose(0, 2, 1) + w[k])
    cycles.setflags(write=False)
    return cycles


def _trace_sum(cycles: np.ndarray):
    """Sum over the period of the traces of a (..., K, N, N) cycle stack.
    J, the mean trace, is this over K; the gain subproblem's objective adds
    its proximal term to it."""
    return np.trace(cycles, axis1=-2, axis2=-1).sum(axis=-1)


def covariance_limit_cycle(sys: SystemModel, gains) -> np.ndarray:
    """Unique periodic steady state of the error-covariance recursion.

    Solves P_{k+1} = F_k P_k F_k^T + W_k with wraparound P_K = P_0, where
    F_k = A - L_k C and W_k = B Q B^T + L_k R L_k^T: one Lyapunov solve in
    the monodromy matrix gives P_0, and the recursion gives the rest.
    Returns (P_0, ..., P_{K-1}) as a read-only (K, N, N) array of symmetric
    matrices.
    """
    factors, noise = (x[:, np.newaxis] for x in _loop(sys, _check_gains(sys, gains)))
    return _limit_cycles(factors, noise)[0]


def _gradient_cycles(sys: SystemModel, gains: np.ndarray) -> tuple:
    """The covariance cycle P_0..P_{K-1} of (K, N, M) gains the caller has
    checked, bit for bit covariance_limit_cycle's, and V_1, ..., V_K = V_0
    of V_k = F_k^T V_{k+1} F_k + I, entry k the V_{k+1} that step k's
    gradient and coordinate solve read: read-only (K, N, N) symmetric
    stacks, each V_k >= I. With G_j = F_{K-1-j}^T, the cycle of
    X_{j+1} = G_j X_j G_j^T + I lists V_0, V_{K-1}, ..., V_1; its monodromy
    is Pi^T, so the two loops make one _limit_cycles stack judged by Pi."""
    factors, noise = _loop(sys, gains)
    f = np.stack([factors, factors.transpose(0, 2, 1)[::-1]], axis=1)
    w = np.stack([noise, np.broadcast_to(np.eye(sys.n_states), noise.shape)], axis=1)
    cycles = _limit_cycles(f, w)
    return cycles[0], cycles[1][::-1]


def schedule_from_gains(gains) -> Schedule:
    """Activation mask of the nonzero columns of (K, N, M) gains.

    A sensor counts as active at step k when its gain column 2-norm exceeds
    _RELATIVE_ZERO_TOL (1e-6) times the largest column norm in the sequence,
    so uniformly tiny gains yield an empty schedule.
    """
    norms = np.linalg.norm(_gain_stack(gains), axis=1)
    return Schedule((norms > _RELATIVE_ZERO_TOL * float(norms.max())).astype(np.int8))


def check_schedule_detectability(sys: SystemModel, sched: Schedule) -> None:
    """Raise InitializationError when the schedule hides an unstable mode.

    Runs the PBH rank test of validate_assumptions on the lifted pair
    (A_lift, C_lift) of _detectability_gate; skipped entirely for a
    Schur-stable plant, where any schedule is admissible.
    """
    hidden_mode = _detectability_gate(sys, sched.K)
    lam = None if hidden_mode is None else hidden_mode(sched.mask)
    if lam is not None:
        raise InitializationError(
            f"schedule leaves the lifted pair undetectable at eigenvalue {lam:.6g}; "
            "activate more sensors or steps"
        )


def _detectability_gate(sys: SystemModel, K: int):
    """None when A is Schur stable, so that no schedule can leave an unstable
    mode unobserved. Otherwise a function of a K x M 0/1 mask giving the
    eigenvalue at which its lifted pair fails the PBH test, or None. A_lift
    is block-cyclic, A at block (k+1 mod K, k); C_lift keeps the rows of the
    block-diagonal lift of C that the mask activates, in step-major order.
    Both are +0.0 off their blocks. A_lift and its eigenvalues on or outside
    the unit circle do not depend on the mask and are computed once here."""
    if not _unit_circle_eigenvalues(sys.A).size:
        return None
    (m, n), steps = sys.C.shape, np.arange(K)
    a_lift, c_lift = np.zeros((K, n, K, n)), np.zeros((K, m, K, n))
    a_lift[(steps + 1) % K, :, steps] = sys.A
    c_lift[steps, :, steps] = sys.C
    a_lift, c_lift = a_lift.reshape(K * n, K * n), c_lift.reshape(K * m, K * n)
    lams = _unit_circle_eigenvalues(a_lift)
    return lambda mask: _rank_drop_at(a_lift, lams, c_lift[np.reshape(mask, -1) == 1])


def _riccati_step(sys: SystemModel, p: np.ndarray, c: np.ndarray, r: np.ndarray) -> tuple:
    """One masked Riccati update of (T, N, N) covariances; returns (T, N, M)
    gains and the next covariances. ``c`` and ``r`` are the step's pre-masked
    operands from _masked_operands: with D the mask's 0/1 diagonal, c = D C
    and r = D R D + (I - D). So the innovation c P c^T + r = D (C P C^T + R) D
    + (I - D) keeps each active block exact under correlated measurement
    noise, and the cross term A P c^T = A P C^T D has zero inactive columns,
    as have the gains up to the sign of zero. One batched inverse of the
    innovation gives the gains."""
    ap = sys.A @ p
    cross = ap @ c.transpose(0, 2, 1)
    gain = cross @ np.linalg.inv(c @ p @ c.transpose(0, 2, 1) + r)
    p_next = ap @ sys.A.T
    p_next += sys.q_eff
    p_next -= gain @ cross.transpose(0, 2, 1)
    return gain, symmetrize(p_next)


def _masked_operands(sys: SystemModel, active: np.ndarray) -> tuple:
    """D C as (T, K, M, N) and D R D + (I - D) as (T, K, M, M) for each step
    of a (T, K, M) boolean stack, D the step's 0/1 mask diagonal."""
    c = np.where(active[..., np.newaxis], sys.C, 0.0)
    pair = active[..., np.newaxis] & active[..., np.newaxis, :]
    return c, np.where(pair, sys.R, np.eye(sys.n_sensors))


def _compose(first: tuple, then: tuple) -> tuple:
    """The (E, G, H) triple of the map ``then`` applied after ``first``, each
    a triple of (T, N, N) stacks, or of N x N matrices that broadcast against
    them, acting as X -> H + E^T X (I + G X)^-1 E. With
    W = (I + G_2 H_1)^-1, one batched inverse, which G_2, H_1 >= 0 keep
    invertible, it is (E_1 W E_2, G_1 + E_1 W G_2 E_1^T, H_2 + E_2^T H_1 W E_2)."""
    (e1, g1, h1), (e2, g2, h2) = first, then
    w = np.linalg.inv(np.eye(h1.shape[-1]) + g2 @ h1)
    e1w = e1 @ w
    g = symmetrize(g1 + e1w @ g2 @ e1.swapaxes(-1, -2))
    h = symmetrize(h2 + e2.swapaxes(-1, -2) @ h1 @ w @ e2)
    return e1w @ e2, g, h


def _period_map(sys: SystemModel, c: np.ndarray, r: np.ndarray) -> tuple:
    """The map P_0 -> P_K of the masked Riccati steps of a (T, K, M, N) and
    (T, K, M, M) stack of _masked_operands, as one (E, G, H) triple of
    (T, N, N) stacks acting as X -> H + E^T X (I + G X)^-1 E.

    In information form step k is the triple (A^T, G_k, B Q B^T), with
    G_k = c_k^T r_k^-1 c_k, since the step maps P to B Q B^T + A P (I + G_k
    P)^-1 A^T. The K step triples fold by _compose, each G_k made as its
    step comes."""
    info = (
        c[:, k].transpose(0, 2, 1) @ np.linalg.solve(r[:, k], c[:, k]) for k in range(c.shape[1])
    )
    g = next(info)
    first = (np.broadcast_to(sys.A.T, g.shape), g, np.broadcast_to(sys.q_eff, g.shape))
    return functools.reduce(_compose, ((sys.A.T, g_k, sys.q_eff) for g_k in info), first)


def _doubled_fixed_point(e: np.ndarray, g: np.ndarray, h: np.ndarray) -> tuple:
    """Indices of the (E, G, H) triples of (T, N, N) stacks whose doubling
    settles within _RICCATI_MAX_DOUBLINGS, and their fixed points
    X = H + E^T X (I + G X)^-1 E.

    The structure-preserving doubling algorithm (Chu, Fan, Lin & Wang,
    Int. J. Control 77(8), 2004) squares the triple, _compose of it after
    itself. After j doublings H is the map applied 2^j times to 0, so the
    error falls quadratically.
    Each slice stops at its first doubling with ||dH|| <= _RICCATI_TOL ||H||
    (Frobenius norms, no absolute floor, so the test is the same at every
    scale of H), and a slice whose H is not finite has diverged and leaves
    unsettled at once."""
    settled_h, settled, live = np.empty(h.shape), np.zeros(len(h), dtype=bool), np.arange(len(h))
    for _ in range(_RICCATI_MAX_DOUBLINGS):
        e, g, h_next = _compose((e, g, h), (e, g, h))
        # Both norms are taken at H's _unit_shift, an exact power of two, so
        # neither overflows nor underflows while H is finite.
        shift = _unit_shift(h_next)
        change = np.linalg.norm(np.ldexp(h_next - h, shift), axis=(1, 2))
        norm = np.linalg.norm(np.ldexp(h_next, shift), axis=(1, 2))
        finite = np.isfinite(norm)
        done = finite & (change <= _RICCATI_TOL * norm)
        settled_h[live[done]], settled[live[done]] = h_next[done], True
        going = finite & ~done
        live, e, g, h = live[going], e[going], g[going], h_next[going]
        if not live.size:
            break
    idx = np.flatnonzero(settled)
    return idx, settled_h[idx]


def _periodic_riccati(sys: SystemModel, active: np.ndarray) -> tuple:
    """Riccati-optimal gains and covariance cycles of the schedules of a
    (T, K, M) boolean stack. Returns the indices of the schedules whose
    doubled fixed point settles (_doubled_fixed_point of _period_map), the
    indices of those among them whose closed loop passes _stable_loops'
    radius test, and for the latter the (S, K, N, M) gains, whose inactive
    columns are +0.0, and the read-only (S, K, N, N) Riccati cycles.

    One pass of K _riccati_steps from the fixed point P_0 gives the gains,
    the cycle P_0, ..., P_{K-1} and the closed-loop monodromy. At the gains
    of the Riccati recursion the covariance recursion of _limit_cycles is
    the same recursion, so the Riccati cycle is the gains' covariance cycle.

    The masked operands are built once for the stack, T K M (N + M) floats:
    for a chunk of evaluate_schedules, at most _CHUNK_FLOATS K M (N + M) / N^2,
    about 0.36 MB on the 25-state benchmark plant at K = 10 and 0.34 MB on
    the four-state line plant at K = 7. Every step keeps the full width M,
    so a schedule's gains, and its J, do not depend on the other schedules
    of the stack."""
    (_, K, m), n = active.shape, sys.n_states
    c, r = _masked_operands(sys, active)
    settled, p = _doubled_fixed_point(*_period_map(sys, c, r))
    gains, cycles = np.empty((len(settled), K, n, m)), np.empty((len(settled), K, n, n))
    pi = np.eye(n)
    for k in range(K):
        cycles[:, k] = p
        gains[:, k], p = _riccati_step(sys, p, c[settled, k], r[settled, k])
        pi = _closed_loop(sys, gains[:, k]) @ pi
    gains.swapaxes(-1, -2)[~active[settled]] = 0.0
    stable = _stable_loops(pi)[1]
    keep = stable if stable.size < settled.size else slice(None)  # views when all are stable
    cycles = cycles[keep]
    cycles.setflags(write=False)
    return settled, settled[stable], gains[keep], cycles


def evaluate_schedule(sys: SystemModel, sched: Schedule) -> ScheduleEvaluation:
    """Canonical figure of merit for a schedule.

    Solves the K coupled Riccati recursions with each step's observation
    restricted to the scheduled sensors, so the gains carry the schedule's
    column-sparsity pattern exactly: the period map's fixed point by
    doubling, then one pass around the period for the gains and the
    Riccati cycle, which is the covariance limit cycle the gains induce.
    The closed-loop monodromy's radius test is the one stability check, and
    J is the average trace of the cycle. evaluate_schedules gives the same J
    for many schedules at once.

    Raises DimensionError when the schedule's width is not the system's
    sensor count, and InitializationError when the schedule leaves an
    unstable mode unobserved, the doubling fails to settle, or the closed
    loop is unstable.
    """
    if sched.n_sensors != sys.n_sensors:
        raise DimensionError(
            f"schedule has {sched.n_sensors} sensor columns, system has {sys.n_sensors}"
        )
    check_schedule_detectability(sys, sched)
    settled, stable, gains, cycles = _periodic_riccati(sys, sched.mask[np.newaxis] == 1)
    if not settled.size:
        raise InitializationError(
            f"periodic Riccati doubling did not settle within {_RICCATI_MAX_DOUBLINGS} doublings"
        )
    if not stable.size:
        raise InitializationError("periodic Riccati iteration produced an unstable closed loop")
    gains.setflags(write=False)
    J = float(_trace_sum(cycles[0]) / sched.K)
    return ScheduleEvaluation(J=J, gains=gains[0], cycle=cycles[0])


def chunk_length(n_states: int) -> int:
    """Schedules that evaluate_schedules scores together for an N-state plant."""
    return max(1, _CHUNK_FLOATS // (n_states * n_states))


def evaluate_schedules(sys: SystemModel, masks) -> np.ndarray:
    """evaluate_schedule's J for each schedule of a (T, K, M) 0/1 stack, or NaN
    where evaluate_schedule raises InitializationError or InstabilityError (an
    unstable mode unobserved, an unsettled Riccati doubling, an unstable closed
    loop). Chunks of chunk_length(N) schedules share one stacked period map,
    doubling and pass around the period. A schedule's J does not depend on
    the other schedules of the stack."""
    arr = np.asarray(masks)
    if arr.ndim != 3 or arr.shape[1] < 1 or arr.shape[2] != sys.n_sensors:
        raise DimensionError(f"masks must stack to (T, K, {sys.n_sensors}), got {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise InputError("schedule mask entries must be 0 or 1")
    J, K = np.full(len(arr), np.nan), arr.shape[1]
    todo = np.arange(len(arr))
    hidden_mode = _detectability_gate(sys, K)
    if hidden_mode is not None:
        todo = np.array([t for t in todo if hidden_mode(arr[t]) is None], dtype=int)
    step = chunk_length(sys.n_states)
    for chunk in (todo[i : i + step] for i in range(0, len(todo), step)):
        _, stable, _, cycles = _periodic_riccati(sys, arr[chunk] == 1)
        J[chunk[stable]] = _trace_sum(cycles) / K
    return J


def cycle_residual(sys: SystemModel, gains, cycle: np.ndarray) -> float:
    """Largest one-step recursion defect of a claimed limit cycle.

    Measures max_k of ||P_{k+1} - (F_k P_k F_k^T + W_k)||_F with wraparound,
    which is zero exactly when the cycle satisfies the recursion. Raises
    DimensionError unless the cycle is a (K, N, N) stack matching the gains,
    and InputError when it has non-finite entries.
    """
    factors, noise = _loop(sys, _check_gains(sys, gains))
    k_count = len(factors)
    cycle = _stack(cycle, "cycle")
    if cycle.shape != factors.shape:
        raise DimensionError(f"cycle shape {cycle.shape} does not match the gains' {factors.shape}")
    worst = 0.0
    for k in range(k_count):
        predicted = factors[k] @ cycle[k] @ factors[k].T + noise[k]
        defect = float(np.linalg.norm(cycle[(k + 1) % k_count] - predicted))
        worst = max(worst, defect)
    return worst
