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

A schedule's gains come from the K coupled Riccati recursions it masks. One
masked step, _riccati_step, serves two passes around the period. The first
folds the K steps by rank-M updates into one (E, G, H) triple, the period
map, whose fixed point the structure-preserving doubling algorithm reaches
by squaring it (Chu, Fan, Lin & Wang, *Int. J. Control* 77(8), 2004; Hench &
Laub, *IEEE TAC* 39(6), 1994). Schedules of a stack that agree on their
leading rows with the schedule before them share those steps, and a J still
does not depend on its stack-mates. At the fixed point X the undoubled
(E, G) give the closed-loop monodromy, Pi^T = (I + G X)^-1 E. The second
pass, from X, gives the stable schedules' gains and their covariance cycle,
the Riccati cycle, whose mean trace is J, so scoring a schedule takes no
Lyapunov solve. Both paths judge stability by one radius test,
_stable_loops, the package's only stability verdict, which takes an
eigensolve only for a finite monodromy its Frobenius norm does not clear.
The lifted (block-cyclic) reformulation, which solves the same problems on
KN x KN operands, and the plain recursions iterated to a fixed point serve
as cross-checks in tests/reference.py; the detectability gate builds the
two lifts it needs in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InitializationError, InputError, InstabilityError
from .linalg import _UNIT_MARGIN, _array, _smith_doubling, _squared_norms, _symmetrize, _unit_shift
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
]

# Fixed-schedule Riccati stopping rule. After 64 doublings H has taken 2^64
# periods; a loop whose monodromy radius is 1 - 1e-7 settles in about 30.
_RICCATI_TOL, _RICCATI_MAX_DOUBLINGS = 1e-10, 64

# A chunk's (T, K, N, N) Riccati cycle stack holds at most this many floats
# (640 KB): 13 schedules at N = 25, K = 10, and 731 at N = 4, K = 7, so the
# line plant's 586 necklace classes at K = 7 form one chunk. Larger chunks
# grow the peak memory.
_CHUNK_FLOATS = 81_920


def _binary(value, name: str, shape: tuple) -> np.ndarray:
    """The one 0/1 mask check: linalg._array of value, as read, whose entries
    must all be 0 or 1; an int8 stack is not copied."""
    arr = _array(value, name, shape, dtype=None)
    if not ((arr == 0) | (arr == 1)).all():
        raise InputError(f"{name} entries must be 0 or 1")
    return arr


@dataclass(frozen=True, eq=False)
class Schedule:
    """K x M binary sensor activation mask.

    Row k lists which sensors take a measurement at time k within the
    period; the pattern repeats with period K.
    """

    mask: np.ndarray

    def __post_init__(self):
        mask = _binary(self.mask, "mask", ("K", "M")).astype(np.int8)
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

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
    """Riccati-optimal figure of merit for a fixed schedule: J, the mean
    trace of the gains' covariance cycle, and the read-only (K, N, M)
    gains."""

    J: float
    gains: np.ndarray


def _loop(sys: SystemModel, gains: np.ndarray) -> tuple:
    """Closed-loop factor A - L C and injected covariance B Q B^T + L R L^T
    for each gain of a stack such as the (K, N, M) gains of one period."""
    with np.errstate(over="ignore", invalid="ignore"):  # _limit_cycles refuses an overflow
        noise = _symmetrize(sys.q_eff + gains @ sys.R @ gains.swapaxes(-1, -2))
    return sys.A - gains @ sys.C, noise


def _stable_loops(pi: np.ndarray) -> tuple:
    """The (T,) spectral radii of a (T, N, N) monodromy stack, or bounds on
    them, and the indices of the loops whose radius is below 1 - _UNIT_MARGIN,
    the PBH gate's margin: the package's one stability verdict. A loop whose
    Frobenius norm is below that bar is stable, rho <= ||Pi||_2 <= ||Pi||_F
    (Horn & Johnson, Matrix Analysis, 2nd ed., Thm 5.6.9), and its norm
    stands for its radius; only the others take the batched eigensolve, so an
    unstable loop's radius is exact. The norm is taken at Pi's _unit_shift s
    and scaled back only for s > 0, so it cannot overflow: no loop with an
    entry of magnitude 1 or more clears, and the norm is finite exactly when
    Pi is. A non-finite Pi, such as an overflowed product, reads radius inf."""
    shift = _unit_shift(pi)
    rho = np.ldexp(np.sqrt(_squared_norms(np.ldexp(pi, shift))), -np.maximum(shift[:, 0, 0], 0))
    rho[np.isnan(rho)] = np.inf
    todo = np.flatnonzero((rho >= 1.0 - _UNIT_MARGIN) & (rho < np.inf))
    if todo.size:
        rho[todo] = np.abs(np.linalg.eigvals(pi[todo])).max(axis=1)
    return rho, np.flatnonzero(rho < 1.0 - _UNIT_MARGIN)


def _limit_cycles(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The limit cycles X_{k+1} = F_k X_k F_k^T + W_k, X_K = X_0, of T loops
    whose monodromies Pi = F_{K-1} ... F_0 share one spectrum, from the
    (K, T, N, N) stacks f of factors F_k and w of noises W_k. One radius
    test, _stable_loops on the first loop's monodromy, its Frobenius norm
    first, judges them all: unless its spectral radius is below
    1 - _UNIT_MARGIN, the PBH gate's margin, InstabilityError names the
    radius, exact as no unstable loop clears the norm. Then X_0 = Pi X_0 Pi^T + sum_k Psi_k W_k
    Psi_k^T, Psi_k = F_{K-1} ... F_{k+1}, for every loop in one stacked
    Smith doubling, and one stacked propagation gives the rest. Returns the
    read-only (T, K, N, N) cycles. Every slice leaves through _symmetrize, so
    each X_k equals its transpose bit for bit."""
    K, n = len(f), f.shape[-1]
    pi, w_acc = np.eye(n), np.zeros((n, n))
    # An overflowed product is non-finite, and _stable_loops reads it as radius inf.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K - 1, -1, -1):
            w_acc = w_acc + pi @ w[k] @ pi.swapaxes(-1, -2)
            pi = pi @ f[k]
    rho, stable = _stable_loops(pi[:1])
    if not stable.size:
        raise InstabilityError(f"monodromy spectral radius {rho[0]:.12g} >= 1 - {_UNIT_MARGIN:g}")
    cycles = np.empty((len(pi), K, n, n))
    cycles[:, 0] = _smith_doubling(pi, _symmetrize(w_acc))
    for k in range(K - 1):
        cycles[:, k + 1] = _symmetrize(f[k] @ cycles[:, k] @ f[k].transpose(0, 2, 1) + w[k])
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
    F_k = A - L_k C and W_k = B Q B^T + L_k R L_k^T for the (K, N, M) gains
    L_0..L_{K-1}, L_k applied at every time t = k mod K: one Lyapunov solve
    in the monodromy matrix gives P_0, and the recursion gives the rest.
    Returns (P_0, ..., P_{K-1}) as a read-only (K, N, N) array of symmetric
    matrices.
    """
    gains = _array(gains, "gains", ("K", sys.n_states, sys.n_sensors))
    factors, noise = (x[:, np.newaxis] for x in _loop(sys, gains))
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
    """Activation mask of the nonzero columns of (K, N, M) gains: sensor m
    is active at step k when its gain column has an entry other than zero
    (-0.0 is zero). g_step writes exact zeros into every column it drops, so
    this reads its kept set back, and no column is too small to count."""
    nonzero = _array(gains, "gains", ("K", "N", "M")) != 0
    return Schedule(nonzero.any(axis=1).astype(np.int8))


def check_schedule_detectability(sys: SystemModel, sched: Schedule) -> None:
    """Raise InitializationError when the schedule hides an unstable mode.

    Runs the PBH rank test of validate_assumptions on the lifted pair
    (A_lift, C_lift) of _detectability_gate; skipped entirely for a
    Schur-stable plant, where any schedule is admissible. Raises
    DimensionError first unless the schedule has one column per sensor.
    """
    _array(sched.mask, "sched.mask", ("K", sys.n_sensors), dtype=None)
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


def _riccati_step(
    sys: SystemModel, p: np.ndarray, c: np.ndarray, c_t: np.ndarray, r: np.ndarray
) -> tuple:
    """One masked Riccati update of (T, N, N) covariances; returns (T, N, M)
    gains, the next covariances and the (T, M, M) inverse innovations. ``c``,
    ``c_t`` and ``r`` are the step's pre-masked operands from _masked_operands:
    with D the mask's 0/1 diagonal, c = D C, c_t its contiguous transpose and
    r = D R D + (I - D). So the innovation c P c^T + r = D (C P C^T + R) D +
    (I - D) keeps each active block exact under correlated measurement noise,
    and the cross term A P c^T = A P C^T D has zero inactive columns, as have
    the gains up to the sign of zero. Every right operand is C-contiguous, so
    each slice's product takes BLAS's no-transpose kernel."""
    ap = sys.A @ p
    cross = ap @ c_t
    s_inv = np.linalg.inv(c @ p @ c_t + r)
    gain = cross @ s_inv
    p_next = ap @ sys.a_t
    p_next += sys.q_eff
    p_next -= gain @ _transposed(cross)
    return gain, _symmetrize(p_next), s_inv


def _transposed(x: np.ndarray) -> np.ndarray:
    """The slice-wise transpose of a stack of matrices as a C-contiguous copy.
    A transposed view as a stacked product's right operand costs NumPy up to
    three times the product on the copy."""
    return np.ascontiguousarray(x.swapaxes(-1, -2))


def _masked_operands(sys: SystemModel, active: np.ndarray) -> tuple:
    """D C as (T, K, M, N), its transpose as a C-contiguous (T, K, N, M) and
    D R D + (I - D) as (T, K, M, M) for each step of a (T, K, M) boolean
    stack, D the step's 0/1 mask diagonal."""
    c = np.where(active[..., np.newaxis], sys.C, 0.0)
    pair = active[..., np.newaxis] & active[..., np.newaxis, :]
    return c, _transposed(c), np.where(pair, sys.R, np.eye(sys.n_sensors))


def _period_map(
    sys: SystemModel, active: np.ndarray, c: np.ndarray, c_t: np.ndarray, r: np.ndarray
) -> tuple:
    """The map P_0 -> P_K of the masked Riccati steps of a (T, K, M) boolean
    stack and its _masked_operands, as one (E, G, H) triple of (T, N, N)
    stacks acting as X -> H + E^T X (I + G X)^-1 E.

    From the identity (I, 0, 0), step k appends the information-form triple
    (A^T, c_k^T r_k^-1 c_k, B Q B^T). With U = E c_k^T and _riccati_step's
    gain and inverse innovation S_k^-1 on H, that makes (E A^T - U gain^T,
    G + U S_k^-1 U^T, the Riccati step of H), exact by Woodbury, which gives
    W c_k^T = c_k^T S_k^-1 r_k for W = (I + c_k^T r_k^-1 c_k H)^-1: rank-M
    updates that invert M x M matrices only.

    A schedule whose rows 0..k equal the previous schedule's shares that
    schedule's triple through step k: each step runs on the heads of the
    runs of equal prefixes only, a head taking its parent run's triple where
    a run splits, and plain views once every schedule heads its own run. A
    shared triple is built by the operations the schedule gets when scored
    alone, so the result does not depend on the other schedules of the
    stack; a stack in lexicographic order of its rows shares the most."""
    t_count, K = active.shape[:2]
    # lead[t]: the first row in which schedule t differs from schedule t - 1,
    # K for a repeat and -1 for t = 0, so t heads a run of equal rows 0..j-1
    # exactly when lead[t] < j.
    neq = (active[1:] != active[:-1]).any(axis=2)
    lead = np.concatenate(([-1], np.where(neq.any(axis=1), neq.argmax(axis=1), K)))
    last_shared = int(lead.max())
    e, g, h, rows = np.eye(sys.n_states), 0.0, np.zeros((1, *sys.A.shape)), slice(None)
    for k in range(K):
        if k <= last_shared:
            rows = np.flatnonzero(lead <= k)
            parent = np.cumsum(lead < k)[rows] - 1
            # Step 0 starts every run from (I, 0, 0); E and G broadcast there.
            e, g, h = (e[parent], g[parent], h[parent]) if k else (e, g, h[parent])
            if rows.size == t_count:
                rows = slice(None)
        ck, ck_t, rk = c[rows, k], c_t[rows, k], r[rows, k]
        u = e @ ck_t
        gain, h, s_inv = _riccati_step(sys, h, ck, ck_t, rk)
        e = e @ sys.a_t - u @ _transposed(gain)
        g = _symmetrize(g + u @ s_inv @ _transposed(u))
    if last_shared < K:
        return e, g, h
    return tuple(x[np.cumsum(lead < K) - 1] for x in (e, g, h))


def _doubled_fixed_point(e: np.ndarray, g: np.ndarray, h: np.ndarray) -> tuple:
    """Indices of the (E, G, H) triples of (T, N, N) stacks whose doubling
    settles within _RICCATI_MAX_DOUBLINGS, and their fixed points
    X = H + E^T X (I + G X)^-1 E.

    The structure-preserving doubling algorithm (Chu, Fan, Lin & Wang,
    Int. J. Control 77(8), 2004) squares the triple: with W = (I + G H)^-1,
    one batched inverse, which G, H >= 0 keep invertible, the map applied
    twice is (E W E, G + E W G E^T, H + E^T H W E). After j doublings H is
    the map applied 2^j times to 0, so the error falls quadratically.
    Each slice stops at its first doubling with ||dH|| <= _RICCATI_TOL ||H||
    (Frobenius norms, no absolute floor, so the test is the same at every
    scale of H), and a slice whose H is not finite has diverged and leaves
    unsettled at once. The test runs on the new H before E and G are
    squared, and only the slices that go on square them, so the last
    doubling of a slice makes no E, G update that nothing reads."""
    settled_h, settled, live = np.empty(h.shape), np.zeros(len(h), dtype=bool), np.arange(len(h))
    for doubling in range(1, _RICCATI_MAX_DOUBLINGS + 1):
        w = np.linalg.inv(np.eye(h.shape[-1]) + g @ h)
        e_t = _transposed(e)
        h_next = _symmetrize(h + e_t @ h @ w @ e)
        # Both norms are taken at H's _unit_shift, an exact power of two, so
        # neither overflows nor underflows while H is finite.
        shift = _unit_shift(h_next)
        change = np.linalg.norm(np.ldexp(h_next - h, shift), axis=(1, 2))
        norm = np.linalg.norm(np.ldexp(h_next, shift), axis=(1, 2))
        finite = np.isfinite(norm)
        done = finite & (change <= _RICCATI_TOL * norm)
        settled_h[live[done]], settled[live[done]] = h_next[done], True
        going = np.flatnonzero(finite & ~done)
        if not going.size or doubling == _RICCATI_MAX_DOUBLINGS:
            break
        # Only the slices that double again update E and G.
        if going.size < live.size:
            live, e, e_t, g, w, h_next = (x[going] for x in (live, e, e_t, g, w, h_next))
        ew = e @ w
        e, g, h = ew @ e, _symmetrize(g + ew @ g @ e_t), h_next
    idx = np.flatnonzero(settled)
    return idx, settled_h[idx]


def _periodic_riccati(sys: SystemModel, active: np.ndarray, work=None) -> tuple:
    """Riccati-optimal gains and J of the schedules of a (T, K, M) boolean
    stack: the indices of the schedules whose doubled fixed point settles
    (_doubled_fixed_point of _period_map), the indices of those among them
    whose closed loop passes _stable_loops' radius test, and for the latter
    the (S, K, N, M) gains, inactive columns zero up to the sign of zero
    (evaluate_schedule sets them to +0.0), and the (S,) J. The Riccati
    cycles fill ``work``, a stack of at least T (K, N, N) slices that
    evaluate_schedules keeps for all its chunks, or a new stack; a new one
    per chunk let the heap shrink and regrow between chunks (6.4k minor
    page faults per 500-draw random_baseline on the benchmark, not 0.3k).

    The verdict reads the period map: at the fixed point X of
    X -> H + E^T X (I + G X)^-1 E its derivative is d -> Pi d Pi^T with
    Pi^T = (I + G X)^-1 E, the closed-loop monodromy transposed, which has
    Pi's radius and Frobenius norm (Chu, Fan, Lin & Wang, 2004). K
    _riccati_steps from X = P_0 then give a stable schedule's gains and
    cycle P_0, ..., P_{K-1}, also the covariance cycle of those gains, so J
    is its mean trace.

    The masked operands, with c^T held contiguous beside c, are built once
    for the stack, T K M (2N + M) floats (at most 0.82 MB for a chunk of
    evaluate_schedules on the shipped plants), and gathered again only when
    some schedule does not settle or is not stable. The period map steps a
    run of neighbours with equal leading rows once; the doubling and the
    gain pass take each schedule from its own triple. Every step keeps the
    full width M and every product stays stacked slice by slice, so a
    schedule's gains and J do not depend on the other schedules of the stack."""
    (t_count, K, m), n = active.shape, sys.n_states
    ops = _masked_operands(sys, active)
    e, g, h = _period_map(sys, active, *ops)
    settled, p = _doubled_fixed_point(e, g, h)
    if settled.size < t_count:  # views when all settle
        e, g, *ops = (x[settled] for x in (e, g, *ops))
    stable = _stable_loops(np.linalg.solve(np.eye(n) + g @ p, e))[1]
    if stable.size < settled.size:  # views when all are stable
        p, *ops = (x[stable] for x in (p, *ops))
    c, c_t, r = ops
    gains = np.empty((len(stable), K, n, m))
    cycles = np.empty((len(stable), K, n, n)) if work is None else work[: len(stable)]
    for k in range(K):
        cycles[:, k] = p
        gains[:, k], p, _ = _riccati_step(sys, p, c[:, k], c_t[:, k], r[:, k])
    return settled, settled[stable], gains, _trace_sum(cycles) / K


def evaluate_schedule(sys: SystemModel, sched: Schedule) -> ScheduleEvaluation:
    """Canonical figure of merit for a schedule.

    Solves the K coupled Riccati recursions with each step's observation
    restricted to the scheduled sensors, so the gains carry the schedule's
    column-sparsity pattern exactly: the period map's fixed point by
    doubling, then one pass around the period for the gains and the
    Riccati cycle, which is the covariance limit cycle the gains induce.
    The gains' inactive columns are set to +0.0 here, for this one schedule;
    the stacked solve leaves them zero up to the sign of zero. The radius
    test of the closed-loop monodromy, read off the period map at its fixed
    point, is the one stability check, and J is the average trace of the
    cycle. Returns J and the read-only gains; evaluate_schedules gives the
    same J for many schedules at once.

    Raises DimensionError when the schedule's width is not the system's
    sensor count, and InitializationError when the schedule leaves an
    unstable mode unobserved, the doubling fails to settle, or the closed
    loop is unstable.
    """
    check_schedule_detectability(sys, sched)
    settled, stable, gains, J = _periodic_riccati(sys, sched.mask[np.newaxis] == 1)
    if not settled.size:
        raise InitializationError(
            f"periodic Riccati doubling did not settle within {_RICCATI_MAX_DOUBLINGS} doublings"
        )
    if not stable.size:
        raise InitializationError("periodic Riccati iteration produced an unstable closed loop")
    gains = gains[0]
    gains.swapaxes(-1, -2)[sched.mask == 0] = 0.0
    gains.setflags(write=False)
    return ScheduleEvaluation(J=float(J[0]), gains=gains)


def chunk_length(n_states: int, K: int) -> int:
    """Schedules that evaluate_schedules scores together for an N-state plant
    at period K: as many as keep their (T, K, N, N) Riccati cycles within
    _CHUNK_FLOATS floats (640 KB), and at least one."""
    return max(1, _CHUNK_FLOATS // (K * n_states * n_states))


def evaluate_schedules(sys: SystemModel, masks) -> np.ndarray:
    """evaluate_schedule's J for each schedule of a (T, K, M) 0/1 stack, T and K
    at least 1, or NaN where evaluate_schedule raises InitializationError (an
    unstable mode unobserved, an unsettled Riccati doubling, an unstable
    closed loop). Chunks of chunk_length(N, K) schedules share one stacked
    period map, doubling and pass around the period, and all chunks one
    Riccati cycle stack; neighbours that agree on their leading rows share
    those steps of the period map. A schedule's J does not depend on the
    other schedules of the stack."""
    arr = _binary(masks, "masks", ("T", "K", sys.n_sensors))
    J, K = np.full(len(arr), np.nan), arr.shape[1]
    todo = np.arange(len(arr))
    hidden_mode = _detectability_gate(sys, K)
    if hidden_mode is not None:
        todo = np.array([t for t in todo if hidden_mode(arr[t]) is None], dtype=int)
    step = chunk_length(sys.n_states, K)
    work = np.empty((min(step, len(todo)), K, sys.n_states, sys.n_states))
    for chunk in (todo[i : i + step] for i in range(0, len(todo), step)):
        _, stable, _, values = _periodic_riccati(sys, arr[chunk] == 1, work)
        J[chunk[stable]] = values
    return J
