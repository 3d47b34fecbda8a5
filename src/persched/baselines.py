"""Ground-truth and baseline schedule generators.

The exhaustive oracle enumerates every schedule satisfying the per-sensor
activation bounds, scores each one exactly, and returns the global
minimizer; it refuses up front an instance of more than 1,000,000
candidates. A row rotation of a mask is the same periodic schedule started
at another step, so the oracle generates and scores only the necklaces, one
mask per rotation class. The random baseline draws schedules uniformly from
the same feasible set and reports the score statistics, the reference the
solver is expected to beat.
"""

from __future__ import annotations

import bisect
import itertools
import logging
from dataclasses import dataclass
from math import comb

import numpy as np

from .exceptions import BudgetError, InitializationError
from .gstep import normalize_eta
from .linalg import _array, _integral
from .model import SystemModel
from .periodic import Schedule, chunk_length, evaluate_schedules

__all__ = [
    "OracleResult",
    "BaselineResult",
    "exhaustive_search",
    "random_baseline",
]

logger = logging.getLogger(__name__)

# The most candidate masks exhaustive_search enumerates.
_BUDGET = 1_000_000


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive-search outcome: the best schedule, its exact score, and
    how many feasible masks (leaves) scored finite or were skipped as
    invalid estimators. Both counts include the rotations of a scored mask,
    which share its score, so together they equal the leaf count."""

    schedule: Schedule
    J: float
    n_evaluated: int
    n_skipped: int


@dataclass(frozen=True)
class BaselineResult:
    """Score statistics over uniformly drawn feasible schedules."""

    values: tuple
    mean: float
    std: float
    min: float
    max: float

    @classmethod
    def from_values(cls, values) -> "BaselineResult":
        arr = _array(values, "values", ("T",))
        return cls(
            values=tuple(float(v) for v in arr),
            mean=float(arr.mean()),
            std=float(arr.std()),
            min=float(arr.min()),
            max=float(arr.max()),
        )


def _count_table(K: int, bounds: tuple) -> list:
    """Suffix DP: table[m][t] = number of ways sensors m.. can place t
    activations, each sensor m choosing c <= bounds[m] of K steps."""
    M = len(bounds)
    top = sum(bounds)
    table = [[0] * (top + 1) for _ in range(M + 1)]
    table[M][0] = 1
    for m in range(M - 1, -1, -1):
        for t in range(top + 1):
            total = 0
            for c in range(min(bounds[m], t) + 1):
                total += comb(K, c) * table[m + 1][t - c]
            table[m][t] = total
    return table


def exhaustive_search(sys: SystemModel, K: int, eta) -> OracleResult:
    """Globally optimal schedule by full enumeration.

    Covers all K x M masks within the per-sensor bounds. A mask's row
    rotations are the same periodic schedule started at another step, with
    the same J, so only the necklaces (masks that are their own smallest
    rotation) are generated, in lexicographic order of the row-major bit
    string, and scored with evaluate_schedules in chunks of
    chunk_length(N, K) classes, each stacked once from the bit tuples of the
    walk. That order puts masks with equal leading rows next to each other,
    so a chunk's period map steps each distinct prefix once
    (periodic._period_map). A score counts for each mask of the class, whose
    size is its number of distinct rotations. Masks whose estimator is
    invalid (an unstable mode left unobserved) are skipped, ties keep the
    lexicographically smallest mask, and BudgetError is raised up front when
    the candidate count (masks, not classes) exceeds 1,000,000. K must be an
    integer of at least 1, not a boolean.
    """
    K = _integral(K, "K", least=1)
    bounds = normalize_eta(eta, sys.n_sensors, K)
    count = sum(_count_table(K, bounds)[0])
    if count > _BUDGET:
        raise BudgetError(
            f"{count} candidate schedules exceed the enumeration budget of {_BUDGET}"
        )

    best_j, best_mask, n_evaluated, n_skipped = np.inf, None, 0, 0
    step = chunk_length(sys.n_states, K)
    classes = _necklaces(K, bounds)
    while chunk := list(itertools.islice(classes, step)):
        bits, sizes = zip(*chunk)
        masks = np.fromiter(itertools.chain(*bits), np.int8).reshape(-1, K, len(bounds))
        sizes = np.array(sizes)
        values = evaluate_schedules(sys, masks)
        invalid = np.isnan(values)
        n_skipped += int(sizes[invalid].sum())
        n_evaluated += int(sizes[~invalid].sum())
        # argmin keeps the first of equal values, and strict < an earlier chunk's.
        values[invalid] = np.inf
        i = int(np.argmin(values))
        if values[i] < best_j:
            best_j, best_mask = float(values[i]), masks[i]
    if best_mask is None:
        raise InitializationError(
            "every feasible schedule left the estimator invalid; raise the bounds"
        )
    logger.info(
        "oracle evaluated %d candidates (%d skipped): best J %.6g", n_evaluated, n_skipped, best_j
    )
    return OracleResult(
        schedule=Schedule(best_mask), J=best_j, n_evaluated=n_evaluated, n_skipped=n_skipped
    )


def _necklaces(K: int, bounds: tuple):
    """(row-major bit tuple, class size) for each feasible K x M mask that is
    its own smallest row rotation (a necklace with rows as symbols), in
    lexicographic order of the bits. The prenecklace recursion of Fredricksen,
    Kessler and Maiorana (Ruskey, Savage & Wang, J. Algorithms 13, 1992), run
    bit by bit on an explicit stack: p is the row length of the longest Lyndon
    prefix and ``tight`` says row k equals row k - p so far. A mask is a
    necklace exactly when p divides K, and its class then has p masks.
    Branches that break a bound are cut. A tight branch that has used up
    every bound has one completion, all zeros, which stays tight while no 1
    lies p rows back: it is yielded or cut at once rather than walked bit by
    bit, so the walk stays linear in K when the bounds are used up early.
    """
    M, n = len(bounds), K * len(bounds)
    bits, used, full = [0] * n, [0] * M, list(bounds)
    depth = 0  # bits[:depth] hold the last visited path
    # Nodes (pos, p, tight, bit): bits[:pos] decided, the last as ``bit``.
    stack = [(0, 1, True, 0)]
    while stack:
        pos, p, tight, bit = stack.pop()
        # Clear the abandoned branch (at the root, q = -1 reads a bit still 0).
        for q in range(pos - 1, depth):
            if bits[q]:
                bits[q] = 0
                used[q % M] -= 1
        if bit:
            bits[pos - 1] = 1
            used[(pos - 1) % M] += 1
        depth = pos
        if pos == n:
            if K % p == 0:
                yield tuple(bits), p
            continue
        if tight and used == full:
            # bits[pos:] are 0, so this reads the zeros ahead as well.
            if K % p == 0 and not any(bits[max(pos - p * M, 0) : n - p * M]):
                yield tuple(bits), p
            continue
        k, m = divmod(pos, M)
        forced = tight and k >= p and bits[pos - p * M] == 1
        # While tight, a 1 in row k - p forces a 1, which alone keeps the row
        # tight. At a row's end p becomes k + 1 unless the row is still tight,
        # and the next row starts tight. The 1 is pushed first to walk the 0 first.
        end = m == M - 1
        if used[m] < bounds[m]:
            stack.append((pos + 1, k + 1 if end and not forced else p, forced or end, 1))
        if not forced:
            stack.append((pos + 1, k + 1 if end and not tight else p, tight or end, 0))


def _draw_mask(
    rng: np.random.Generator, K: int, bounds: tuple, total: int, table, laws: dict
) -> np.ndarray:
    """One exactly uniform draw from the feasible masks with ``total``
    activations, by sampling per-sensor counts from the suffix table and
    then a uniform subset of steps per sensor, with the draws that
    ``rng.choice`` would make, so the masks and the generator's state match
    those calls'. ``laws`` caches the count choices and CDF per (sensor,
    remaining), as lists, inverted by bisection at one ``rng.random()`` as
    ``rng.choice(choices, p=...)`` inverts its CDF. A sensor's c steps come
    from Floyd's algorithm on ``rng.integers(j + 1)`` for j = K - c .. K - 1,
    and the c - 1 draws ``rng.integers(i)``, i = c .. 2, of the shuffle that
    ends ``rng.choice(K, size=c, replace=False)`` are made and dropped: that is
    the branch choice takes for K up to 10,000, and a size-0 choice draws
    nothing. NumPy's tail shuffle for K > 10,000 is not reproduced."""
    M = len(bounds)
    bits = bytearray(K * M)
    remaining = total
    for m in range(M):
        if (m, remaining) not in laws:
            counts = range(min(bounds[m], remaining) + 1)
            ways = [comb(K, c) * table[m + 1][remaining - c] for c in counts]
            weights = np.array([w for w in ways if w > 0], dtype=float)
            cdf = (weights / weights.sum()).cumsum()
            choices = [c for c, w in enumerate(ways) if w > 0]
            laws[m, remaining] = (choices, (cdf / cdf[-1]).tolist())
        choices, cdf = laws[m, remaining]
        c = choices[bisect.bisect_right(cdf, rng.random())]
        for j in range(K - c, K):
            step = int(rng.integers(j + 1))
            if bits[step * M + m]:  # drawn before: Floyd's algorithm takes j
                step = j
            bits[step * M + m] = 1
        for i in range(c, 1, -1):
            rng.integers(i)
        remaining -= c
    return np.frombuffer(bits, dtype=np.int8).reshape(K, M)


def random_baseline(
    sys: SystemModel,
    K: int,
    eta,
    total_activations: int,
    trials: int,
    seed: int,
) -> BaselineResult:
    """Monte-Carlo reference: uniform feasible schedules, scored exactly.

    Draws ``trials`` schedules uniformly among the masks that satisfy the
    per-sensor bounds and have exactly ``total_activations`` activations,
    scores them with evaluate_schedules, and returns the statistics in draw
    order. Fully determined by ``seed``. K and ``trials`` (at least 1),
    ``total_activations`` (in 0 up to the sum of the bounds) and ``seed``
    (nonnegative) must be integers, not booleans. Raises
    InitializationError when a drawn schedule leaves the estimator invalid.
    """
    K, trials = _integral(K, "K", least=1), _integral(trials, "trials", least=1)
    seed = _integral(seed, "seed", least=0)
    bounds = normalize_eta(eta, sys.n_sensors, K)
    total_activations = _integral(total_activations, "total_activations", 0, sum(bounds))
    table = _count_table(K, bounds)

    rng = np.random.default_rng(seed)
    laws = {}
    masks = [_draw_mask(rng, K, bounds, total_activations, table, laws) for _ in range(trials)]
    values = evaluate_schedules(sys, np.stack(masks))
    if np.isnan(values).any():
        raise InitializationError(f"draw {np.isnan(values).argmax()} leaves the estimator invalid")
    return BaselineResult.from_values(values)
