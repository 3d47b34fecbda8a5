"""Ground-truth and baseline schedule generators.

The exhaustive oracle enumerates every schedule satisfying the per-sensor
activation bounds (optionally at a fixed total activation count), scores
each one exactly, and returns the global minimizer; a budget guard refuses
instances whose candidate count would be unreasonable. A row rotation of a
mask is the same periodic schedule started at another step, with the same
score, so the oracle scores one mask per rotation class. The random baseline
draws schedules uniformly from the same feasible set and reports the score
statistics, giving the reference the solver is expected to beat.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .exceptions import BudgetError, InitializationError, InputError
from .gstep import normalize_eta
from .model import SystemModel
from .periodic import Schedule, chunk_length, evaluate_schedules

__all__ = [
    "OracleResult",
    "BaselineResult",
    "exhaustive_search",
    "random_baseline",
]

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 1_000_000


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
        arr = np.asarray(values, dtype=float)
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


def _candidate_count(K: int, bounds: tuple, total_activations: Optional[int]) -> int:
    table = _count_table(K, bounds)
    if total_activations is None:
        return sum(table[0])
    if not 0 <= total_activations <= sum(bounds):
        return 0
    return table[0][total_activations]


def exhaustive_search(
    sys: SystemModel,
    K: int,
    eta,
    total_activations: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Globally optimal schedule by full enumeration.

    Walks all K x M masks satisfying the per-sensor bounds (and the exact
    total activation count when given) in lexicographic order of the
    row-major bit string. The row rotations of a mask are feasible masks
    that describe the same periodic schedule started at another step, with
    the same limit cycle rotated and the same J, so only the first mask of
    each rotation class in that order (its lexicographically smallest
    rotation) is scored, chunk by chunk with evaluate_schedules, and its
    score counts for every mask of the class. Masks whose estimator is
    invalid (an unstable mode left unobserved) are skipped. Ties keep the
    lexicographically smallest mask, which is the first one scored.
    Raises BudgetError up front when the candidate count, which counts
    masks and not classes, exceeds ``budget``.
    """
    if K < 1:
        raise InputError("period must be at least 1")
    bounds = normalize_eta(eta, sys.n_sensors, K)
    count = _candidate_count(K, bounds, total_activations)
    if count == 0:
        raise InputError("no feasible schedule matches the requested activation count")
    if count > budget:
        raise BudgetError(
            f"{count} candidate schedules exceed the enumeration budget of {budget}"
        )

    M = sys.n_sensors
    mask = np.zeros((K, M), dtype=np.int8)
    used = [0] * M

    def future_capacity(pos: int) -> int:
        """Most activations still placeable at positions >= pos."""
        cap = 0
        for m in range(M):
            # Undecided positions for sensor m sit at j*M + m >= pos.
            j_min = max(0, (pos - m + M - 1) // M)
            cap += min(bounds[m] - used[m], K - j_min)
        return cap

    def leaves(pos: int, total: int):
        """Feasible masks that extend the first ``pos`` decided entries."""
        if total_activations is not None:
            if total > total_activations:
                return
            if total + future_capacity(pos) < total_activations:
                return
        if pos == K * M:
            yield mask.copy()
            return
        k, m = divmod(pos, M)
        yield from leaves(pos + 1, total)
        if used[m] < bounds[m]:
            mask[k, m] = 1
            used[m] += 1
            yield from leaves(pos + 1, total + 1)
            used[m] -= 1
            mask[k, m] = 0

    best_j, best_mask, n_evaluated, n_skipped = np.inf, None, 0, 0
    step = chunk_length(sys.n_states)
    classes = _rotation_classes(leaves(0, 0), K * step)
    while chunk := list(itertools.islice(classes, step)):
        masks, sizes = map(np.array, zip(*chunk))
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


def _rotation_classes(masks, batch: int):
    """(mask, class size) for each mask of an iterable of K x M masks that is
    the lexicographically smallest row rotation of itself, in input order.
    Masks are taken ``batch`` at a time and compared as packed row-major bit
    strings against each of their K - 1 nontrivial rotations."""
    while block := list(itertools.islice(masks, batch)):
        stack = np.stack(block)
        T, K = stack.shape[:2]
        bits = np.packbits(stack.reshape(T, -1), axis=1).astype(np.int16)
        smallest, fixed = np.ones(T, dtype=bool), np.ones(T, dtype=int)
        for r in range(1, K):
            rotated = np.packbits(np.roll(stack, -r, axis=1).reshape(T, -1), axis=1)
            diff = rotated - bits
            lead = diff[np.arange(T), (diff != 0).argmax(axis=1)]
            smallest &= lead >= 0
            fixed += lead == 0
        # The rotations that fix a mask form a subgroup; its class has K / |subgroup| masks.
        yield from zip(stack[smallest], (K // fixed[smallest]).tolist())


def _draw_mask(rng: np.random.Generator, K: int, bounds: tuple, total: int, table) -> np.ndarray:
    """One exactly uniform draw from the feasible masks with ``total``
    activations, by sampling per-sensor counts from the suffix table and
    then a uniform subset of steps per sensor."""
    M = len(bounds)
    mask = np.zeros((K, M), dtype=np.int8)
    remaining = total
    for m in range(M):
        choices = []
        weights = []
        for c in range(min(bounds[m], remaining) + 1):
            ways = comb(K, c) * table[m + 1][remaining - c]
            if ways > 0:
                choices.append(c)
                weights.append(ways)
        weights = np.asarray(weights, dtype=float)
        c = int(rng.choice(choices, p=weights / weights.sum()))
        steps = rng.choice(K, size=c, replace=False)
        mask[steps, m] = 1
        remaining -= c
    return mask


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
    order. Fully determined by ``seed``, a nonnegative integer. Raises
    InitializationError when a drawn schedule leaves the estimator invalid.
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    bounds = normalize_eta(eta, sys.n_sensors, K)
    if not 0 <= total_activations <= sum(bounds):
        raise InputError(
            f"total_activations = {total_activations} infeasible for bounds summing "
            f"to {sum(bounds)}"
        )
    table = _count_table(K, bounds)
    if table[0][total_activations] == 0:
        raise InputError("no feasible schedule matches the requested activation count")

    rng = np.random.default_rng(seed)
    masks = [_draw_mask(rng, K, bounds, total_activations, table) for _ in range(trials)]
    values = evaluate_schedules(sys, np.stack(masks))
    if np.isnan(values).any():
        raise InitializationError(f"draw {np.isnan(values).argmax()} leaves the estimator invalid")
    return BaselineResult.from_values(values)
