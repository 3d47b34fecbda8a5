"""Schedule scoring written apart from persched, used to check its outputs.

For a fixed K x M activation mask the estimator gains come from a plain
masked periodic Riccati recursion (Joseph form, iterated around the period
to its fixed point). The average error J = (1/K) sum_k tr P_k then comes from
the covariance limit cycle of those gains: scipy's discrete Lyapunov solver
gives P_0 from the monodromy, and the recursion carries it around the
period. Only the plant matrices are taken from persched.
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy.linalg import solve_discrete_lyapunov


class ReferenceEvaluator:
    """Scores schedules for one plant x' = A x + w, y = C x + v."""

    def __init__(self, A, C, q_eff, R):
        self.A = np.array(A, dtype=float)
        self.C = np.array(C, dtype=float)
        self.q_eff = np.array(q_eff, dtype=float)
        self.R = np.array(R, dtype=float)

    @classmethod
    def for_system(cls, sys) -> "ReferenceEvaluator":
        return cls(sys.A, sys.C, sys.q_eff, sys.R)

    def _update(self, p: np.ndarray, active) -> tuple:
        """One masked Riccati step. Returns (gain, next covariance)."""
        n, m = self.A.shape[0], self.C.shape[0]
        gain = np.zeros((n, m))
        idx = np.flatnonzero(active)
        if idx.size:
            c_s = self.C[idx]
            innov = c_s @ p @ c_s.T + self.R[np.ix_(idx, idx)]
            gain[:, idx] = np.linalg.solve(innov, c_s @ p @ self.A.T).T
        closed = self.A - gain @ self.C
        nxt = closed @ p @ closed.T + self.q_eff + gain @ self.R @ gain.T
        return gain, 0.5 * (nxt + nxt.T)

    def gains(self, mask, tol: float = 1e-13, max_sweeps: int = 100_000) -> np.ndarray:
        """Riccati-optimal periodic gains for ``mask``, as a (K, N, M) array."""
        mask = np.asarray(mask)
        p = self.q_eff.copy()
        for _ in range(max_sweeps):
            start = p
            for row in mask:
                _, p = self._update(p, row)
            if np.linalg.norm(p - start) <= tol * max(1.0, np.linalg.norm(p)):
                break
        else:
            raise RuntimeError("reference Riccati recursion did not settle")
        out = np.empty((mask.shape[0],) + (self.A.shape[0], self.C.shape[0]))
        for k, row in enumerate(mask):
            out[k], p = self._update(p, row)
        return out

    def average_error(self, gains) -> float:
        """J of arbitrary stabilizing periodic gains, via the monodromy."""
        n = self.A.shape[0]
        factors = [self.A - g @ self.C for g in gains]
        noise = [self.q_eff + g @ self.R @ g.T for g in gains]
        monodromy = np.eye(n)
        w_acc = np.zeros((n, n))
        for f, w in zip(factors, noise):
            monodromy = f @ monodromy
            w_acc = f @ w_acc @ f.T + w
        if np.abs(np.linalg.eigvals(monodromy)).max() >= 1.0:
            raise RuntimeError("gains do not stabilize the periodic closed loop")
        p = solve_discrete_lyapunov(monodromy, w_acc)
        total = 0.0
        for f, w in zip(factors, noise):
            total += np.trace(p)
            p = f @ p @ f.T + w
        return float(total / len(factors))

    def J(self, mask) -> float:
        """Average error of the Riccati-optimal estimator for ``mask``."""
        return self.average_error(self.gains(mask))


def leaf_count(K: int, bounds) -> int:
    """Masks with at most bounds[m] activations of sensor m per period:
    prod_m sum_{c <= bounds[m]} C(K, c)."""
    total = 1
    for eta in bounds:
        total *= sum(comb(K, c) for c in range(eta + 1))
    return total


def sample_masks(rng: np.random.Generator, K: int, M: int, eta: int, count: int, total=None):
    """``count`` random masks with at most ``eta`` activations per sensor,
    and exactly ``total`` activations overall when it is given."""
    masks = []
    while len(masks) < count:
        counts = rng.integers(0, eta + 1, size=M)
        if total is not None and counts.sum() != total:
            continue
        mask = np.zeros((K, M), dtype=np.int8)
        for m, c in enumerate(counts):
            mask[rng.choice(K, size=c, replace=False), m] = 1
        masks.append(mask)
    return masks
