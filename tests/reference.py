"""Reference computations that cross-check the periodic solvers and the
sparsification step.

persched computes each limit cycle by one Lyapunov solve in the monodromy
matrix and the schedule gains by the K coupled Riccati recursions. The
references here reach the same quantities other ways: the lifted
(block-cyclic) reformulation of Bittanti & Colaneri, *Periodic Systems*
(Springer 2009), solved on KN x KN operands with scipy, and the plain
recursions iterated to a fixed point. The lifted Lyapunov solves take
scipy's direct (Kronecker) route: its default bilinear transform loses
about as many digits as the monodromy is close to the unit circle. The
references are slow, they need scipy, and they stay out of the package.
The sparsification references solve the G-step one sensor at a time and by
enumerating every support. The diffusion plant's Laplacian is built node by
node. The schedule references list the rotation classes by brute force and
draw random masks with one ``Generator.choice`` call per count.
"""

import itertools
from math import comb

import numpy as np
import scipy.linalg

from persched.exceptions import DimensionError
from persched.gstep import ZERO_COLUMN_TOL


def closed_loop(sys, gains):
    """Closed-loop factors F_k = A - L_k C of (K, N, M) gains, as (K, N, N)."""
    return sys.A - gains @ sys.C


def _loop(sys, gains):
    """Closed-loop factors F_k and injected noises W_k, each (K, N, N)."""
    return closed_loop(sys, gains), sys.q_eff + gains @ sys.R @ gains.transpose(0, 2, 1)


def lift(blocks, cyclic=True):
    """The lifted block matrix of K same-shaped blocks: with ``cyclic`` set,
    block k at block position (k+1 mod K, k), the subdiagonal plus a
    wraparound block in the top-right, as for lifted transitions; without
    it the block diagonal, as for lifted covariances and weights."""
    diagonal = scipy.linalg.block_diag(*blocks)
    return np.roll(diagonal, len(blocks[0]), axis=0) if cyclic else diagonal


def _diagonal_blocks(x, K, n):
    return np.stack([x[k * n : (k + 1) * n, k * n : (k + 1) * n] for k in range(K)])


def _fixed_point(sweep, x, tol=1e-12, max_sweeps=100_000):
    for _ in range(max_sweeps):
        start, x = x, sweep(x)
        if np.linalg.norm(x - start) <= tol * max(1.0, float(np.linalg.norm(x))):
            return x
    raise AssertionError(f"recursion did not settle within {max_sweeps} sweeps")


def covariance_cycle_lifted(sys, gains):
    """(K, N, N) covariance limit cycle from one KN x KN Lyapunov solve."""
    factors, noise = _loop(sys, gains)
    # Diagonal block r of the lifted weight pairs with step r - 1: the lifted
    # recursion writes F_{r-1} P_{r-1} F_{r-1}^T + W_{r-1} into block r.
    w_lift = lift(np.roll(noise, 1, axis=0), cyclic=False)
    x = scipy.linalg.solve_discrete_lyapunov(lift(factors), w_lift, method="direct")
    return _diagonal_blocks(x, *factors.shape[:2])


def covariance_cycle_recursion(sys, gains):
    """(K, N, N) covariance limit cycle by iterating P <- F_k P F_k^T + W_k."""
    factors, noise = _loop(sys, gains)

    def sweep(p):
        for f, w in zip(factors, noise):
            p = f @ p @ f.T + w
        return p

    covs = [_fixed_point(sweep, np.zeros(factors.shape[1:]))]
    for f, w in zip(factors[:-1], noise[:-1]):
        covs.append(f @ covs[-1] @ f.T + w)
    return np.stack(covs)


def value_cycle_lifted(sys, gains):
    """(K, N, N) value cycle V_k = F_k^T V_{k+1} F_k + I from one lifted solve."""
    factors = closed_loop(sys, gains)
    K, n = factors.shape[:2]
    x = scipy.linalg.solve_discrete_lyapunov(lift(factors).T, np.eye(K * n), method="direct")
    return _diagonal_blocks(x, K, n)


def value_cycle_recursion(sys, gains):
    """(K, N, N) value cycle by iterating V <- F_k^T V F_k + I backwards."""
    factors = closed_loop(sys, gains)
    eye = np.eye(factors.shape[1])

    def sweep(v):
        for f in factors[::-1]:
            v = f.T @ v @ f + eye
        return v

    K = len(factors)
    values = [_fixed_point(sweep, np.zeros_like(eye))] * K
    for k in range(K - 1, 0, -1):
        values[k] = factors[k].T @ values[(k + 1) % K] @ factors[k] + eye
    return np.stack(values)


def lifted_riccati_gains(sys, sched):
    """(K, N, M) Riccati-optimal schedule gains from the KN x KN Riccati
    equation of the lifted pair; sensor i active at step k is one lifted
    measurement row, and the schedule must activate at least one."""
    K, n = sched.K, sys.n_states
    steps, sensors = np.nonzero(sched.mask)
    c_lift = np.zeros((len(steps), K * n))
    for row, (k, i) in enumerate(zip(steps, sensors)):
        c_lift[row, k * n : (k + 1) * n] = sys.C[i]
    same_step = steps[:, np.newaxis] == steps[np.newaxis, :]
    r_lift = np.where(same_step, sys.R[np.ix_(sensors, sensors)], 0.0)
    a_lift = lift([sys.A] * K)
    q_lift = lift([sys.q_eff] * K, cyclic=False)
    # The filter equation is the dual of scipy's control form.
    p = scipy.linalg.solve_discrete_are(a_lift.T, c_lift.T, q_lift, r_lift)
    gain_lift = a_lift @ p @ c_lift.T @ np.linalg.inv(c_lift @ p @ c_lift.T + r_lift)
    gains = np.zeros((K, n, sys.n_sensors))
    for row, (k, i) in enumerate(zip(steps, sensors)):
        dest = (k + 1) % K
        gains[k, :, i] = gain_lift[dest * n : (dest + 1) * n, row]
    return gains


def g_objective(s, gamma, rho, g):
    """Sparsification objective at a candidate G for targets S: gamma times
    the number of nonzero columns plus the proximal distance
    (rho/2)||G - S||_F^2."""
    g = np.asarray(g, dtype=float)
    if g.shape != s.shape:
        raise DimensionError(f"candidate shape {g.shape} does not match targets {s.shape}")
    card = int(np.sum(np.linalg.norm(g, axis=1) > ZERO_COLUMN_TOL))
    return gamma * card + 0.5 * rho * float(np.sum((g - s) ** 2))


def g_step_per_sensor(s, gamma, rho, eta):
    """The G-step one sensor at a time: rank the sensor's K columns of S by
    2-norm, ties to the smaller step, and keep the longest prefix whose
    saving (rho/2) norm^2 covers gamma, capped by eta[m] and by the columns
    above ZERO_COLUMN_TOL."""
    out = np.zeros_like(s)
    K = len(s)
    for m in range(s.shape[2]):
        cols = s[:, :, m]
        norms = np.linalg.norm(cols, axis=1)
        order = np.lexsort((np.arange(K), -norms))
        limit = min(eta[m], int(np.sum(norms > ZERO_COLUMN_TOL)))
        q = int(np.sum(0.5 * rho * norms[order[:limit]] ** 2 >= gamma))
        out[order[:q], :, m] = cols[order[:q]]
    return out


def g_optimum_enumerated(s, gamma, rho, eta):
    """Smallest g_objective over every support that keeps at most eta[m]
    columns of sensor m. The objective separates by sensor, so the subsets
    of steps are enumerated per sensor and the minima added up."""
    total = 0.0
    K = len(s)
    for m in range(s.shape[2]):
        norms = np.linalg.norm(s[:, :, m], axis=1)
        best = np.inf
        for size in range(eta[m] + 1):
            for kept in itertools.combinations(range(K), size):
                mask = np.zeros(K, dtype=bool)
                mask[list(kept)] = True
                card = int(np.sum(norms[mask] > ZERO_COLUMN_TOL))
                dist = float(np.sum(norms[~mask] ** 2))
                best = min(best, gamma * card + 0.5 * rho * dist)
        total += best
    return total


def laplacian_node_by_node(geom):
    """build_laplacian one lattice node at a time: -4/h^2 on the diagonal
    and +1/h^2 at each of the node's in-lattice neighbours, in row-major
    order over (i, j)."""
    n = geom.n_states
    h2 = geom.spacing**2
    lap = np.zeros((n, n))
    index = np.arange(n).reshape(geom.ell_h + 1, geom.ell_v + 1)
    for (i, j), row in np.ndenumerate(index):
        lap[row, row] = -4.0 / h2
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni <= geom.ell_h and 0 <= nj <= geom.ell_v:
                lap[row, index[ni, nj]] = 1.0 / h2
    return lap


def necklaces_brute_force(K, bounds):
    """(row-major bits, class size) for each K x M mask within the
    per-sensor bounds that is its own smallest row rotation, sorted; the
    class size is the number of distinct rotations."""
    M = len(bounds)
    out = []
    for bits in itertools.product((0, 1), repeat=K * M):
        if any(sum(bits[m::M]) > bounds[m] for m in range(M)):
            continue
        rotations = {bits[r * M :] + bits[: r * M] for r in range(K)}
        if bits == min(rotations):
            out.append((bits, len(rotations)))
    return sorted(out)


def draw_mask_per_call(rng, K, bounds, total, table):
    """A uniform feasible mask with ``total`` activations, drawing each
    sensor's count with its own ``rng.choice`` over freshly built weights
    from the suffix table, then its steps."""
    mask = np.zeros((K, len(bounds)), dtype=np.int8)
    remaining = total
    for m in range(len(bounds)):
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
