"""Reference computations that cross-check the periodic solvers.

persched computes each limit cycle by one Lyapunov solve in the monodromy
matrix and the schedule gains by the K coupled Riccati recursions. The
references here reach the same quantities other ways: the lifted
(block-cyclic) reformulation of Bittanti & Colaneri, *Periodic Systems*
(Springer 2009), solved on KN x KN operands with scipy, and the plain
recursions iterated to a fixed point. They are slow, they need scipy, and
they stay out of the package.
"""

import numpy as np
import scipy.linalg

from persched.periodic import closed_loop_factors, lift_cyclic


def _loop(sys, gains):
    """Closed-loop factors F_k and injected noises W_k, each (K, N, N)."""
    g = gains.gains
    return closed_loop_factors(sys, gains), sys.q_eff + g @ sys.R @ g.transpose(0, 2, 1)


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
    w_lift = lift_cyclic(np.roll(noise, 1, axis=0), cyclic=False)
    x = scipy.linalg.solve_discrete_lyapunov(lift_cyclic(factors), w_lift)
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
    factors = closed_loop_factors(sys, gains)
    K, n = factors.shape[:2]
    x = scipy.linalg.solve_discrete_lyapunov(lift_cyclic(factors).T, np.eye(K * n))
    return _diagonal_blocks(x, K, n)


def value_cycle_recursion(sys, gains):
    """(K, N, N) value cycle by iterating V <- F_k^T V F_k + I backwards."""
    factors = closed_loop_factors(sys, gains)
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
    a_lift = lift_cyclic([sys.A] * K)
    q_lift = lift_cyclic([sys.q_eff] * K, cyclic=False)
    # The filter equation is the dual of scipy's control form.
    p = scipy.linalg.solve_discrete_are(a_lift.T, c_lift.T, q_lift, r_lift)
    gain_lift = a_lift @ p @ c_lift.T @ np.linalg.inv(c_lift @ p @ c_lift.T + r_lift)
    gains = np.zeros((K, n, sys.n_sensors))
    for row, (k, i) in enumerate(zip(steps, sensors)):
        dest = (k + 1) % K
        gains[k, :, i] = gain_lift[dest * n : (dest + 1) * n, row]
    return gains
