"""Plant definition, standing-assumption checks, and the diffusion plant.

The diffusion plant discretizes a heat equation on a rectangular lattice
with zero boundary, samples it in time through the matrix exponential, and
observes single lattice points through a configurable set of sensor sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InputError
from .linalg import (
    _UNIT_MARGIN,
    _array,
    _integral,
    _real,
    _unit_symmetrize,
    matrix_exponential,
    psd_sqrt,
    require_symmetric,
)

__all__ = [
    "SystemModel",
    "FieldGeometry",
    "build_laplacian",
    "build_diffusion_system",
    "AssumptionCheck",
    "AssumptionReport",
    "validate_assumptions",
]


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Discrete-time plant x' = A x + B w, y = C x + v.

    Each row of ``C`` is one sensor. ``Q`` is the covariance of w (p x p,
    PSD) and ``R`` the covariance of v (M x M, positive definite). Matrices
    are validated and stored as read-only private copies, symmetrized where
    symmetry is required.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        a = _array(self.A, "A", ("N", "N"))
        n = len(a)
        b = _array(self.B, "B", (n, "p"))
        c = _array(self.C, "C", ("M", n))
        q = require_symmetric(_array(self.Q, "Q", (b.shape[1],) * 2), "Q")
        r = require_symmetric(_array(self.R, "R", (len(c),) * 2), "R")
        psd_sqrt(q, "Q")  # for its semidefinite test, the same at every scale
        if np.linalg.eigvalsh(r).min() <= 0.0:
            raise InputError("R must be positive definite")
        # Copies, so that later writes into the caller's arrays miss the model.
        a, b, c = np.array(a), np.array(b), np.array(c)
        arrays = (a, b, c, q, r, _unit_symmetrize(b @ q @ b.T), np.array(a.T, order="C"))
        for name, arr in zip(("A", "B", "C", "Q", "R", "_q_eff", "_a_t"), arrays):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.C.shape[0]

    @property
    def q_eff(self) -> np.ndarray:
        """Effective process-noise covariance B Q B^T."""
        return self._q_eff

    @property
    def a_t(self) -> np.ndarray:
        """A^T as a C-contiguous array: a right operand that stacked products
        hand to BLAS without a transposed view."""
        return self._a_t


@dataclass(frozen=True)
class FieldGeometry:
    """Rectangular interior lattice of a diffusion plant.

    ``ell_h`` and ``ell_v`` are the interior lattice extents: node indices
    run over (i, j) with 0 <= i <= ell_h and 0 <= j <= ell_v, giving
    N = (ell_h + 1)(ell_v + 1) states. The boundary layer around the lattice
    is held at zero. ``sensor_sites`` lists distinct (i, j) lattice nodes,
    one per sensor.
    """

    ell_h: int
    ell_v: int
    spacing: float = 1.0
    sample_interval: float = 0.5
    sensor_sites: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("ell_h", "ell_v"):
            object.__setattr__(self, name, _integral(getattr(self, name), name, least=0))
        object.__setattr__(self, "spacing", _real(self.spacing, "spacing", above=0))
        interval = _real(self.sample_interval, "sample_interval", least=0)
        object.__setattr__(self, "sample_interval", interval)
        sites = self.sensor_sites
        if isinstance(sites, (tuple, list)) and not sites:  # S = 0, the default
            sites = ()
        else:
            sites = tuple(map(tuple, _array(sites, "sensor_sites", ("S", 2), dtype=int).tolist()))
        for i, j in sites:
            self._index(i, j, "sensor_sites entry")
        if len(set(sites)) != len(sites):
            raise InputError("sensor_sites must be distinct")
        object.__setattr__(self, "sensor_sites", sites)

    @property
    def n_states(self) -> int:
        return (self.ell_h + 1) * (self.ell_v + 1)

    @property
    def n_sensors(self) -> int:
        return len(self.sensor_sites)

    def site_index(self, site) -> int:
        """Row-major state index of lattice node (i, j)."""
        return self._index(*_array(site, "site", (2,), dtype=int).tolist())

    def _index(self, i: int, j: int, name: str = "site") -> int:
        """site_index of the node (i, j) of two ints. It is the one
        lattice-range test, of sites and of sensor_sites, and its message
        starts with ``name``."""
        if not (0 <= i <= self.ell_h and 0 <= j <= self.ell_v):
            raise InputError(f"{name} {(i, j)} is outside the lattice")
        return i * (self.ell_v + 1) + j


def build_laplacian(geom: FieldGeometry) -> np.ndarray:
    """Five-point-stencil Laplacian with zero (Dirichlet) boundary.

    Returns the N x N matrix with -4/h^2 on the diagonal and +1/h^2 at each
    in-lattice neighbor; neighbors falling on the boundary contribute
    nothing. Node ordering is row-major over (i, j), so the matrix is the
    Kronecker sum of the 1-D second differences along i and along j.
    """
    t_h, t_v = (
        (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)) / geom.spacing**2
        for n in (geom.ell_h + 1, geom.ell_v + 1)
    )
    return np.kron(t_h, np.eye(len(t_v))) + np.kron(np.eye(len(t_h)), t_v)


def build_diffusion_system(
    geom: FieldGeometry, q_scale: float = 0.25, r_scale: float = 1.0
) -> SystemModel:
    """Sampled diffusion plant with point sensors.

    A = exp(Laplacian * sample_interval), B = I, Q = q_scale * I,
    R = r_scale * I, and row m of C selects the state at sensor site m.
    """
    if geom.n_sensors == 0:
        raise InputError("sensor_sites is empty: the plant needs at least one sensor")
    q_scale, r_scale = _real(q_scale, "q_scale", above=0), _real(r_scale, "r_scale", above=0)
    n = geom.n_states
    a = matrix_exponential(build_laplacian(geom) * geom.sample_interval)
    c = np.zeros((geom.n_sensors, n))
    for m, site in enumerate(geom.sensor_sites):
        c[m, geom.site_index(site)] = 1.0
    return SystemModel(
        A=a,
        B=np.eye(n),
        C=c,
        Q=q_scale * np.eye(n),
        R=r_scale * np.eye(geom.n_sensors),
    )


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    """Result of the standing-assumption checks; report-only, never raises."""

    checks: tuple

    @property
    def all_ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status}  {c.name}{suffix}")
        return "\n".join(lines)


def _pbh_rank_drop(a: np.ndarray, other: np.ndarray):
    """PBH detectability test of (A, other) at every eigenvalue of A on or
    outside the unit circle.

    Returns the first eigenvalue at which the pencil [A - lam I; other]
    loses rank, or None. (A, S) is stabilizable exactly when (A^T, S^T) is
    detectable. The arrays are not checked: callers pass a SystemModel's,
    and ``other`` may have 0 rows (the lift of an all-off schedule).
    """
    return _rank_drop_at(a, _unit_circle_eigenvalues(a), other)


def _unit_circle_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of A on or outside the unit circle, in eigvals order."""
    lams = np.linalg.eigvals(a)
    return lams[np.abs(lams) >= 1.0 - _UNIT_MARGIN]


def _rank_drop_at(a: np.ndarray, lams, other: np.ndarray):
    """_pbh_rank_drop's test at the given eigenvalues ``lams`` of A, so that
    callers testing many ``other`` against one A compute them once. A computed
    lam is an exact eigenvalue only of some A + E, so at a true rank drop the
    pencil's smallest singular value can reach ||E||: up to 3.8 times
    matrix_rank's default tolerance, max(shape) eps sigma_max, on non-normal
    A. The rank counts the singular values above 100 times that default."""
    n = a.shape[0]
    for lam in lams:
        pencil = np.vstack([a - lam * np.eye(n), other])
        sv = np.linalg.svd(pencil, compute_uv=False)
        tol = 100.0 * max(pencil.shape) * np.finfo(float).eps * sv[0]
        if np.count_nonzero(sv > tol) < n:
            return lam
    return None


def validate_assumptions(sys: SystemModel) -> AssumptionReport:
    """Check the standing assumptions behind the estimator design.

    Runs PBH rank tests for detectability of (A, C) and stabilizability of
    (A, sqrt(B Q B^T)), the latter as detectability of the transposed pair.
    R positive definite and Q positive semidefinite need no check here:
    SystemModel raises InputError on either before a report can exist.
    Returns a report listing each check; nothing is raised.
    """
    checks = []

    det_lam = _pbh_rank_drop(sys.A, sys.C)
    det_ok = det_lam is None
    checks.append(
        AssumptionCheck(
            "(A, C) detectable",
            det_ok,
            "" if det_ok else f"rank drop at eigenvalue {det_lam:.6g}",
        )
    )

    try:
        noise_sqrt = psd_sqrt(sys.q_eff, "B Q B^T")
    except InputError as exc:
        checks.append(AssumptionCheck("(A, noise) stabilizable", False, str(exc)))
    else:
        stab_lam = _pbh_rank_drop(sys.A.T, noise_sqrt.T)
        stab_ok = stab_lam is None
        checks.append(
            AssumptionCheck(
                "(A, noise) stabilizable",
                stab_ok,
                "" if stab_ok else f"rank drop at eigenvalue {stab_lam:.6g}",
            )
        )

    return AssumptionReport(checks=tuple(checks))
