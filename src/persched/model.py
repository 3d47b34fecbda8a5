"""Plant definition, standing-assumption checks, and the diffusion benchmark.

The benchmark instance discretizes a heat equation on a rectangular lattice
with zero boundary, samples it in time through the matrix exponential, and
observes single lattice points through a configurable set of sensor sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, InputError
from .linalg import _UNIT_MARGIN, as_matrix, matrix_exponential, psd_sqrt, require_symmetric

__all__ = [
    "SystemModel",
    "FieldGeometry",
    "build_laplacian",
    "build_diffusion_system",
    "benchmark_geometry",
    "benchmark_system",
    "AssumptionCheck",
    "AssumptionReport",
    "validate_assumptions",
    "pbh_rank_drop",
    "BENCHMARK_SENSOR_SITES",
    "BENCHMARK_SPACING",
]


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Discrete-time plant x' = A x + B w, y = C x + v.

    Each row of ``C`` is one sensor. ``Q`` is the covariance of w (p x p,
    PSD) and ``R`` the covariance of v (M x M, positive definite). Matrices
    are validated and stored symmetrized where symmetry is required.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        b = as_matrix(self.B, "B")
        c = as_matrix(self.C, "C")
        n = a.shape[0]
        if a.shape != (n, n):
            raise DimensionError(f"A must be square, got {a.shape}")
        if b.shape[0] != n:
            raise DimensionError(f"B has {b.shape[0]} rows, expected {n}")
        if c.shape[1] != n:
            raise DimensionError(f"C has {c.shape[1]} columns, expected {n}")
        q = require_symmetric(self.Q, "Q")
        r = require_symmetric(self.R, "R")
        if q.shape != (b.shape[1], b.shape[1]):
            raise DimensionError(f"Q shape {q.shape} does not match B columns {b.shape[1]}")
        if r.shape != (c.shape[0], c.shape[0]):
            raise DimensionError(f"R shape {r.shape} does not match C rows {c.shape[0]}")
        psd_sqrt(q, "Q")  # for its semidefinite test, the same at every scale
        if np.linalg.eigvalsh(r).min() <= 0.0:
            raise InputError("R must be positive definite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "_q_eff", (b @ q @ b.T + (b @ q @ b.T).T) / 2.0)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_sensors(self) -> int:
        return self.C.shape[0]

    @property
    def q_eff(self) -> np.ndarray:
        """Effective process-noise covariance B Q B^T."""
        return self._q_eff


@dataclass(frozen=True)
class FieldGeometry:
    """Rectangular interior lattice for the diffusion benchmark.

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
        if self.ell_h < 0 or self.ell_v < 0:
            raise InputError("lattice extents must be nonnegative")
        if self.spacing <= 0:
            raise InputError("lattice spacing must be positive")
        if self.sample_interval < 0:
            raise InputError("sampling interval must be nonnegative")
        sites = tuple((int(i), int(j)) for i, j in self.sensor_sites)
        for i, j in sites:
            if not (0 <= i <= self.ell_h and 0 <= j <= self.ell_v):
                raise InputError(f"sensor site {(i, j)} is outside the lattice")
        if len(set(sites)) != len(sites):
            raise InputError("sensor sites must be distinct")
        object.__setattr__(self, "sensor_sites", sites)

    @property
    def n_states(self) -> int:
        return (self.ell_h + 1) * (self.ell_v + 1)

    @property
    def n_sensors(self) -> int:
        return len(self.sensor_sites)

    def site_index(self, site) -> int:
        """Row-major state index of lattice node (i, j)."""
        i, j = site
        if not (0 <= i <= self.ell_h and 0 <= j <= self.ell_v):
            raise InputError(f"site {(i, j)} is outside the lattice")
        return i * (self.ell_v + 1) + j


def build_laplacian(geom: FieldGeometry) -> np.ndarray:
    """Five-point-stencil Laplacian with zero (Dirichlet) boundary.

    Returns the N x N matrix with -4/h^2 on the diagonal and +1/h^2 at each
    in-lattice neighbor; neighbors falling on the boundary contribute
    nothing. Node ordering is row-major over (i, j).
    """
    n = geom.n_states
    h2 = geom.spacing**2
    lap = np.zeros((n, n))
    for i in range(geom.ell_h + 1):
        for j in range(geom.ell_v + 1):
            row = geom.site_index((i, j))
            lap[row, row] = -4.0 / h2
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni <= geom.ell_h and 0 <= nj <= geom.ell_v:
                    lap[row, geom.site_index((ni, nj))] = 1.0 / h2
    return lap


def build_diffusion_system(
    geom: FieldGeometry, q_scale: float = 0.25, r_scale: float = 1.0
) -> SystemModel:
    """Sampled diffusion plant with point sensors.

    A = exp(Laplacian * sample_interval), B = I, Q = q_scale * I,
    R = r_scale * I, and row m of C selects the state at sensor site m.
    """
    if geom.n_sensors == 0:
        raise InputError("geometry defines no sensor sites")
    if q_scale <= 0 or r_scale <= 0:
        raise InputError("noise scales must be positive")
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


# Ten sensor sites on the 5 x 5 interior lattice of the benchmark geometry.
# The first six sit where the dominant diffusion mode is weak (corners and
# near-boundary nodes); the last four sit on its interior antinodes, which
# makes the informative subset unambiguous and separates scheduled from
# unscheduled sensors cleanly under the cardinality penalty.
BENCHMARK_SENSOR_SITES = (
    (0, 0),
    (0, 4),
    (4, 0),
    (4, 4),
    (0, 1),
    (1, 0),
    (1, 1),
    (1, 3),
    (3, 1),
    (3, 3),
)

# Lattice spacing of the benchmark. Together with the 0.5 sampling interval
# this sets the per-step diffusion ratio; at 1.75 the antinode sensors carry
# enough innovation to survive the activation penalties exercised in the
# regression suite while the near-boundary sensors do not.
BENCHMARK_SPACING = 1.75


def benchmark_geometry() -> FieldGeometry:
    """Ten-sensor diffusion benchmark geometry (25 states)."""
    return FieldGeometry(
        ell_h=4,
        ell_v=4,
        spacing=BENCHMARK_SPACING,
        sample_interval=0.5,
        sensor_sites=BENCHMARK_SENSOR_SITES,
    )


def benchmark_system(q_scale: float = 0.25, r_scale: float = 1.0) -> SystemModel:
    """The benchmark diffusion plant (N = 25, M = 10)."""
    return build_diffusion_system(benchmark_geometry(), q_scale, r_scale)


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

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status}  {c.name}{suffix}")
        return "\n".join(lines)


def pbh_rank_drop(a: np.ndarray, other: np.ndarray):
    """PBH detectability test of (A, other) at every eigenvalue of A on or
    outside the unit circle.

    Returns the first eigenvalue at which the pencil [A - lam I; other]
    loses rank, or None. (A, S) is stabilizable exactly when (A^T, S^T) is
    detectable.
    """
    return _rank_drop_at(a, _unit_circle_eigenvalues(a), other)


def _unit_circle_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of A on or outside the unit circle, in eigvals order."""
    lams = np.linalg.eigvals(a)
    return lams[np.abs(lams) >= 1.0 - _UNIT_MARGIN]


def _rank_drop_at(a: np.ndarray, lams, other: np.ndarray):
    """pbh_rank_drop's test at the given eigenvalues ``lams`` of A, so that
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

    det_lam = pbh_rank_drop(sys.A, sys.C)
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
        stab_lam = pbh_rank_drop(sys.A.T, noise_sqrt.T)
        stab_ok = stab_lam is None
        checks.append(
            AssumptionCheck(
                "(A, noise) stabilizable",
                stab_ok,
                "" if stab_ok else f"rank drop at eigenvalue {stab_lam:.6g}",
            )
        )

    return AssumptionReport(checks=tuple(checks))
