"""Plant construction, the benchmark plant, and assumption checks."""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import yaml

from persched import (
    DimensionError,
    FieldGeometry,
    InputError,
    Schedule,
    SystemModel,
    build_diffusion_system,
    build_laplacian,
    evaluate_schedule,
    validate_assumptions,
)
from tests import reference
from tests.conftest import spectral_radius

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


class TestSystemModel:
    def test_dimensions_and_symmetrization(self):
        sys = SystemModel(
            A=np.eye(2) * 0.5,
            B=np.eye(2),
            C=np.array([[1.0, 0.0]]),
            Q=np.array([[1.0, 0.2], [0.2, 1.0]]),
            R=np.array([[2.0]]),
        )
        assert sys.n_states == 2
        assert sys.B.shape[1] == 2
        assert sys.n_sensors == 1
        np.testing.assert_allclose(sys.q_eff, sys.Q)

    def test_q_eff_includes_input_map(self):
        b = np.array([[1.0], [2.0]])
        sys = SystemModel(
            A=np.eye(2) * 0.5, B=b, C=np.eye(2), Q=np.array([[3.0]]), R=np.eye(2)
        )
        np.testing.assert_allclose(sys.q_eff, 3.0 * b @ b.T)

    def test_holds_private_read_only_arrays(self):
        # Writing into the caller's arrays afterwards reaches neither the
        # model's matrices, its cached A^T and B Q B^T, nor J.
        a = np.array([[0.5, 0.1], [0.0, 0.4]])
        b, c, q, r = np.eye(2), np.eye(2), np.eye(2), np.eye(2)
        sys = SystemModel(A=a, B=b, C=c, Q=q, R=r)
        sched = Schedule(np.ones((2, 2)))
        j = evaluate_schedule(sys, sched).J
        for arr in (a, b, c, q, r):
            arr *= 0.5
        np.testing.assert_array_equal(sys.A, [[0.5, 0.1], [0.0, 0.4]])
        np.testing.assert_array_equal(sys.a_t, sys.A.T)
        np.testing.assert_array_equal(sys.q_eff, np.eye(2))
        assert evaluate_schedule(sys, sched).J == j
        held = (sys.A, sys.B, sys.C, sys.Q, sys.R, sys.q_eff, sys.a_t)
        assert not any(arr.flags.writeable for arr in held)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError, match=r"^A must have shape \(N, N\), got \(2, 3\)$"):
            SystemModel(
                A=np.ones((2, 3)), B=np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2)
            )
        with pytest.raises(DimensionError, match=r"^C must have shape \(M, 2\), got \(1, 3\)$"):
            SystemModel(
                A=np.eye(2), B=np.eye(2), C=np.ones((1, 3)), Q=np.eye(2), R=np.eye(1)
            )

    def test_rejects_indefinite_noise(self):
        with pytest.raises(InputError, match="semidefinite"):
            SystemModel(
                A=np.eye(2) * 0.5,
                B=np.eye(2),
                C=np.eye(2),
                Q=np.diag([1.0, -1.0]),
                R=np.eye(2),
            )
        with pytest.raises(InputError, match="positive definite"):
            SystemModel(
                A=np.eye(2) * 0.5,
                B=np.eye(2),
                C=np.eye(2),
                Q=np.eye(2),
                R=np.zeros((2, 2)),
            )

    @pytest.mark.parametrize(
        "q, message",
        [
            # Past about 1e154 the squared norms overflow, and below 1 an
            # absolute floor passes any small asymmetry or negative eigenvalue.
            ([[1e200, 3e200], [0.0, 1e200]], "not symmetric"),
            ([[1e200, 0.0], [0.0, -1e200]], "semidefinite"),
            ([[1e-20, 3e-20], [0.0, 1e-20]], "not symmetric"),
        ],
    )
    def test_q_checks_hold_at_every_scale(self, q, message):
        with pytest.raises(InputError, match=message):
            SystemModel(A=np.eye(2) * 0.5, B=np.eye(2), C=np.eye(2), Q=q, R=np.eye(2))

    @pytest.mark.parametrize("q, r", [(1e308, 1.0), (1.0, 1e308)])
    def test_noise_near_the_float_limit_is_kept(self, q, r):
        # X + X^T overflows for either matrix, and for B Q B^T; each is
        # symmetrized at its unit shift, with no warning, and read back unchanged.
        eye = np.eye(2)
        sys = SystemModel(A=0.9 * eye, B=eye, C=np.zeros((1, 2)), Q=q * eye, R=r * np.eye(1))
        assert sys.Q.tobytes() == sys.q_eff.tobytes() == (q * eye).tobytes()
        assert sys.R.tobytes() == (r * np.eye(1)).tobytes()


class TestFieldGeometry:
    def test_counts(self):
        geom = FieldGeometry(ell_h=4, ell_v=4, sensor_sites=((0, 0), (2, 3)))
        assert geom.n_states == 25
        assert geom.n_sensors == 2

    def test_site_index_row_major(self):
        geom = FieldGeometry(ell_h=2, ell_v=3)
        assert geom.site_index((0, 0)) == 0
        assert geom.site_index((0, 3)) == 3
        assert geom.site_index((1, 0)) == 4
        assert geom.site_index((2, 3)) == 11

    def test_rejects_duplicate_sites(self):
        with pytest.raises(InputError, match="distinct"):
            FieldGeometry(ell_h=2, ell_v=2, sensor_sites=((1, 1), (1, 1)))

    def test_rejects_outside_sites(self):
        with pytest.raises(InputError, match="outside"):
            FieldGeometry(ell_h=2, ell_v=2, sensor_sites=((3, 0),))

    def test_rejects_bad_scalars(self):
        with pytest.raises(InputError, match="spacing"):
            FieldGeometry(ell_h=1, ell_v=1, spacing=0.0)

    @pytest.mark.parametrize("sites", [(), [], [[0, 1], [1, 0]], np.array([[0, 1], [1, 0]])])
    def test_sites_kept_as_int_pairs(self, sites):
        kept = FieldGeometry(ell_h=1, ell_v=1, sensor_sites=sites).sensor_sites
        assert kept == tuple((int(i), int(j)) for i, j in sites)
        assert all(type(x) is int for site in kept for x in site)


class TestBuildLaplacian:
    def test_single_node(self):
        geom = FieldGeometry(ell_h=0, ell_v=0)
        np.testing.assert_allclose(build_laplacian(geom), [[-4.0]])

    def test_interior_node_stencil(self):
        geom = FieldGeometry(ell_h=2, ell_v=2)
        lap = build_laplacian(geom)
        center = geom.site_index((1, 1))
        row = lap[center]
        assert row[center] == -4.0
        for site in ((0, 1), (2, 1), (1, 0), (1, 2)):
            assert row[geom.site_index(site)] == 1.0
        assert row.sum() == 0.0

    def test_row_sums_count_neighbors(self):
        # A node with k in-lattice neighbors has row sum k - 4 (h = 1).
        geom = FieldGeometry(ell_h=3, ell_v=3)
        lap = build_laplacian(geom)
        corner = geom.site_index((0, 0))
        edge = geom.site_index((0, 1))
        interior = geom.site_index((1, 1))
        assert lap[corner].sum() == pytest.approx(2 - 4)
        assert lap[edge].sum() == pytest.approx(3 - 4)
        assert lap[interior].sum() == pytest.approx(4 - 4)

    def test_spacing_scales_inverse_square(self):
        coarse = build_laplacian(FieldGeometry(ell_h=2, ell_v=2, spacing=2.0))
        fine = build_laplacian(FieldGeometry(ell_h=2, ell_v=2, spacing=1.0))
        np.testing.assert_allclose(coarse, fine / 4.0)

    def test_symmetric(self):
        lap = build_laplacian(FieldGeometry(ell_h=3, ell_v=2))
        np.testing.assert_allclose(lap, lap.T)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_geometry_matches_node_by_node_bitwise(self, path):
        field = yaml.safe_load(path.read_text())["system"]["field"]
        geom = FieldGeometry(field["ell_h"], field["ell_v"], field.get("spacing", 1.0))
        lap = build_laplacian(geom)
        assert lap.tobytes() == reference.laplacian_node_by_node(geom).tobytes()

    def test_random_geometries_match_node_by_node_bitwise(self, rng):
        # Signed zeros included: no entry of the Kronecker sum is -0.0.
        for _ in range(50):
            ell_h, ell_v = (int(e) for e in rng.integers(0, 6, size=2))
            geom = FieldGeometry(ell_h, ell_v, float(rng.uniform(0.1, 3.0)))
            lap = build_laplacian(geom)
            assert lap.tobytes() == reference.laplacian_node_by_node(geom).tobytes()


class TestBuildDiffusionSystem:
    def test_matches_scipy_exponential(self):
        geom = FieldGeometry(
            ell_h=2, ell_v=2, spacing=1.3, sample_interval=0.4, sensor_sites=((1, 1),)
        )
        sys = build_diffusion_system(geom)
        expected = scipy.linalg.expm(build_laplacian(geom) * 0.4)
        np.testing.assert_allclose(sys.A, expected, rtol=1e-10)

    def test_zero_interval_gives_identity(self):
        geom = FieldGeometry(
            ell_h=1, ell_v=1, sample_interval=0.0, sensor_sites=((0, 0),)
        )
        np.testing.assert_allclose(build_diffusion_system(geom).A, np.eye(4))

    def test_observation_rows_one_hot(self):
        geom = FieldGeometry(ell_h=2, ell_v=2, sensor_sites=((0, 1), (2, 2)))
        sys = build_diffusion_system(geom)
        assert sys.C.shape == (2, 9)
        for m, site in enumerate(geom.sensor_sites):
            expected = np.zeros(9)
            expected[geom.site_index(site)] = 1.0
            np.testing.assert_array_equal(sys.C[m], expected)

    def test_noise_scales(self):
        geom = FieldGeometry(ell_h=1, ell_v=1, sensor_sites=((0, 0),))
        sys = build_diffusion_system(geom, q_scale=0.25, r_scale=2.0)
        np.testing.assert_allclose(sys.Q, 0.25 * np.eye(4))
        np.testing.assert_allclose(sys.R, [[2.0]])
        with pytest.raises(InputError, match="positive"):
            build_diffusion_system(geom, q_scale=0.0)

    def test_requires_sensors(self):
        with pytest.raises(InputError, match="sensor"):
            build_diffusion_system(FieldGeometry(ell_h=1, ell_v=1))


class TestBenchmark:
    def test_shape(self, benchmark_sys):
        assert benchmark_sys.n_states == 25
        assert benchmark_sys.n_sensors == 10

    def test_stable_and_assumptions_pass(self, benchmark_sys):
        assert spectral_radius(benchmark_sys.A) < 1.0
        report = validate_assumptions(benchmark_sys)
        assert report.all_ok, report.summary()

    def test_noise_configuration(self, benchmark_sys):
        np.testing.assert_allclose(benchmark_sys.Q, 0.25 * np.eye(25))
        np.testing.assert_allclose(benchmark_sys.R, np.eye(10))
        np.testing.assert_allclose(benchmark_sys.B, np.eye(25))


class TestValidateAssumptions:
    def test_undetectable_flagged(self):
        # The unstable first mode is invisible to the only sensor.
        sys = SystemModel(
            A=np.diag([1.1, 0.5]),
            B=np.eye(2),
            C=np.array([[0.0, 1.0]]),
            Q=np.eye(2),
            R=np.eye(1),
        )
        report = validate_assumptions(sys)
        assert not report.all_ok
        names = [c.name for c in report.checks if not c.passed]
        assert "(A, C) detectable" in names

    def test_unstabilizable_flagged(self):
        # Noise never enters the unstable mode.
        sys = SystemModel(
            A=np.diag([1.1, 0.5]),
            B=np.array([[0.0], [1.0]]),
            C=np.eye(2),
            Q=np.eye(1),
            R=np.eye(2),
        )
        report = validate_assumptions(sys)
        assert not report.all_ok
        names = [c.name for c in report.checks if not c.passed]
        assert "(A, noise) stabilizable" in names

    def test_stable_plant_passes_trivially(self, rng):
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            a *= 0.8 / spectral_radius(a)
            sys = SystemModel(A=a, B=np.eye(3), C=np.zeros((1, 3)), Q=np.eye(3), R=np.eye(1))
            assert validate_assumptions(sys).all_ok

    def test_summary_lists_each_check(self, benchmark_sys):
        summary = validate_assumptions(benchmark_sys).summary()
        assert summary.count("PASS") == 2
        assert "detectable" in summary
