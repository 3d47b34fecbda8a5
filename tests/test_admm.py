"""Splitting driver: configuration, initialization, iteration, sweeps."""

import numpy as np
import pytest

import persched as ps
from persched import AdmmConfig, AdmmDriver, InputError, Schedule, lstep
from persched.gstep import ZERO_COLUMN_TOL
from tests.conftest import random_stable_system


def small_config(**overrides):
    base = dict(period=4, gamma=0.02, eta=2, rho=20.0, eps=1e-3, max_iters=150)
    base.update(overrides)
    return AdmmConfig(**base)


class TestDefaultInitSchedule:
    def test_counts_match_bounds(self, rng):
        sys = random_stable_system(rng, 3, 3)
        sched = ps.default_init_schedule(sys, K=6, eta=(1, 2, 5))
        np.testing.assert_array_equal(sched.activation_counts, [1, 2, 5])

    def test_even_spread(self, rng):
        sys = random_stable_system(rng, 2, 1)
        sched = ps.default_init_schedule(sys, K=6, eta=3)
        np.testing.assert_array_equal(np.nonzero(sched.mask[:, 0])[0], [0, 2, 4])

    def test_offsets_stagger_sensors(self, rng):
        sys = random_stable_system(rng, 2, 4)
        sched = ps.default_init_schedule(sys, K=4, eta=1)
        np.testing.assert_array_equal(sched.mask, np.eye(4, dtype=np.int8))

    def test_deterministic(self, rng):
        sys = random_stable_system(rng, 3, 2)
        a = ps.default_init_schedule(sys, K=5, eta=2)
        b = ps.default_init_schedule(sys, K=5, eta=2)
        assert a == b

    def test_all_zero_request_rejected(self, rng):
        sys = random_stable_system(rng, 2, 2)
        with pytest.raises(InputError, match="activation"):
            ps.default_init_schedule(sys, K=3, eta=0)

    def test_eta_length_mismatch(self, rng):
        sys = random_stable_system(rng, 2, 2)
        with pytest.raises(InputError, match="eta"):
            ps.default_init_schedule(sys, K=3, eta=(1, 1, 1))


class TestAdmmConfig:
    def test_eta_broadcast(self):
        cfg = small_config(eta=2)
        assert cfg.eta_tuple(3) == (2, 2, 2)

    def test_eta_sequence_preserved(self):
        cfg = small_config(eta=(1, 2))
        assert cfg.eta_tuple(2) == (1, 2)
        with pytest.raises(InputError, match="entries"):
            cfg.eta_tuple(3)

    @pytest.mark.parametrize("eta", [2.5, (1, 1.5), np.float64(1.5)])
    def test_non_integral_eta_rejected(self, eta):
        with pytest.raises(InputError, match="not an integer"):
            small_config(eta=eta)

    def test_integral_float_eta_accepted(self):
        assert small_config(eta=2.0).eta_tuple(2) == (2, 2)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(period=0), "period"),
            (dict(gamma=-0.1), "gamma"),
            (dict(rho=0.0), "rho"),
            (dict(eps=0.0), "eps"),
            (dict(max_iters=0), "caps"),
            (dict(eta=0), "eta"),
            (dict(eta=5), "eta"),
            (dict(armijo_alpha=1.0), "armijo"),
            (dict(zero_tol=-1e-3), "zero_tol"),
        ],
    )
    def test_rejects_bad_values(self, overrides, message):
        with pytest.raises(InputError, match=message):
            small_config(**overrides)

    def test_init_schedule_period_checked(self):
        with pytest.raises(InputError, match="period"):
            small_config(init_schedule=Schedule.all_on(3, 2))

    def test_to_dict_round_trip_values(self):
        cfg = small_config(eta=(1, 2, 2), init_schedule=Schedule.all_on(4, 3))
        d = cfg.to_dict()
        assert d["period"] == 4
        assert d["eta"] == [1, 2, 2]
        assert d["init_schedule"] == Schedule.all_on(4, 3).to_text()


class TestDriver:
    def test_initialize_state(self, rng):
        sys = random_stable_system(rng, 3, 2)
        driver = AdmmDriver(sys, small_config())
        state = driver.initialize()
        assert state.iteration == 0
        np.testing.assert_array_equal(state.G, np.zeros((4, 3, 2)))
        np.testing.assert_array_equal(state.Lam, np.zeros((4, 3, 2)))
        start = ps.default_init_schedule(sys, 4, (2, 2))
        norms = np.linalg.norm(state.L, axis=1)
        assert (norms[start.mask == 0] == 0.0).all()

    def test_custom_init_schedule_respected(self, rng):
        sys = random_stable_system(rng, 3, 2)
        custom = Schedule(np.array([[1, 1], [0, 0], [1, 1], [0, 0]]))
        driver = AdmmDriver(sys, small_config(init_schedule=custom))
        state = driver.initialize()
        norms = np.linalg.norm(state.L, axis=1)
        assert (norms[custom.mask == 0] == 0.0).all()
        assert (norms[custom.mask == 1] > 0.0).all()

    def test_step_advances_and_records(self, rng):
        sys = random_stable_system(rng, 3, 2)
        driver = AdmmDriver(sys, small_config())
        record = driver.step()
        assert record.iteration == 1
        assert driver.state.iteration == 1
        assert record.primal_residual >= 0.0
        assert record.inner_iterations >= 0
        assert len(driver.trace) == 1


class TestInnerTolerance:
    # At cap 1e-3 the floor binds once the primal residual falls below 1e-2.
    @pytest.mark.parametrize("cap, floor_binds", [(1e-6, False), (1e-3, True)])
    def test_tracks_previous_primal_residual(self, rng, monkeypatch, cap, floor_binds):
        tols, solve = [], lstep.solve

        def recording_solve(*args, **kwargs):
            tols.append(kwargs["tol"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(lstep, "solve", recording_solve)
        report = ps.run(random_stable_system(rng, 3, 2), small_config(inner_tol_cap=cap))
        assert report.converged
        assert len(tols) == report.iterations
        assert tols[0] == cap
        for i, rec in enumerate(report.trace[:-1]):
            assert tols[i + 1] == max(cap, 0.1 * rec.primal_residual)
        assert any(0.1 * rec.primal_residual < cap for rec in report.trace[:-1]) == floor_binds


class TestRun:
    def test_small_instance_converges(self, rng):
        sys = random_stable_system(rng, 3, 2)
        cfg = small_config()
        report = ps.run(sys, cfg)
        assert report.converged
        assert report.iterations == len(report.trace)
        last = report.trace[-1]
        assert last.primal_residual <= cfg.eps
        assert last.g_change <= cfg.eps

    def test_schedule_feasible_and_consistent(self, rng):
        sys = random_stable_system(rng, 4, 3)
        cfg = small_config(eta=(1, 2, 2))
        report = ps.run(sys, cfg)
        counts = report.schedule.activation_counts
        assert (counts <= np.array([1, 2, 2])).all()
        # The sparse copy's support is the reported schedule.
        g_counts = (report.trace[-1].cardinality if report.converged else None)
        if g_counts is not None:
            assert g_counts == report.schedule.total_activations

    def test_polished_value_matches_schedule_evaluation(self, rng):
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config())
        again = ps.evaluate_schedule(sys, report.schedule)
        assert report.j_polished == pytest.approx(again.J, rel=1e-12)
        assert report.j_raw == pytest.approx(
            ps.objective_J(sys, report.gains_raw), rel=1e-12
        )

    def test_polished_gains_respect_schedule(self, rng):
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config())
        norms = report.gains_polished.column_norms()
        assert (norms[report.schedule.mask == 0] == 0.0).all()

    def test_gamma_zero_saturates_bounds(self, rng):
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config(gamma=0.0, eta=(1, 3)))
        np.testing.assert_array_equal(report.schedule.activation_counts, [1, 3])

    def test_huge_gamma_empties_schedule(self, rng):
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config(gamma=1e6))
        # This solve never meets the residual rule and stops at the cap
        # (ROADMAP item 2: the best visited support, and a status for it).
        assert report.converged is False
        assert report.iterations == 150
        assert report.schedule.total_activations == 0
        assert report.j_polished == pytest.approx(
            ps.solve_dlyap(sys.A, sys.q_eff).trace(), rel=1e-9
        )

    def test_deterministic_given_config(self, rng):
        sys = random_stable_system(rng, 3, 2)
        first = ps.run(sys, small_config())
        second = ps.run(sys, small_config())
        assert first.schedule == second.schedule
        assert first.j_polished == second.j_polished
        assert first.iterations == second.iterations
        np.testing.assert_array_equal(first.gains_raw.gains, second.gains_raw.gains)

    def test_report_to_dict_excludes_wall_time(self, rng):
        sys = random_stable_system(rng, 2, 1)
        report = ps.run(sys, small_config(eta=1, period=2))
        d = report.to_dict()
        assert "wall_time" not in d
        # This solve stops at the 150-iteration cap (ROADMAP item 2).
        assert d["converged"] is False
        assert d["iterations"] == 150
        assert d["config"]["period"] == 2
        assert len(d["trace"]) == report.iterations


class TestSweep:
    def test_grid_order_and_shape(self, rng):
        sys = random_stable_system(rng, 3, 2)
        cells = ps.sweep(sys, small_config(), gamma_list=[0.0, 0.05], eta_list=[1, 2])
        assert [(c.gamma, c.eta) for c in cells] == [(0.0, 1), (0.0, 2), (0.05, 1), (0.05, 2)]
        assert all(c.report is not None for c in cells)

    def test_cell_failure_captured(self, rng):
        sys = random_stable_system(rng, 3, 2)
        cells = ps.sweep(sys, small_config(), gamma_list=[0.0], eta_list=[0, 1])
        assert cells[0].report is None
        assert "InputError" in cells[0].error
        assert cells[1].report is not None

    def test_empty_grid_rejected(self, rng):
        sys = random_stable_system(rng, 2, 1)
        with pytest.raises(InputError, match="non-empty"):
            ps.sweep(sys, small_config(), gamma_list=[], eta_list=[1])


class TestSupportStability:
    def test_kept_columns_exceed_tolerance(self, rng):
        # Columns surviving the sparsifier sit well above the structural
        # zero tolerance, so schedule extraction is unambiguous.
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config())
        g_norms = report.gains_raw.column_norms()
        kept = report.schedule.mask == 1
        if kept.any():
            assert g_norms[kept].min() > 1e3 * ZERO_COLUMN_TOL
