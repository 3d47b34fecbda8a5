"""Splitting driver: configuration, initialization, iteration, sweeps."""

import json
import logging
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persched as ps
from persched import (
    AdmmConfig,
    AdmmDriver,
    DimensionError,
    InputError,
    Schedule,
    admm,
    lstep,
)
from persched import periodic
from persched.gstep import ZERO_COLUMN_TOL
from tests.conftest import detectable_plant, random_stable_system, spectral_radius


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

    @pytest.mark.parametrize("K", [2.5, True, "3"])
    def test_non_integer_period_rejected(self, K, benchmark_sys):
        with pytest.raises(InputError, match=f"K must be an integer, got {K!r}"):
            ps.default_init_schedule(benchmark_sys, K, 1)

    def test_integral_period_accepted(self, rng):
        sys = random_stable_system(rng, 3, 2)
        expected = ps.default_init_schedule(sys, K=4, eta=2)
        for K in (4.0, np.int64(4)):
            assert ps.default_init_schedule(sys, K=K, eta=2) == expected


class TestAdmmConfig:
    def test_eta_broadcast(self):
        cfg = small_config(eta=2)
        assert cfg.eta_tuple(3) == (2, 2, 2)

    def test_eta_sequence_preserved(self):
        cfg = small_config(eta=(1, 2))
        assert cfg.eta_tuple(2) == (1, 2)
        with pytest.raises(InputError, match="entries"):
            cfg.eta_tuple(3)

    @pytest.mark.parametrize(
        "eta",
        [2.5, (1, 1.5), np.float64(1.5), True, (1, True), np.True_, None, (1, None), (1, [2])],
    )
    def test_non_integral_eta_rejected(self, eta):
        # int(True) == True, so a boolean is caught by type, not by value.
        with pytest.raises(InputError, match=r"eta\[\d\] must be an integer"):
            small_config(eta=eta)

    def test_integral_float_eta_accepted(self):
        assert small_config(eta=2.0).eta_tuple(2) == (2, 2)

    @pytest.mark.parametrize(
        "eta, kept",
        [
            (np.int64(2), 2),
            (np.array(2), 2),
            (2.0, 2),
            ((np.int64(1), 2.0), (1, 2)),
            ([1, 2], (1, 2)),
        ],
    )
    def test_eta_kept_as_plain_ints(self, eta, kept):
        # A zero-dimensional array is one bound; a NumPy integer does not serialize.
        cfg = small_config(eta=eta)
        assert repr(cfg.eta) == repr(kept)
        assert json.loads(json.dumps(cfg.to_dict()))["eta"] == json.loads(json.dumps(kept))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(period=0), "period"),
            (dict(gamma=-0.1), "gamma"),
            (dict(rho=0.0), "rho"),
            (dict(eps=0.0), "eps"),
            (dict(max_iters=0), "max_iters must be at least 1"),
            (dict(eta=0), "eta"),
            (dict(eta=5), "eta"),
            # nan < 0 is false, so the sign checks alone let NaN through.
            (dict(gamma=np.nan), "gamma must be finite, got nan"),
            (dict(gamma=np.inf), "gamma must be finite, got inf"),
            (dict(rho=np.nan), "rho must be finite, got nan"),
            (dict(rho=np.inf), "rho must be finite, got inf"),
            (dict(eps=np.nan), "eps must be finite, got nan"),
            (dict(eps=-np.inf), "eps must be finite, got -inf"),
        ],
    )
    def test_rejects_bad_values(self, overrides, message):
        with pytest.raises(InputError, match=message):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "name, value", [("period", True), ("max_iters", 2.5), ("max_iters", False)]
    )
    def test_non_integer_counts_rejected(self, name, value):
        # A fractional cap used to run to its ceiling.
        with pytest.raises(InputError, match=f"{name} must be an integer, got {value!r}"):
            small_config(**{name: value})

    def test_numpy_integer_counts_stored_as_int(self):
        cfg = small_config(period=np.int64(4), max_iters=np.int32(3))
        assert (cfg.period, cfg.max_iters) == (4, 3)
        json.dumps(cfg.to_dict())

    def test_integral_float_counts_stored_as_int(self):
        # As in default_init_schedule and the YAML loader, 10.0 is the integer 10.
        cfg = small_config(period=10.0, max_iters=np.float64(3.0))
        assert (repr(cfg.period), repr(cfg.max_iters)) == ("10", "3")
        assert cfg == small_config(period=10, max_iters=3)

    def test_to_dict_round_trip_values(self):
        d = small_config(eta=(1, 2, 2)).to_dict()
        assert d["period"] == 4
        # A per-sensor eta stays a tuple; json writes it as a list.
        assert d["eta"] == (1, 2, 2)
        assert json.loads(json.dumps(d))["eta"] == [1, 2, 2]


class TestDriver:
    def test_initialize_state(self, rng):
        sys = random_stable_system(rng, 3, 2)
        driver = AdmmDriver(sys, small_config())
        driver.initialize()
        assert driver.iteration == 0
        np.testing.assert_array_equal(driver.G, np.zeros((4, 3, 2)))
        np.testing.assert_array_equal(driver.Lam, np.zeros((4, 3, 2)))
        start = ps.default_init_schedule(sys, 4, (2, 2))
        norms = np.linalg.norm(driver.L, axis=1)
        assert (norms[start.mask == 0] == 0.0).all()

    def test_init_schedule_sensor_count_checked(self, rng):
        # Scoring a schedule checks its width against the plant's sensors.
        sys = random_stable_system(rng, 3, 2)
        message = r"^sched\.mask must have shape \(K, 2\), got \(4, 3\)$"
        with pytest.raises(DimensionError, match=message):
            ps.evaluate_schedule(sys, Schedule(np.ones((4, 3))))

    def test_step_advances_and_records(self, rng):
        sys = random_stable_system(rng, 3, 2)
        driver = AdmmDriver(sys, small_config())
        record = driver.step()
        assert record.iteration == 1
        assert driver.iteration == 1
        assert record.primal_residual >= 0.0
        assert record.inner_iterations >= 0
        assert len(driver.trace) == 1

    def test_initialize_starts_a_new_trace(self, rng):
        # After a restart, the iteration count, the trace and the line-search
        # flag describe the new run only.
        sys = random_stable_system(rng, 3, 2)
        driver = AdmmDriver(sys, small_config())
        driver.step()
        driver.step()
        driver.line_search_failed = True
        driver.initialize()
        assert driver.iteration == 0 and driver.trace == [] and not driver.line_search_failed
        report = driver.run()
        assert [rec.iteration for rec in report.trace] == list(range(1, report.iterations + 1))

    def test_gain_solve_takes_carried_cycles_of_its_start_only(self, rng, monkeypatch):
        # Each solve after the first starts from L with the cycles the last
        # solve computed for it; gains bound to L from outside get their own.
        carried, solve = [], lstep.solve

        def recording(sys, targets, rho, init, tol, cycles):
            carried.append(cycles)
            return solve(sys, targets, rho, init, tol, cycles)

        monkeypatch.setattr(lstep, "solve", recording)
        sys = random_stable_system(rng, 3, 2)
        driver = AdmmDriver(sys, small_config())
        driver.step()
        result_cycles = driver._carried[1]
        driver.step()
        driver.L = driver.L.copy()
        driver.step()
        assert carried[0] is None and carried[1] is result_cycles and carried[2] is None


class TestInnerTolerance:
    # The floor, lstep.TOL_FLOOR, binds once 0.1 * primal falls below it.
    # With the jump to the support's fixed point, the default small run ends
    # at a primal residual of 0.2, before that happens. The binding case
    # therefore takes gamma = 0 and eta = K: the G-step then keeps every
    # nonzero gain column verbatim, so every primal residual is exactly 0,
    # and every inner solve after the first runs at the floor. That case
    # raises the floor to 1e-3, so it also shows the driver reads lstep's.
    @pytest.mark.parametrize(
        "floor, overrides, floor_binds",
        [(lstep.TOL_FLOOR, {}, False), (1e-3, dict(gamma=0.0, eta=4), True)],
        ids=["1e-06-False", "0.001-identity_gstep-True"],
    )
    def test_tracks_previous_primal_residual(self, rng, monkeypatch, floor, overrides, floor_binds):
        monkeypatch.setattr(lstep, "TOL_FLOOR", floor)
        tols, solve = [], lstep.solve

        def recording_solve(*args, **kwargs):
            tols.append(kwargs["tol"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(lstep, "solve", recording_solve)
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config(**overrides))
        assert report.converged
        assert len(tols) == report.iterations
        assert tols[0] == lstep.TOL_FLOOR
        for i, rec in enumerate(report.trace[:-1]):
            assert tols[i + 1] == max(lstep.TOL_FLOOR, 0.1 * rec.primal_residual)
        binds = any(0.1 * rec.primal_residual < lstep.TOL_FLOOR for rec in report.trace[:-1])
        assert binds == floor_binds


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
        cycle = ps.covariance_limit_cycle(sys, report.gains_raw)
        assert report.j_raw == pytest.approx(np.trace(cycle, axis1=1, axis2=2).mean(), rel=1e-12)

    def test_polished_gains_respect_schedule(self, rng):
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config())
        norms = np.linalg.norm(report.gains_polished, axis=1)
        assert (norms[report.schedule.mask == 0] == 0.0).all()

    def test_gamma_zero_saturates_bounds(self, rng):
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config(gamma=0.0, eta=(1, 3)))
        np.testing.assert_array_equal(report.schedule.activation_counts, [1, 3])

    def test_huge_gamma_empties_schedule(self, rng):
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config(gamma=1e6))
        # The support is empty from iteration 1; the jump after iteration 2
        # lands on its fixed point, and iteration 3 meets the residual rule.
        assert report.converged is True
        assert report.iterations == 3
        assert report.jump_iteration == 2
        assert report.schedule.total_activations == 0
        assert report.j_polished == pytest.approx(
            scipy.linalg.solve_discrete_lyapunov(sys.A, sys.q_eff).trace(), rel=1e-9
        )

    def test_deterministic_given_config(self, rng):
        sys = random_stable_system(rng, 3, 2)
        first = ps.run(sys, small_config())
        second = ps.run(sys, small_config())
        assert first.schedule == second.schedule
        assert first.j_polished == second.j_polished
        assert first.iterations == second.iterations
        np.testing.assert_array_equal(first.gains_raw, second.gains_raw)

    def test_report_to_dict_excludes_wall_time(self, rng):
        sys = random_stable_system(rng, 2, 1)
        report = ps.run(sys, small_config(eta=1, period=2))
        d = report.to_dict()
        assert "wall_time" not in d
        # This solve stops at the 150-iteration cap: its support alternates
        # between the two row rotations of one schedule, so it never holds
        # and no jump is tried (ROADMAP: "Report the best schedule visited,
        # and stop when the support wanders").
        assert d["converged"] is False
        assert d["iterations"] == 150
        assert d["config"]["period"] == 2
        assert len(d["trace"]) == report.iterations


class TestOneEvaluationPerSupport:
    def test_benchmark_solve_sweeps_each_support_once(self, benchmark_sys, monkeypatch):
        # One Riccati sweep each for the starting schedule and the two tried
        # jumps (TestSupportJump); the polish reuses the kept jump's.
        calls, riccati = [], periodic._periodic_riccati

        def counting(sys, active):
            calls.append(active.shape)
            return riccati(sys, active)

        monkeypatch.setattr(periodic, "_periodic_riccati", counting)
        report = ps.run(benchmark_sys, AdmmConfig(period=10, gamma=0.15, eta=5))
        assert len(calls) == 3
        assert report.gains_raw is report.gains_polished
        assert report.j_raw == report.j_polished

    def test_capped_run_scores_its_own_gains(self, rng):
        # The run of test_report_to_dict_excludes_wall_time ends at its cap
        # with no jump, so both figures are computed afresh.
        sys = random_stable_system(rng, 2, 1)
        report = ps.run(sys, small_config(eta=1, period=2))
        assert report.converged is False
        cycle = ps.covariance_limit_cycle(sys, report.gains_raw)
        assert report.j_raw == np.trace(cycle, axis1=1, axis2=2).mean()
        assert report.j_polished == ps.evaluate_schedule(sys, report.schedule).J

    def test_capped_run_takes_j_raw_from_its_gain_solve(self, rng, monkeypatch):
        # The gain solve that returned the best iterate returned its
        # covariance cycle too, so no limit cycle is computed after the steps.
        calls, after_steps = [], []
        limit_cycles, step = periodic._limit_cycles, AdmmDriver.step

        def counting(f, w):
            calls.append(f.shape)
            return limit_cycles(f, w)

        def stepping(driver):
            record = step(driver)
            after_steps.append(len(calls))
            return record

        monkeypatch.setattr(periodic, "_limit_cycles", counting)
        monkeypatch.setattr(AdmmDriver, "step", stepping)
        report = ps.run(random_stable_system(rng, 2, 1), small_config(eta=1, period=2))
        assert report.converged is False
        assert len(calls) == after_steps[-1] > 0


class TestSweep:
    def test_grid_order_and_shape(self, rng):
        sys = random_stable_system(rng, 3, 2)
        cells = ps.sweep(sys, small_config(eta=1), gamma_list=[0.05, 0.0])
        assert [c.gamma for c in cells] == [0.05, 0.0]
        assert [c.report.config.gamma for c in cells] == [0.05, 0.0]
        assert all(c.report.config.eta == 1 for c in cells)

    def test_cell_failure_captured(self, rng):
        sys = random_stable_system(rng, 3, 2)
        cells = ps.sweep(sys, small_config(), gamma_list=[-1.0, 0.0])
        assert cells[0].report is None
        assert cells[0].error == "InputError: gamma must be nonnegative, got -1.0"
        assert cells[1].report is not None

    def test_empty_grid_rejected(self, rng):
        sys = random_stable_system(rng, 2, 1)
        with pytest.raises(InputError, match="^gamma_list must be non-empty$"):
            ps.sweep(sys, small_config(), gamma_list=[])

    @pytest.mark.parametrize(
        "counts, rises",
        [
            ((3, 5, 4), ["activation count rose from 3 to 5 at gamma=0.1"]),
            ((5, 4, 4), []),
        ],
    )
    def test_rising_count_logged_not_raised(self, rng, monkeypatch, caplog, counts, rises):
        # The count should not rise with gamma; the problem is nonconvex, so
        # a rise is a warning, one per rise, and no error.
        by_gamma = dict(zip((0.0, 0.1, 0.2), counts))

        def fake_run(sys, cfg):
            schedule = SimpleNamespace(total_activations=by_gamma[cfg.gamma])
            return SimpleNamespace(schedule=schedule)

        monkeypatch.setattr(admm, "run", fake_run)
        sys = random_stable_system(rng, 2, 2)
        with caplog.at_level(logging.WARNING, logger="persched.admm"):
            cells = ps.sweep(sys, small_config(), gamma_list=list(by_gamma))
        assert [c.report.schedule.total_activations for c in cells] == list(counts)
        assert [r.getMessage() for r in caplog.records] == rises


class TestSupportStability:
    def test_kept_columns_exceed_tolerance(self, rng):
        # Columns surviving the sparsifier sit well above the structural
        # zero tolerance, so schedule extraction is unambiguous.
        sys = random_stable_system(rng, 3, 2)
        report = ps.run(sys, small_config())
        g_norms = np.linalg.norm(report.gains_raw, axis=1)
        kept = report.schedule.mask == 1
        if kept.any():
            assert g_norms[kept].min() > 1e3 * ZERO_COLUMN_TOL


def record_jumps(monkeypatch):
    """Wrap AdmmDriver._jump; returns the list of (iteration, support,
    accepted) it appends to on every tried jump."""
    tries, jump = [], AdmmDriver._jump

    def recording(self, support):
        before = self.jump_iteration
        jump(self, support)
        tries.append((self.iteration, support, self.jump_iteration != before))

    monkeypatch.setattr(AdmmDriver, "_jump", recording)
    return tries


def paper_objective(report):
    """K * J + gamma * card at the polished schedule."""
    cfg = report.config
    return cfg.period * report.j_polished + cfg.gamma * report.schedule.total_activations


class TestSupportJump:
    def test_benchmark_jumps_once_its_support_holds(self, benchmark_sys, monkeypatch):
        tries = record_jumps(monkeypatch)
        report = ps.run(benchmark_sys, AdmmConfig(period=10, gamma=0.15, eta=5))
        # Iterations 1-2 leave G empty; the jump there is rejected because the
        # G-step keeps columns at the empty support's fixed point. The final
        # 20-activation support appears at iteration 4 and holds at 5.
        assert [(it, s.total_activations, ok) for it, s, ok in tries] == [
            (2, 0, False),
            (5, 20, True),
        ]
        assert (report.iterations, report.converged) == (6, True)
        assert report.to_dict()["jump_iteration"] == 5
        assert report.schedule == tries[-1][1]
        assert report.j_raw == report.j_polished
        assert paper_objective(report) == pytest.approx(103.5566, abs=5e-5)

    def test_jump_builds_no_subproblem(self, benchmark_sys, monkeypatch):
        # One gain solve per outer iteration: the two tried jumps take the
        # trace gradient from lstep's first-order terms directly.
        rhos, solve = [], lstep.solve

        def recording(sys, targets, rho, *args, **kwargs):
            rhos.append(rho)
            return solve(sys, targets, rho, *args, **kwargs)

        monkeypatch.setattr(lstep, "solve", recording)
        report = ps.run(benchmark_sys, AdmmConfig(period=10, gamma=0.15, eta=5))
        assert (report.iterations, report.jump_iteration) == (6, 5)
        assert rhos == [10.0] * 6

    def test_kept_jump_reads_the_cycle_it_carries(self, benchmark_sys, monkeypatch):
        # The dual and the G-step check of a kept jump come from the one
        # covariance cycle of L*'s _gradient_cycles, which the next gain
        # solve starts from.
        jump, first_order, kept = AdmmDriver._jump, lstep._first_order, []

        def recording(self, support):
            received, before = [], self.jump_iteration

            def spy(sys, gains, cycle, v_next):
                received.append(cycle)
                return first_order(sys, gains, cycle, v_next)

            with monkeypatch.context() as patch:
                patch.setattr(lstep, "_first_order", spy)
                jump(self, support)
            if self.jump_iteration != before:
                kept.append((received, self._carried))

        monkeypatch.setattr(AdmmDriver, "_jump", recording)
        report = ps.run(benchmark_sys, AdmmConfig(period=10, gamma=0.15, eta=5))
        assert report.jump_iteration == 5
        [(received, (gains, cycles))] = kept
        assert len(received) == 1 and received[0] is cycles[0]
        assert gains is report.gains_polished

    def test_support_check_keeps_the_answer(self, benchmark_sys, monkeypatch):
        # With the check disabled, the jump on the empty support of
        # iterations 1-2 is accepted, and so are later jumps whose G-step
        # keeps another support. The solve ends at a worse point of
        # K * J + gamma * card than the checked solve's 103.557.
        jump = AdmmDriver._jump

        def unchecked(self, support):
            with monkeypatch.context() as patch:
                patch.setattr(admm, "schedule_from_gains", lambda gains: support)
                jump(self, support)

        monkeypatch.setattr(AdmmDriver, "_jump", unchecked)
        tries = record_jumps(monkeypatch)
        report = ps.run(benchmark_sys, AdmmConfig(period=10, gamma=0.15, eta=5))
        assert tries[0][0::2] == (2, True)
        assert report.schedule.total_activations == 28
        assert paper_objective(report) == pytest.approx(104.3229, abs=5e-5)

    def test_wandering_support_never_jumps(self, benchmark_gamma0_sweep):
        # eta = 1 at gamma = 0 keeps changing its support. The few supports
        # that hold for two iterations fail the check, and the run ends at
        # its cap with no jump.
        report = benchmark_gamma0_sweep[1]
        assert report.to_dict()["jump_iteration"] is None
        assert report.converged is False


def jump_case(test):
    """Draw (seed, n, m, K, top, gamma): stable plants (top = 0) and unstable
    but detectable ones (top 1 to 1.2), with K = 1 and M > N among them."""
    test = example(seed=4, n=3, m=2, K=4, top=0.0, gamma=0.02)(test)
    test = example(seed=5, n=2, m=4, K=1, top=1.2, gamma=0.0)(test)
    test = example(seed=6, n=3, m=5, K=3, top=0.0, gamma=0.2)(test)
    test = given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        m=st.integers(1, 5),
        K=st.integers(1, 4),
        top=st.one_of(st.just(0.0), st.floats(1.0, 1.2)),
        gamma=st.sampled_from([0.0, 0.02, 0.2]),
    )(test)
    return settings(max_examples=12, deadline=None, derandomize=True, database=None)(test)


class TestJumpProperties:
    def test_jump_lands_on_a_fixed_point(self, monkeypatch):
        fired = []

        @jump_case
        def check(seed, n, m, K, top, gamma):
            rng = np.random.default_rng(seed)
            if top == 0.0:
                sys = random_stable_system(rng, n, m)
            else:
                sys = detectable_plant(rng, n, m, top)
            cfg = AdmmConfig(period=K, gamma=gamma, eta=int(rng.integers(1, K + 1)), max_iters=100)
            with monkeypatch.context() as patch:
                patch.setattr(AdmmDriver, "_jump", lambda self, support: None)
                plain = ps.run(sys, cfg)
            report = ps.run(sys, cfg)
            if report.jump_iteration is None:
                return
            fired.append(report.jump_iteration)
            after = report.trace[report.jump_iteration]
            assert after.primal_residual <= cfg.eps
            assert after.g_change <= cfg.eps
            assert report.schedule == plain.schedule
            assert report.j_polished == plain.j_polished

        check()
        assert fired


def ill_conditioned_r(rng, m):
    """Random SPD m x m R with eigenvalues spread log-evenly over [1e-8, 1],
    so cond(R) = 1e8 for m >= 2."""
    basis, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return (basis * np.logspace(0, -8, m)) @ basis.T


def ill_conditioned_case(test):
    """Draw (seed, n, m, K, top, gamma): top 0 stands for a random stable
    plant, top in [1, 1.2] for an unstable but detectable one."""
    test = example(seed=7, n=3, m=4, K=3, top=0.0, gamma=0.0)(test)
    test = example(seed=8, n=2, m=2, K=1, top=1.2, gamma=0.2)(test)
    test = given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        m=st.integers(2, 5),
        K=st.integers(1, 4),
        top=st.one_of(st.just(0.0), st.floats(1.0, 1.2)),
        gamma=st.sampled_from([0.0, 0.02, 0.2]),
    )(test)
    return settings(max_examples=10, deadline=None, derandomize=True, database=None)(test)


def near_unit_case(test):
    """Draw (seed, n, m, K, radius, gamma) for stable plants with a mode that
    no sensor sees, at radius^(1/K): every loop's monodromy keeps it, so its
    spectral radius is at least ``radius`` (0.97 to 1 - 1e-7). A plain
    Riccati sweep contracts by radius^2 per period, so at the top of the
    range it would need about 1e8 periods to settle; doubling the period
    map takes about 30 squarings there."""
    test = example(seed=9, n=3, m=1, K=4, radius=0.99, gamma=0.2)(test)
    test = example(seed=10, n=2, m=2, K=2, radius=1.0 - 1e-7, gamma=0.0)(test)
    test = given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        K=st.integers(1, 4),
        radius=st.floats(0.97, 1.0 - 1e-7),
        gamma=st.sampled_from([0.0, 0.02, 0.2]),
    )(test)
    return settings(max_examples=8, deadline=None, derandomize=True, database=None)(test)


def hidden_mode_plant(rng, n, m, top):
    """detectable_plant with a stable mode at ``top`` that C does not see."""
    plant = detectable_plant(rng, n, m, top)
    modes, vectors = np.linalg.eig(plant.A)
    slow = np.real(vectors[:, np.argmax(np.abs(modes))])
    slow /= np.linalg.norm(slow)
    hidden = plant.C - np.outer(plant.C @ slow, slow)
    return ps.SystemModel(A=plant.A, B=plant.B, C=hidden, Q=plant.Q, R=plant.R)


def assert_polishes_a_feasible_schedule(sys, K, eta, gamma):
    report = ps.run(sys, AdmmConfig(period=K, gamma=gamma, eta=eta, max_iters=5))
    assert (report.schedule.activation_counts <= eta).all()
    assert report.j_polished == ps.evaluate_schedule(sys, report.schedule).J
    return report


class TestHardPlantProperties:
    """Solves on plants beyond the stable diffusion family: ill-conditioned
    measurement noise and a mode just inside the unit circle."""

    @ill_conditioned_case
    def test_run_polishes_a_feasible_schedule_under_ill_conditioned_r(
        self, seed, n, m, K, top, gamma
    ):
        rng = np.random.default_rng(seed)
        if top == 0.0:
            plant = random_stable_system(rng, n, m)
        else:
            plant = detectable_plant(rng, n, m, top)
        r = ill_conditioned_r(rng, m)
        sys = ps.SystemModel(A=plant.A, B=plant.B, C=plant.C, Q=plant.Q, R=r)
        assert np.linalg.cond(sys.R) == pytest.approx(1e8, rel=1e-3)
        assert_polishes_a_feasible_schedule(sys, K, int(rng.integers(1, K + 1)), gamma)

    @near_unit_case
    def test_run_polishes_a_feasible_schedule_near_the_unit_circle(
        self, seed, n, m, K, radius, gamma
    ):
        rng = np.random.default_rng(seed)
        sys = hidden_mode_plant(rng, n, m, radius ** (1.0 / K))
        report = assert_polishes_a_feasible_schedule(sys, K, int(rng.integers(1, K + 1)), gamma)
        monodromy = np.eye(n)
        for factor in sys.A - report.gains_raw @ sys.C:
            monodromy = factor @ monodromy
        assert spectral_radius(monodromy) >= radius * (1.0 - 1e-9)

    def test_run_on_a_hidden_mode_just_inside_the_unit_circle(self):
        # The mode at 1 - 1e-7 slows a plain Riccati sweep to a contraction
        # of about 1 - 2e-7 per period; doubling the period map settles in
        # 28 squarings, so the plant's schedules score.
        sys = hidden_mode_plant(np.random.default_rng(9), 3, 1, 1.0 - 1e-7)
        assert_polishes_a_feasible_schedule(sys, 1, 1, 0.0)
