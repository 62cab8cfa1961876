import dataclasses
import itertools
import math
import threading

import numpy as np
import pytest

from boostdyn import (ConverterParams, StepEvent, StepKind, Waveform, analysis, circuit,
                      ebm, oracle, simulate_averaged, simulate_switched, tfm_line,
                      tfm_load)
from boostdyn.circuit import DischargedSourceWarning, ModelDomainError, ParameterError
from boostdyn.steady import steady_output

#: heavily damped by its 10-ohm load: xi ~ 3, so every closed form is overdamped
OVERDAMPED = ConverterParams(
    v_i=5.0, l=1e-3, r_l=0.2, c=1e-6, r_c=0.05, r_m=0.1,
    v_d=0.4, r_0=10.0, d=0.5, f_sw=1e5,
)


#: the small converter of the benchmark's validate workload
QUICK = ConverterParams(v_i=3.0, l=20e-6, r_l=0.1, c=4e-6, r_c=0.05, r_m=0.08,
                        v_d=0.3, r_0=8.0, d=0.5, f_sw=1e5)


def cold_start(p):
    return StepEvent(StepKind.INPUT_VOLTAGE, 0.0, p.v_i)


def fail(*args, **kwargs):
    raise AssertionError("this must not run")


class TestCompareModels:
    def test_rows_follow_model_rows_and_the_reference_scores_zero(self, fast_params):
        table = analysis.compare_models(fast_params, cold_start(fast_params))
        assert tuple(r.model for r in table.rows) == analysis.MODEL_ROWS
        ref = table.row("switched")
        assert ref.rmse_v is None
        assert ref.steady_error_pct == 0.0 and ref.dynamic_error_pct == 0.0
        assert all(r.rmse_v is not None for r in table.rows if r.model != "switched")

    def test_unknown_reference_is_refused_before_any_simulation(self, fast_params,
                                                                 monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an oracle ran")

        monkeypatch.setattr(analysis, "switched_cycle_means", fail)
        monkeypatch.setattr(analysis, "averaged_step_form", fail)
        with pytest.raises(ValueError) as err:
            analysis.compare_models(fast_params, cold_start(fast_params), reference="bogus")
        assert "'bogus'" in str(err.value)
        assert str(analysis.MODEL_ROWS + ("aer",)) in str(err.value)

    def test_non_integer_steps_per_cycle_is_refused(self, fast_params):
        for steps in (200.5, 200.0, 0):
            with pytest.raises(ValueError, match="steps_per_cycle must be an integer >= 50"):
                analysis.compare_models(fast_params, cold_start(fast_params),
                                        steps_per_cycle=steps)

    def test_measured_reference_has_no_rmse(self, fast_params):
        table = analysis.compare_models(fast_params, cold_start(fast_params), reference="aer")
        assert tuple(r.model for r in table.rows) == analysis.MODEL_ROWS
        assert all(r.rmse_v is None for r in table.rows)
        steady, peak = analysis.AER_INPUT_STEP
        tfm = table.row("tfm")
        assert tfm.steady_error_pct == pytest.approx(abs(steady - tfm.v_steady) / steady * 100)
        assert tfm.dynamic_error_pct == pytest.approx(abs(peak - tfm.v_max) / peak * 100)

    def test_load_step_inverts_the_quartic_once(self, fast_params, monkeypatch):
        calls = []
        invert = tfm_load.invert_quartic_tf

        def counting(tf):
            calls.append(tf)
            return invert(tf)

        monkeypatch.setattr(tfm_load, "invert_quartic_tf", counting)
        event = StepEvent(StepKind.LOAD_RESISTANCE, 20.0, 40.0, 1e-4)
        table = analysis.compare_models(fast_params, event)
        assert len(calls) == 1
        assert table.row("tfm").rmse_v is not None

    @pytest.mark.parametrize("event", [
        StepEvent(StepKind.INPUT_VOLTAGE, 2.0, 3.0, 10.37e-5),
        StepEvent(StepKind.LOAD_RESISTANCE, 20.0, 40.0, 2e-4),
    ], ids=["warm-line-step", "load-step"])
    def test_closed_form_rmse_is_the_fine_grid_definition(self, fast_params, event):
        # scored at the switched row's cycle midpoints, which are samples of
        # the fine grid when steps_per_cycle is even
        p = fast_params
        t_end = analysis.default_comparison_t_end(p, event)
        table = analysis.compare_models(p, event, steps_per_cycle=200)
        sim_p, initial, events = analysis.simulation_setup(p, event)
        ref = simulate_switched(sim_p, events, 200, t_end, initial_state=initial).cycle_averaged()
        for model in ("ebm", "tfm", "fr"):
            fine = analysis.closed_form(p, event, model).waveform(event.t_event, p.period / 200,
                                                                  t_end)
            want = analysis.rmse(ref.samples, np.interp(ref.times, fine.times, fine.samples))
            assert table.row(model).rmse_v == pytest.approx(want, rel=1e-12, abs=0)

    def test_warm_input_step_starts_the_oracles_steady(self, fast_params):
        # avg-par and fr are one ideal circuit, both steady at the pre-step input
        table = analysis.compare_models(fast_params, StepEvent(StepKind.INPUT_VOLTAGE, 2.0, 3.0))
        assert table.row("avg-par").v_max == pytest.approx(table.row("fr").v_max, rel=1e-9)

    def test_late_cold_step_settles_like_an_early_one(self, fast_params):
        # 0.05 s of rest is over 90 % of the horizon: only post-event samples
        # may make the settled window
        early, late = (analysis.compare_models(fast_params, StepEvent(
            StepKind.INPUT_VOLTAGE, 0.0, 3.0, t_event), steps_per_cycle=50)
            for t_event in (0.0, 0.05))
        for model in ("avg-par", "switched"):
            assert late.row(model).v_steady == pytest.approx(early.row(model).v_steady, rel=1e-12)
            assert late.row(model).v_max == pytest.approx(early.row(model).v_max, rel=1e-12)
            assert late.row(model).t_p == pytest.approx(early.row(model).t_p, rel=1e-9)

    def test_late_cold_step_averages_from_rest(self, line_params):
        # before the step v_i = 0 < (1 - D) v_d: the averaged diode blocks,
        # so the averaged circuit rests instead of driving i_L negative
        early, late = (analysis.compare_models(line_params, StepEvent(
            StepKind.INPUT_VOLTAGE, 0.0, line_params.v_i, t_event)) for t_event in (0.0, 0.02))
        assert late.row("avg+par").v_max == pytest.approx(early.row("avg+par").v_max, rel=1e-9)

    def test_warm_step_from_below_the_diode_threshold_starts_at_rest(self, line_params):
        # 0.2 V < (1 - D) v_d = 0.255 V: the diode blocks, so the oracles with
        # its drop start at rest, as on a cold step; avg-par has no drop and
        # starts steady at the pre-step input, as FR does
        cold, warm = (StepEvent(StepKind.INPUT_VOLTAGE, v, line_params.v_i) for v in (0.0, 0.2))
        want = analysis.compare_models(line_params, cold)
        with pytest.warns(DischargedSourceWarning):
            table = analysis.compare_models(line_params, warm)
        for model in ("avg+par", "switched"):
            assert table.row(model) == want.row(model)
        assert table.row("avg-par").v_max == pytest.approx(table.row("fr").v_max, rel=1e-9)

    def test_closed_forms_are_sampled_on_the_fine_grid_only_as_the_reference(
            self, fast_params, monkeypatch):
        calls = []
        waveform = analysis.ClosedForm.waveform

        def counting(self, *args):
            calls.append(args)
            return waveform(self, *args)

        monkeypatch.setattr(analysis.ClosedForm, "waveform", counting)
        event = cold_start(fast_params)
        analysis.compare_models(fast_params, event, reference="aer")
        analysis.compare_models(fast_params, event)
        assert calls == []
        analysis.compare_models(fast_params, event, reference="ebm")
        assert len(calls) == 1

    def test_default_horizon_settles_an_overdamped_design(self):
        # the slow real pole decays at ~2.6e3 /s, not at xi * w0 = 5e4 /s
        event = cold_start(OVERDAMPED)
        assert analysis.default_comparison_t_end(OVERDAMPED, event) > 12.0 / 2566.0
        table = analysis.compare_models(OVERDAMPED, event)
        assert tuple(r.model for r in table.rows) == analysis.MODEL_ROWS
        assert "overdamped" in table.row("fr").flags

    def test_event_past_the_horizon_is_named(self, load_params):
        event = StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 150.0, t_event=0.05)
        with pytest.raises(ValueError, match="t_event"):
            analysis.compare_models(load_params, event, t_end=0.01)


def parabola_with_plateau(t_vertex=1.234, dt=0.1, n=60, t0=0.0):
    """5 - (t - t_vertex)^2, floored at 4: settled at 4 from t_vertex + 1 on."""
    t = t0 + dt * np.arange(n)
    return Waveform(t0, dt, np.maximum(5.0 - (t - t_vertex) ** 2, 4.0))


class TestCompareWithoutGrids:
    @pytest.mark.parametrize("reference", ["switched", "aer"])
    def test_no_oracle_grid_is_built(self, fast_params, monkeypatch, reference):
        for name in ("simulate_switched", "simulate_averaged"):
            monkeypatch.setattr(oracle, name, fail)
            monkeypatch.setattr(analysis, name, fail, raising=False)
        for event in (cold_start(fast_params),
                      StepEvent(StepKind.LOAD_RESISTANCE, 20.0, 60.0, 2e-4)):
            table = analysis.compare_models(fast_params, event, reference=reference)
            assert tuple(r.model for r in table.rows) == analysis.MODEL_ROWS

    def test_switched_row_is_the_traces_cycle_averages(self, fast_params):
        # a load release that clamps, at an instant that is no sample
        p = fast_params
        event = StepEvent(StepKind.LOAD_RESISTANCE, 20.0, 60.0, 20.37 * p.period)
        table = analysis.compare_models(p, event)
        sim_p, initial, events = analysis.simulation_setup(p, event)
        t_end = analysis.default_comparison_t_end(p, event)
        trace = simulate_switched(sim_p, events, 200, t_end, initial_state=initial)
        want = analysis.extract_metrics(trace.cycle_averaged(), event.t_event)
        row = table.row("switched")
        assert row.flags == trace.flags == ("dcm",)
        assert row.v_steady == pytest.approx(want.v_steady, rel=1e-12, abs=0)
        assert row.v_max == pytest.approx(want.v_max, rel=1e-12, abs=0)
        assert row.t_p == pytest.approx(want.t_p, rel=1e-9, abs=0)

    @pytest.mark.parametrize("event", [
        StepEvent(StepKind.INPUT_VOLTAGE, 0.0, 5.0),
        StepEvent(StepKind.INPUT_VOLTAGE, 3.0, 5.0),
        StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 40.0),
        StepEvent(StepKind.LOAD_RESISTANCE, 20.0, 10.0),
    ], ids=["cold", "warm", "load-release", "load-increase"])
    def test_averaged_rows_are_what_their_sampled_runs_give(self, load_params, event):
        # the settled value, and the largest value after the event: on the
        # load increase the output with r_c falls from its value just after
        # the event, while the parasitic-free one rings higher
        p = load_params
        table = analysis.compare_models(p, event)
        sim_p, initial, events = analysis.simulation_setup(p, event)
        t_end = analysis.default_comparison_t_end(p, event)
        dt = p.period / 200
        for name, parasitics in (("avg+par", True), ("avg-par", False)):
            wave = simulate_averaged(sim_p, events, dt, t_end, parasitics, initial)
            want = analysis.extract_metrics(wave, event.t_event)
            row = table.row(name)
            assert row.v_steady == pytest.approx(want.v_steady, rel=1e-5, abs=0)
            assert row.v_max == pytest.approx(want.v_max, rel=1e-8, abs=0)
            assert abs(row.t_p - want.t_p) <= 0.5 * dt
            if event.value_after < event.value_before:
                assert (row.t_p == 0.0) == parasitics
                assert (row.v_max == wave.samples[0]) == parasitics

    def test_averaged_rows_act_at_the_exact_event(self, fast_params):
        # as the closed forms do; the averaged rows rest at their level until then
        p = fast_params
        event = StepEvent(StepKind.INPUT_VOLTAGE, 2.0, 3.0, 10.37 * p.period)
        late, early = (analysis.compare_models(p, e, reference="aer")
                       for e in (event, dataclasses.replace(event, t_event=0.0)))
        for name in ("avg+par", "avg-par"):
            assert late.row(name) == early.row(name)

    @pytest.mark.parametrize("event", [StepEvent(StepKind.INPUT_VOLTAGE, 3.0, 3.0),
                                       StepEvent(StepKind.LOAD_RESISTANCE, 8.0, 8.0)],
                             ids=["input", "load"])
    def test_zero_height_event_leaves_the_averaged_rows_flat(self, event):
        table = analysis.compare_models(QUICK, event)
        for name in ("avg+par", "avg-par"):
            row = table.row(name)
            assert row.t_p is None
            assert row.v_max == row.v_steady
            assert row.flags == table.row("ebm").flags == ("no-peak",)

    def test_averaged_reference_scores_every_other_row(self, fast_params):
        table = analysis.compare_models(fast_params, cold_start(fast_params), reference="avg+par")
        ref = table.row("avg+par")
        assert ref.rmse_v is None and ref.steady_error_pct == ref.dynamic_error_pct == 0.0
        others = [r.rmse_v for r in table.rows if r.model != "avg+par"]
        assert all(math.isfinite(r) and r > 0.0 for r in others)


class TestInputStepEndsAtTheDesign:
    """An input step to another voltage than ``p.v_i`` is refused: EBM
    would solve a step to ``p.v_i`` and every other row one to value_after."""

    EVENT = StepEvent(StepKind.INPUT_VOLTAGE, 0.0, 5.0)

    @pytest.mark.parametrize("model", ["ebm", "tfm", "fr"])
    def test_every_model_refuses_it_before_solving(self, model, monkeypatch):
        for module, name in ((ebm, "startup_form"), (tfm_line, "line_tf_coefficients")):
            monkeypatch.setattr(module, name, fail)
        with pytest.raises(ValueError, match="value_after 5.0 V is not v_i 3.0 V"):
            analysis.closed_form(QUICK, self.EVENT, model)
        with pytest.raises(ValueError, match="value_after 5.0 V is not v_i 3.0 V"):
            analysis.closed_form_metrics(QUICK, self.EVENT, model)

    def test_compare_refuses_it_before_any_solve_or_simulation(self, monkeypatch):
        for name in ("switched_cycle_means", "averaged_step_form", "closed_form",
                     "default_comparison_t_end"):
            monkeypatch.setattr(analysis, name, fail)
        for reference in ("switched", "aer"):
            with pytest.raises(ValueError, match="value_after 5.0 V is not v_i 3.0 V"):
                analysis.compare_models(QUICK, self.EVENT, reference=reference)

    def test_oracle_setup_refuses_it(self):
        with pytest.raises(ValueError, match="value_after 5.0 V is not v_i 3.0 V"):
            analysis.simulation_setup(QUICK, self.EVENT)
        # a load step needs no particular load before it
        load = StepEvent(StepKind.LOAD_RESISTANCE, 4.0, 8.0)
        assert analysis.simulation_setup(QUICK, load)[0].r_0 == 4.0


class TestScenarioPredict:
    @pytest.mark.parametrize("kind", ["line", "load"])
    def test_each_design_is_its_own_tfm_solve(self, line_params, load_params, kind):
        if kind == "line":
            p, event = line_params, StepEvent(StepKind.INPUT_VOLTAGE, 2.0, line_params.v_i)
        else:
            p, event = load_params, StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 20.0)
        after = dataclasses.replace(p, c=1.5 * p.c, l=0.8 * p.l)
        got = analysis.scenario_predict(p, after, event)
        assert got.before == analysis.closed_form_metrics(p, event, "tfm")
        assert got.after == analysis.closed_form_metrics(after, event, "tfm")
        assert got.after != got.before
        assert got.v_max_reduction == got.before.v_max - got.after.v_max

    def test_after_design_outside_the_correction_domain_is_refused(self):
        after = dataclasses.replace(QUICK, l=2e-3)
        assert tfm_load.correction_factor(after) <= 0.0
        event = StepEvent(StepKind.LOAD_RESISTANCE, 8.0, 16.0)
        with pytest.raises(tfm_load.CorrectionOutOfDomain):
            analysis.scenario_predict(QUICK, after, event)


class TestExtractMetrics:
    def test_quadratic_refinement_is_exact_on_a_parabola(self):
        # the vertex lies between samples 12 and 13
        m = analysis.extract_metrics(parabola_with_plateau(), 0.0)
        assert m.v_steady == 4.0
        assert m.v_max == pytest.approx(5.0, rel=1e-14)
        assert m.t_p == pytest.approx(1.234, rel=1e-12)
        assert m.overshoot_pct == pytest.approx(25.0, rel=1e-12)

    def test_moving_tail_is_not_settled(self):
        # the last 10 samples rise by 0.6 % and by 0.4 % of their level
        for rise, settled in ((0.006, False), (0.004, True)):
            samples = np.ones(100)
            samples[90:] += np.linspace(0.0, rise, 10)
            w = Waveform(0.0, 1.0, samples)
            if settled:
                assert analysis.extract_metrics(w, 0.0).v_steady == pytest.approx(1.0 + rise / 2)
            else:
                with pytest.raises(analysis.NotSettled):
                    analysis.extract_metrics(w, 0.0)

    def test_event_after_the_last_sample_is_named(self):
        with pytest.raises(ValueError, match="no sample lies after t_event"):
            analysis.extract_metrics(parabola_with_plateau(), 6.0)

    def test_settled_window_is_the_last_tenth_after_the_event(self):
        # 940 samples of rest, then 60 of the parabola: the last tenth of the
        # whole waveform would take in 40 samples of rest
        step = parabola_with_plateau()
        samples = np.concatenate([np.zeros(940), step.samples])
        m = analysis.extract_metrics(Waveform(0.0, 0.1, samples), 94.0)
        want = analysis.extract_metrics(step, 0.0)
        assert (m.v_steady, m.v_max) == (want.v_steady, want.v_max)
        assert m.t_p == pytest.approx(want.t_p, rel=1e-12)


class TestClosedForm:
    @pytest.mark.parametrize("model", ["ebm", "tfm", "fr"])
    def test_warm_line_step_is_continuous_at_the_event(self, line_params, model):
        event = StepEvent(StepKind.INPUT_VOLTAGE, 2.0, line_params.v_i, 1e-3)
        solved = analysis.closed_form(line_params, event, model)
        assert solved.after(0.0) == pytest.approx(solved.before, rel=1e-12)
        wave = solved.waveform(event.t_event, 1e-6, 2e-3)
        k = int(round(event.t_event / wave.dt))
        assert wave.samples[k - 1] == solved.before
        assert abs(wave.samples[k + 1] - wave.samples[k - 1]) < 1e-3 * solved.before

    def test_fr_warm_line_step_starts_at_the_ideal_ratio(self, line_params):
        event = StepEvent(StepKind.INPUT_VOLTAGE, 2.0, line_params.v_i, 1e-3)
        solved = analysis.closed_form(line_params, event, "fr")
        assert solved.before == pytest.approx(2.0 / (1.0 - line_params.d), rel=1e-15)
        assert solved.metrics.v_steady == pytest.approx(
            line_params.v_i / (1.0 - line_params.d), rel=1e-14)

    def test_fr_overdamped_line_step_is_flagged_not_refused(self):
        m = analysis.closed_form_metrics(OVERDAMPED, cold_start(OVERDAMPED), "fr")
        assert m.flags == ("overdamped",)
        assert m.t_p is None
        assert m.v_max == m.v_steady == pytest.approx(10.0, rel=1e-14)

    def test_fr_load_step_is_flat_and_flagged(self, load_params):
        event = StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 150.0, 5e-3)
        solved = analysis.closed_form(load_params, event, "fr")
        level = load_params.v_i / (1.0 - load_params.d)
        assert solved.metrics.flags == ("no-transient",)
        assert solved.metrics.v_steady == solved.metrics.v_max == level
        wave = solved.waveform(event.t_event, 1e-5, 0.02)
        assert len(wave) == int(round(0.02 / 1e-5)) + 1
        assert np.all(wave.samples == level)

    def test_load_step_metrics_and_waveform_share_one_solve(self, load_params):
        event = StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 150.0)
        solved = analysis.closed_form(load_params, event, "tfm")
        assert solved.metrics == tfm_load.load_metrics(load_params, event.delta)
        assert solved.before == steady_output(load_params)
        assert solved.after(solved.metrics.t_p) == pytest.approx(solved.metrics.v_max, rel=1e-12)
        t = np.linspace(0.0, 0.05, 7)
        modes = tfm_load.load_modes(load_params, event.delta)
        assert np.array_equal(solved.after(t), steady_output(load_params) + modes.deviation(t))

    def test_unknown_model_is_refused(self, line_params):
        with pytest.raises(ValueError, match=r"'ebm', 'tfm' or 'fr', not 'avg\+par'"):
            analysis.closed_form(line_params, cold_start(line_params), "avg+par")

    @pytest.mark.parametrize("model", ["ebm", "tfm", "fr"])
    @pytest.mark.parametrize("kind, value", [(StepKind.INPUT_VOLTAGE, 3.3),
                                             (StepKind.LOAD_RESISTANCE, 92.0)])
    def test_zero_height_step_is_flat(self, line_params, model, kind, value):
        solved = analysis.closed_form(line_params, StepEvent(kind, value, value), model)
        m = solved.metrics
        assert m.t_p is None
        assert m.v_max == m.v_steady
        flat = model == "fr" and kind is StepKind.LOAD_RESISTANCE
        assert m.flags == (("no-transient",) if flat else ("no-peak",))
        assert m.overshoot_pct == 0.0
        t = np.linspace(0.0, 5e-3, 11)
        assert np.allclose(solved.after(t), solved.before, rtol=1e-12, atol=0.0)


class TestSweep:
    AXIS_L = analysis.SweepAxis("l", 0.5e-3, 2e-3, 4, log=True)

    def test_duty_at_or_above_one_is_invalid(self, line_params):
        axis_d = analysis.SweepAxis("d", 0.5, 1.2, 8)
        grid = analysis.sweep(line_params, axis_d, self.AXIS_L)
        assert np.array_equal(grid.valid, np.isfinite(grid.values))
        beyond = axis_d.values >= 1.0
        assert beyond.any() and not beyond.all()
        assert not grid.valid[beyond].any()
        assert grid.valid[~beyond].all()

    @pytest.mark.parametrize("lo, hi, bound", [(0.0, 1e-3, "lo"), (1e-3, -1e-3, "hi")])
    def test_log_axis_needs_positive_bounds(self, lo, hi, bound):
        with pytest.raises(ValueError, match=f"log axis 'l' needs {bound} > 0"):
            analysis.SweepAxis("l", lo, hi, 4, log=True)
        assert analysis.SweepAxis("l", lo, hi, 4).values.size == 4

    @pytest.mark.parametrize("bound", ["lo", "hi"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("log", [False, True])
    def test_non_finite_bound_is_refused_by_name(self, bound, value, log):
        # a linear axis from 0.2 to inf was all NaN, its 0.2 included
        bounds = {"lo": 0.2, "hi": 0.8, bound: value}
        with pytest.raises(ValueError, match=f"axis 'd' needs a finite {bound}, not {value!r}"):
            analysis.SweepAxis("d", n=3, log=log, **bounds)

    @pytest.mark.parametrize("n", [2.5, 3.0, math.nan, "3"])
    def test_non_integer_count_is_refused_by_name(self, n):
        with pytest.raises(ValueError, match=f"axis 'd' needs an integer n, not {n!r}"):
            analysis.SweepAxis("d", 0.2, 0.8, n)
        assert analysis.SweepAxis("d", 0.2, 0.8, np.int64(3)).values.size == 3

    def test_mask_is_derived_from_the_values(self, line_params):
        grid = analysis.sweep(line_params, self.AXIS_L, analysis.SweepAxis("c", 2e-5, 8e-5, 3))
        assert "valid" not in {f.name for f in dataclasses.fields(grid)}
        grid.values[1, 2] = np.nan
        assert np.array_equal(grid.valid, np.isfinite(grid.values))

    def test_cells_are_the_scalar_closed_form(self, line_params):
        axis_c = analysis.SweepAxis("c", 20e-6, 80e-6, 3)
        grid = analysis.sweep(line_params, self.AXIS_L, axis_c, metric="t_p")
        q = dataclasses.replace(line_params, l=float(self.AXIS_L.values[2]),
                                c=float(axis_c.values[1]))
        assert grid.values[2, 1] == analysis.closed_form_metrics(q, cold_start(q), "tfm").t_p

    def test_unknown_metric_is_refused_before_any_cell(self, line_params, monkeypatch):
        def fail(*args):
            raise AssertionError("a cell was evaluated")

        monkeypatch.setattr(analysis, "closed_form_metrics", fail)
        axis_c = analysis.SweepAxis("c", 20e-6, 80e-6, 4)
        with pytest.raises(ValueError, match="vmax"):
            analysis.sweep(line_params, self.AXIS_L, axis_c, model="ebm", metric="vmax")

    def test_unknown_metric_is_refused_before_the_kernel_runs(self, line_params, monkeypatch):
        def fail(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(tfm_line, "line_step_metrics", fail)
        axis_c = analysis.SweepAxis("c", 20e-6, 80e-6, 4)
        with pytest.raises(ValueError, match="vmax"):
            analysis.sweep(line_params, self.AXIS_L, axis_c, metric="vmax")

    def test_cells_run_on_the_calling_thread(self, line_params, monkeypatch):
        threads = set()
        metrics = analysis.closed_form_metrics

        def recording(*args):
            threads.add(threading.get_ident())
            return metrics(*args)

        monkeypatch.setattr(analysis, "closed_form_metrics", recording)
        axis_c = analysis.SweepAxis("c", 20e-6, 80e-6, 4)
        assert analysis.sweep(line_params, self.AXIS_L, axis_c, model="ebm").valid.all()
        assert threads == {threading.get_ident()}

    def test_tfm_sweep_makes_no_scalar_calls(self, line_params, monkeypatch):
        def fail(*args):
            raise AssertionError("a cell was solved on its own")

        monkeypatch.setattr(analysis, "closed_form_metrics", fail)
        axis_c = analysis.SweepAxis("c", 20e-6, 80e-6, 4)
        assert analysis.sweep(line_params, self.AXIS_L, axis_c).valid.all()


def scalar_grid(p, axis1, axis2, metric, model="tfm"):
    """The sweep grid cell by cell through closed_form_metrics on a record
    per cell; NaN where it refuses the cell or has no value."""
    values = np.full((axis1.n, axis2.n), np.nan)
    refused = np.zeros(values.shape, dtype=bool)
    for i, x in enumerate(axis1.values):
        for j, y in enumerate(axis2.values):
            try:
                q = dataclasses.replace(p, **{axis1.name: float(x), axis2.name: float(y)})
                value = getattr(analysis.closed_form_metrics(q, cold_start(q), model), metric)
            except (ValueError, ModelDomainError):
                refused[i, j] = True
                continue
            values[i, j] = math.nan if value is None else value
    return values, refused


def assert_scalar_parity(p, axes, metric, model):
    """Every cell is bitwise its record's scalar closed form, and invalid
    exactly where that record is refused."""
    grid = analysis.sweep(p, *axes, model=model, metric=metric)
    want, refused = scalar_grid(p, *axes, metric, model)
    assert grid.values.shape == want.shape
    assert np.array_equal(grid.values, want, equal_nan=True)
    if metric != "t_p":
        assert np.array_equal(~grid.valid, refused)


class TestTfmSweepParity:
    """Every cell of the one-call TFM sweep is its scalar closed form."""

    AXES = {
        "duty-past-one": (analysis.SweepAxis("d", 0.3, 1.2, 10),
                          analysis.SweepAxis("r_c", -0.5, 2.0, 6)),
        "input-from-zero": (analysis.SweepAxis("v_i", 0.0, 5.0, 6),
                            analysis.SweepAxis("l", 1e-4, 2e-3, 5, log=True)),
        "overdamped": (analysis.SweepAxis("r_l", 0.0, 60.0, 7),
                       analysis.SweepAxis("c", 2e-6, 80e-6, 6, log=True)),
        "one-row": (analysis.SweepAxis("r_0", 50.0, 50.0, 1),
                    analysis.SweepAxis("v_d", -0.2, 0.8, 6)),
    }

    @pytest.mark.parametrize("metric", analysis.SWEEP_METRICS)
    @pytest.mark.parametrize("axes", AXES.values(), ids=AXES.keys())
    def test_cells_equal_the_scalar_path(self, line_params, axes, metric):
        assert_scalar_parity(line_params, axes, metric, "tfm")

    def test_design_without_input_voltage_is_all_invalid(self, line_params):
        p = dataclasses.replace(line_params, v_i=0.0)
        axes = self.AXES["overdamped"]
        assert scalar_grid(p, *axes, "v_max")[1].all()
        assert not analysis.sweep(p, *axes).valid.any()

    @pytest.mark.parametrize("axes", AXES.values(), ids=AXES.keys())
    def test_axes_reach_refused_and_peak_free_cells(self, line_params, axes):
        # the grids above hold what they are meant to cover
        _, refused = scalar_grid(line_params, *axes, "v_max")
        peak_free = np.isnan(scalar_grid(line_params, *axes, "t_p")[0]) & ~refused
        name = axes[0].name
        if name == "r_l":
            assert peak_free.any() and not peak_free.all()
        elif name == "r_0":
            assert refused.any() and not refused.all()
        else:
            assert refused[-1].all() if name == "d" else refused[0].all()
            assert not refused.all()


class TestEbmSweepParity:
    """The EBM steady value is one array expression, its peak one field set
    per cell; both are bitwise the scalar closed form of a record."""

    AXES = {
        **TestTfmSweepParity.AXES,
        # at 1 - d = 0.5102, Python's ** and a product round the square
        # apart, and the steady value with them; l leaves it as it is
        "pow-rounds-apart": (analysis.SweepAxis("d", 0.4898, 0.4898, 1),
                             analysis.SweepAxis("l", 1e-4, 2e-3, 3)),
    }

    @pytest.mark.parametrize("metric", analysis.SWEEP_METRICS)
    @pytest.mark.parametrize("axes", AXES.values(), ids=AXES.keys())
    def test_cells_equal_the_scalar_path(self, line_params, axes, metric):
        assert_scalar_parity(line_params, axes, metric, "ebm")

    def test_axes_reach_peak_free_cells(self, line_params):
        _, refused = scalar_grid(line_params, *self.AXES["input-from-zero"], "v_max", "ebm")
        t_p, _ = scalar_grid(line_params, *self.AXES["input-from-zero"], "t_p", "ebm")
        peak_free = np.isnan(t_p) & ~refused
        assert peak_free.any() and not (peak_free | refused).all()

    def test_steady_value_solves_no_transient(self, line_params, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a transient was solved")

        for module in (ebm, circuit):
            monkeypatch.setattr(module, "_first_crossing", fail)
        monkeypatch.setattr(ebm, "ebm_metrics", fail)
        monkeypatch.setattr(ebm, "to_standard_form", fail)
        axes = self.AXES["duty-past-one"]
        grid = analysis.sweep(line_params, *axes, model="ebm", metric="v_steady")
        assert grid.valid.any() and not grid.valid.all()

    def test_peak_sweep_builds_no_record(self, line_params, monkeypatch):
        def fail(p):
            raise AssertionError("a record was built")

        monkeypatch.setattr(circuit, "validate_params", fail)
        axes = self.AXES["duty-past-one"]
        grid = analysis.sweep(line_params, *axes, model="ebm", metric="v_max")
        assert grid.valid.any() and not grid.valid.all()


class TestSlottedRecords:
    """The records the library returns carry no instance dict, and stay
    frozen values; tests/test_circuit.py checks that a ConverterParams still
    validates under dataclasses.replace."""

    @staticmethod
    def records(p):
        step = analysis.DescentStep(p, 6.4)
        return {
            "params": p,
            "metrics": analysis.closed_form_metrics(p, cold_start(p), "ebm"),
            "step": step,
            "path": analysis.DescentPath((step, step), "constant-omega0"),
            "row": analysis.ModelRow("ebm", 5.4, 6.4, 1e-3, 0.5, 1.5, 0.01, ("overdamped",)),
        }

    @pytest.mark.parametrize("kind", ["params", "metrics", "step", "path", "row"])
    def test_record_is_a_slotted_value(self, line_params, kind):
        record = self.records(line_params)[kind]
        twin = self.records(dataclasses.replace(line_params))[kind]
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert not hasattr(record, "__dict__")
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))
        # no slot can hold it; the frozen class's own __setattr__ refuses it
        # too, as a TypeError on Python 3.11
        with pytest.raises(AttributeError):
            object.__setattr__(record, "note", 1)
        with pytest.raises((AttributeError, TypeError)):
            record.note = 1


#: every step's v_max of descents at max_steps=8, to 1e-12 relative; a
#: constraint missing from an entry gives the unconstrained peaks (scaling l
#: and c together, as constant-omega0 does, only rescales time)
DESCENT_PATHS = {
    ("line_params", ("l", "c")): {
        None: [
            6.399969114856, 6.338758511552, 6.277336998539, 6.215892859282, 6.154627109323,
            6.093755218111, 6.03350920789, 5.974140210376, 5.915921575246
        ],
    },
    ("line_params", ("c", "r_l", "d")): {
        None: [
            6.399969114856, 6.195141402205, 6.006111877629, 5.831029510741, 5.668281000384,
            5.516455771807, 5.37431699735, 5.240777593325, 5.114880349358
        ],
        "constant-steady-output": [
            6.399969114856, 6.365753965231, 6.331183966736, 6.296298614449, 6.261142721063,
            6.225766747897, 6.190227112183, 6.154586458084, 6.118913876304
        ],
        "parasitic-loss-bound": [
            6.399969114856, 6.22408071453, 6.06277696529, 5.914462764984, 5.777758733489,
            5.651464267017, 5.534528681091, 5.426028159522, 5.325147036612
        ],
    },
    ("load_params", ("l", "c")): {
        None: [
            5.593417928649, 5.590958844919, 5.586523377185, 5.58015078278, 5.57189775099,
            5.561838658198, 5.550065912791, 5.53669040259, 5.5218420606
        ],
    },
    ("load_params", ("c", "r_l", "d")): {
        None: [
            5.593417928649, 5.491831968451, 5.388803015918, 5.284176425296, 5.177775176444,
            5.069392371717, 4.958779561731, 4.845629202926, 4.729548807595
        ],
        "constant-steady-output": [
            5.593417928649, 5.530929057918, 5.501829420156, 5.483420735271, 5.482256169776,
            5.481355621852, 5.480507861806, 5.480271184603, 5.480175763124
        ],
        "parasitic-loss-bound": [
            5.593417928649, 5.593398340019, 5.593376247106, 5.593351070851, 5.593322091113,
            5.593288413321, 5.593248927737, 5.593202259873, 5.593146710454
        ],
    },
}


class TestSteepestDescent:
    @pytest.mark.parametrize("constraint", analysis.CONSTRAINTS)
    @pytest.mark.parametrize("free", [("l", "c"), ("c", "r_l", "d")])
    def test_peak_falls_strictly_along_the_path(self, line_params, constraint, free):
        path = analysis.steepest_descent(line_params, free, constraint=constraint, max_steps=8)
        assert len(path.steps) > 1
        assert np.all(np.diff(path.v_max_series) < 0)
        if constraint == "constant-steady-output":
            target = steady_output(line_params)
            for step in path.steps:
                assert steady_output(step.params) == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("constraint", analysis.CONSTRAINTS)
    @pytest.mark.parametrize("design, free", DESCENT_PATHS)
    def test_path_is_pinned(self, request, design, free, constraint):
        pins = DESCENT_PATHS[design, free]
        want = pins.get(constraint, pins[None])
        path = analysis.steepest_descent(request.getfixturevalue(design), free,
                                         constraint=constraint, max_steps=8)
        assert len(path.steps) == len(want)
        assert path.v_max_series == pytest.approx(want, rel=1e-12, abs=0)

    def test_refused_probe_raises(self, line_params):
        # d e^h leaves (0, 1), so the first gradient probe is no record
        near_one = dataclasses.replace(line_params, d=0.99995)
        with pytest.raises(ParameterError) as record:
            dataclasses.replace(near_one, d=near_one.d * math.exp(1e-4))
        with pytest.raises(ParameterError) as probe:
            analysis.steepest_descent(near_one, ("d", "l"))
        assert str(probe.value) == str(record.value)
        assert probe.value.violations == record.value.violations

    def test_repeated_free_name_is_refused(self, line_params):
        with pytest.raises(ValueError, match="distinct"):
            analysis.steepest_descent(line_params, ["l", "l"])

    @pytest.mark.parametrize("budget", [math.nan, -0.5, math.inf, -math.inf])
    def test_budget_that_bounds_nothing_is_refused_before_any_solve(self, line_params,
                                                                    monkeypatch, budget):
        # min(r_l, nan) keeps r_l: a NaN budget would let r_l climb 1.5 -> 1.87 ohm in 5 steps
        unsolved(monkeypatch)
        with pytest.raises(ValueError, match=f"r_l_budget must be .*, not {budget!r}"):
            analysis.steepest_descent(line_params, ("l", "r_l"), "parasitic-loss-bound",
                                      r_l_budget=budget)

    def test_zero_budget_holds_the_design_at_no_series_resistance(self, line_params):
        path = analysis.steepest_descent(line_params, ("l", "r_l"), "parasitic-loss-bound",
                                         max_steps=3, r_l_budget=0.0)
        assert [step.params.r_l for step in path.steps] == [0.0] * len(path.steps)

    def test_unknown_model_is_refused_by_name_before_any_solve(self, line_params, monkeypatch):
        unsolved(monkeypatch)
        with pytest.raises(ValueError, match="'ebm', 'tfm' or 'fr', not 'xyz'"):
            analysis.steepest_descent(line_params, ("l", "c"), model="xyz")

    def test_tfm_descent_solves_no_probe_through_a_record(self, line_params, monkeypatch):
        def fail(*args):
            raise AssertionError("a probe was solved through closed_form_metrics")

        records, solves = [], []
        validate, metrics = circuit.validate_params, tfm_line.line_step_metrics
        monkeypatch.setattr(analysis, "closed_form_metrics", fail)
        monkeypatch.setattr(circuit, "validate_params", lambda p: records.append(p) or validate(p))
        monkeypatch.setattr(tfm_line, "line_step_metrics",
                            lambda *args: solves.append(args) or metrics(*args))
        free = ("c", "r_l", "d")
        path = analysis.steepest_descent(line_params, free, max_steps=8)
        assert len(path.steps) == 9
        # every record is a line-search candidate, solved once; the rest of
        # the solves are the start and two probes per free axis per step
        assert len(solves) - len(records) == 1 + 2 * len(free) * 8

    @pytest.mark.parametrize("max_steps", [2.5, math.nan, 3.0])
    def test_non_integer_max_steps_is_refused_by_name(self, line_params, monkeypatch,
                                                      max_steps):
        unsolved(monkeypatch)
        with pytest.raises(ValueError, match=f"max_steps must be an integer >= 0, "
                                             f"not {max_steps!r}"):
            analysis.steepest_descent(line_params, ("l", "c"), max_steps=max_steps)

    def test_a_flat_objective_stops_after_the_first_step(self, line_params, monkeypatch):
        solves = []
        monkeypatch.setattr(analysis, "_cold_start",
                            lambda q, model, metric: solves.append(q) or 5.0)
        path = analysis.steepest_descent(line_params, ("l", "c"))
        # the start and two probes per free axis: a zero gradient ends the descent
        assert len(path.steps) == 1 and len(solves) == 5

    def test_no_lower_candidate_stops_after_the_first_step(self, line_params, monkeypatch):
        # each solve reads higher than the last: the gradient is not zero, but
        # every candidate of the line search is worse than the start
        solves = itertools.count()
        monkeypatch.setattr(analysis, "_cold_start",
                            lambda q, model, metric: float(next(solves)))
        path = analysis.steepest_descent(line_params, ("l", "c"))
        # the start, four probes and 40 halvings
        assert len(path.steps) == 1 and next(solves) == 45

    def test_negative_max_steps_is_refused(self, line_params):
        with pytest.raises(ValueError, match="max_steps"):
            analysis.steepest_descent(line_params, ("l", "c"), max_steps=-3)
        # no steps: the path is the starting design alone
        assert len(analysis.steepest_descent(line_params, ("l", "c"), max_steps=0).steps) == 1


def unsolved(monkeypatch):
    """Make every closed-form solve fail."""
    def fail(*args, **kwargs):
        raise AssertionError("a closed form was solved")

    for module, name in ((tfm_line, "line_tf_coefficients"), (ebm, "startup_form")):
        monkeypatch.setattr(module, name, fail)


def record_descent(p, free, constraint, max_steps, model):
    """The descent with a record per probe: each gradient probe is a
    ``dataclasses.replace`` solved by closed_form_metrics.  steepest_descent's
    record-free probes must walk its path bit for bit."""
    targets = (steady_output(p), p.l * p.c, p.r_l)

    def objective(q):
        return analysis.closed_form_metrics(q, cold_start(q), model).v_max

    def moved(q, logs):
        return dataclasses.replace(q, **{name: getattr(q, name) * math.exp(s)
                                         for name, s in logs})

    start = analysis._project(p, constraint, targets)
    steps = [(start, objective(start))]
    h = 1e-4
    for _ in range(max_steps):
        current, v_now = steps[-1]
        grad = np.array([objective(moved(current, [(name, h)]))
                         - objective(moved(current, [(name, -h)])) for name in free]) / (2.0 * h)
        norm = float(np.linalg.norm(grad))
        if norm < 1e-6 * v_now:
            break
        direction = (-grad / norm).tolist()
        for k in range(40):
            step = 0.05 * 0.5**k
            try:
                cand = moved(current, [(name, step * g) for name, g in zip(free, direction)])
                cand = analysis._project(cand, constraint, targets)
                v_cand = objective(cand)
            except (ValueError, ModelDomainError):
                continue
            if v_cand < v_now - 1e-9 * steps[0][1]:
                steps.append((cand, v_cand))
                break
        else:
            break
    return steps


def bits(steps):
    """Every float of the (params, v_max) steps by its exact bits."""
    return [[float.hex(float(x)) for x in (*dataclasses.astuple(q), v)] for q, v in steps]


class TestRecordFreeDescent:
    """Probes as field sets walk the path that records per probe walked."""

    @pytest.mark.parametrize("model", ["tfm", "ebm"])
    @pytest.mark.parametrize("constraint", analysis.CONSTRAINTS)
    @pytest.mark.parametrize("design, free", DESCENT_PATHS)
    def test_every_step_is_bitwise_the_record_descent(self, request, design, free,
                                                      constraint, model):
        p = request.getfixturevalue(design)
        path = analysis.steepest_descent(p, free, constraint=constraint, max_steps=8,
                                         model=model)
        want = record_descent(p, free, constraint, 8, model)
        assert bits([(s.params, s.v_max) for s in path.steps]) == bits(want)
        assert all(type(s.v_max) is float for s in path.steps)


class TestResolveDuty:
    def test_takes_the_root_nearest_the_current_duty(self, load_params):
        # both roots, 0.2591 and 0.75, reach this target; 0.2591 lies nearer D = 0.5
        target = steady_output(dataclasses.replace(load_params, d=0.75))
        assert target == 4.558139534883721
        q = analysis._resolve_duty(load_params, target)
        assert q.d == pytest.approx(0.2591065292096222, rel=1e-14)
        assert steady_output(q) == pytest.approx(target, rel=1e-12)

    def test_unreachable_target_is_infeasible(self, load_params):
        with pytest.raises(analysis.ConstraintInfeasible):
            analysis._resolve_duty(load_params, 50.0)
