import dataclasses
import threading

import numpy as np
import pytest

from boostdyn import ConverterParams, StepEvent, StepKind, analysis, tfm_load
from boostdyn.steady import steady_output

#: heavily damped by its 10-ohm load: xi ~ 3, so every closed form is overdamped
OVERDAMPED = ConverterParams(
    v_i=5.0, l=1e-3, r_l=0.2, c=1e-6, r_c=0.05, r_m=0.1,
    v_d=0.4, r_0=10.0, d=0.5, f_sw=1e5,
)


def cold_start(p):
    return StepEvent(StepKind.INPUT_VOLTAGE, 0.0, p.v_i)


class TestCompareModels:
    def test_rows_follow_model_rows_and_the_reference_scores_zero(self, fast_params):
        table = analysis.compare_models(fast_params, cold_start(fast_params))
        assert tuple(r.model for r in table.rows) == analysis.MODEL_ROWS
        ref = table.row("switched")
        assert ref.rmse_v is None
        assert ref.steady_error_pct == 0.0 and ref.dynamic_error_pct == 0.0
        assert all(r.rmse_v is not None for r in table.rows if r.model != "switched")

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
        assert np.array_equal(solved.after(t), tfm_load.load_response(load_params, event.delta, t))

    def test_unknown_model_is_refused(self, line_params):
        with pytest.raises(ValueError):
            analysis.closed_form(line_params, cold_start(line_params), "avg+par")


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
            analysis.sweep(line_params, self.AXIS_L, axis_c, metric="vmax")

    def test_cells_run_on_the_calling_thread(self, line_params, monkeypatch):
        monkeypatch.setenv("BOOSTDYN_THREADS", "4")
        threads = set()
        metrics = analysis.closed_form_metrics

        def recording(*args):
            threads.add(threading.get_ident())
            return metrics(*args)

        monkeypatch.setattr(analysis, "closed_form_metrics", recording)
        axis_c = analysis.SweepAxis("c", 20e-6, 80e-6, 4)
        assert analysis.sweep(line_params, self.AXIS_L, axis_c).valid.all()
        assert threads == {threading.get_ident()}


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

    def test_repeated_free_name_is_refused(self, line_params):
        with pytest.raises(ValueError, match="distinct"):
            analysis.steepest_descent(line_params, ["l", "l"])


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
