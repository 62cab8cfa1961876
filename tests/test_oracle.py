import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostdyn import ConverterParams, StepEvent, StepKind, analysis, circuit, ebm, oracle
from boostdyn.circuit import parasitic_free
from boostdyn.oracle import (
    NonFiniteState,
    WindowOutOfRange,
    _advance,
    _ladder,
    _modes,
    averaged_step_form,
    energy_audit,
    integrate_second_order,
    simulate_averaged,
    simulate_switched,
    switched_cycle_means,
)
from boostdyn.refmodel import fr_step_response

LOSSLESS = dict(r_l=0.0, r_m=0.0, r_c=0.0, v_d=0.0)

#: the small converter of the benchmark's validate workload
QUICK = ConverterParams(v_i=3.0, l=20e-6, r_l=0.1, c=4e-6, r_c=0.05, r_m=0.08,
                        v_d=0.3, r_0=8.0, d=0.5, f_sw=1e5)
#: the load-step converter of the benchmark (conftest's ``load_params``)
LOAD = ConverterParams(v_i=5.0, l=1e-3, r_l=1.4, c=43e-6, r_c=1.0, r_m=0.8,
                       v_d=0.4, r_0=10.0, d=0.50, f_sw=1e4)


def events_of(p, late_periods=7.37):
    """A cold start at t = 0, then a warm input step, a load release, a load
    increase and a 15-fold load release, all at ``late_periods`` periods, an
    instant that is no sample at 51 substeps per cycle."""
    late = late_periods * p.period
    return [StepEvent(StepKind.INPUT_VOLTAGE, 0.0, p.v_i),
            StepEvent(StepKind.INPUT_VOLTAGE, 0.6 * p.v_i, p.v_i, late),
            StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, 2.0 * p.r_0, late),
            StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, 0.5 * p.r_0, late),
            StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, 15.0 * p.r_0, late)]


def one_substep(mode, h, i0, v0):
    x = np.ones((3, 2))
    x[:2, 0] = i0, v0
    _advance(x, _ladder(mode, h, 1))
    return x[0, 1], x[1, 1]


def substep_reference(p, spc, n, x0, events=()):
    """Samples 0..n of (i_L, v_C) of the switched circuit, one exact substep
    at a time: a substep that ends with i_L < 0 is clamped to zero, and an
    off-phase substep from i_L <= 0 idles while the output stays above
    v_i - v_d.  Returns the samples and whether an off phase was clamped."""
    h = p.period / spc
    on_steps = round(p.d * spc)
    at = {round(ev.t_event / h): ev for ev in events}
    maps = {}
    x = np.empty((n + 1, 2))
    x[0] = x0
    v_i, r_0 = p.v_i, p.r_0
    dcm = False
    for k in range(n):
        if k in at:
            ev = at[k]
            if ev.kind is StepKind.INPUT_VOLTAGE:
                v_i = ev.value_after
            else:
                r_0 = ev.value_after
        i_l, v_c = x[k]
        v_out = r_0 / (r_0 + p.r_c) * (v_c + p.r_c * i_l)
        if k % spc < on_steps:
            mode = 0
        else:
            mode = 2 if i_l <= 0.0 and v_out > v_i - p.v_d else 1
        if (v_i, r_0, mode) not in maps:
            maps[v_i, r_0, mode] = _ladder(_modes(p, v_i, r_0)[mode], h, 1)[0]
        x[k + 1] = maps[v_i, r_0, mode] @ (i_l, v_c, 1.0)
        if x[k + 1, 0] < 0.0:
            x[k + 1, 0] = 0.0
            dcm = dcm or mode == 1
    return x, dcm


def assert_trace_is(trace, ref):
    for got, want in ((trace.i_l, ref[:, 0]), (trace.v_c, ref[:, 1])):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def averaged_dc_output(p):
    """DC solution of the state-space averaged circuit, from its two balances.

    Capacitor charge: (1-D) R0/(R0+rc) i = v_C/(R0+rc), so v_C = (1-D) R0 i.
    Inductor volt-seconds: Vi - (1-D) Vd = (rl + D rm) i + (1-D) v_sw, where
    the off-phase output v_sw = R0 (v_C + rc i)/(R0+rc).  The output
    R0/(R0+rc) (v_C + (1-D) rc i) then equals (1-D) R0 i.
    """
    q = 1.0 - p.d
    v_sw_per_i = p.r_0 * (q * p.r_0 + p.r_c) / (p.r_0 + p.r_c)
    i_l = (p.v_i - q * p.v_d) / (p.r_l + p.d * p.r_m + q * v_sw_per_i)
    return q * p.r_0 * i_l


class TestModeSteps:
    def test_on_substep_matches_closed_form(self, load_params):
        p = load_params
        on = _modes(p, p.v_i, p.r_0)[0]
        h = p.period / 200
        i1, v1 = one_substep(on, h, 0.3, 4.0)
        r_on = p.r_l + p.r_m
        i_inf = p.v_i / r_on
        assert i1 == pytest.approx(i_inf + (0.3 - i_inf) * math.exp(-r_on * h / p.l), rel=1e-13)
        assert v1 == pytest.approx(4.0 * math.exp(-h / (p.c * (p.r_0 + p.r_c))), rel=1e-13)

    def test_idle_substep_holds_current_at_zero(self, load_params):
        p = load_params
        idle = _modes(p, p.v_i, p.r_0)[2]
        h = p.period / 200
        i1, v1 = one_substep(idle, h, 0.0, 6.0)
        assert i1 == 0.0
        assert v1 == pytest.approx(6.0 * math.exp(-h / (p.c * (p.r_0 + p.r_c))), rel=1e-13)

    def test_lossless_on_substep_is_a_ramp(self, load_params):
        # r_l = r_m = 0 makes the on mode singular: i_L ramps at Vi/L
        p = replace(load_params, **LOSSLESS)
        on = _modes(p, p.v_i, p.r_0)[0]
        h = p.period / 200
        i1, v1 = one_substep(on, h, 0.3, 4.0)
        assert i1 == pytest.approx(0.3 + p.v_i * h / p.l, rel=1e-14)
        assert v1 == pytest.approx(4.0 * math.exp(-h / (p.c * p.r_0)), rel=1e-13)

    def test_long_run_matches_repeated_single_steps(self, fast_params):
        p = fast_params
        off = _modes(p, p.v_i, p.r_0)[1]
        h = p.period / 200
        x = np.ones((3, 301))
        x[:2, 0] = 0.4, 5.0
        _advance(x, _ladder(off, h, 300))
        i_l, v_c = 0.4, 5.0
        for k in range(1, 301):
            i_l, v_c = one_substep(off, h, i_l, v_c)
            assert x[0, k] == pytest.approx(i_l, rel=1e-12)
            assert x[1, k] == pytest.approx(v_c, rel=1e-12)


def assert_exact(wave, exact):
    assert np.max(np.abs(wave.samples - exact)) <= 1e-12 * np.max(np.abs(exact))


class TestSecondOrder:
    """The independent check of the closed forms against exact solutions."""

    @pytest.mark.parametrize("converter", ["line_params", "load_params", "fast_params"])
    @pytest.mark.parametrize("r_ratio", [None, 15.0, 0.4])
    def test_ebm_closed_forms(self, request, converter, r_ratio):
        # the scaled companion state is what holds these to 1e-12: stepping
        # (v, v') itself misses 8 of the 9, by up to 1.7e-11
        p = request.getfixturevalue(converter)
        if r_ratio is None:
            form, co = ebm.startup_form(p), ebm.ode_coefficients(p)
        else:
            form = ebm.load_step_form(p, p.r_0, r_ratio * p.r_0)
            co = ebm.ode_coefficients(p, r_0=r_ratio * p.r_0)
        t_end = 8.0 / (form.xi * form.omega0)
        wave = integrate_second_order(co.m2, co.m1, co.m0, co.forcing, form.v0, form.dv0,
                                      t_end / 2000, t_end)
        assert_exact(wave, ebm.ebm_response(form, wave.times))

    def test_critically_damped(self):
        wave = integrate_second_order(1.0, 2.0, 1.0, 2.0, 0.0, 0.5, 1e-4, 20.0)
        assert len(wave) == 200001
        t = wave.times
        assert_exact(wave, 2.0 - (2.0 + 1.5 * t) * np.exp(-t))

    def test_double_integrator(self):
        # m0 = 0: no restoring term, so the state is left unscaled
        wave = integrate_second_order(2.0, 0.0, 0.0, 3.0, 1.0, -0.5, 1e-3, 10.0)
        t = wave.times
        assert_exact(wave, 1.0 - 0.5 * t + 3.0 * t**2 / (2 * 2.0))

    def test_negative_stiffness_grows_as_a_cosh(self):
        # v'' - 4 v = -8 from v = 3 at rest: v = 2 + cosh(2 t)
        wave = integrate_second_order(1.0, 0.0, -4.0, -8.0, 3.0, 0.0, 1e-3, 5.0)
        assert_exact(wave, 2.0 + np.cosh(2.0 * wave.times))

    def test_checks(self):
        nan, inf = math.nan, math.inf
        for dt, t_end, name in ((0.0, 1.0, "dt"), (-1e-3, 1.0, "dt"), (nan, 1.0, "dt"),
                                (inf, 1.0, "dt"), (1e-3, 0.0, "t_end"), (1e-3, -1.0, "t_end"),
                                (1e-3, nan, "t_end"), (1e-3, inf, "t_end")):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                integrate_second_order(1.0, 0.0, 1.0, 0.0, 1.0, 0.0, dt, t_end)
        # cosh(1000 t) overflows
        with pytest.raises(NonFiniteState):
            integrate_second_order(1.0, 0.0, -1e6, 0.0, 1.0, 0.0, 1e-3, 1.0)


class TestAveraged:
    def test_parasitic_free_run_is_the_fr_response(self, line_params):
        p = line_params
        t_end = 200 * p.period
        wave = simulate_averaged(p, [], p.period / 200, t_end, include_parasitics=False)
        fr = fr_step_response(p, p.v_i, wave.times)
        assert np.max(np.abs(wave.samples - fr)) <= 1e-10 * np.max(np.abs(fr))

    def test_settles_at_averaged_dc_solution(self, load_params):
        p = load_params
        want = averaged_dc_output(p)
        wave = simulate_averaged(p, [], p.period / 200, 0.1)
        assert wave.samples[-1] == pytest.approx(want, rel=1e-10)
        flat = simulate_averaged(p, [], p.period / 200, 0.01, initial_state="steady")
        assert np.max(np.abs(flat.samples - want)) <= 1e-10 * want

    def test_agrees_with_switched_cycle_average(self, load_params):
        p = load_params
        trace = simulate_switched(p, [], 200, 300 * p.period, initial_state="steady")
        assert trace.flags == ()
        cycles = trace.cycle_averaged().samples
        assert cycles[-1] == pytest.approx(averaged_dc_output(p), rel=2e-3)

    def test_event_acts_from_its_sample(self, fast_params):
        # a load release at 10,000.4 substeps acts from sample 10,000
        p = fast_params
        dt = p.period / 200
        step = StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, 2 * p.r_0, 10000.4 * dt)
        wave = simulate_averaged(p, [step], dt, 100 * p.period, include_parasitics=False,
                                 initial_state="steady")
        v = wave.samples
        assert np.all(v[:10000] == v[0])
        assert v[0] == pytest.approx(p.v_i / (1 - p.d), rel=1e-12)
        # the parasitic-free output is v_C, which the load step leaves
        # continuous, and which rises from the event's sample on
        assert v[10000] == pytest.approx(v[0], rel=1e-12)
        assert v[10001] - v[10000] > 1e-4

    @pytest.mark.parametrize("include_parasitics", [True, False])
    def test_event_run_is_the_tail_of_a_run_from_zero(self, fast_params, include_parasitics):
        # the samples after the event are bitwise the first ones of the form
        # stepped from t = 0 over the whole horizon, after the level before
        # it; the event may fall on the last sample or past it
        p = fast_params
        dt, n = p.period / 200, 3000
        step = StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, 2 * p.r_0)
        for e in (1, 1023, 1777, n - 1, n, n + 1, n + 40):
            event = replace(step, t_event=e * dt)
            before, form = averaged_step_form(p if include_parasitics else parasitic_free(p),
                                              event, "steady")
            w2 = form.omega0 * form.omega0
            whole = integrate_second_order(1.0, 2.0 * form.xi * form.omega0, w2,
                                           w2 * form.v_inf, form.v0, form.dv0, dt, n * dt)
            k = min(e, n + 1)
            want = np.concatenate([np.full(k, before), whole.samples[: n + 1 - k]])
            wave = simulate_averaged(p, [event], dt, n * dt, include_parasitics, "steady")
            assert wave.samples.tobytes() == want.tobytes()

    def test_a_second_event_is_refused(self, fast_params):
        p = fast_params
        step = StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, 2 * p.r_0, 50 * p.period)
        back = StepEvent(StepKind.LOAD_RESISTANCE, 2 * p.r_0, p.r_0, 70 * p.period)
        with pytest.raises(ValueError, match="at most one event"):
            simulate_averaged(p, [step, back], p.period / 200, 100 * p.period,
                              initial_state="steady")

    def test_a_rest_start_that_moves_before_its_event_is_refused(self, fast_params):
        # from rest the circuit charges up before the event; with the event
        # at t = 0, or from its fixed point, it does not
        p = fast_params
        step = StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, 2 * p.r_0, 50 * p.period)
        with pytest.raises(ValueError, match="moves before the event"):
            simulate_averaged(p, [step], p.period / 200, 100 * p.period)
        simulate_averaged(p, [replace(step, t_event=0.0)], p.period / 200, 100 * p.period)
        simulate_averaged(p, [step], p.period / 200, 100 * p.period, initial_state="steady")

    def test_blocked_diode_rests(self, line_params):
        # v_i = 0 < (1 - D) v_d: the averaged inductor voltage at i_L = 0 is
        # negative, so only a diode clamp keeps the circuit at rest
        p = replace(line_params, v_i=0.0)
        wave = simulate_averaged(p, [], p.period / 200, 0.01)
        assert np.all(wave.samples == 0.0)

    def test_steady_start_below_the_diode_threshold_rests(self, line_params):
        # 0.2 V < (1 - D) v_d = 0.255 V: the averaged fixed point has i_L < 0
        # and v_C < 0, which the diode does not allow
        p = replace(line_params, v_i=0.2)
        wave = simulate_averaged(p, [], p.period / 200, 20 * p.period, initial_state="steady")
        assert np.all(wave.samples == 0.0)

    def test_parasitic_free_steady_is_the_ideal_ratio(self, fast_params):
        p = fast_params
        wave = simulate_averaged(p, [], p.period / 200, p.period, False, initial_state="steady")
        assert np.allclose(wave.samples, p.v_i / (1 - p.d), rtol=1e-12, atol=0)


class TestCycleTable:
    """Whole cycles are filled from a table of exact maps; these runs check
    it against the circuit stepped one substep at a time (the bench load
    step's clamped cycles are checked in TestSwitched)."""

    def test_ccm_run_is_the_substep_chain(self, load_params):
        p = load_params
        trace = simulate_switched(p, [], 200, 50 * p.period, initial_state="steady")
        ref, dcm = substep_reference(p, 200, 10000, (trace.i_l[0], trace.v_c[0]))
        assert trace.flags == () and not dcm
        assert np.all(trace.i_l > 0.0)
        assert_trace_is(trace, ref)

    def test_long_ccm_run_is_the_substep_chain(self, load_params):
        p = load_params
        trace = simulate_switched(p, [], 200, 300 * p.period)
        ref, dcm = substep_reference(p, 200, 60000, (0.0, 0.0))
        assert trace.flags == () and not dcm
        assert_trace_is(trace, ref)

    def test_pure_ccm_run_is_filled_at_cycle_rate(self, load_params, monkeypatch):
        # a per-cycle fill would advance at least once per cycle, and a
        # CCM run never needs the idle ladder
        p = load_params
        advances, ladders = [], []

        def counting_advance(x, rungs):
            advances.append(x.shape)
            _advance(x, rungs)

        def counting_ladder(mode, h, steps):
            ladders.append(mode)
            return _ladder(mode, h, steps)

        monkeypatch.setattr(oracle, "_advance", counting_advance)
        monkeypatch.setattr(oracle, "_ladder", counting_ladder)
        trace = simulate_switched(p, [], 200, 1200 * p.period, initial_state="steady")
        assert trace.flags == () and np.all(trace.i_l > 0.0)
        assert len(advances) <= math.log2(1200)
        assert len(ladders) == 2

    def test_clamp_mid_stretch_then_batches_again(self, load_params, monkeypatch):
        # 10 -> 80 ohm: the off phases of cycles 31-34 dip below zero, eleven
        # cycles into the post-step stretch, and the rest is CCM again
        p = load_params
        batches = []

        def recording(x, rungs):
            if x.ndim == 2 and x.base is None:  # the cycle starts of one batch
                batches.append(x.shape[1])
            _advance(x, rungs)

        monkeypatch.setattr(oracle, "_advance", recording)
        step = StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 80.0, 20 * p.period)
        trace = simulate_switched(p, [step], 200, 100 * p.period, initial_state="steady")
        clamped = np.unique(np.flatnonzero((trace.i_l == 0.0) & ~trace.on_phase) // 200)
        assert trace.flags == ("dcm",) and list(clamped) == [31, 32, 33, 34]
        after = batches[batches.index(1):]
        assert after[:6] == [1, 1, 1, 1, 2, 4]
        ref, dcm = substep_reference(p, 200, 20000, (trace.i_l[0], trace.v_c[0]), [step])
        assert dcm
        assert_trace_is(trace, ref)

    def test_persistent_dcm_run_is_the_substep_chain(self, load_params):
        # at 1 kohm every off phase from the fourteenth cycle on runs dry
        p = replace(load_params, r_0=1000.0)
        trace = simulate_switched(p, [], 200, 60 * p.period)
        assert trace.flags == ("dcm",)
        dry = (trace.i_l == 0.0) & ~trace.on_phase
        assert np.all(dry[:-1].reshape(60, 200).any(axis=1)[13:])
        ref, dcm = substep_reference(p, 200, 12000, (0.0, 0.0))
        assert dcm
        assert_trace_is(trace, ref)

    @pytest.mark.parametrize("periods", [30.37, 30.77])
    def test_mid_cycle_input_step_is_the_substep_chain(self, load_params, periods):
        p = load_params
        step = StepEvent(StepKind.INPUT_VOLTAGE, p.v_i, 6.5, periods * p.period)
        trace = simulate_switched(p, [step], 200, 50 * p.period, initial_state="steady")
        assert round(step.t_event / trace.dt) % 200 not in (0, 100)
        ref, dcm = substep_reference(p, 200, 10000, (trace.i_l[0], trace.v_c[0]), [step])
        assert trace.flags == () and not dcm
        assert_trace_is(trace, ref)

    @pytest.mark.parametrize("d, on_substeps", [(0.002, 0), (0.998, 200)])
    def test_extreme_duty_is_the_substep_chain(self, load_params, d, on_substeps):
        p = replace(load_params, d=d)
        trace = simulate_switched(p, [], 200, 30 * p.period)
        assert int(trace.on_phase[:200].sum()) == on_substeps
        ref, dcm = substep_reference(p, 200, 6000, (0.0, 0.0))
        assert trace.flags == () and not dcm
        assert np.all(np.isfinite(trace.v_out))
        assert_trace_is(trace, ref)


class TestSwitched:
    def test_bench_load_step_enters_dcm(self, load_params):
        p = load_params
        before = simulate_switched(p, [], 200, 60 * p.period, initial_state="steady")
        assert before.flags == ()
        step = StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 150.0, 20 * p.period)
        trace = simulate_switched(p, [step], 200, 60 * p.period, initial_state="steady")
        assert trace.flags == ("dcm",)
        assert np.all(trace.i_l >= 0.0)
        assert np.any(trace.i_l[~trace.on_phase] == 0.0)
        ref, dcm = substep_reference(p, 200, 12000, (trace.i_l[0], trace.v_c[0]), [step])
        assert dcm
        assert_trace_is(trace, ref)

    def test_idle_mode_discharges_capacitor_only(self, load_params):
        p = load_params
        step = StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 150.0, 20 * p.period)
        trace = simulate_switched(p, [step], 200, 60 * p.period, initial_state="steady")
        idle = (trace.i_l[:-1] == 0.0) & (trace.i_l[1:] == 0.0) & ~trace.on_phase[:-1]
        assert idle.sum() > 100
        decay = trace.v_c[1:][idle] / trace.v_c[:-1][idle]
        r_sum = trace.r_0_applied[:-1][idle] + p.r_c
        assert np.allclose(decay, np.exp(-trace.dt / (p.c * r_sum)), rtol=1e-13, atol=0)

    def test_diode_conducts_again_when_output_falls(self, fast_params):
        # a small capacitor discharges within one idle stretch below Vi - Vd
        p = replace(fast_params, c=1e-7, d=0.05, r_0=100.0)
        trace = simulate_switched(p, [], 200, 100 * p.period)
        off = ~trace.on_phase
        resume = np.flatnonzero(off[:-1] & off[1:] & (trace.i_l[:-1] == 0.0) & (trace.i_l[1:] > 0.0))
        assert resume.size > 0
        assert np.all(trace.v_out[resume] <= p.v_i - p.v_d)
        assert np.all(trace.v_out[resume - 1] > p.v_i - p.v_d)

    def test_lossless_design_runs_and_conserves_energy(self, load_params):
        p = replace(load_params, **LOSSLESS)
        t_end = 2000 * p.period
        trace = simulate_switched(p, [], 200, t_end, initial_state="steady")
        assert trace.flags == ()
        cycles = trace.cycle_averaged().samples
        assert cycles[-1] == pytest.approx(p.v_i / (1 - p.d), rel=5e-3)
        audit = energy_audit(p, trace, 0.0, t_end)
        assert audit.e_vd == audit.e_rm == audit.e_rl == audit.e_rc == 0.0
        assert abs(audit.residual) <= 1e-5 * audit.e_l

    def test_steady_start_below_the_diode_threshold_rests(self, line_params):
        # 0.2 V < (1 - D) v_d = 0.255 V: the run starts at rest, not at the
        # averaged fixed point (i_L, v_C) = (-0.0021 A, -0.0985 V)
        p = replace(line_params, v_i=0.2)
        steady = simulate_switched(p, [], 200, 20 * p.period, initial_state="steady")
        rest = simulate_switched(p, [], 200, 20 * p.period)
        assert steady.i_l[0] == steady.v_c[0] == 0.0
        assert np.array_equal(steady.i_l, rest.i_l) and np.array_equal(steady.v_c, rest.v_c)

    def test_trace_records_phases_and_applied_values(self, fast_params):
        p = fast_params
        step = StepEvent(StepKind.INPUT_VOLTAGE, p.v_i, 2 * p.v_i, 30 * p.period)
        trace = simulate_switched(p, [step], 200, 40 * p.period)
        assert trace.on_phase.size == trace.v_out.size == 8001
        assert np.array_equal(trace.on_phase[:200], np.arange(200) < 100)
        assert np.all(trace.v_i_applied[:6000] == p.v_i)
        assert np.all(trace.v_i_applied[6000:] == 2 * p.v_i)
        # on phase: the load sees the capacitor through its ESR only
        on = trace.on_phase
        k = p.r_0 / (p.r_0 + p.r_c)
        assert np.allclose(trace.v_out[on], k * trace.v_c[on], rtol=1e-14, atol=0)


class TestOnlyAnOffPhaseClamps:
    """The stepper's premise: every cycle starts at i_L >= 0, which the on
    mode keeps, so i_L is clamped at zero only in an off phase.  Drawn
    around the bench load converter, with the loads before and after the
    event on either side of the CCM/DCM boundary K = K_crit, where
    K = 2 L / (R0 T) and K_crit = D (1 - D)^2, and the event at any time."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scales=st.tuples(*[st.floats(0.7, 1.3)] * 4), d=st.floats(0.3, 0.7),
           k_ratios=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
           at=st.floats(0.0, 1.0), initial_state=st.sampled_from(["zero", "steady"]))
    def test_zero_current_only_off_phase_and_flagged(self, scales, d, k_ratios, at,
                                                     initial_state):
        p = replace(LOAD, **{name: getattr(LOAD, name) * s
                             for name, s in zip(("v_i", "l", "c", "r_l"), scales)}, d=d)
        r_before, r_after = (2.0 * p.l / (p.period * k * d * (1.0 - d) ** 2)
                             for k in k_ratios)
        p = replace(p, r_0=r_before)
        t_end = 30 * p.period
        step = StepEvent(StepKind.LOAD_RESISTANCE, r_before, r_after, at * t_end)
        trace = simulate_switched(p, [step], 50, t_end, initial_state=initial_state)
        assert np.all(trace.i_l >= 0.0)
        # sample k + 1 ends substep k, whose phase is on_phase[k]
        zero = np.flatnonzero(trace.i_l[1:] == 0.0)
        assert not np.any(trace.on_phase[zero])
        assert (trace.flags == ("dcm",)) == (zero.size > 0)


class TestEnergyAudit:
    def test_residual_small_and_first_order(self, fast_params):
        # the trapezoid rule meets the switching edges, so the residual is
        # first order in the substep
        p = fast_params
        t_end = 300 * p.period

        def relative_residual(steps_per_cycle):
            trace = simulate_switched(p, [], steps_per_cycle, t_end)
            audit = energy_audit(p, trace, 0.0, t_end)
            return abs(audit.residual) / audit.e_l

        coarse = relative_residual(200)
        assert coarse <= 1e-4
        assert relative_residual(800) <= coarse / 3.0

    def test_window_checks(self, fast_params):
        p = fast_params
        trace = simulate_switched(p, [], 50, 20 * p.period)
        with pytest.raises(WindowOutOfRange):
            energy_audit(p, trace, 0.0, 21 * p.period)
        with pytest.raises(ValueError):
            energy_audit(p, trace, 2 * p.period, p.period)
        assert energy_audit(p, trace, p.period, p.period).residual == 0.0
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t0 must be finite"):
                energy_audit(p, trace, bad, p.period)
            with pytest.raises(ValueError, match="t1 must be finite"):
                energy_audit(p, trace, 0.0, bad)


class TestInputChecks:
    def test_switched_steps_per_cycle_is_an_integer(self, fast_params):
        p = fast_params
        for steps in (200.5, 200.0):
            with pytest.raises(ValueError, match="steps_per_cycle"):
                simulate_switched(p, [], steps, 40 * p.period)
        runs = [simulate_switched(p, [], steps, 40 * p.period).waveform
                for steps in (np.int64(200), 200)]
        assert np.array_equal(runs[0].samples, runs[1].samples)

    def test_switched_checks(self, fast_params):
        p = fast_params
        with pytest.raises(ValueError, match="steps_per_cycle"):
            simulate_switched(p, [], 49, 40 * p.period)
        with pytest.raises(ValueError, match="20 switching periods"):
            simulate_switched(p, [], 200, 19 * p.period)
        for t_end in (math.inf, math.nan):
            with pytest.raises(ValueError, match="t_end"):
                simulate_switched(p, [], 200, t_end)
        for initial in ("hot", (0.0, 5.0)):
            with pytest.raises(ValueError, match="initial_state"):
                simulate_switched(p, [], 200, 40 * p.period, initial_state=initial)

    def test_switched_refuses_a_second_event(self, fast_params):
        p = fast_params
        step = StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, 2 * p.r_0, 20 * p.period)
        back = StepEvent(StepKind.LOAD_RESISTANCE, 2 * p.r_0, p.r_0, 30 * p.period)
        for run in (simulate_switched, switched_cycle_means):
            with pytest.raises(ValueError, match="at most one event"):
                run(p, [step, back], 200, 40 * p.period, initial_state="steady")

    def test_averaged_checks(self, fast_params):
        p = fast_params
        # exact steps need no stability budget: a coarse grid samples the fine run
        coarse = simulate_averaged(p, [], p.period / 10, 40 * p.period).samples
        fine = simulate_averaged(p, [], p.period / 200, 40 * p.period).samples
        assert np.max(np.abs(coarse - fine[::20])) <= 1e-12 * np.max(np.abs(fine))
        for dt in (0.0, -p.period / 200, math.inf, math.nan):
            with pytest.raises(ValueError, match="dt"):
                simulate_averaged(p, [], dt, 40 * p.period)
        for t_end in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="t_end"):
                simulate_averaged(p, [], p.period / 200, t_end)
        for initial in ("hot", (0.0, 5.0)):
            with pytest.raises(ValueError, match="initial_state"):
                simulate_averaged(p, [], p.period / 200, p.period, initial_state=initial)


class TestCycleMeans:
    @pytest.mark.parametrize("spc", [50, 51, 200])
    def test_means_are_the_traces_cycle_averages(self, line_params, line_params_measured,
                                                 load_params, fast_params, spc):
        # 60.5 periods: the last cycle is not whole, and is stepped all the same
        clamped = 0
        for p in (line_params, line_params_measured, load_params, fast_params, QUICK):
            for event in events_of(p):
                sim_p, initial, events = analysis.simulation_setup(p, event)
                t_end = 60.5 * p.period
                trace = simulate_switched(sim_p, events, spc, t_end, initial_state=initial)
                want = trace.cycle_averaged()
                got = switched_cycle_means(sim_p, events, spc, t_end, initial_state=initial)
                assert got.flags == trace.flags
                assert (got.waveform.t0, got.waveform.dt) == (want.t0, want.dt)
                assert got.waveform.samples.shape == want.samples.shape == (60,)
                scale = np.max(np.abs(want.samples))
                assert np.max(np.abs(got.waveform.samples - want.samples)) <= 1e-12 * scale
                clamped += trace.flags == ("dcm",)
        assert clamped >= 5

    def test_a_ccm_run_fills_no_grid(self, load_params):
        p = load_params
        t_end = 1200 * p.period
        tracemalloc.start()
        try:
            means = switched_cycle_means(p, [], 200, t_end, initial_state="steady")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert means.flags == () and len(means.waveform) == 1200
        grid_bytes = 3 * (1200 * 200 + 1) * 8
        assert peak < grid_bytes / 4

    def test_a_long_run_checks_its_dips_in_bounded_batches(self, load_params):
        # 60,000 CCM cycles of 100 off-phase substeps: one batch of them all
        # would check 6e6 off-phase currents at once, 48 MB of floats
        p = load_params
        tracemalloc.start()
        try:
            means = switched_cycle_means(p, [], 200, 60000 * p.period, initial_state="steady")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert means.flags == () and len(means.waveform) == 60000
        assert peak < 2 * 8 * oracle._DIP_CHECK_SIZE

    #: (run, substeps per cycle) -> (flags, float.hex of the last mean, sha256
    #: of the float.hex strings of all means): load_params stepped 10 -> 150
    #: ohm (DCM) and 10 -> 5 ohm (CCM), and line_params from a cold start
    #: (DCM), over 60.5 periods.  Any change to the switched trajectory's
    #: arithmetic moves them; they hold for numpy 2.4 with its OpenBLAS.
    PINNED = {
        ("load-release", 50): (
            ("dcm",), "0x1.2d83466199ecdp+3",
            "3244742a6e6782d1c53a072a69d78e18d737a4216246d5fd462a67378f9918ce"),
        ("load-release", 200): (
            ("dcm",), "0x1.2d7f751d3a68fp+3",
            "ed8c64d9d3d66b054fdf88c24f8c3c2724f88cf48ff82f0938d049f2fb31fff5"),
        ("line-cold", 50): (
            ("dcm",), "0x1.565f48c7f35a5p+2",
            "b36b6c181b473ef112e62a32dbca50461ecd5e5b2e4943b11a39f8a9d02b643f"),
        ("line-cold", 200): (
            ("dcm",), "0x1.5c4afb676d1dbp+2",
            "bed1a426a49c0992d9a30118abea3a3fca329408e084dab0df1094963bb35dbb"),
        ("load-increase", 50): (
            (), "0x1.d6f94e87144fcp+1",
            "663483ade90e42365a8e8b9ff856f022029d02a55c0ecc59494c1bbc6f09aae6"),
        ("load-increase", 200): (
            (), "0x1.d6e76ad2b2dfdp+1",
            "78657e9e994aba3b2b2a29503b900a4fa5dfb591dd033ca367f41407ee8104c5"),
    }

    @pytest.mark.parametrize("run, spc", sorted(PINNED))
    def test_means_are_pinned(self, line_params, load_params, run, spc):
        p, event = {
            "load-release": (load_params, StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 150.0,
                                                    20 * load_params.period)),
            "load-increase": (load_params, StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 5.0,
                                                     20.37 * load_params.period)),
            "line-cold": (line_params, StepEvent(StepKind.INPUT_VOLTAGE, 0.0, line_params.v_i)),
        }[run]
        sim_p, initial, events = analysis.simulation_setup(p, event)
        got = switched_cycle_means(sim_p, events, spc, 60.5 * p.period, initial_state=initial)
        means = got.waveform.samples.tolist()
        digest = hashlib.sha256(" ".join(map(float.hex, means)).encode()).hexdigest()
        assert len(means) == 60
        assert (got.flags, float.hex(means[-1]), digest) == self.PINNED[run, spc]

    def test_refuses_what_simulate_switched_refuses(self, fast_params):
        p = fast_params
        with pytest.raises(ValueError, match="steps_per_cycle"):
            switched_cycle_means(p, [], 200.0, 40 * p.period)
        with pytest.raises(ValueError, match="20 switching periods"):
            switched_cycle_means(p, [], 200, 19 * p.period)
        with pytest.raises(ValueError, match="initial_state"):
            switched_cycle_means(p, [], 200, 40 * p.period, initial_state="hot")


def stepped_averaged(p, event, include_parasitics, initial, dt, n):
    """The averaged circuit on the grid 0..n, stepped in its own state
    (i_L, v_C): in its mode before the event up to the event's sample, and
    in its mode after it from there on."""
    if not include_parasitics:
        p = replace(p, **LOSSLESS)
    e = round(event.t_event / dt)
    if event.kind is StepKind.INPUT_VOLTAGE:
        after = event.value_after, p.r_0
    else:
        after = p.v_i, event.value_after
    x = oracle._state_grid(p, initial, n)
    want = np.empty(n + 1)
    for a, b, (v_i, r_0) in ((0, e, (p.v_i, p.r_0)), (e, n, after)):
        mode = oracle._averaged_mode(p, v_i, r_0)
        seg = x[:, a : b + 1]
        _advance(seg, _ladder(mode, dt, b - a))
        want[a : b + 1] = mode.out @ seg[:2]
    return want


def form_samples(p, event, include_parasitics, initial, dt, n):
    """The averaged form on the grid 0..n, acting from the event's sample."""
    before, form = averaged_step_form(p if include_parasitics else parasitic_free(p), event,
                                      initial)
    k = np.arange(n + 1)
    e = int(round(event.t_event / dt))
    return np.where(k < e, before, ebm.ebm_response(form, np.clip(k - e, 0, None) * dt))


class TestAveragedStepForm:
    @pytest.mark.parametrize("include_parasitics", [True, False])
    def test_form_is_the_stepped_run(self, line_params, line_params_measured, load_params,
                                     fast_params, include_parasitics):
        # the events fall on samples here: 7 periods of 200 substeps; the
        # form, solved and stepped, against the circuit stepped in (i_L, v_C)
        for p in (line_params, line_params_measured, load_params, fast_params, QUICK):
            for event in events_of(p, late_periods=7.0):
                sim_p, initial, events = analysis.simulation_setup(p, event)
                dt = p.period / 200
                n = 150 * 200
                want = stepped_averaged(sim_p, event, include_parasitics, initial, dt, n)
                wave = simulate_averaged(sim_p, events, dt, 150 * p.period, include_parasitics,
                                         initial)
                solved = form_samples(sim_p, event, include_parasitics, initial, dt, n)
                scale = np.max(np.abs(want))
                assert len(wave) == n + 1
                assert np.max(np.abs(wave.samples - want)) <= 1e-12 * scale
                assert np.max(np.abs(solved - want)) <= 1e-12 * scale

    def test_blocked_diode_rests(self, line_params):
        # 0.2 V < (1 - D) v_d = 0.255 V: the averaged circuit stays at rest
        event = StepEvent(StepKind.INPUT_VOLTAGE, 0.0, 0.2, 1e-3)
        before, form = averaged_step_form(replace(line_params, v_i=0.0), event)
        assert before == form.v0 == form.dv0 == form.v_inf == 0.0
        assert np.all(ebm.ebm_response(form, np.linspace(0.0, 0.01, 11)) == 0.0)
        assert ebm.ebm_metrics(form).flags == ("no-peak",)

    def test_a_circuit_that_moves_before_the_event_is_refused(self, fast_params):
        event = StepEvent(StepKind.LOAD_RESISTANCE, 20.0, 40.0, 1e-4)
        with pytest.raises(ValueError, match="moves before the event"):
            averaged_step_form(fast_params, event, initial_state="zero")
        # from its fixed point, or with the event at t = 0, it does not
        averaged_step_form(fast_params, event, initial_state="steady")
        averaged_step_form(fast_params, replace(event, t_event=0.0), initial_state="zero")


class TestSizeBounds:
    """A grid of over ``MAX_GRID_SAMPLES`` samples is refused before it is
    built (``steps_per_cycle``'s bound is tested through ``cli.main``)."""

    def test_the_grid_bound_counts_samples(self):
        bound = circuit.MAX_GRID_SAMPLES
        assert circuit._grid_steps(bound - 0.75, 1.0) == bound - 1
        # bound - 0.5 rounds to bound steps: one sample over
        for t_end, dt in ((bound - 0.5, 1.0), (1e300, 1e-300)):
            with pytest.raises(circuit.GridTooLarge, match="samples"):
                circuit._grid_steps(t_end, dt)

    def test_an_oversized_integration_is_refused_unbuilt(self):
        # 1e9 samples
        tracemalloc.start()
        try:
            with pytest.raises(circuit.GridTooLarge):
                integrate_second_order(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1e-9, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
