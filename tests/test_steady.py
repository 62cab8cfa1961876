import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from boostdyn.analysis import closed_form
from boostdyn.circuit import ConverterParams, DischargedSourceWarning, StepEvent, StepKind
from boostdyn.steady import steady_inductor_current, steady_output


def params(**kw) -> ConverterParams:
    base = dict(v_i=5.0, l=1e-3, r_l=1.4, c=43e-6, r_c=1.0, r_m=0.8,
                v_d=0.4, r_0=10.0, d=0.50, f_sw=1e4)
    base.update(kw)
    return ConverterParams(**base)


def ideal_steady_output(p: ConverterParams) -> float:
    """The parasitic-free (FR) steady level, which no load step moves."""
    event = StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, 2.0 * p.r_0)
    return closed_form(p, event, "fr").metrics.v_steady


def no_cap_esr_steady_output(p: ConverterParams) -> float:
    """The pre-correction steady form, without the capacitor ESR:
    (Vi - (1-D)Vd)(1-D)R0 / [(1-D)^2 R0 + RL + D RM]."""
    one_d = 1.0 - p.d
    den = one_d**2 * p.r_0 + p.r_l + p.d * p.r_m
    return (p.v_i - one_d * p.v_d) * one_d * p.r_0 / den


valid_params = st.builds(
    params,
    v_i=st.floats(1.0, 40.0),
    l=st.floats(1e-5, 1e-2),
    c=st.floats(1e-6, 1e-3),
    r_0=st.floats(2.0, 1000.0),
    d=st.floats(0.05, 0.9),
    r_l=st.floats(0.0, 5.0),
    r_c=st.floats(0.0, 5.0),
    r_m=st.floats(0.0, 5.0),
    v_d=st.floats(0.0, 0.9),
)


class TestSteadyOutput:
    def test_line_bench_point(self, line_params):
        v = steady_output(line_params)
        assert v == pytest.approx(5.451373666311436, rel=1e-12)
        assert abs(v - 5.45) < 0.01

    def test_lossless_reduces_to_ideal(self):
        p = params(v_i=3.3, d=0.5, r_l=0.0, r_c=0.0, r_m=0.0, v_d=0.0)
        assert steady_output(p) == pytest.approx(6.6, rel=1e-13)
        assert steady_output(p) == pytest.approx(ideal_steady_output(p), rel=1e-13)

    def test_load_bench_post_step(self, load_params):
        post = dataclasses.replace(load_params, r_0=150.0)
        v = steady_output(post)
        assert v == pytest.approx(360.0 / 39.55, rel=1e-12)
        assert abs(v - 9.10) < 0.05

    def test_clamped_when_source_below_diode(self):
        p = params(v_i=0.05, v_d=0.9)
        with pytest.warns(DischargedSourceWarning):
            assert steady_output(p) == 0.0

    @given(valid_params)
    @settings(max_examples=200)
    def test_never_exceeds_ideal(self, p):
        assert steady_output(p) <= ideal_steady_output(p) + 1e-12

    @given(valid_params)
    @settings(max_examples=100)
    def test_monotone_directions(self, p):
        one_d = 1.0 - p.d
        # keep away from the diode clamp so finite differences see the smooth branch
        if p.v_i * 0.98 <= one_d * p.v_d * 1.05:
            return
        v = steady_output(p)
        up = {"v_i": 1.02, "r_0": 1.02}
        down = {"r_l": 1.02, "r_m": 1.02, "r_c": 1.02, "v_d": 1.02}
        for field, factor in up.items():
            bumped = dataclasses.replace(p, **{field: getattr(p, field) * factor})
            if getattr(p, field) == 0.0:
                continue
            assert steady_output(bumped) >= v - 1e-12
        for field, factor in down.items():
            if getattr(p, field) == 0.0:
                continue
            bumped = dataclasses.replace(p, **{field: getattr(p, field) * factor})
            assert steady_output(bumped) <= v + 1e-12


class TestInductorCurrent:
    def test_load_bench_pre_step(self, load_params):
        cur = steady_inductor_current(load_params)
        assert cur.i_out == pytest.approx(2.4 / 4.55, rel=1e-12)
        assert abs(cur.i_out - 0.5275) < 5e-4

    def test_ideal_elements_match_ohms_law(self):
        p = params(r_l=0.0, r_c=0.0, r_m=0.0, v_d=0.0)
        cur = steady_inductor_current(p)
        assert cur.i_out == pytest.approx(steady_output(p) / p.r_0, rel=1e-12)

    def test_inductor_scaling(self, line_params):
        cur = steady_inductor_current(line_params)
        assert cur.i_inductor == pytest.approx(cur.i_out / 0.51, rel=1e-12)

    @given(valid_params)
    @settings(max_examples=100)
    def test_volt_second_balance_without_cap_esr(self, p):
        # the pre-correction balance holds exactly once the ESR term is absent
        q = dataclasses.replace(p, r_c=0.0)
        one_d = 1.0 - q.d
        cur = steady_inductor_current(q)
        v_o = steady_output(q)
        if v_o == 0.0:
            return
        lhs = q.v_i
        rhs = one_d * v_o + cur.i_inductor * q.r_l + q.d * cur.i_inductor * q.r_m + one_d * q.v_d
        assert rhs == pytest.approx(lhs, rel=1e-9)

    def test_pre_correction_form_matches_internal_helper(self, line_params):
        p = dataclasses.replace(line_params, r_c=0.0)
        assert steady_output(p) == pytest.approx(no_cap_esr_steady_output(p), rel=1e-12)


class TestIdealSteadyOutput:
    def test_bench_duty(self):
        assert ideal_steady_output(params(v_i=3.3, d=0.49)) == pytest.approx(
            6.470588235294117, rel=1e-12
        )

    def test_zero_source(self):
        assert ideal_steady_output(params(v_i=0.0)) == 0.0

    def test_doubling_at_half_duty(self):
        assert ideal_steady_output(params(v_i=5.0, d=0.5)) == pytest.approx(10.0)
