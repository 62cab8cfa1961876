import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostdyn.analysis import SWEEP_AXES, SweepAxis, _checked_values
from boostdyn.circuit import (
    ConverterParams,
    ParameterError,
    ResponseMetrics,
    StepEvent,
    StepKind,
    Waveform,
    _check_fields,
    _first_crossing,
    field_violations,
    parasitic_free,
    validate_params,
)


def codes(err: ParameterError) -> set[tuple[str, str]]:
    return set(err.violations)


#: the record's fields in its own order, the order NonFiniteValue names them in
RECORD_FIELDS = [f.name for f in dataclasses.fields(ConverterParams)]
#: the largest finite float, (2 - 2^-52) 2^1023
FLOAT_MAX = (2 - 2**-52) * 2.0**1023


def stated_violations(values: dict) -> list[tuple[str, str]]:
    """The invariants that ``values`` break, stated here apart from the
    library's table: l, c, r_0 and f_sw > 0; r_l, r_c, r_m, v_d and v_i
    not < 0; 0 < d < 1; each value an int or float, no bool, of the float
    range.  Rule violations come in that order, then NonFiniteValue."""
    broken = [("NonPositiveComponent", n) for n in ("l", "c", "r_0", "f_sw")
              if n in values and not values[n] > 0]
    broken += [("NegativeParasitic", n) for n in ("r_l", "r_c", "r_m", "v_d", "v_i")
               if n in values and values[n] < 0]
    if "d" in values and not 0.0 < values["d"] < 1.0:
        broken.append(("DutyOutOfRange", "d"))

    def finite(x) -> bool:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        return -FLOAT_MAX <= x <= FLOAT_MAX

    return broken + [("NonFiniteValue", n) for n in RECORD_FIELDS
                     if n in values and not finite(values[n])]


#: numbers that are no finite float: bools, and ints beyond the float range
NOT_FLOATS = [pytest.param(True, id="True"), pytest.param(np.True_, id="numpy.True_"),
              pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400")]
#: values at and around every rule's edges, and the numbers above
EDGE_VALUES = [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0, 5e-324, 0.5, 1.0, 2.0, 3.0,
               -2.0, *(param.values[0] for param in NOT_FLOATS)]


class TestValidateParams:
    """The invariants hold from construction: a bad record is never built."""

    def test_bench_values_pass(self, line_params):
        assert validate_params(line_params) is line_params

    def test_idempotent(self, line_params):
        assert validate_params(validate_params(line_params)) is line_params

    @pytest.mark.parametrize("d", [0.0, 1.0, 1.2, -0.1])
    def test_duty_out_of_range(self, line_params, d):
        with pytest.raises(ParameterError) as exc:
            dataclasses.replace(line_params, d=d)
        assert ("DutyOutOfRange", "d") in codes(exc.value)

    @pytest.mark.parametrize("field", ["l", "c", "r_0", "f_sw"])
    def test_zero_component(self, line_params, field):
        with pytest.raises(ParameterError) as exc:
            dataclasses.replace(line_params, **{field: 0.0})
        assert ("NonPositiveComponent", field) in codes(exc.value)

    @pytest.mark.parametrize("field", ["r_l", "r_c", "r_m", "v_d", "v_i"])
    def test_negative_parasitic(self, line_params, field):
        with pytest.raises(ParameterError) as exc:
            dataclasses.replace(line_params, **{field: -0.5})
        assert ("NegativeParasitic", field) in codes(exc.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value(self, line_params, value):
        with pytest.raises(ParameterError) as exc:
            dataclasses.replace(line_params, r_l=value)
        assert ("NonFiniteValue", "r_l") in codes(exc.value)

    def test_all_violations_reported_at_once(self, line_params):
        with pytest.raises(ParameterError) as exc:
            dataclasses.replace(line_params, l=0.0, d=1.5, r_c=-1.0)
        got = codes(exc.value)
        assert {("NonPositiveComponent", "l"), ("DutyOutOfRange", "d"),
                ("NegativeParasitic", "r_c")} <= got
        assert str(exc.value) == ("invalid converter parameters: NonPositiveComponent(l); "
                                  "NegativeParasitic(r_c); DutyOutOfRange(d)")
        assert field_violations({"d": 1.5, "r_c": -1.0, "l": 0.0}) == exc.value.violations

    def test_replace_refuses_a_full_duty(self, line_params):
        # every derived record is checked: sweep cells, descent probes, load models
        with pytest.raises(ParameterError):
            dataclasses.replace(line_params, d=1.0)

    @given(
        l=st.floats(1e-5, 1e-1), c=st.floats(1e-7, 1e-3),
        r_0=st.floats(0.5, 2000.0), d=st.floats(0.02, 0.98),
        r_l=st.floats(0.0, 10.0), v_d=st.floats(0.0, 2.0),
    )
    def test_random_valid_records_pass(self, l, c, r_0, d, r_l, v_d):
        p = ConverterParams(
            v_i=5.0, l=l, r_l=r_l, c=c, r_c=0.5, r_m=0.5,
            v_d=v_d, r_0=r_0, d=d, f_sw=1e4,
        )
        assert validate_params(p) is p

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 0.5,
                                   1.0, 2.0, *NOT_FLOATS])
    @pytest.mark.parametrize("name", RECORD_FIELDS)
    def test_field_rules_are_the_record_invariants(self, line_params, name, x):
        try:
            dataclasses.replace(line_params, **{name: x})
            want = []
        except ParameterError as exc:
            want = exc.violations
        # a bool, or a number beyond the float range, is no finite value
        finite = type(x) is float and math.isfinite(x)
        assert (("NonFiniteValue", name) in want) is not finite
        assert field_violations({name: x}) == want
        probe = SimpleNamespace(**{name: x})
        if want:
            with pytest.raises(ParameterError) as exc:
                _check_fields(probe, (name,))
            assert exc.value.violations == want
        else:
            assert _check_fields(probe, (name,)) is None

    @settings(max_examples=400, derandomize=True)
    @given(values=st.fixed_dictionaries({n: st.sampled_from(EDGE_VALUES) for n in RECORD_FIELDS}),
           names=st.sets(st.sampled_from(RECORD_FIELDS), min_size=1))
    def test_every_check_is_the_stated_rules(self, values, names):
        want = stated_violations(values)
        if want:
            with pytest.raises(ParameterError) as exc:
                ConverterParams(**values)
            assert exc.value.violations == want
            assert str(exc.value) == ("invalid converter parameters: "
                                      + "; ".join(f"{c}({n})" for c, n in want))
        else:
            assert validate_params(ConverterParams(**values)).d == values["d"]
        # a descent probe: only the fields it names are checked
        want = stated_violations({n: values[n] for n in names})
        probe = SimpleNamespace(**values)
        if want:
            with pytest.raises(ParameterError) as exc:
                _check_fields(probe, sorted(names))
            assert exc.value.violations == want
        else:
            assert _check_fields(probe, sorted(names)) is None

    @settings(max_examples=200, derandomize=True)
    @given(name=st.sampled_from(SWEEP_AXES), lo=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5]),
           hi=st.sampled_from([5e-324, 0.5, 1.0, 2.0, 3.0]), n=st.integers(1, 21))
    def test_sweep_masks_are_the_stated_rules(self, name, lo, hi, n):
        axis = SweepAxis(name, lo, hi, n)
        checked = _checked_values(axis)
        for x, got in zip(axis.values.tolist(), checked.tolist()):
            if stated_violations({name: x}):
                assert math.isnan(got)
            else:
                assert got == x

    def test_period(self, line_params):
        assert line_params.period == pytest.approx(1e-4)


class TestParasiticFree:
    LOSSES = ("r_l", "r_c", "r_m", "v_d")

    def test_zeroes_exactly_the_four_losses(self, line_params):
        ideal = parasitic_free(line_params)
        assert isinstance(ideal, ConverterParams)
        for f in dataclasses.fields(ConverterParams):
            want = 0.0 if f.name in self.LOSSES else getattr(line_params, f.name)
            assert getattr(ideal, f.name) == want
        assert ideal == dataclasses.replace(line_params, r_l=0.0, r_c=0.0, r_m=0.0, v_d=0.0)

    def test_a_field_namespace_gives_the_same_record(self, line_params):
        fields = SimpleNamespace(**dataclasses.asdict(line_params))
        assert parasitic_free(fields) == parasitic_free(line_params)

    def test_the_other_fields_are_checked(self, line_params):
        fields = SimpleNamespace(**{**dataclasses.asdict(line_params), "d": 1.0, "r_l": -1.0})
        with pytest.raises(ParameterError) as exc:
            parasitic_free(fields)
        assert exc.value.violations == [("DutyOutOfRange", "d")]


class TestStepEvent:
    def test_delta(self):
        ev = StepEvent(StepKind.INPUT_VOLTAGE, 0.0, 3.3)
        assert ev.delta == pytest.approx(3.3)

    def test_load_step_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 0.0)
        with pytest.raises(ValueError):
            StepEvent(StepKind.LOAD_RESISTANCE, 0.0, 150.0)

    def test_negative_event_time_rejected(self):
        with pytest.raises(ValueError):
            StepEvent(StepKind.INPUT_VOLTAGE, 0.0, 3.3, t_event=-1e-3)

    def test_negative_before_rejected(self):
        with pytest.raises(ValueError):
            StepEvent(StepKind.INPUT_VOLTAGE, -1.0, 3.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, *NOT_FLOATS])
    @pytest.mark.parametrize("field", ["value_before", "value_after", "t_event"])
    def test_non_finite_values_rejected(self, field, bad):
        values = {"value_before": 1.0, "value_after": 3.0, "t_event": 0.0, field: bad}
        for kind in StepKind:
            with pytest.raises(ValueError, match=field) as exc:
                StepEvent(kind, **values)
            assert len(str(exc.value)) < 80

    @pytest.mark.parametrize("kind", ["input_voltage", "load_resistance", None])
    def test_kind_must_be_a_step_kind(self, kind):
        with pytest.raises(ValueError, match=f"kind must be a StepKind, not {kind!r}"):
            StepEvent(kind, 92.0, 50.0)


class TestWaveform:
    def test_times(self):
        w = Waveform(t0=1.0, dt=0.5, samples=np.array([1.0, 2.0, 3.0]))
        assert np.allclose(w.times, [1.0, 1.5, 2.0])
        assert len(w) == 3

    @given(t0=st.floats(-1e3, 1e3), dt=st.floats(1e-9, 1e2), n=st.integers(1, 5000))
    def test_times_are_the_product_form_bit_for_bit(self, t0, dt, n):
        w = Waveform(t0=t0, dt=dt, samples=np.zeros(n))
        assert w.times.tobytes() == (t0 + dt * np.arange(n)).tobytes()

    def test_times_hold_only_the_result(self):
        # an int arange beside its float product would take 16 B per sample
        n = 200_000
        w = Waveform(t0=0.25, dt=1e-6, samples=np.zeros(n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            times = w.times
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert times.size == n
        assert peak < 1.25 * 8 * n

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            Waveform(t0=0.0, dt=0.0, samples=np.array([1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(t0=0.0, dt=1.0, samples=np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Waveform(t0=0.0, dt=1.0, samples=np.array([1.0, np.nan]))

    def test_samples_are_read_only(self):
        w = Waveform(t0=0.0, dt=1.0, samples=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            w.samples[0] = 5.0


class TestFirstCrossing:
    TS = np.linspace(0.0, 10.0, 101)

    def test_rising_finds_the_first_maximum(self):
        t = _first_crossing(np.cos, self.TS, 1e-12, rising=True)
        assert t == pytest.approx(np.pi / 2, abs=1e-11)

    def test_falling_finds_the_first_minimum(self):
        t = _first_crossing(lambda t: -np.cos(t), self.TS, 1e-12, rising=False)
        assert t == pytest.approx(np.pi / 2, abs=1e-11)

    def test_none_takes_the_first_non_zero_sampled_sign(self):
        # sin(t) is 0 at t = 0 and negative just after: the first minimum
        t = _first_crossing(lambda t: -np.sin(t), self.TS, 1e-12, rising=None)
        assert t == pytest.approx(np.pi, abs=1e-11)

    def test_no_crossing_in_the_scan(self):
        assert _first_crossing(np.exp, self.TS, 1e-12, rising=True) is None
        assert _first_crossing(np.exp, self.TS, 1e-12, rising=False) is None
        assert _first_crossing(np.zeros_like, self.TS, 1e-12, rising=None) is None

    def test_a_sign_jump_without_a_zero_returns_the_bracket_midpoint(self):
        # |slope| is 1 at every time, so 200 bisections close on the jump
        times = []

        def jump(t):
            times.append(t)
            return np.where(np.asarray(t) < 0.25, 1.0, -1.0)

        t = _first_crossing(jump, self.TS, 1e-12, rising=True)
        assert abs(t - 0.25) <= 1e-16 and len(times) == 1 + 200


class TestResponseMetrics:
    def test_overshoot_is_derived_from_the_steady_value_and_the_peak(self):
        assert "overshoot_pct" not in {f.name for f in dataclasses.fields(ResponseMetrics)}
        assert ResponseMetrics(8.0, 10.0, 1e-3).overshoot_pct == pytest.approx(25.0, rel=1e-15)
        assert ResponseMetrics(8.0, 6.0, 1e-3).overshoot_pct == pytest.approx(-25.0, rel=1e-15)

    @pytest.mark.parametrize("v_steady, v_max", [(-2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])
    def test_flat_or_zero_steady_value_overshoots_by_positive_zero(self, v_steady, v_max):
        overshoot = ResponseMetrics(v_steady, v_max, None).overshoot_pct
        assert overshoot == 0.0 and math.copysign(1.0, overshoot) == 1.0
