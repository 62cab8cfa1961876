import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boostdyn import ebm
from boostdyn.circuit import PEAK_SLOPE_TOL, ConverterParams, ResponseMetrics, _first_crossing
from boostdyn.ebm import (
    OdeCoefficients,
    SecondOrderForm,
    ebm_metrics,
    ebm_response,
    initial_slope_for_load_step,
    load_step_form,
    ode_coefficients,
    response_slope,
    startup_form,
    to_standard_form,
)
from boostdyn.oracle import integrate_second_order
from boostdyn.steady import steady_output


def params(**kw) -> ConverterParams:
    base = dict(v_i=5.0, l=1e-3, r_l=1.4, c=43e-6, r_c=1.0, r_m=0.8,
                v_d=0.4, r_0=10.0, d=0.50, f_sw=1e4)
    base.update(kw)
    return ConverterParams(**base)


valid_params = st.builds(
    params,
    v_i=st.floats(1.0, 40.0),
    l=st.floats(1e-4, 1e-2),
    c=st.floats(5e-6, 5e-4),
    r_0=st.floats(5.0, 500.0),
    d=st.floats(0.1, 0.85),
    r_l=st.floats(0.0, 4.0),
    r_c=st.floats(0.0, 4.0),
    r_m=st.floats(0.0, 4.0),
    v_d=st.floats(0.0, 0.9),
)


class TestOdeCoefficients:
    def test_line_bench_values(self, line_params):
        co = ode_coefficients(line_params)
        assert co.m2 == pytest.approx(4.2e-8, rel=1e-12)
        assert co.m1 == pytest.approx(1e-3 / 92 + 42e-6 * (1.5 + 0.49 * 0.9), rel=1e-12)
        assert co.m1 == pytest.approx(9.239e-5, rel=1e-4)
        assert co.m0 == pytest.approx(0.28487, rel=1e-4)
        assert co.forcing == pytest.approx(1.55295, rel=1e-10)

    def test_lossless_limit(self):
        p = params(r_l=0.0, r_c=0.0, r_m=0.0, v_d=0.0)
        co = ode_coefficients(p)
        assert co.m0 == pytest.approx((1 - p.d) ** 2, rel=1e-13)
        assert co.forcing == pytest.approx((1 - p.d) * p.v_i, rel=1e-13)

    @pytest.mark.parametrize("r_0", [0.0, -10.0])
    def test_an_overriding_load_must_be_positive(self, r_0):
        with pytest.raises(ValueError, match="load resistance must be > 0"):
            ode_coefficients(params(), r_0=r_0)

    @given(valid_params)
    @settings(max_examples=200)
    def test_dc_limit_is_steady_output(self, p):
        co = ode_coefficients(p)
        assert co.forcing / co.m0 == pytest.approx(steady_output(p), rel=1e-12)


class TestStandardForm:
    def test_line_bench_values(self, line_params):
        form = startup_form(line_params)
        assert form.omega0 == pytest.approx(2604.36, rel=1e-4)
        assert form.xi == pytest.approx(0.42233, rel=1e-4)
        assert form.v_inf == pytest.approx(5.451373666311436, rel=1e-12)
        assert form.omega_d == pytest.approx(
            form.omega0 * math.sqrt(1 - form.xi**2), rel=1e-14
        )

    def test_zero_damping(self):
        co = ode_coefficients(params())
        co = dataclasses.replace(co, m1=0.0)
        form = to_standard_form(co, 0.0, 0.0)
        assert form.xi == 0.0
        assert not form.overdamped

    def test_v_inf_independent_of_damping(self):
        co = ode_coefficients(params())
        doubled = dataclasses.replace(co, m1=2 * co.m1)
        assert to_standard_form(co, 0, 0).v_inf == to_standard_form(doubled, 0, 0).v_inf


class TestResponse:
    def test_initial_conditions_exact(self, line_params):
        form = load_step_form(line_params, 92.0, 150.0)
        assert ebm_response(form, 0.0) == pytest.approx(form.v0, abs=1e-12)
        dt = 1e-9
        slope = (ebm_response(form, dt) - ebm_response(form, 0.0)) / dt
        assert slope == pytest.approx(form.dv0, rel=1e-4)
        assert response_slope(form, 0.0) == pytest.approx(form.dv0, rel=1e-12)

    def test_asymptote(self, line_params):
        form = startup_form(line_params)
        t_long = 10.0 / (form.xi * form.omega0)
        assert ebm_response(form, t_long) == pytest.approx(form.v_inf, rel=1e-4)

    def test_startup_peak_matches_bench_table(self, line_params):
        m = ebm_metrics(startup_form(line_params))
        assert m.v_max == pytest.approx(6.712663876460128, rel=1e-9)
        assert abs(m.v_max - 6.71) / 6.71 < 0.02

    def test_matches_fixed_step_integration_startup(self, line_params):
        form = startup_form(line_params)
        co = ode_coefficients(line_params)
        dt = 1.0 / (1000.0 * form.omega0)
        t_end = 8.0 / (form.xi * form.omega0)
        wave = integrate_second_order(co.m2, co.m1, co.m0, co.forcing, 0.0, 0.0, dt, t_end)
        analytic = ebm_response(form, wave.times)
        assert np.max(np.abs(wave.samples - analytic)) < 1e-3 * form.v_inf

    def test_matches_fixed_step_integration_load_step(self, load_params):
        form = load_step_form(load_params, 10.0, 150.0)
        co = ode_coefficients(load_params, r_0=150.0)
        dt = 1.0 / (1000.0 * form.omega0)
        t_end = 8.0 / (form.xi * form.omega0)
        wave = integrate_second_order(
            co.m2, co.m1, co.m0, co.forcing, form.v0, form.dv0, dt, t_end
        )
        analytic = ebm_response(form, wave.times)
        assert np.max(np.abs(wave.samples - analytic)) < 1e-3 * form.v_inf

    def test_overdamped_branch_matches_integration(self):
        p = params(l=5e-5, r_l=4.0)
        form = startup_form(p)
        assert form.overdamped
        co = ode_coefficients(p)
        dt = 1.0 / (1000.0 * form.omega0)
        wave = integrate_second_order(co.m2, co.m1, co.m0, co.forcing, 0.0, 0.0, dt, 0.02)
        analytic = ebm_response(form, wave.times)
        assert np.max(np.abs(wave.samples - analytic)) < 1e-3 * form.v_inf

    def test_non_finite_time_rejected(self, line_params):
        form = startup_form(line_params)
        with pytest.raises(Exception):
            ebm_response(form, float("nan"))

    @given(valid_params)
    @settings(max_examples=150)
    def test_settles_to_steady_output(self, p):
        form = startup_form(p)
        # slowest decay rate: xi*w0 when oscillatory, the slow real pole otherwise
        if form.xi < 1.0:
            rate = form.xi * form.omega0
        else:
            rate = form.omega0 * (form.xi - math.sqrt(form.xi**2 - 1.0))
        # from rest, |v/v_inf - 1| <= (1 + x) e^-x after x slow time constants
        # (|sin(wd t)/wd| <= t; tight near critical damping): x = 20 gives
        # 21 e^-20 = 4.3e-8, inside rel=1e-6, while x = 16 gives 1.9e-6
        v_end = ebm_response(form, 20.0 / rate)
        assert v_end == pytest.approx(steady_output(p), rel=1e-6)


NEAR_CRITICAL = [0.0] + [sign * eps for eps in (1e-6, 1e-9, 1e-12, 1e-14) for sign in (1, -1)]


def damped_coefficients(line_params, xi: float):
    """The line bench's ODE with its damping set to ``xi``."""
    co = ode_coefficients(line_params)
    return dataclasses.replace(co, m1=2.0 * xi * co.m2 * math.sqrt(co.m0 / co.m2))


class TestNearCritical:
    """Forms within rounding of critical damping keep every digit."""

    @pytest.mark.parametrize("eps", NEAR_CRITICAL)
    @pytest.mark.parametrize("v0, dv0", [(0.0, 0.0), (2.0, 3e4)], ids=["rest", "moving"])
    def test_response_matches_integration(self, line_params, eps, v0, dv0):
        co = damped_coefficients(line_params, 1.0 + eps)
        form = to_standard_form(co, v0, dv0)
        assert (form.xi > 1.0, form.xi < 1.0) == (eps > 0.0, eps < 0.0)
        dt = 1.0 / (200.0 * form.omega0)
        wave = integrate_second_order(co.m2, co.m1, co.m0, co.forcing, v0, dv0, dt,
                                      30.0 / form.omega0)
        error = np.max(np.abs(wave.samples - ebm_response(form, wave.times)))
        assert error < 1e-12 * abs(form.v_inf)

    @pytest.mark.parametrize("eps", [1e-14, -1e-14])
    @pytest.mark.parametrize("v0, dv0", [(0.0, 0.0), (2.0, 3e4)], ids=["rest", "moving"])
    def test_slope_matches_the_critical_slope(self, line_params, eps, v0, dv0):
        form = to_standard_form(damped_coefficients(line_params, 1.0 + eps), v0, dv0)
        critical = dataclasses.replace(form, xi=1.0)
        t = np.linspace(0.0, 30.0 / form.omega0, 3001)
        exact = response_slope(critical, t)
        assert np.max(np.abs(response_slope(form, t) - exact)) < 1e-12 * np.max(np.abs(exact))

    def test_strongly_overdamped_form_stays_finite(self):
        co = OdeCoefficients(m2=1.0, m1=2.0 * 50.0 * 100.0, m0=1e4, forcing=5e4)
        form = to_standard_form(co, 7.0, -300.0)
        t = np.array([0.0, 1.0, 30.0, 1e4])
        assert np.all(np.isfinite(response_slope(form, t)))
        assert ebm_response(form, t)[-1] == form.v_inf == 5.0


class TestInitialSlope:
    def test_bench_example(self):
        slope = initial_slope_for_load_step(5.275, 43e-6, 10.0, 150.0)
        assert slope == pytest.approx(2.290e4, rel=1e-3)

    def test_no_step_no_slope(self):
        assert initial_slope_for_load_step(5.0, 43e-6, 30.0, 30.0) == 0.0

    def test_load_decrease_gives_negative_slope(self):
        assert initial_slope_for_load_step(5.0, 43e-6, 150.0, 10.0) < 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            initial_slope_for_load_step(5.0, 0.0, 10.0, 150.0)


class TestMetrics:
    def test_load_bench_pipeline(self, load_params):
        m = ebm_metrics(load_step_form(load_params, 10.0, 150.0))
        assert m.v_steady == pytest.approx(9.102402022756005, rel=1e-9)
        # frozen from this implementation; the published table's 12.56 V
        # follows a different reading of the response formula
        assert m.v_max == pytest.approx(13.390997345367976, rel=1e-9)
        assert m.t_p == pytest.approx(6.995904561878e-4, rel=1e-6)

    def test_startup_peak_time_is_half_damped_period(self, line_params):
        form = startup_form(line_params)
        m = ebm_metrics(form)
        assert m.t_p == pytest.approx(math.pi / form.omega_d, rel=1e-6)

    def test_overdamped_zero_state_has_no_peak(self):
        p = params(l=5e-5, r_l=4.0)
        form = startup_form(p)
        assert form.overdamped
        m = ebm_metrics(form)
        assert "no-peak" in m.flags
        assert m.t_p is None
        assert m.v_max == pytest.approx(form.v_inf)

    def test_flat_start_reports_no_peak(self, load_params):
        form = load_step_form(load_params, 10.0, 10.0)
        m = ebm_metrics(form)
        assert m.t_p is None
        assert m.v_max == pytest.approx(m.v_steady)

    def test_zero_state_overshoot_identity(self, line_params):
        form = startup_form(line_params)
        m = ebm_metrics(form)
        xi = form.xi
        expected = form.v_inf * (1.0 + math.exp(-xi * math.pi / math.sqrt(1 - xi * xi)))
        assert m.v_max == pytest.approx(expected, rel=1e-9)

    def test_positive_slope_raises_peak(self, load_params):
        lifted = load_step_form(load_params, 10.0, 150.0)
        flat = dataclasses.replace(lifted, dv0=0.0)
        assert lifted.dv0 > 0.0
        assert ebm_metrics(lifted).v_max >= ebm_metrics(flat).v_max


def parent_pair(form, t):
    """``ebm._damped_pair`` as it was before the shared products: wd t
    formed once for the cosine and again for the sine."""
    sigma = form.xi * form.omega0
    if form.xi < 1.0:
        wd = form.omega_d
        return np.exp(-sigma * t), np.cos(wd * t), np.sin(wd * t) / wd
    if form.xi == 1.0:
        return np.exp(-sigma * t), 1.0, t
    delta = form.omega0 * math.sqrt((form.xi - 1.0) * (form.xi + 1.0))
    rise = -np.expm1(-2.0 * delta * t)
    return (np.exp(-form.omega0 ** 2 / (sigma + delta) * t), 1.0 - 0.5 * rise,
            rise / (2.0 * delta))


def parent_metrics(form):
    """``ebm_metrics`` as it was before the shared products: an
    ``np.linspace`` scan built on every solve, over ``parent_pair``."""
    vinf = form.v_inf
    scale = max(abs(vinf), abs(form.v0), 1e-30)
    if abs(form.v0 - vinf) < 1e-12 * scale and abs(form.dv0) < 1e-12 * scale * form.omega0:
        return ResponseMetrics(vinf, vinf, None, flags=("no-peak",))
    t_hi = 2.0 * math.pi / form.omega_d if form.xi < 1.0 else 20.0 / form.omega0
    flags = ("overdamped",) if form.overdamped else ()
    tol = PEAK_SLOPE_TOL * form.omega0 * max(abs(vinf), 1e-30)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ebm, "_damped_pair", parent_pair)
        t_p = _first_crossing(partial(response_slope, form), np.linspace(0.0, t_hi, 257),
                              tol, rising=True)
        if t_p is None:
            return ResponseMetrics(vinf, vinf, None, flags=flags + ("no-peak",))
        return ResponseMetrics(vinf, float(ebm_response(form, t_p)), t_p, flags=flags)


def scan_of(form):
    """The grid ``ebm_metrics`` hands ``_first_crossing`` for ``form``."""
    grids = []

    def spy(slope, ts, tol, rising):
        grids.append(ts.copy())
        return _first_crossing(slope, ts, tol, rising)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ebm, "_first_crossing", spy)
        ebm_metrics(form)
    assert len(grids) == 1
    return grids[0]


def bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


#: damping ratios: ringing, exactly critical, within 1e-9 of it either way, overdamped
DAMPING = st.one_of(st.floats(0.01, 0.999), st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9]),
                    st.floats(1.001, 50.0))


@st.composite
def step_forms(draw):
    """Cold (from rest), warm (from another level, at rest) and load-step
    (from another level, moving) forms at every damping of ``DAMPING``."""
    w0 = draw(st.floats(1e2, 1e6))
    v_inf = draw(st.floats(0.5, 40.0))
    start = draw(st.sampled_from(["cold", "warm", "load"]))
    v0 = 0.0 if start == "cold" else v_inf * draw(st.floats(0.1, 1.9))
    dv0 = w0 * v_inf * draw(st.floats(-2.0, 2.0)) if start == "load" else 0.0
    return SecondOrderForm(xi=draw(DAMPING), omega0=w0, v_inf=v_inf, v0=v0, dv0=dv0)


class TestSharedScan:
    """The peak search's shared products leave every answer bit for bit."""

    @given(u=st.floats(-9.0, 6.0), xi=st.sampled_from([0.3, 2.0]))
    @settings(max_examples=200, derandomize=True)
    def test_grid_is_linspace_bit_for_bit(self, u, xi):
        # omega0 puts the scan's end, one damped period or 20/omega0, at 10**u
        t_end = 10.0 ** u
        w0 = 2.0 * math.pi / (t_end * math.sqrt(1.0 - xi * xi)) if xi < 1.0 else 20.0 / t_end
        form = SecondOrderForm(xi=xi, omega0=w0, v_inf=5.0, v0=0.0, dv0=0.0)
        t_hi = 2.0 * math.pi / form.omega_d if xi < 1.0 else 20.0 / form.omega0
        grid = scan_of(form)
        assert grid[-1] == t_hi
        assert bits(grid) == bits(np.linspace(0.0, t_hi, 257))

    @given(step_forms())
    @settings(max_examples=400, derandomize=True)
    def test_metrics_equal_the_parent_search(self, form):
        assert ebm_metrics(form) == parent_metrics(form)

    @pytest.mark.parametrize("xi", [0.2, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 3.0])
    @pytest.mark.parametrize("v0, dv0", [(0.0, 0.0), (2.0, 0.0), (2.0, 3e4)],
                             ids=["cold", "warm", "load"])
    def test_metrics_equal_the_parent_search_on_the_line_bench(self, line_params, xi, v0, dv0):
        form = to_standard_form(damped_coefficients(line_params, xi), v0, dv0)
        assert ebm_metrics(form) == parent_metrics(form)

    def test_shared_index_is_read_only_and_unchanged(self, line_params, load_params):
        index = ebm._SCAN_INDEX
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1.0
        for xi in (0.05, 0.5, 1.0, 1.5, 20.0):
            for v0, dv0 in ((0.0, 0.0), (2.0, 0.0), (2.0, 3e4)):
                ebm_metrics(to_standard_form(damped_coefficients(line_params, xi), v0, dv0))
        ebm_metrics(load_step_form(load_params, 10.0, 150.0))
        assert ebm._SCAN_INDEX is index and not index.flags.writeable
        assert bits(index) == bits(np.arange(257.0))
