import dataclasses
import math

import numpy as np
import pytest

from boostdyn.circuit import ConverterParams
from boostdyn.ebm import ebm_metrics, startup_form
from boostdyn.oracle import integrate_second_order
from boostdyn.steady import steady_output
from boostdyn.tfm_line import (
    SecondOrderTF,
    ZeroInputVoltage,
    line_step_metrics,
    line_step_response,
    line_tf_coefficients,
    step_form,
)


def params(**kw) -> ConverterParams:
    base = dict(v_i=3.3, l=1e-3, r_l=1.5, c=42e-6, r_c=1.3, r_m=0.9,
                v_d=0.5, r_0=92.0, d=0.49, f_sw=1e4)
    base.update(kw)
    return ConverterParams(**base)


def random_underdamped(rng) -> SecondOrderTF:
    """Random valid converter whose line TF is oscillatory."""
    while True:
        p = params(
            v_i=rng.uniform(1.0, 20.0),
            l=10 ** rng.uniform(-4, -2),
            c=10 ** rng.uniform(-5.3, -3.3),
            r_0=rng.uniform(10.0, 500.0),
            d=rng.uniform(0.15, 0.8),
            r_l=rng.uniform(0.0, 2.0),
            r_c=rng.uniform(0.0, 2.0),
            r_m=rng.uniform(0.0, 2.0),
            v_d=rng.uniform(0.0, 0.8),
        )
        tf = line_tf_coefficients(p)
        if tf.discriminant > 0:
            return tf


class TestCoefficients:
    def test_line_bench_values(self, line_params):
        tf = line_tf_coefficients(line_params)
        assert tf.a == pytest.approx(93.3 * 1e-3 * 42e-6, rel=1e-12)
        # b = L + (R_L + D R_M) C (R0 + R_C) + (1-D)^2 C R0 R_C, in exact decimals
        # 0.001 + 1.941 * 42e-6 * 93.3 + 0.51^2 * 42e-6 * 92 * 1.3
        # = 0.001 + 0.0076060026 + 0.00130653432 = 0.00991253692 exactly
        assert tf.b == pytest.approx(9.91253692e-3, rel=1e-12)
        assert tf.c == pytest.approx(26.20833, rel=1e-6)
        assert tf.d_num == pytest.approx(2.561832e-3, rel=1e-9)
        assert tf.f_num == pytest.approx(43.29436363636364, rel=1e-12)

    def test_dc_gain_matches_steady_output(self, line_params):
        tf = line_tf_coefficients(line_params)
        assert line_params.v_i * tf.dc_gain == pytest.approx(
            steady_output(line_params), rel=1e-12
        )
        assert abs(line_params.v_i * tf.dc_gain - 5.45) < 0.01

    def test_no_cap_esr_kills_the_zero(self, line_params):
        tf = line_tf_coefficients(dataclasses.replace(line_params, r_c=0.0))
        assert tf.d_num == 0.0

    def test_zero_parasitics_reduces_to_baseline_tf(self, line_params):
        bare = dataclasses.replace(line_params, r_l=0.0, r_c=0.0, r_m=0.0, v_d=0.0)
        tf = line_tf_coefficients(bare)
        for s in (0.0 + 0.0j, 100.0j):
            ours = np.polyval([tf.d_num, tf.f_num], s) / np.polyval([tf.a, tf.b, tf.c], s)
            # the textbook (1-D) / (LC s^2 + (L/R0) s + (1-D)^2)
            one_d = 1.0 - bare.d
            theirs = one_d / (bare.l * bare.c * s * s + bare.l / bare.r_0 * s + one_d * one_d)
            assert ours == pytest.approx(theirs, rel=1e-12)

    def test_requires_positive_input_voltage(self, line_params):
        dead = dataclasses.replace(line_params, v_i=0.0)
        with pytest.raises(ZeroInputVoltage):
            line_tf_coefficients(dead)


class TestStepResponse:
    def test_starts_at_zero(self, line_params):
        tf = line_tf_coefficients(line_params)
        assert line_step_response(tf, 3.3, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_final_value(self, line_params):
        tf = line_tf_coefficients(line_params)
        decay = tf.b / (2.0 * tf.a)
        t_long = 14.0 / decay
        assert line_step_response(tf, 3.3, t_long) == pytest.approx(
            3.3 * tf.dc_gain, rel=1e-5
        )

    def test_matches_ode_integration(self, line_params):
        tf = line_tf_coefficients(line_params)
        k = 3.3
        dt = 2e-7
        wave = integrate_second_order(
            tf.a, tf.b, tf.c, tf.f_num * k, 0.0, k * tf.d_num / tf.a, dt, 0.01
        )
        analytic = line_step_response(tf, k, wave.times)
        steady = k * tf.dc_gain
        assert np.max(np.abs(wave.samples - analytic)) < 1e-3 * steady

    def test_overdamped_fallback_matches_ode(self):
        p = params(l=5e-5, r_l=4.0, r_c=0.2)
        tf = line_tf_coefficients(p)
        assert tf.discriminant <= 0
        k = 3.3
        dt = 5e-8
        wave = integrate_second_order(
            tf.a, tf.b, tf.c, tf.f_num * k, 0.0, k * tf.d_num / tf.a, dt, 0.004
        )
        analytic = line_step_response(tf, k, wave.times)
        assert np.max(np.abs(wave.samples - analytic)) < 1e-3 * k * tf.dc_gain

    def test_critically_damped_branch(self):
        tf = SecondOrderTF(a=1.0, b=2.0, c=1.0, d_num=0.5, f_num=2.0)
        assert tf.discriminant == 0.0
        dt = 1e-4
        wave = integrate_second_order(1.0, 2.0, 1.0, 2.0, 0.0, 0.5, dt, 20.0)
        analytic = line_step_response(tf, 1.0, wave.times)
        assert np.max(np.abs(wave.samples - analytic)) < 1e-6 * tf.dc_gain


class TestStepForm:
    def test_initial_conditions_and_final_value(self, line_params):
        tf = line_tf_coefficients(line_params)
        form = step_form(tf, 2.5)
        assert (form.v0, form.dv0) == (0.0, 2.5 * tf.d_num / tf.a)
        assert form.v_inf == pytest.approx(2.5 * tf.dc_gain, rel=1e-15)
        assert form.omega0 == pytest.approx(math.sqrt(tf.c / tf.a), rel=1e-15)
        assert form.xi == pytest.approx(tf.b / (2.0 * math.sqrt(tf.a * tf.c)), rel=1e-15)

    def test_damping_branch_follows_the_discriminant(self, line_params):
        under = line_tf_coefficients(line_params)
        over = line_tf_coefficients(params(l=5e-5, r_l=4.0, r_c=0.2))
        assert not step_form(under, 1.0).overdamped
        assert step_form(over, 1.0).overdamped


class TestPeak:
    def test_peak_time_against_dense_sampling(self, line_params):
        tf = line_tf_coefficients(line_params)
        t_p = line_step_metrics(tf, 0.0, 3.3)[2]
        ts = np.linspace(0.0, 3.0 * t_p, 30001)
        resp = line_step_response(tf, 3.3, ts)
        k = int(np.argmax(resp))
        y0, y1, y2 = resp[k - 1], resp[k], resp[k + 1]
        refined = ts[k] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (ts[1] - ts[0])
        assert t_p == pytest.approx(refined, rel=1e-3)

    def test_undamped_limit_is_half_period(self):
        tf = SecondOrderTF(a=1.0, b=1e-9, c=4.0, d_num=0.0, f_num=1.0)
        omega_d = math.sqrt(4.0 * tf.a * tf.c - tf.b**2) / (2.0 * tf.a)
        assert line_step_metrics(tf, 0.0, 1.0)[2] == pytest.approx(math.pi / omega_d, rel=1e-6)

    def test_peak_time_consistent_with_energy_model(self, line_params):
        tf = line_tf_coefficients(line_params)
        ebm_tp = ebm_metrics(startup_form(line_params)).t_p
        assert abs(line_step_metrics(tf, 0.0, 3.3)[2] - ebm_tp) / ebm_tp < 0.15

    def test_line_bench_peak_voltage(self, line_params):
        tf = line_tf_coefficients(line_params)
        v_max = line_step_metrics(tf, 0.0, 3.3)[1]
        assert v_max == pytest.approx(6.399969114856071, rel=1e-9)
        assert abs(v_max - 6.40) / 6.40 < 0.02

    def test_measured_component_column(self, line_params_measured):
        tf = line_tf_coefficients(line_params_measured)
        v_max = line_step_metrics(tf, 0.0, 3.3)[1]
        assert abs(v_max - 6.74) / 6.74 < 0.05

    def test_vanishing_parasitics_approach_full_overshoot(self, line_params):
        bare = dataclasses.replace(
            line_params, r_l=1e-4, r_c=1e-4, r_m=1e-4, v_d=1e-4
        )
        tf = line_tf_coefficients(bare)
        v_max = line_step_metrics(tf, 0.0, bare.v_i)[1]
        steady = bare.v_i * tf.dc_gain
        # the limit is the FR system, still damped by the load:
        # zeta = sqrt(L/C) / (2 R0 (1-D)), peak/steady = 1 + exp(-pi zeta / sqrt(1-zeta^2))
        zeta = math.sqrt(bare.l / bare.c) / (2.0 * bare.r_0 * (1.0 - bare.d))
        limit = 1.0 + math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta**2))
        assert v_max / steady == pytest.approx(limit, rel=1e-3)
        assert v_max < 2.0 * steady

    def test_overdamped_has_no_peak(self):
        p = params(l=5e-5, r_l=4.0)
        tf = line_tf_coefficients(p)
        v_steady, v_max, t_p = line_step_metrics(tf, 0.0, 3.3)
        assert math.isnan(t_p)
        assert v_max == v_steady == pytest.approx(3.3 * tf.dc_gain, rel=1e-15)

    def test_peak_voltage_equals_response_at_peak_time(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            tf = random_underdamped(rng)
            _, direct, t_p = line_step_metrics(tf, 0.0, 1.0)
            sampled = line_step_response(tf, 1.0, t_p)
            assert abs(direct - sampled) <= 1e-9 * abs(direct)

    def test_dc_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tf = random_underdamped(rng)
            resp = line_step_response(tf, 1.0, 20.0 / (tf.b / (2.0 * tf.a)))
            assert resp == pytest.approx(tf.dc_gain, rel=1e-6)
