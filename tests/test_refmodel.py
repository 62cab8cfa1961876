import dataclasses
import itertools
import math

import pytest

from boostdyn.refmodel import fr_step_response, fr_tf
from boostdyn.tfm_line import line_step_metrics, line_tf_coefficients


class TestFrTf:
    def test_coefficients(self, line_params):
        tf = fr_tf(line_params)
        assert tf.a == pytest.approx(line_params.l * line_params.c, rel=1e-14)
        assert tf.b == pytest.approx(line_params.l / line_params.r_0, rel=1e-14)
        assert tf.c == pytest.approx(0.51**2, rel=1e-14)
        assert tf.d_num == 0.0
        assert tf.f_num == pytest.approx(0.51, rel=1e-14)

    def test_steady_value(self, line_params):
        tf = fr_tf(line_params)
        assert line_params.v_i * tf.dc_gain == pytest.approx(6.470588235294117, rel=1e-12)
        assert tf.dc_gain == pytest.approx(1.0 / 0.51, rel=1e-14)

    def test_damping_coefficient_has_rate_units(self, line_params):
        tf = fr_tf(line_params)
        # b/a = 1/(R0 C): a pure rate for any consistent unit system
        assert tf.b / tf.a == pytest.approx(1.0 / (line_params.r_0 * line_params.c), rel=1e-12)


class TestFrStepResponse:
    def test_final_value(self, line_params):
        v = fr_step_response(line_params, 3.3, 1.0)
        assert v == pytest.approx(6.470588235294117, rel=1e-4)

    def test_zero_start(self, line_params):
        assert fr_step_response(line_params, 3.3, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_peak_with_nominal_components(self, line_params):
        tf = fr_tf(line_params)
        v_max = line_step_metrics(tf, 0.0, 3.3)[1]
        # textbook first peak of the zero-free second-order system:
        # Vi/(1-D) (1 + exp(-pi zeta / sqrt(1-zeta^2))), zeta = sqrt(L/C) / (2 R0 (1-D));
        # 11.96476590837739 at 40 digits
        p = line_params
        zeta = math.sqrt(p.l / p.c) / (2.0 * p.r_0 * (1.0 - p.d))
        ratio = 1.0 + math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta**2))
        expected = 3.3 / (1.0 - p.d) * ratio
        assert v_max == pytest.approx(expected, rel=1e-9)
        assert abs(v_max - 11.94) / 11.94 < 0.03

    def test_baseline_overshoot_dominates_parasitic_model(self, line_params):
        # damping only grows with parasitics across the bench neighborhood
        fr_peak = line_step_metrics(fr_tf(line_params), 0.0, line_params.v_i)[1]
        fr_steady = line_params.v_i * fr_tf(line_params).dc_gain
        for r_l, r_c in itertools.product((1.3, 1.5, 1.7), (1.0, 1.3, 1.6)):
            p = dataclasses.replace(line_params, r_l=r_l, r_c=r_c)
            tf = line_tf_coefficients(p)
            steady = p.v_i * tf.dc_gain
            over_fr = fr_peak / fr_steady - 1.0
            over_tfm = line_step_metrics(tf, 0.0, p.v_i)[1] / steady - 1.0
            assert over_fr >= over_tfm

