import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from boostdyn import StepEvent, StepKind, analysis, cli
from boostdyn.circuit import parasitic_free
from boostdyn.refmodel import fr_step_response
from boostdyn.tfm_line import (ZeroInputVoltage, line_step_metrics, line_step_response,
                               line_tf_coefficients)

CONVERTERS = ("line_params", "line_params_measured", "load_params", "fast_params")


def fr_tf(p):
    """FR's transfer function: the line TF of the ideal converter."""
    return line_tf_coefficients(parasitic_free(p))


class TestFrTf:
    def test_coefficients(self, line_params):
        # the textbook (1-D) / (LC s^2 + (L/R0) s + (1-D)^2), times R0
        tf, r_0 = fr_tf(line_params), line_params.r_0
        assert tf.a / r_0 == pytest.approx(line_params.l * line_params.c, rel=1e-14)
        assert tf.b / r_0 == pytest.approx(line_params.l / r_0, rel=1e-14)
        assert tf.c / r_0 == pytest.approx(0.51**2, rel=1e-14)
        assert tf.d_num == 0.0
        assert tf.f_num / r_0 == pytest.approx(0.51, rel=1e-14)

    def test_steady_value(self, line_params):
        tf = fr_tf(line_params)
        assert line_params.v_i * tf.dc_gain == pytest.approx(6.470588235294117, rel=1e-12)
        assert tf.dc_gain == pytest.approx(1.0 / 0.51, rel=1e-14)
        cold = StepEvent(StepKind.INPUT_VOLTAGE, 0.0, line_params.v_i)
        m = analysis.closed_form_metrics(line_params, cold, "fr")
        assert m.v_steady == pytest.approx(line_params.v_i / 0.51, rel=1e-14)

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

    @pytest.mark.parametrize("converter", CONVERTERS)
    def test_is_the_ideal_line_step_response(self, request, converter):
        p = request.getfixturevalue(converter)
        t = np.linspace(0.0, 0.02, 201)
        want = line_step_response(line_tf_coefficients(parasitic_free(p)), 1.7, t)
        assert np.array_equal(fr_step_response(p, 1.7, t), want)

    def test_peak_with_nominal_components(self, line_params):
        cold = StepEvent(StepKind.INPUT_VOLTAGE, 0.0, 3.3)
        m = analysis.closed_form_metrics(line_params, cold, "fr")
        # textbook first peak of the zero-free second-order system:
        # Vi/(1-D) (1 + exp(-pi zeta / sqrt(1-zeta^2))), zeta = sqrt(L/C) / (2 R0 (1-D));
        # 11.96476590837739 at 40 digits, at t_p = pi / w_d
        p = line_params
        zeta = math.sqrt(p.l / p.c) / (2.0 * p.r_0 * (1.0 - p.d))
        ratio = 1.0 + math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta**2))
        expected = 3.3 / (1.0 - p.d) * ratio
        assert m.v_max == pytest.approx(expected, rel=1e-9)
        w_d = (1.0 - p.d) / math.sqrt(p.l * p.c) * math.sqrt(1.0 - zeta**2)
        assert m.t_p == pytest.approx(math.pi / w_d, rel=1e-9)
        assert abs(m.v_max - 11.94) / 11.94 < 0.03

    def test_baseline_overshoot_dominates_parasitic_model(self, line_params):
        # damping only grows with parasitics across the bench neighborhood
        cold = StepEvent(StepKind.INPUT_VOLTAGE, 0.0, line_params.v_i)
        fr = analysis.closed_form_metrics(line_params, cold, "fr")
        for r_l, r_c in itertools.product((1.3, 1.5, 1.7), (1.0, 1.3, 1.6)):
            p = dataclasses.replace(line_params, r_l=r_l, r_c=r_c)
            tf = line_tf_coefficients(p)
            steady = p.v_i * tf.dc_gain
            over_fr = fr.v_max / fr.v_steady - 1.0
            over_tfm = line_step_metrics(tf, 0.0, p.v_i)[1] / steady - 1.0
            assert over_fr >= over_tfm


class TestFrIsTheIdealTfm:
    """FR's input step is the TFM input step of ``parasitic_free(p)``."""

    @pytest.mark.parametrize("converter", CONVERTERS)
    @pytest.mark.parametrize("start, t_event", [(0.0, 0.0), (0.6, 0.0), (0.6, 1e-3)],
                             ids=["cold", "warm", "warm-late"])
    def test_bit_for_bit(self, request, converter, start, t_event):
        p = request.getfixturevalue(converter)
        event = StepEvent(StepKind.INPUT_VOLTAGE, start * p.v_i, p.v_i, t_event)
        fr = analysis.closed_form(p, event, "fr")
        tfm = analysis.closed_form(parasitic_free(p), event, "tfm")
        assert fr.metrics == tfm.metrics
        assert fr.before == tfm.before
        t = np.linspace(0.0, 0.02, 401)
        assert np.array_equal(fr.after(t), tfm.after(t))

    def test_a_step_to_zero_volts_is_refused(self, line_params):
        p = dataclasses.replace(line_params, v_i=0.0)
        with pytest.raises(ZeroInputVoltage):
            analysis.closed_form(p, StepEvent(StepKind.INPUT_VOLTAGE, 2.0, 0.0), "fr")

    def test_the_cli_exits_3_on_a_step_to_zero_volts(self, line_params, tmp_path, capsys):
        converter = {**dataclasses.asdict(line_params), "v_i": 0.0}
        event = {"kind": "input_voltage", "value_before": 2.0, "value_after": 0.0}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"converter": converter, "event": event}))
        assert cli.main(["predict", "--model", "fr", "--config", str(config)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ZeroInputVoltage"
