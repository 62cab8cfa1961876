"""The abstract's headline error reductions, reproduced against the measured
reference scalars (``reference="aer"``) on the two bench experiments.

The abstract reports steady- and dynamic-state errors of the conventional
model (FR here) and of the proposed transfer-function model (TFM), and the
factors between them: 11.0 (20.9 % to 1.9 %) and 15.4 (77.1 % to 5.0 %)
under input-voltage variation, 10.2 (15.3 % to 1.5 %) and 35.1 under load
variation.

What matches: the input-step side. Its four errors round to the paper's
except FR dynamic, 77.5 % against 77.1 %, and its two factors, 11.05 and
15.37, are within 0.1 of the paper's.

What does not: the load-step side. FR steady is 13.6 % against 15.3 % and
TFM steady 1.63 % against 1.5 %, a factor of 8.4 against 10.2; FR dynamic
is 25.5 % against TFM's 0.21 %, a factor of 121 against 35.1. FR's load
step here stays flat at Vi/(1-D), which is this package's own choice, not
the paper's; FR is not bent to fit. The load-step figures are pinned as
they are, as a regression check.
"""

import pytest

from boostdyn import StepEvent, StepKind, analysis

PIN = 1e-9


def test_input_step_errors_and_factors(line_params):
    table = analysis.compare_models(
        line_params, StepEvent(StepKind.INPUT_VOLTAGE, 0.0, line_params.v_i), reference="aer")
    fr, tfm = table.row("fr"), table.row("tfm")
    assert fr.steady_error_pct == pytest.approx(20.945574491478844, rel=PIN)
    assert tfm.steady_error_pct == pytest.approx(1.8948348843259226, rel=PIN)
    assert fr.dynamic_error_pct == pytest.approx(77.51878202340336, rel=PIN)
    assert tfm.dynamic_error_pct == pytest.approx(5.044968622313491, rel=PIN)
    assert fr.steady_error_pct / tfm.steady_error_pct == pytest.approx(11.0, abs=0.1)
    assert fr.dynamic_error_pct / tfm.dynamic_error_pct == pytest.approx(15.4, abs=0.1)


def test_load_step_errors(load_params):
    table = analysis.compare_models(
        load_params, StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 150.0), reference="aer")
    fr, tfm = table.row("fr"), table.row("tfm")
    assert fr.steady_error_pct == pytest.approx(13.636363636363628, rel=PIN)
    assert tfm.steady_error_pct == pytest.approx(1.6250924647871274, rel=PIN)
    assert fr.dynamic_error_pct == pytest.approx(25.539836187639608, rel=PIN)
    assert tfm.dynamic_error_pct == pytest.approx(0.21167254283938594, rel=PIN)
