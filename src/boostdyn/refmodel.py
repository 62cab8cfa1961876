"""Conventional parasitic-free second-order model, kept as the comparison
baseline.  It is the line TFM of the ideal converter,
``circuit.parasitic_free(p)``: its transfer function is that TF, and its
steady value the ideal boost ratio, independent of the load."""

from __future__ import annotations

from .circuit import ConverterParams, parasitic_free
from .tfm_line import line_step_response, line_tf_coefficients


def fr_step_response(p: ConverterParams, k: float, t):
    """Baseline response to an input step of magnitude ``k``."""
    return line_step_response(line_tf_coefficients(parasitic_free(p)), k, t)
