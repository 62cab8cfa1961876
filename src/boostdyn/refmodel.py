"""Conventional parasitic-free second-order model, kept as the comparison
baseline.  Its transfer function is the zero-parasitics limit of the line
model (after normalizing by the load), and its steady value is the ideal
boost ratio, independent of the load."""

from __future__ import annotations

from .circuit import ConverterParams
from .tfm_line import SecondOrderTF, line_step_response


def fr_tf(p: ConverterParams) -> SecondOrderTF:
    """Ideal second-order transfer function (1-D) / (LC s^2 + (L/R0) s + (1-D)^2)."""
    one_d = 1.0 - p.d
    return SecondOrderTF(
        a=p.l * p.c,
        b=p.l / p.r_0,
        c=one_d * one_d,
        d_num=0.0,
        f_num=one_d,
    )


def fr_step_response(p: ConverterParams, k: float, t):
    """Baseline response to an input step of magnitude ``k``."""
    return line_step_response(fr_tf(p), k, t)

