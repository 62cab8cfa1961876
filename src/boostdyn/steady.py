"""Closed-form steady-state operating point of the non-ideal Boost converter.

The corrected steady form divides the duty-weighted source drive by the
loss-augmented load term, with the capacitor ESR entering through the same
(1-D)^2 weight as the load itself:

    V_o = [Vi(1-D)R0 - Vd(1-D)^2 R0] / [(1-D)^2 R0 + RL + D RM + (1-D)^2 RC]

Dropping every parasitic recovers the ideal boost ratio Vi/(1-D).
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

from .circuit import ConverterParams, DischargedSourceWarning


class InductorCurrents(NamedTuple):
    """Average output-side current and average inductor current, amps."""

    i_out: float
    i_inductor: float


def loss_denominator(p: ConverterParams) -> float:
    """(1-D)^2 R0 + RL + D RM + (1-D)^2 RC, the shared steady-state denominator."""
    q = (1.0 - p.d) ** 2
    return q * p.r_0 + p.r_l + p.d * p.r_m + q * p.r_c


def steady_output(p: ConverterParams) -> float:
    """Steady output voltage with conduction losses and both ESRs included.

    If the source cannot forward-bias the diode (numerator would go
    negative) the output is clamped at 0 V and a DischargedSourceWarning
    is emitted; the physical diode blocks reverse flow.
    """
    den = loss_denominator(p)
    q = (1.0 - p.d) ** 2
    num = p.v_i * (1.0 - p.d) * p.r_0 - p.v_d * q * p.r_0
    if num < 0:
        warnings.warn(
            "source voltage below diode threshold; clamping steady output to 0 V",
            DischargedSourceWarning,
            stacklevel=2,
        )
        return 0.0
    return num / den


def steady_inductor_current(p: ConverterParams) -> InductorCurrents:
    """Average currents at the operating point.

    i_out is the duty-weighted current delivered to the output stage,
    i_inductor the average inductor current; they differ by the off-phase
    fraction: i_out = (1-D) * i_inductor.
    """
    den = loss_denominator(p)
    one_d = 1.0 - p.d
    i_out = (one_d * p.v_i - one_d**2 * p.v_d) / den
    return InductorCurrents(i_out=i_out, i_inductor=i_out / one_d)


def ideal_steady_output(p: ConverterParams) -> float:
    """Lossless boost ratio Vi / (1-D)."""
    return p.v_i / (1.0 - p.d)


def _steady_output_no_cap_esr(p: ConverterParams) -> float:
    """Pre-correction steady form without the RC term; internal checks only."""
    one_d = 1.0 - p.d
    den = one_d**2 * p.r_0 + p.r_l + p.d * p.r_m
    return (p.v_i - one_d * p.v_d) * one_d * p.r_0 / den
