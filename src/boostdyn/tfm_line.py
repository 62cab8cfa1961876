"""Transfer-function model for input-voltage steps.

Small-signal node analysis of the non-ideal circuit yields a second-order
transfer function from input voltage to output voltage,

    G(s) = (d_num s + f_num) / (a s^2 + b s + c),

whose DC gain f_num/c matches the corrected steady-state ratio.  A step
response goes through the energy model's two-pole form
(``ebm.SecondOrderForm``, built by ``step_form``); the first peak time and
peak voltage of an underdamped TF are evaluated in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import ConverterParams, ModelDomainError
from .ebm import OdeCoefficients, SecondOrderForm, ebm_response, to_standard_form


class ZeroInputVoltage(ModelDomainError):
    """The diode-drop correction divides by Vi; the TF needs Vi > 0."""


class OverdampedTF(ModelDomainError):
    """Closed-form peak expressions exist only for the oscillatory case."""


@dataclass(frozen=True)
class SecondOrderTF:
    """Rational transfer function (d_num s + f_num) / (a s^2 + b s + c)."""

    a: float
    b: float
    c: float
    d_num: float
    f_num: float

    @property
    def discriminant(self) -> float:
        return 4.0 * self.a * self.c - self.b * self.b

    @property
    def is_underdamped(self) -> bool:
        return self.discriminant > 0.0

    @property
    def dc_gain(self) -> float:
        return self.f_num / self.c

    def evaluate(self, s: complex) -> complex:
        return (self.d_num * s + self.f_num) / (self.a * s * s + self.b * s + self.c)


def line_tf_coefficients(p: ConverterParams) -> SecondOrderTF:
    """Coefficients of the input-to-output transfer function."""
    if p.v_i <= 0:
        raise ZeroInputVoltage("input voltage must be > 0 to place the diode correction")
    one_d = 1.0 - p.d
    q = one_d * one_d
    rs = p.r_0 + p.r_c
    a = rs * p.l * p.c
    b = q * p.c * p.r_0 * p.r_c + p.d * p.c * p.r_m * rs + p.c * p.r_l * rs + p.l
    c = q * p.r_0 + p.r_l + p.d * p.r_m + q * p.r_c
    d_num = one_d * p.c * p.r_0 * p.r_c
    f_num = one_d * p.r_0 - (p.v_d / p.v_i) * q * p.r_0
    return SecondOrderTF(a=a, b=b, c=c, d_num=d_num, f_num=f_num)


def step_form(tf: SecondOrderTF, k: float) -> SecondOrderForm:
    """Two-pole form of a step of height ``k`` through ``tf`` from rest:
    a y'' + b y' + c y = f k with y(0) = 0 and y'(0) = k d / a."""
    coeffs = OdeCoefficients(m2=tf.a, m1=tf.b, m0=tf.c, forcing=tf.f_num * k)
    return to_standard_form(coeffs, v0=0.0, dv0=k * tf.d_num / tf.a)


def line_step_response(tf: SecondOrderTF, k: float, t):
    """Response to a step of magnitude ``k`` applied at t = 0."""
    return ebm_response(step_form(tf, k), t)


def line_peak_time(tf: SecondOrderTF) -> float:
    """Time from step to the first output maximum, in closed form."""
    disc = tf.discriminant
    if disc <= 0:
        raise OverdampedTF("no oscillatory peak for real-pole systems")
    root = math.sqrt(disc)
    num = (
        math.atan2(root, tf.b)
        - math.atan2(tf.f_num * root, tf.b * tf.f_num - 2.0 * tf.c * tf.d_num)
        + math.pi
    )
    return num / (root / (2.0 * tf.a))


def line_peak_voltage(tf: SecondOrderTF, v_i: float) -> float:
    """First peak of the response to a step of magnitude ``v_i``."""
    disc = tf.discriminant
    if disc <= 0:
        raise OverdampedTF("no oscillatory peak for real-pole systems")
    a, b, c, d, f = tf.a, tf.b, tf.c, tf.d_num, tf.f_num
    root = math.sqrt(disc)
    radical = math.sqrt((a * f * f - b * d * f + c * d * d) / (4.0 * a * c * c - b * b * c))
    expo = math.exp(
        b * (math.atan2(f * root, b * f - 2.0 * c * d) - math.atan2(root, b) - math.pi)
        / root
    )
    return v_i * (f / c - 2.0 * radical * expo * math.sin(math.atan2(root, b) + math.pi))
