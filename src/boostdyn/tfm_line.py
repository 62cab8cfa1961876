"""Transfer-function model for input-voltage steps.

Small-signal node analysis of the non-ideal circuit yields a second-order
transfer function from input voltage to output voltage,

    G(s) = (d_num s + f_num) / (a s^2 + b s + c),

whose DC gain f_num/c matches the corrected steady-state ratio; of the
ideal converter (``circuit.parasitic_free``) it is the FR baseline's.  A
step response goes through the energy model's two-pole form
(``ebm.SecondOrderForm``, built by ``step_form``); the first peak time and
peak voltage of an underdamped TF are evaluated in closed form.

The coefficients and the peak are numpy expressions that broadcast: fed
parameter arrays, ``line_tf_coefficients`` and ``line_step_metrics`` solve
a whole grid of designs in one call, and a single design is their 0-d case.
The kernel reads the fields by attribute from any object that carries
them, so a design need not be built as a record to be solved: a sweep's
grid and a descent's gradient probes are plain namespaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import ConverterParams, ModelDomainError
from .ebm import OdeCoefficients, SecondOrderForm, ebm_response, to_standard_form


class ZeroInputVoltage(ModelDomainError):
    """The diode-drop correction divides by Vi; the TF needs Vi > 0."""


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
    def dc_gain(self) -> float:
        return self.f_num / self.c


def line_tf_coefficients(p: ConverterParams) -> SecondOrderTF:
    """Coefficients of the input-to-output transfer function.

    ``p`` is a record or any object that carries its fields, as scalars
    or as arrays that broadcast together; the coefficients then have their
    broadcast shape and are NaN in the cells whose v_i <= 0.  One design
    refuses v_i <= 0, and an s^2 or s^0 coefficient that underflows to 0.
    """
    v_i = p.v_i
    if isinstance(v_i, np.ndarray):
        v_i = np.where(v_i > 0.0, v_i, np.nan)
    elif v_i <= 0:
        raise ZeroInputVoltage("input voltage must be > 0 to place the diode correction")
    one_d = 1.0 - p.d
    q = one_d * one_d
    rs = p.r_0 + p.r_c
    a = rs * p.l * p.c
    b = q * p.c * p.r_0 * p.r_c + p.d * p.c * p.r_m * rs + p.c * p.r_l * rs + p.l
    c = q * p.r_0 + p.r_l + p.d * p.r_m + q * p.r_c
    d_num = one_d * p.c * p.r_0 * p.r_c
    f_num = one_d * p.r_0 - (p.v_d / v_i) * q * p.r_0
    if not isinstance(v_i, np.ndarray) and not (a > 0.0 and c > 0.0):
        raise ModelDomainError(f"the s^2 and s^0 coefficients {a!r} and {c!r} underflow to 0")
    return SecondOrderTF(a=a, b=b, c=c, d_num=d_num, f_num=f_num)


def step_form(tf: SecondOrderTF, k: float) -> SecondOrderForm:
    """Two-pole form of a step of height ``k`` through ``tf`` from rest:
    a y'' + b y' + c y = f k with y(0) = 0 and y'(0) = k d / a."""
    coeffs = OdeCoefficients(m2=tf.a, m1=tf.b, m0=tf.c, forcing=tf.f_num * k)
    return to_standard_form(coeffs, v0=0.0, dv0=k * tf.d_num / tf.a)


def line_step_response(tf: SecondOrderTF, k: float, t):
    """Response to a step of magnitude ``k`` applied at t = 0."""
    return ebm_response(step_form(tf, k), t)


def line_step_metrics(tf: SecondOrderTF, base, k):
    """(v_steady, v_max, t_p) of a step of height ``k`` through ``tf`` from
    the level ``base``, in closed form.  Per unit of ``k`` the peak lies
    e^(-b t_p / 2a) sqrt(N / a) / c beyond v_steady, N = a f^2 - b d f + c d^2:
    twice the pole's residue modulus times sin(lead), which is root / 2 sqrt(ac).

    Every argument may be an array; the three results have the broadcast
    shape.  Where the TF is not underdamped, t_p is NaN and v_max is
    v_steady: the response has no oscillatory peak.
    """
    a, b, c, d, f = tf.a, tf.b, tf.c, tf.d_num, tf.f_num
    under = tf.discriminant > 0.0
    # NaN in b runs quietly through every peak term of the cells that are
    # not underdamped; one underdamped design, a plain bool, needs no mask
    masked = under is not True
    if masked:
        b = np.where(under, b, np.nan)[()]
    root = np.sqrt(4.0 * a * c - b * b)
    lead = np.arctan2(root, b)
    zero = np.arctan2(f * root, b * f - 2.0 * c * d)
    phase = lead - zero + math.pi
    t_p = phase / (root / (2.0 * a))
    expo = np.exp(-b * phase / root)
    gain = tf.dc_gain
    v_steady = base + k * gain
    v_max = base + k * (gain + expo * np.sqrt((a * f * f - b * d * f + c * d * d) / a) / c)
    if masked:
        v_max = np.where(under, v_max, v_steady)[()]
    return v_steady, v_max, t_p
