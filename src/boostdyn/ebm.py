"""Energy-based model: averaged second-order dynamics of the output voltage.

The averaged output voltage obeys

    LC v'' + [L/R0 + C(RL + D RM)] v' + m0 v = (1-D)Vi - (1-D)^2 Vd

with m0 = (1-D)^2 + [(1-D)^2 RC + RL + D RM]/R0.  Casting into the standard
damped-oscillator form gives the closed-form step response evaluated here.
That form, ``SecondOrderForm``, is the one two-pole step response of the
package: ``tfm_line.step_form`` builds it from the line TF, for FR that
of the ideal converter, and ``ebm_response`` evaluates it.
The response and its slope are each one expression in cosh(delta t) and
sinh(delta t)/delta, delta^2 = (xi^2 - 1) w0^2, which ``_damped_pair``
alone turns into the real functions of each damping regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .circuit import (
    PEAK_SLOPE_TOL,
    ConverterParams,
    NonFiniteTime,
    ResponseMetrics,
    _first_crossing,
)
from .steady import steady_output

_SCAN_INDEX = np.arange(257.0)  # ebm_metrics' scan grid over t_hi / 256; read-only
_SCAN_INDEX.flags.writeable = False


@dataclass(frozen=True)
class OdeCoefficients:
    """Coefficients of  m2 v'' + m1 v' + m0 v = forcing."""

    m2: float
    m1: float
    m0: float
    forcing: float


@dataclass(frozen=True)
class SecondOrderForm:
    """The response of  v'' + 2 xi w0 v' + w0^2 v = w0^2 v_inf  from
    v(0) = v0, v'(0) = dv0.

    ``omega_d`` = w0 sqrt(1 - xi^2), the ringing frequency, is derived
    once from xi and w0, and is 0 where the form does not ring.
    """

    xi: float
    omega0: float
    v_inf: float
    v0: float
    dv0: float
    omega_d: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        wd = self.omega0 * math.sqrt(1.0 - self.xi * self.xi) if self.xi < 1.0 else 0.0
        object.__setattr__(self, "omega_d", wd)

    @property
    def overdamped(self) -> bool:
        return self.xi >= 1.0


def ode_coefficients(p: ConverterParams, r_0: float | None = None) -> OdeCoefficients:
    """Build the averaged ODE coefficients, optionally at an overridden load.

    ``p`` is a record or any object that carries its fields, as scalars or
    as arrays that broadcast together; the coefficients then have their
    broadcast shape.  Only an overriding ``r_0`` is checked here (> 0): a
    record's own fields already hold their rules.  Squares are products, as
    numpy's array power and Python's ``**`` can differ in the last bit, so
    that an array cell is bitwise its scalar design.
    """
    r0 = p.r_0
    if r_0 is not None:
        if r_0 <= 0:
            raise ValueError("load resistance must be > 0")
        r0 = r_0
    one_d = 1.0 - p.d
    q = one_d * one_d
    m2 = p.l * p.c
    m1 = p.l / r0 + p.c * (p.r_l + p.d * p.r_m)
    m0 = q + (q * p.r_c + p.r_l + p.d * p.r_m) / r0
    forcing = one_d * p.v_i - q * p.v_d
    return OdeCoefficients(m2=m2, m1=m1, m0=m0, forcing=forcing)


def to_standard_form(coeffs: OdeCoefficients, v0: float, dv0: float) -> SecondOrderForm:
    """Normalize the ODE to xi / omega0 / v_inf form, keeping initial conditions."""
    if coeffs.m2 <= 0 or coeffs.m0 <= 0:
        raise ValueError("m2 and m0 must be positive")
    omega0 = math.sqrt(coeffs.m0 / coeffs.m2)
    xi = coeffs.m1 / (2.0 * coeffs.m2 * omega0)
    return SecondOrderForm(xi=xi, omega0=omega0, v_inf=coeffs.forcing / coeffs.m0, v0=v0, dv0=dv0)


def _damped_pair(form: SecondOrderForm, t: np.ndarray):
    """(E, C, S) with E C = e^{-sigma t} cosh(delta t) and E S =
    e^{-sigma t} sinh(delta t)/delta, sigma = xi w0, delta^2 = (xi^2 - 1) w0^2.

    Underdamped (delta = i wd), E = e^{-sigma t}, C = cos(wd t) and S =
    sin(wd t)/wd, the argument wd t formed once; at exactly xi = 1, C = 1
    and S = t.  Overdamped, E decays at the slow pole -w0^2/(sigma + delta),
    and C, S carry e^{-delta t}: with expm1 they neither overflow nor cancel.
    """
    sigma = form.xi * form.omega0
    if form.xi < 1.0:
        wd = form.omega_d
        wdt = wd * t
        return np.exp(-sigma * t), np.cos(wdt), np.sin(wdt) / wd
    if form.xi == 1.0:
        return np.exp(-sigma * t), 1.0, t
    delta = form.omega0 * math.sqrt((form.xi - 1.0) * (form.xi + 1.0))
    rise = -np.expm1(-2.0 * delta * t)  # 1 - e^{-2 delta t}
    return (np.exp(-form.omega0 ** 2 / (sigma + delta) * t), 1.0 - 0.5 * rise,
            rise / (2.0 * delta))


def ebm_response(form: SecondOrderForm, t):
    """Output voltage at time(s) ``t``:

        v(t) = v_inf + e^{-sigma t} [ (v0 - v_inf) C + (dv0 + sigma (v0 - v_inf)) S ]

    with sigma = xi w0, C = cosh(delta t) and S = sinh(delta t)/delta, whose
    damped products ``_damped_pair`` gives, so that v(0) = v0 and
    v'(0) = dv0 exactly in every damping regime.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise NonFiniteTime("response requested at non-finite time")
    dv = form.v0 - form.v_inf
    env, c, s = _damped_pair(form, t_arr)
    out = form.v_inf + env * (dv * c + (form.dv0 + form.xi * form.omega0 * dv) * s)
    return float(out) if np.isscalar(t) else out


def response_slope(form: SecondOrderForm, t):
    """Analytic dv/dt of :func:`ebm_response`:
    e^{-sigma t} [ dv0 C - (w0^2 (v0 - v_inf) + sigma dv0) S ]."""
    t_arr = np.asarray(t, dtype=float)
    w0 = form.omega0
    env, c, s = _damped_pair(form, t_arr)
    out = env * (form.dv0 * c - (w0 * w0 * (form.v0 - form.v_inf) + form.xi * w0 * form.dv0) * s)
    return float(out) if np.isscalar(t) else out


def initial_slope_for_load_step(v0: float, c: float, r1: float, r2: float) -> float:
    """Initial output-voltage slope caused by a load step r1 -> r2 at voltage v0."""
    if c <= 0 or r1 <= 0 or r2 <= 0:
        raise ValueError("c, r1 and r2 must be positive")
    return (2.0 * v0 / c) * (1.0 / r1 - 1.0 / r2)


def startup_form(p: ConverterParams, v_before: float = 0.0) -> SecondOrderForm:
    """Standard form for an input-voltage step ending at ``p.v_i``.

    The response starts from the steady output at the pre-step input voltage
    (zero for a cold start) with zero initial slope.
    """
    v0 = 0.0 if v_before == 0.0 else steady_output(replace(p, v_i=v_before))
    return to_standard_form(ode_coefficients(p), v0=v0, dv0=0.0)


def load_step_form(p: ConverterParams, r_before: float, r_after: float) -> SecondOrderForm:
    """Standard form for a load step r_before -> r_after.

    Pre-step steady output sets v0, the load-step slope rule sets dv0, and
    the ODE coefficients are rebuilt at the post-step load.
    """
    v0 = steady_output(replace(p, r_0=r_before))
    dv0 = initial_slope_for_load_step(v0, p.c, r_before, r_after)
    return to_standard_form(ode_coefficients(p, r_0=r_after), v0=v0, dv0=dv0)


def ebm_metrics(form: SecondOrderForm) -> ResponseMetrics:
    """Steady value plus first transient extremum of the response.

    The first positive-to-negative zero of the analytic slope is bracketed
    on 257 samples over one damped period (20/omega0 if it does not ring),
    ``np.linspace``'s arithmetic on the shared ``_SCAN_INDEX``, then bisected
    until |dv/dt| < PEAK_SLOPE_TOL * omega0 * |v_inf| (``circuit._first_crossing``).
    Monotone responses report v_max = v_inf with t_p absent.
    """
    vinf = form.v_inf
    scale = max(abs(vinf), abs(form.v0), 1e-30)
    if abs(form.v0 - vinf) < 1e-12 * scale and abs(form.dv0) < 1e-12 * scale * form.omega0:
        return ResponseMetrics(vinf, vinf, None, flags=("no-peak",))

    if form.xi < 1.0:
        t_hi = 2.0 * math.pi / form.omega_d
    else:
        t_hi = 20.0 / form.omega0
    flags: tuple[str, ...] = ("overdamped",) if form.overdamped else ()
    tol = PEAK_SLOPE_TOL * form.omega0 * max(abs(vinf), 1e-30)
    ts = _SCAN_INDEX * (t_hi / 256)
    ts[-1] = t_hi
    t_p = _first_crossing(partial(response_slope, form), ts, tol, rising=True)
    if t_p is None:
        return ResponseMetrics(vinf, vinf, None, flags=flags + ("no-peak",))
    return ResponseMetrics(vinf, float(ebm_response(form, t_p)), t_p, flags=flags)
