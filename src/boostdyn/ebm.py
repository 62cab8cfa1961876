"""Energy-based model: averaged second-order dynamics of the output voltage.

The averaged output voltage obeys

    LC v'' + [L/R0 + C(RL + D RM)] v' + m0 v = (1-D)Vi - (1-D)^2 Vd

with m0 = (1-D)^2 + [(1-D)^2 RC + RL + D RM]/R0.  Casting into the standard
damped-oscillator form gives the closed-form step response evaluated here.
That form, ``SecondOrderForm``, is the one two-pole step response of the
package: the line TFM and the FR baseline build it from their transfer
functions (``tfm_line.step_form``) and evaluate it with ``ebm_response``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class OdeCoefficients:
    """Coefficients of  m2 v'' + m1 v' + m0 v = forcing."""

    m2: float
    m1: float
    m0: float
    forcing: float


@dataclass(frozen=True)
class SecondOrderForm:
    """Damped-oscillator parameters plus initial conditions.

    omega_d is stored as 0 for non-oscillatory (xi >= 1) systems.
    """

    xi: float
    omega0: float
    omega_d: float
    v_inf: float
    v0: float
    dv0: float

    @property
    def overdamped(self) -> bool:
        return self.xi >= 1.0


def ode_coefficients(p: ConverterParams, r_0: float | None = None) -> OdeCoefficients:
    """Build the averaged ODE coefficients, optionally at an overridden load."""
    r0 = p.r_0 if r_0 is None else r_0
    if r0 <= 0:
        raise ValueError("load resistance must be > 0")
    one_d = 1.0 - p.d
    m2 = p.l * p.c
    m1 = p.l / r0 + p.c * (p.r_l + p.d * p.r_m)
    m0 = one_d**2 + (one_d**2 * p.r_c + p.r_l + p.d * p.r_m) / r0
    forcing = one_d * p.v_i - one_d**2 * p.v_d
    return OdeCoefficients(m2=m2, m1=m1, m0=m0, forcing=forcing)


def to_standard_form(coeffs: OdeCoefficients, v0: float, dv0: float) -> SecondOrderForm:
    """Normalize the ODE to xi / omega0 / v_inf form, keeping initial conditions."""
    if coeffs.m2 <= 0 or coeffs.m0 <= 0:
        raise ValueError("m2 and m0 must be positive")
    omega0 = math.sqrt(coeffs.m0 / coeffs.m2)
    xi = coeffs.m1 / (2.0 * coeffs.m2 * omega0)
    omega_d = omega0 * math.sqrt(1.0 - xi * xi) if xi < 1.0 else 0.0
    return SecondOrderForm(
        xi=xi,
        omega0=omega0,
        omega_d=omega_d,
        v_inf=coeffs.forcing / coeffs.m0,
        v0=v0,
        dv0=dv0,
    )


def ebm_response(form: SecondOrderForm, t):
    """Output voltage at time(s) ``t`` for the given standard form.

    Underdamped branch:

        v(t) = V_inf + e^{-xi w0 t} [ (v0-V_inf) cos(wd t)
                                      + (dv0 + xi w0 (v0-V_inf))/wd * sin(wd t) ]

    so that v(0) = v0 and v'(0) = dv0 exactly.  The critically damped and
    overdamped branches use the matching real-exponential solutions.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise NonFiniteTime("response requested at non-finite time")
    xi, w0, vinf = form.xi, form.omega0, form.v_inf
    dv = form.v0 - vinf
    if xi < 1.0:
        wd = form.omega_d
        env = np.exp(-xi * w0 * t_arr)
        out = vinf + env * (
            dv * np.cos(wd * t_arr)
            + (form.dv0 + xi * w0 * dv) / wd * np.sin(wd * t_arr)
        )
    elif xi == 1.0:
        out = vinf + np.exp(-w0 * t_arr) * (dv + (form.dv0 + w0 * dv) * t_arr)
    else:
        r1, r2 = _real_roots(form)
        a = (form.dv0 - r2 * dv) / (r1 - r2)
        b = dv - a
        out = vinf + a * np.exp(r1 * t_arr) + b * np.exp(r2 * t_arr)
    return float(out) if np.isscalar(t) else out


def response_slope(form: SecondOrderForm, t):
    """Analytic dv/dt of :func:`ebm_response`."""
    t_arr = np.asarray(t, dtype=float)
    xi, w0, vinf = form.xi, form.omega0, form.v_inf
    dv = form.v0 - vinf
    if xi < 1.0:
        wd = form.omega_d
        q = (form.dv0 + xi * w0 * dv) / wd
        env = np.exp(-xi * w0 * t_arr)
        out = env * (
            form.dv0 * np.cos(wd * t_arr)
            - (wd * dv + xi * w0 * q) * np.sin(wd * t_arr)
        )
    elif xi == 1.0:
        s = form.dv0 + w0 * dv
        out = np.exp(-w0 * t_arr) * (s - w0 * (dv + s * t_arr))
    else:
        r1, r2 = _real_roots(form)
        a = (form.dv0 - r2 * dv) / (r1 - r2)
        b = dv - a
        out = a * r1 * np.exp(r1 * t_arr) + b * r2 * np.exp(r2 * t_arr)
    return float(out) if np.isscalar(t) else out


def _real_roots(form: SecondOrderForm) -> tuple[float, float]:
    root = form.omega0 * math.sqrt(form.xi * form.xi - 1.0)
    return -form.xi * form.omega0 + root, -form.xi * form.omega0 - root


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
    on 257 samples over one full damped period (20/omega0 for
    non-oscillatory forms) and refined by bisection until
    |dv/dt| < PEAK_SLOPE_TOL * omega0 * |v_inf| (``circuit._first_crossing``).
    Monotone responses report v_max = v_inf with t_p absent.
    """
    vinf = form.v_inf
    scale = max(abs(vinf), abs(form.v0), 1e-30)
    if abs(form.v0 - vinf) < 1e-12 * scale and abs(form.dv0) < 1e-12 * scale * form.omega0:
        return ResponseMetrics(vinf, vinf, None, 0.0, flags=("no-peak",))

    if form.xi < 1.0:
        t_hi = 2.0 * math.pi / form.omega_d
    else:
        t_hi = 20.0 / form.omega0
    flags: tuple[str, ...] = ("overdamped",) if form.overdamped else ()
    tol = PEAK_SLOPE_TOL * form.omega0 * max(abs(vinf), 1e-30)
    t_p = _first_crossing(partial(response_slope, form), np.linspace(0.0, t_hi, 257),
                          tol, rising=True)
    if t_p is None:
        return ResponseMetrics(vinf, vinf, None, 0.0, flags=flags + ("no-peak",))
    v_max = float(ebm_response(form, t_p))
    overshoot = 100.0 * (v_max - vinf) / vinf if vinf != 0 else 0.0
    return ResponseMetrics(vinf, v_max, t_p, overshoot, flags=flags)
