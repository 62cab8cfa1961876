"""Transfer-function model for load-resistance steps.

The load path goes through a quartic transfer function from the load jump
to the output-voltage deviation, scaled by the pre-step output-side
current.  An empirical bracket, fit near the reference operating region,
rescales the denominator dynamics; the DC coefficient pair is untouched so
the settled value is correction-independent.  Inversion is classical
partial fractions over the four denominator roots plus the DC offset, with
each residue's polynomials evaluated by Horner in Python complex.  No root
is averaged with its partner: a conjugate pair is one mode, its upper root
with twice that root's residue.  The first extremum of the inverted
response comes from the same slope scan and bisection as the energy
model's peak (``circuit._first_crossing``), on the slope's mode sum: the
scan's times as one array, and each bisection step's as a Python float.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .circuit import (
    PEAK_SLOPE_TOL,
    ConverterParams,
    ModelDomainError,
    ResponseMetrics,
    _first_crossing,
)
from .polyroots import all_roots
from .steady import steady_inductor_current, steady_output

#: relative root separation at or below which two roots count as one: a double
#: root is resolved only to ~sqrt(eps) = 1.5e-8 of its magnitude, so 1e-6 sits
#: well above that noise and far below the distinct pairs of real load steps (~0.1)
CONFLUENT_ROOT_TOL = 1e-6
#: the same for three roots, each pair within it: a triple root splits by
#: ~eps^(1/3), up to 2.8e-5 of its magnitude measured
TRIPLE_ROOT_TOL = 1e-3
#: a root is real when |imag| is at most this times max(1, the largest |root|)
REAL_ROOT_TOL = 1e-8
#: extremum scans longer than this are refused: over ten times the benchmark's longest
MAX_SCAN_POINTS = 2**17


class InvalidPostLoad(ModelDomainError):
    """Post-step load resistance must stay positive."""


class CorrectionOutOfDomain(ModelDomainError):
    """The empirical correction bracket went non-positive: the fit does not
    cover this parameter region."""


class RepeatedRoots(ModelDomainError):
    """Confluent denominator roots; partial fractions refused.

    Two roots are confluent when they lie within ``CONFLUENT_ROOT_TOL`` of the
    larger magnitude of the pair, and three when each pair of them lies within
    ``TRIPLE_ROOT_TOL``.  A double root is resolved only to about sqrt(eps) of
    its magnitude and a triple root to about eps^(1/3), so both are caught.
    """


class NonFiniteRoots(ModelDomainError):
    """A denominator root or its residue is not a finite number: the
    coefficients overflow a float, the root iteration overflows (its start
    radius, 1 plus the largest monic coefficient, has powers beyond the
    float range), or it leaves a root at 0, which has no residue."""


class ScanTooLong(ModelDomainError):
    """The extremum scan would take more than ``MAX_SCAN_POINTS`` samples."""


@dataclass(frozen=True)
class QuarticTF:
    """num/den quartic rational function with its drive scaling.

    den and num hold s^4..s^0 coefficients; the physical deviation response
    is gain_i2 * delta_r0 * num/den driven by a unit step.
    """

    den: tuple[float, float, float, float, float]
    num: tuple[float, float, float, float, float]
    gain_i2: float
    delta_r0: float

    @property
    def dc_gain(self) -> float:
        return self.num[-1] / self.den[-1]


@dataclass(frozen=True)
class ExpModeSum:
    """Real part of offset + sum of residue * exp(root * t), volts.

    A conjugate pair is one mode, its root with imag > 0 and twice that
    root's residue; ``stable`` is False when any denominator root has a
    non-negative real part (response kept for diagnosis).

    ``deviation`` and ``deviation_slope`` (each residue times its root) are
    one loop over the modes, by ``cmath`` to a Python float at a scalar time (a
    Python or numpy number), else by numpy to an array of the shape of ``t``.
    """

    offset: float
    modes: tuple[tuple[complex, complex], ...]
    stable: bool = True

    def deviation(self, t):
        return _mode_sum(self.offset, self.modes, t)

    def deviation_slope(self, t):
        return _mode_sum(0.0, [(residue * root, root) for residue, root in self.modes], t)


def _mode_sum(offset: float, modes, t):
    """``ExpModeSum.deviation`` of ``offset`` and ``modes`` at ``t``."""
    scalar = np.isscalar(t)
    t, exp = (float(t), cmath.exp) if scalar else (np.asarray(t, dtype=float), np.exp)
    total = complex(offset) if scalar else np.full(t.shape, offset, dtype=complex)
    for residue, root in modes:
        total = total + residue * exp(root * t)
    return total.real


def _raw_coefficients(p: ConverterParams, delta_r0: float):
    one_d = 1.0 - p.d
    q = one_d * one_d
    L, C, rc = p.l, p.c, p.r_c
    s1 = p.r_0 + delta_r0 + rc
    s2 = p.r_0 + rc
    r_new = p.r_0 + delta_r0
    w = p.d * p.r_m + p.r_l

    a = L * C**3 * s1**2 * s2
    b = (
        L * C**2 * s1**2
        + 2.0 * L * C**2 * s1 * s2
        + C**3 * w * s1**2 * s2
        + C**3 * q * s1 * r_new * s2 * rc
    )
    c = (
        2.0 * L * C * s1
        + L * C * s2
        + C**2 * w * s1 * (2.0 * p.r_0 + delta_r0 + 2.0 * rc)
        + C**2 * w * s1 * s2
        + C**2 * q * s1 * r_new * (p.r_0 + 2.0 * rc)
        + C**2 * q * r_new * s2 * rc
    )
    d = (
        L
        + C * w * (3.0 * p.r_0 + 2.0 * delta_r0 + 3.0 * rc)
        + C * q * (2.0 * p.r_0 + delta_r0 + 3.0 * rc) * r_new
    )
    f = w + q * r_new

    g = L * C**3 * s1 * rc**2
    h = L * C**2 * rc**2 + 2.0 * L * C**2 * s1 * rc + C**3 * w * s1 * rc**2
    j = (
        2.0 * L * C * rc
        + L * C * s1
        + C**2 * w * rc**2
        + 2.0 * C**2 * w * s1 * rc
    )
    k = L + C * w * (r_new + 3.0 * rc)
    l_coef = w
    return (a, b, c, d, f), (g, h, j, k, l_coef)


def load_tf_raw(p: ConverterParams, delta_r0: float) -> QuarticTF:
    """Quartic transfer function exactly as derived, no empirical correction."""
    if p.r_0 + delta_r0 <= 0:
        raise InvalidPostLoad("post-step load resistance must be > 0")
    try:
        den, num = _raw_coefficients(p, delta_r0)
    except OverflowError as exc:  # Python's float ** raises where * is inf
        raise NonFiniteRoots(f"the load transfer function's coefficients overflow: {exc}") from exc
    i2 = steady_inductor_current(p).i_out
    return QuarticTF(den=den, num=num, gain_i2=i2, delta_r0=delta_r0)


def correction_factor(p: ConverterParams) -> float:
    """Empirical bracket rescaling the denominator dynamics."""
    total = (p.c - 0.000042) / 0.00005
    total += (0.001 - p.l) / 0.0006
    total += (p.r_l - 1.4) / 6.0
    total += (p.d - 0.5) / 0.5
    total += (p.r_c - 1.0) / 2.0
    total += (p.v_d - 0.4) / 3.0
    total += (p.r_m - 0.8) / 5.0
    return 0.5 + total * 0.6


def load_tf_corrected(p: ConverterParams, delta_r0: float) -> QuarticTF:
    """Quartic TF with the correction applied to the s^4..s^1 denominator
    coefficients.  The DC pair and the whole numerator stay as derived."""
    raw = load_tf_raw(p, delta_r0)
    kappa = correction_factor(p)
    if kappa <= 0:
        raise CorrectionOutOfDomain(
            f"correction bracket {kappa:.6g} <= 0; parameters are outside "
            "the region the correction was fit on"
        )
    a, b, c, d, f = raw.den
    return replace(raw, den=(kappa * a, kappa * b, kappa * c, kappa * d, f))


def invert_quartic_tf(tf: QuarticTF) -> ExpModeSum:
    """Partial-fraction inversion of the step-driven quartic.

    Roots come from the simultaneous-iteration solver as it returns them;
    residues are num(p)/(p * den'(p)) scaled by the drive, with num and den'
    evaluated by Horner over the coefficient tuples in Python complex, and
    the offset is the final-value term gain * dc_gain.  A root within
    ``REAL_ROOT_TOL`` of the real axis is a real mode; a conjugate pair is
    its root with imag > 0 and twice that residue.

    Raises :class:`NonFiniteRoots` when a root is NaN, infinite or 0, and
    :class:`RepeatedRoots` when two roots are closer than
    ``CONFLUENT_ROOT_TOL`` relative to the larger of the pair, or three are
    pairwise closer than ``TRIPLE_ROOT_TOL``.
    """
    roots = all_roots(np.asarray(tf.den, dtype=float))
    mag = np.abs(roots)
    if not (np.isfinite(roots).all() and mag.all()):
        listed = ", ".join(f"{r:.6g}" for r in roots.tolist())
        raise NonFiniteRoots(f"denominator roots {listed}: overflowed, or a root at 0")
    rel = np.abs(np.subtract.outer(roots, roots)) / np.maximum.outer(mag, mag)
    for group in (*combinations(range(roots.size), 2), *combinations(range(roots.size), 3)):
        tol = CONFLUENT_ROOT_TOL if len(group) == 2 else TRIPLE_ROOT_TOL
        if all(rel[i, j] <= tol for i, j in combinations(group, 2)):
            listed = " and ".join(f"{roots[k]:.6g}" for k in group)
            raise RepeatedRoots(f"denominator roots {listed} coincide")
    scale = tf.gain_i2 * tf.delta_r0
    dden = [(4 - k) * c for k, c in enumerate(tf.den[:-1])]
    real_tol = REAL_ROOT_TOL * max(1.0, float(mag.max()))
    kept = [(complex(r.real), 1.0) if abs(r.imag) <= real_tol else (r, 2.0)
            for r in roots.tolist() if r.imag >= -real_tol]
    modes = tuple((w * scale * _horner(tf.num, r) / (r * _horner(dden, r)), r) for r, w in kept)
    stable = bool(np.all(roots.real < 0))
    return ExpModeSum(offset=scale * tf.dc_gain, modes=modes, stable=stable)


def _horner(coeffs, x: complex) -> complex:
    """The polynomial with highest-degree-first ``coeffs`` at ``x``."""
    y = 0j
    for c in coeffs:
        y = y * x + c
    return y


def load_modes(p: ConverterParams, delta_r0: float) -> ExpModeSum:
    """Corrected deviation modes of the load step ``delta_r0`` from the
    steady state of ``p``; a zero step has no modes."""
    if delta_r0 == 0.0:
        return ExpModeSum(offset=0.0, modes=())
    return invert_quartic_tf(load_tf_corrected(p, delta_r0))


def load_metrics(p: ConverterParams, delta_r0: float) -> ResponseMetrics:
    """Settled value plus first transient extremum of the load response."""
    return mode_sum_metrics(steady_output(p), load_modes(p, delta_r0))


def mode_sum_metrics(base: float, mode_sum: ExpModeSum) -> ResponseMetrics:
    """Settled value plus first transient extremum of ``base`` plus the
    deviation ``mode_sum``.

    Load increases peak above the settled value; decreases report the
    symmetric undershoot (negative overshoot_pct).  The extremum is the
    first sign change of the analytic slope of the mode sum away from its
    first non-zero sampled sign, bracketed on the scan below and bisected;
    a scan over ``MAX_SCAN_POINTS`` raises :class:`ScanTooLong`.
    """
    if not mode_sum.modes:
        return ResponseMetrics(base, base, None, flags=("no-peak",))
    v_steady = base + mode_sum.offset
    flags: tuple[str, ...] = () if mode_sum.stable else ("unstable-roots",)

    slowest = min((r.real for _, r in mode_sum.modes if r.real != 0), key=abs)
    t_hi = 14.0 / abs(slowest)
    # at most a quarter period of the fastest ringing mode per scan step
    fastest = max(abs(r.imag) for _, r in mode_sum.modes)
    points = 2.0 * t_hi * fastest / math.pi
    if points > MAX_SCAN_POINTS:
        raise ScanTooLong(f"the slowest mode's real part is {slowest:.6g} /s, so the "
                          f"extremum scan needs {points:.0f} points, over {MAX_SCAN_POINTS}")
    n_scan = max(512, math.ceil(points))
    rate = max(abs(r.real) + abs(r.imag) for _, r in mode_sum.modes)
    tol = PEAK_SLOPE_TOL * rate * max(abs(mode_sum.offset), 1e-30)
    t_p = _first_crossing(mode_sum.deviation_slope, np.linspace(0.0, t_hi, n_scan + 1),
                          tol, rising=None)
    if t_p is None:
        return ResponseMetrics(v_steady, v_steady, None, flags=flags + ("no-peak",))
    return ResponseMetrics(v_steady, base + float(mode_sum.deviation(t_p)), t_p, flags=flags)
