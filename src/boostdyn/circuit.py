"""Shared domain types for the Boost converter models.

All quantities are SI (volts, henries, farads, ohms, seconds, hertz).
No implicit milli/micro scaling anywhere in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

#: |slope| at which a first-extremum bisection stops, in units of the
#: caller's rate times its amplitude
PEAK_SLOPE_TOL = 1e-9


class ModelDomainError(Exception):
    """An operation was asked to work outside its numeric domain."""


class ParameterError(ValueError):
    """Invalid converter parameters. Carries every violated invariant."""

    def __init__(self, violations: Sequence[tuple[str, str]]):
        self.violations = list(violations)
        detail = "; ".join(f"{code}({name})" for code, name in self.violations)
        super().__init__(f"invalid converter parameters: {detail}")


class DischargedSourceWarning(UserWarning):
    """Source too weak to forward-bias the diode; steady output clamped at 0 V."""


class NonFiniteTime(ModelDomainError):
    """A response was requested at a non-finite time."""


@dataclass(frozen=True)
class ConverterParams:
    """Full component set of the non-ideal Boost circuit.

    A record that exists satisfies every invariant: building one that breaks
    any, even by ``dataclasses.replace``, raises ParameterError naming all.

    v_i:   input voltage, V
    l:     inductance, H
    r_l:   inductor series resistance, ohm
    c:     output capacitance, F
    r_c:   capacitor series resistance, ohm
    r_m:   MOSFET on-resistance, ohm
    v_d:   diode forward drop, V
    r_0:   load resistance, ohm
    d:     PWM duty cycle in (0, 1)
    f_sw:  switching frequency, Hz
    """

    v_i: float
    l: float
    r_l: float
    c: float
    r_c: float
    r_m: float
    v_d: float
    r_0: float
    d: float
    f_sw: float

    def __post_init__(self) -> None:
        validate_params(self)

    @property
    def period(self) -> float:
        return 1.0 / self.f_sw


def validate_params(p: ConverterParams) -> ConverterParams:
    """Return ``p`` unchanged if every invariant holds, else raise ParameterError.

    All violations are collected before raising so a caller sees every
    problem at once.  ``ConverterParams`` runs it on every record it builds.
    """
    violations: list[tuple[str, str]] = []
    for name in ("l", "c", "r_0", "f_sw"):
        if not getattr(p, name) > 0:
            violations.append(("NonPositiveComponent", name))
    for name in ("r_l", "r_c", "r_m", "v_d", "v_i"):
        if getattr(p, name) < 0:
            violations.append(("NegativeParasitic", name))
    if not 0.0 < p.d < 1.0:
        violations.append(("DutyOutOfRange", "d"))
    for name in ("v_i", "l", "r_l", "c", "r_c", "r_m", "v_d", "r_0", "d", "f_sw"):
        if not math.isfinite(getattr(p, name)):
            violations.append(("NonFiniteValue", name))
    if violations:
        raise ParameterError(violations)
    return p


class StepKind(Enum):
    INPUT_VOLTAGE = "input_voltage"
    LOAD_RESISTANCE = "load_resistance"


@dataclass(frozen=True)
class StepEvent:
    """A single disturbance: the input voltage or the load resistance jumps
    from ``value_before`` to ``value_after`` at ``t_event``."""

    kind: StepKind
    value_before: float
    value_after: float
    t_event: float = 0.0

    def __post_init__(self) -> None:
        for name in ("value_before", "value_after", "t_event"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_event < 0:
            raise ValueError("t_event must be >= 0")
        if self.value_before < 0:
            raise ValueError("value_before must be >= 0")
        if self.kind is StepKind.LOAD_RESISTANCE:
            if self.value_before <= 0 or self.value_after <= 0:
                raise ValueError("load resistance must stay > 0; the models divide by R0")
        elif self.value_after < 0:
            raise ValueError("value_after must be >= 0")

    @property
    def delta(self) -> float:
        return self.value_after - self.value_before


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled output-voltage series starting at ``t0``."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if arr.size == 0:
            raise ValueError("waveform needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("waveform samples must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)


@dataclass(frozen=True)
class ResponseMetrics:
    """Steady value, transient extremum, and peak timing of one response.

    ``t_p`` is measured from the disturbance to the first extremum and is
    ``None`` for monotone (peak-free) responses.  ``overshoot_pct`` is
    negative for undershoots.
    """

    v_steady: float
    v_max: float
    t_p: Optional[float]
    overshoot_pct: float
    flags: tuple[str, ...] = field(default=())


def _first_crossing(
    slope: Callable, ts: np.ndarray, tol: float, rising: Optional[bool]
) -> Optional[float]:
    """First time at which ``slope`` leaves its sign, or None.

    The sign is positive for ``rising`` True, negative for False, and for
    None that of the first non-zero sample after ``ts[0]``.  The sampled
    slope brackets the first interval of ``ts`` where it goes from that
    sign to zero or the other, and bisection refines it until
    |slope| < ``tol``.  ``slope`` takes an array or a scalar time.
    """
    s = slope(ts)
    if rising is None:
        moving = s[1:][s[1:] != 0.0]
        if moving.size == 0:
            return None
        rising = bool(moving[0] > 0.0)
    if not rising:
        s = -s
    hits = np.flatnonzero((s[:-1] > 0.0) & (s[1:] <= 0.0))
    if hits.size == 0:
        return None
    lo, hi = float(ts[hits[0]]), float(ts[hits[0] + 1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        s_mid = slope(mid)
        if abs(s_mid) < tol:
            return mid
        if (s_mid > 0) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
