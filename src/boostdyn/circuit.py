"""Shared domain types for the Boost converter models.

All quantities are SI (volts, henries, farads, ohms, seconds, hertz).
No implicit milli/micro scaling anywhere in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from math import isfinite
from typing import Callable, Collection, Mapping, Optional, Sequence

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


@dataclass(frozen=True, slots=True)
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


#: The record invariants, one rule per field: the violation a value raises
#: unless the test, a Python expression in the value ``{x}``, holds.  A value
#: must also be finite, or it raises NonFiniteValue too.  Every invariant
#: reads one field, so a design that differs from a valid record in k fields
#: is valid when those k pass.
FIELD_RULES: dict[str, tuple[str, str]] = {
    "l": ("NonPositiveComponent", "{x} > 0"),
    "c": ("NonPositiveComponent", "{x} > 0"),
    "r_0": ("NonPositiveComponent", "{x} > 0"),
    "f_sw": ("NonPositiveComponent", "{x} > 0"),
    "r_l": ("NegativeParasitic", "not {x} < 0"),
    "r_c": ("NegativeParasitic", "not {x} < 0"),
    "r_m": ("NegativeParasitic", "not {x} < 0"),
    "v_d": ("NegativeParasitic", "not {x} < 0"),
    "v_i": ("NegativeParasitic", "not {x} < 0"),
    "d": ("DutyOutOfRange", "0.0 < {x} < 1.0"),
}

#: field -> its rule's test, as a function of the value
_FIELD_TESTS = {name: eval(f"lambda x: {test.format(x='x')}")
                for name, (_, test) in FIELD_RULES.items()}

#: Every rule and finiteness of a whole design ``p`` as one expression of
#: attribute loads and comparisons: the check that every record makes, with
#: no function call per field.
_ALL_HOLD = eval("lambda p: " + " and ".join(
    f"({test.format(x='p.' + name)}) and isfinite(p.{name})"
    for name, (_, test) in FIELD_RULES.items()), {"isfinite": isfinite})

#: the parasitic fields of the ideal converter, each 0
_IDEAL_PARASITICS = {"r_l": 0.0, "r_c": 0.0, "r_m": 0.0, "v_d": 0.0}


def field_violations(values: Mapping[str, float]) -> list[tuple[str, str]]:
    """The invariants broken by ``values``, field names mapped to values.

    They are in the order ParameterError names them: the rule violations in
    the order of FIELD_RULES, then NonFiniteValue in the record's field order.
    """
    broken = [(code, name) for name, (code, _) in FIELD_RULES.items()
              if name in values and not _FIELD_TESTS[name](values[name])]
    return broken + [("NonFiniteValue", f.name) for f in fields(ConverterParams)
                     if f.name in values and not isfinite(values[f.name])]


def _check_fields(q, names: Collection[str]) -> None:
    """Raise ParameterError naming every invariant that the fields ``names``
    of ``q``, a record or any object that carries them, break; each field
    is checked by its own rules and no other."""
    for name in names:
        x = getattr(q, name)
        if not (_FIELD_TESTS[name](x) and isfinite(x)):
            raise ParameterError(field_violations({n: getattr(q, n) for n in names}))


def validate_params(p: ConverterParams) -> ConverterParams:
    """Return ``p`` unchanged if every invariant holds, else raise ParameterError.

    Each field is checked by its rules in FIELD_RULES, and all violations
    are collected before raising, so a caller sees every problem at once.
    ``ConverterParams`` runs it on every record it builds.
    """
    if not _ALL_HOLD(p):
        _check_fields(p, FIELD_RULES)
    return p


def parasitic_free(q) -> ConverterParams:
    """The ideal converter: the record of the fields of ``q``, a record or
    any object that carries them, with ``_IDEAL_PARASITICS`` set."""
    values = {f.name: getattr(q, f.name) for f in fields(ConverterParams)}
    return ConverterParams(**{**values, **_IDEAL_PARASITICS})


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
        return _uniform_times(self.samples.size, self.dt, self.t0)


def _uniform_times(n: int, dt: float, t0: float = 0.0) -> np.ndarray:
    """t0 + dt * arange(n) bit for bit, built in place: only the result is held."""
    t = np.arange(n, dtype=float)
    return np.add(np.multiply(t, dt, out=t), t0, out=t)


@dataclass(frozen=True, slots=True)
class ResponseMetrics:
    """Steady value, transient extremum, and peak timing of one response.

    ``t_p`` is measured from the disturbance to the first extremum and is
    ``None`` for monotone (peak-free) responses.
    """

    v_steady: float
    v_max: float
    t_p: Optional[float]
    flags: tuple[str, ...] = field(default=())

    @property
    def overshoot_pct(self) -> float:
        """Percent by which v_max exceeds v_steady, negative for undershoots:
        0.0, never -0.0, when flat or when v_steady is 0."""
        if self.v_steady == 0:
            return 0.0
        return 100.0 * (self.v_max - self.v_steady) / self.v_steady + 0.0


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
