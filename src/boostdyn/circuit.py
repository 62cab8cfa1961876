"""Shared domain types for the Boost converter models.

All quantities are SI (volts, henries, farads, ohms, seconds, hertz).
No implicit milli/micro scaling anywhere in the library.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from enum import Enum
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


#: The sizes a run may ask for, each refused as GridTooLarge before anything
#: is allocated.  The samples of one grid (``simulate``, ``predict
#: --waveform``, ``audit``): a switched grid holds about six floats a
#: sample, so 2^24 samples take 0.8 GB, and 2^24 is over four times a
#: 4,000,001-row run and 40 times the longest CI run (400,001 rows).
MAX_GRID_SAMPLES = 2**24
#: The substeps of one switching cycle: the cycle table, the ladders and one
#: cycle's columns grow with it, and 2^16 is over 80 times the finest run
#: of the tests (800) and 300 times the default (200).
MAX_STEPS_PER_CYCLE = 2**16
#: The cycles of one switched run, which holds one mean a cycle even with no
#: grid (``compare``): 2^20 is ten times the longest compare on record, the
#: bench load converter stepped 10 -> 10k ohm at its default horizon (103,221).
MAX_SWITCHED_CYCLES = 2**20


class GridTooLarge(ModelDomainError):
    """A grid of over MAX_GRID_SAMPLES samples, a switching cycle of over
    MAX_STEPS_PER_CYCLE substeps or a switched run of over MAX_SWITCHED_CYCLES cycles."""


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
#: unless the predicate holds of it.  A value must also be a finite number,
#: not a bool, or it raises NonFiniteValue too.  Every invariant reads one
#: field, so a design that differs from a valid record in k fields is valid
#: when those k pass.
FIELD_RULES: dict[str, tuple[str, Callable[[float], bool]]] = {
    "l": ("NonPositiveComponent", lambda x: x > 0),
    "c": ("NonPositiveComponent", lambda x: x > 0),
    "r_0": ("NonPositiveComponent", lambda x: x > 0),
    "f_sw": ("NonPositiveComponent", lambda x: x > 0),
    "r_l": ("NegativeParasitic", lambda x: not x < 0),
    "r_c": ("NegativeParasitic", lambda x: not x < 0),
    "r_m": ("NegativeParasitic", lambda x: not x < 0),
    "v_d": ("NegativeParasitic", lambda x: not x < 0),
    "v_i": ("NegativeParasitic", lambda x: not x < 0),
    "d": ("DutyOutOfRange", lambda x: 0.0 < x < 1.0),
}


def _finite(x) -> bool:
    """Whether ``x`` is a finite number and no bool: exact for an int beyond
    the float range, where ``math.isfinite`` would overflow."""
    return not isinstance(x, (bool, np.bool_)) and abs(x) <= sys.float_info.max


#: the parasitic fields of the ideal converter, each 0
_IDEAL_PARASITICS = {"r_l": 0.0, "r_c": 0.0, "r_m": 0.0, "v_d": 0.0}


def field_violations(values: Mapping[str, float]) -> list[tuple[str, str]]:
    """The invariants broken by ``values``, field names mapped to values.

    They are in the order ParameterError names them: the rule violations in
    the order of FIELD_RULES, then NonFiniteValue in the record's field order.
    """
    broken = [(code, name) for name, (code, holds) in FIELD_RULES.items()
              if name in values and not holds(values[name])]
    return broken + [("NonFiniteValue", f.name) for f in fields(ConverterParams)
                     if f.name in values and not _finite(values[f.name])]


def _check_fields(q, names: Collection[str]) -> None:
    """Raise ParameterError naming every invariant that the fields ``names``
    of ``q``, a record or any object that carries them, break; each field
    is checked by its own rules and no other."""
    for name in names:
        x = getattr(q, name)
        if not (FIELD_RULES[name][1](x) and _finite(x)):
            raise ParameterError(field_violations({n: getattr(q, n) for n in names}))


def validate_params(p: ConverterParams) -> ConverterParams:
    """Return ``p`` unchanged if every invariant holds, else raise ParameterError.

    Every field is checked by its rule in FIELD_RULES through ``_check_fields``,
    as a descent probe is, and all violations are collected before raising.
    ``ConverterParams`` runs it on every record it builds.
    """
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
        if not isinstance(self.kind, StepKind):
            raise ValueError(f"kind must be a StepKind, not {self.kind!r}")
        for name in ("value_before", "value_after", "t_event"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
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


def _grid_steps(t_end: float, dt: float) -> int:
    """round(t_end / dt), the last index of the grid every ``dt`` up to
    ``t_end``; GridTooLarge if that grid holds over MAX_GRID_SAMPLES samples."""
    steps = t_end / dt
    if steps >= MAX_GRID_SAMPLES - 0.5:
        raise GridTooLarge(f"a grid every {dt!r} s up to {t_end!r} s holds {steps + 1:.4g} "
                           f"samples, over {MAX_GRID_SAMPLES}")
    return int(round(max(steps, -1.0)))  # any t_end < 0 has no sample, even at -inf steps


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
