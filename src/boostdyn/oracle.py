"""Numerical ground truth: an averaged and a cycle-by-cycle switched
simulator built on one piecewise-linear description of the circuit, and an
energy-conservation audit.

In each of its modes (switch on, diode conducting, and idle with i_L = 0 in
discontinuous conduction) the circuit is an affine system x' = A x + u in
x = (i_L, v_C).  The switched simulator steps the modes exactly through an
augmented matrix exponential (Van Loan, IEEE TAC 1978); the averaged one
steps their duty-weighted average (Middlebrook and Cuk, PESC 1976).
``integrate_second_order`` stays a classical fourth-order integrator, the
independent check for the closed-form responses.  All grids are fixed, so
repeated runs produce identical waveforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import (
    ConverterParams,
    ModelDomainError,
    StepEvent,
    StepKind,
    Waveform,
)

#: samples the averaged simulator holds states for at a time
_BLOCK = 4096


class StepTooLarge(ModelDomainError):
    """Integration step too coarse for the circuit's fastest dynamics."""


class NonFiniteState(ModelDomainError):
    """The integrator diverged to a non-finite state."""


class WindowOutOfRange(ModelDomainError):
    """Audit window falls outside the simulated trace."""


def integrate_second_order(
    m2: float,
    m1: float,
    m0: float,
    forcing: float,
    v0: float,
    dv0: float,
    dt: float,
    t_end: float,
) -> Waveform:
    """Fixed-step integration of  m2 v'' + m1 v' + m0 v = forcing.

    Serves as the independent oracle for every closed-form second-order
    response in the library.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    n = int(round(t_end / dt))
    out = np.empty(n + 1)
    v, dv = float(v0), float(dv0)
    out[0] = v
    for i in range(n):
        a1 = (forcing - m1 * dv - m0 * v) / m2
        v2, dv2 = v + 0.5 * dt * dv, dv + 0.5 * dt * a1
        a2 = (forcing - m1 * dv2 - m0 * v2) / m2
        v3, dv3 = v + 0.5 * dt * dv2, dv + 0.5 * dt * a2
        a3 = (forcing - m1 * dv3 - m0 * v3) / m2
        v4, dv4 = v + dt * dv3, dv + dt * a3
        a4 = (forcing - m1 * dv4 - m0 * v4) / m2
        v += (dt / 6.0) * (dv + 2.0 * dv2 + 2.0 * dv3 + dv4)
        dv += (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        out[i + 1] = v
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("second-order integration diverged")
    return Waveform(t0=0.0, dt=dt, samples=out)


class _Mode(NamedTuple):
    """x' = a x + u in x = (i_L, v_C), with the output voltage out @ x."""

    a: np.ndarray
    u: np.ndarray
    out: np.ndarray


def _modes(p: ConverterParams, v_i: float, r_0: float) -> tuple[_Mode, _Mode, _Mode]:
    """The on, off and idle modes of the switched circuit at input v_i and load r_0.

    On: the source charges the inductor through r_l + r_m while the capacitor
    discharges into the load through its ESR.  Off: the inductor feeds the
    output node through the diode.  Idle: the diode blocks with i_L = 0 and
    the capacitor discharges as when on.
    """
    k = r_0 / (r_0 + p.r_c)
    g = -1.0 / (p.c * (r_0 + p.r_c))
    out_c = np.array([0.0, k])
    on = _Mode(np.diag([-(p.r_l + p.r_m) / p.l, g]), np.array([v_i / p.l, 0.0]), out_c)
    off = _Mode(np.array([[-(p.r_l + k * p.r_c) / p.l, -k / p.l], [k / p.c, g]]),
                np.array([(v_i - p.v_d) / p.l, 0.0]), np.array([k * p.r_c, k]))
    return on, off, _Mode(np.diag([0.0, g]), np.zeros(2), out_c)


def _averaged_mode(p: ConverterParams, v_i: float, r_0: float) -> _Mode:
    """Duty-weighted average of the on and off modes (state-space averaging)."""
    on, off, _ = _modes(p, v_i, r_0)
    return _Mode(*(p.d * x_on + (1.0 - p.d) * x_off for x_on, x_off in zip(on, off)))


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    squarings = max(0, math.frexp(float(np.abs(m).sum(axis=1).max()))[1] + 1)
    a = m / 2.0**squarings
    term = out = np.eye(len(m))
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _ladder(mode: _Mode, h: float, steps: int) -> list[np.ndarray]:
    """Exact maps of one mode over 1, 2, 4, ... substeps of length h, up to
    ``steps`` substeps.

    One substep is the augmented exponential exp([[A, u], [0, 0]] h) =
    [[phi, gamma], [0, 1]] (Van Loan), so a singular A, as in a lossless
    on mode or the idle mode, needs no special case.  A rung keeps the rows
    [phi, gamma], which act on the column (i_L, v_C, 1).
    """
    aug = np.zeros((3, 3))
    aug[:2] = np.column_stack([mode.a, mode.u]) * h
    e = _expm(aug)
    rungs = [e[:2]]
    while 2 ** len(rungs) <= steps:
        e = e @ e
        rungs.append(e[:2])
    return rungs


def _advance(x: np.ndarray, rungs: list[np.ndarray]) -> None:
    """Fill the (i_L, v_C, 1) columns x[:, 1:] from x[:, 0] by exact steps
    of one mode; the rung over ``span`` substeps maps columns [0, span)
    onto [span, 2 span)."""
    k = x.shape[1] - 1
    span = 1
    for rung in rungs:
        if span > k:
            break
        w = min(span, k + 1 - span)
        np.matmul(rung, x[:, :w], out=x[:2, span : span + w])
        span *= 2


def _state_grid(p: ConverterParams, initial_state, n: int) -> np.ndarray:
    """(i_L, v_C, 1) columns for samples 0..n with the first one set;
    "steady" is the fixed point of the averaged modes."""
    x = np.ones((3, n + 1))
    if isinstance(initial_state, tuple):
        x[:2, 0] = initial_state
    elif initial_state == "zero":
        x[:2, 0] = 0.0
    elif initial_state == "steady":
        # a x = -u by Cramer's rule, which leaves LAPACK unloaded
        mode = _averaged_mode(p, p.v_i, p.r_0)
        (a, b), (c, d), (u0, u1) = *mode.a, mode.u
        x[:2, 0] = (b * u1 - d * u0) / (a * d - b * c), (c * u0 - a * u1) / (a * d - b * c)
    else:
        raise ValueError("initial_state must be 'zero', 'steady' or an (i_l, v_c) tuple")
    return x


def _segments(p: ConverterParams, events: Sequence[StepEvent], dt: float, n: int, cuts):
    """(a, b, v_i, r_0) for each stretch [a, b] of the grid 0..n between cuts
    and event samples, with the input and load in force from sample a on.
    An event acts from its nearest sample, in the order given."""
    at = sorted(((int(round(ev.t_event / dt)), ev) for ev in events), key=lambda e: e[0])
    at = [(idx, ev) for idx, ev in at if idx <= n]
    bounds = sorted({0, n, *(c for c in cuts if c < n), *(idx for idx, _ in at)})
    v_i, r_0 = p.v_i, p.r_0
    for a, b in zip(bounds, bounds[1:] or [0]):
        while at and at[0][0] <= a:
            ev = at.pop(0)[1]
            if ev.kind is StepKind.INPUT_VOLTAGE:
                v_i = ev.value_after
            else:
                r_0 = ev.value_after
        yield a, b, v_i, r_0


def simulate_averaged(
    p: ConverterParams,
    events: Sequence[StepEvent],
    dt: float,
    t_end: float,
    include_parasitics: bool = True,
    initial_state="zero",
) -> Waveform:
    """Exact fixed-step solution of the two-state averaged model.

    Its matrices are the duty-weighted average of the switched modes, so
    r_l, r_m, r_c and v_d all enter the dynamics, and the output is
    R0/(R0 + r_c) * (v_C + (1 - D) r_c i_L); parasitics off zeroes all four.
    Events swap the input voltage or the load at the nearest sample boundary.
    """
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    dt_max = min(math.sqrt(p.l * p.c) / 100.0, 1.0 / (20.0 * p.f_sw))
    if dt > dt_max:
        raise StepTooLarge(f"dt={dt:g} exceeds stability budget {dt_max:g}")
    if not include_parasitics:
        p = replace(p, r_l=0.0, r_m=0.0, r_c=0.0, v_d=0.0)

    n = int(round(t_end / dt))
    x = _state_grid(p, initial_state, min(n, _BLOCK))
    out = np.empty(n + 1)
    for a, b, v_i, r_0 in _segments(p, events, dt, n, range(_BLOCK, n, _BLOCK)):
        mode = _averaged_mode(p, v_i, r_0)
        seg = x[:, : b - a + 1]
        _advance(seg, _ladder(mode, dt, b - a))
        np.matmul(mode.out, seg[:2], out=out[a : b + 1])
        x[:, 0] = seg[:, -1]
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("averaged simulation diverged")
    return Waveform(t0=0.0, dt=dt, samples=out)


@dataclass(frozen=True)
class SwitchedTrace:
    """Full per-substep record of a switched simulation.

    ``waveform`` exposes the output voltage on the simulation grid; the
    state arrays feed the energy audit.
    """

    dt: float
    steps_per_cycle: int
    i_l: np.ndarray
    v_c: np.ndarray
    v_out: np.ndarray
    i_c: np.ndarray
    on_phase: np.ndarray
    v_i_applied: np.ndarray
    r_0_applied: np.ndarray
    flags: tuple[str, ...] = field(default=())

    @property
    def waveform(self) -> Waveform:
        return Waveform(t0=0.0, dt=self.dt, samples=self.v_out)

    def cycle_averaged(self) -> Waveform:
        """Per-cycle means of the output voltage; settles even with ripple."""
        spc = self.steps_per_cycle
        n_cycles = (self.v_out.size - 1) // spc
        means = self.v_out[: n_cycles * spc].reshape(n_cycles, spc).mean(axis=1)
        return Waveform(t0=0.5 * spc * self.dt, dt=spc * self.dt, samples=means)


def simulate_switched(
    p: ConverterParams,
    events: Sequence[StepEvent],
    steps_per_cycle: int,
    t_end: float,
    initial_state="zero",
) -> SwitchedTrace:
    """Cycle-by-cycle simulation of the switched circuit, exact within each mode.

    Each cycle runs round(D * steps_per_cycle) substeps in the on mode and
    the rest in the off mode.  The first off-phase substep that ends with
    negative inductor current is clamped to zero and flags the trace "dcm";
    the idle mode then runs until the output falls to v_i - v_d, where the
    diode conducts again.
    """
    if steps_per_cycle < 50:
        raise ValueError("steps_per_cycle must be >= 50")
    period = p.period
    if t_end < 20.0 * period:
        raise ValueError("t_end must cover at least 20 switching periods")

    spc = steps_per_cycle
    dt = period / spc
    n = int(round(t_end / dt))
    on_steps = int(round(p.d * spc))
    x = _state_grid(p, initial_state, n)
    v_i_applied = np.empty(n + 1)
    r_0_applied = np.empty(n + 1)
    ladders: dict[tuple[float, float], list] = {}
    dcm = False

    phase_cuts = [*range(spc, n, spc), *range(on_steps, n, spc)]
    for a, b, v_i, r_0 in _segments(p, events, dt, n, phase_cuts):
        v_i_applied[a : b + 1] = v_i
        r_0_applied[a : b + 1] = r_0
        if (v_i, r_0) not in ladders:
            ladders[v_i, r_0] = [_ladder(m, dt, spc) for m in _modes(p, v_i, r_0)]
        on_rungs, off_rungs, idle_rungs = ladders[v_i, r_0]
        on = a % spc < on_steps
        k = r_0 / (r_0 + p.r_c)
        j = a
        while j < b:
            i_l, v_c = x[0, j], x[1, j]
            idle = not on and i_l <= 0.0 and k * (v_c + p.r_c * i_l) > v_i - p.v_d
            seg = x[:, j : b + 1]
            _advance(seg, idle_rungs if idle else on_rungs if on else off_rungs)
            if idle:
                stop = k * seg[1, 1:] <= v_i - p.v_d
            elif on and i_l >= 0.0:
                break  # the on mode only charges the inductor
            else:
                stop = seg[0, 1:] < 0.0
            m = int(stop.argmax())
            if not stop[m]:
                break
            j += m + 1
            if not idle:
                x[0, j] = 0.0
                dcm = dcm or not on
    i_l, v_c, v_out = x
    if not (np.all(np.isfinite(i_l)) and np.all(np.isfinite(v_c))):
        raise NonFiniteState("switched simulation diverged")

    # the diode current i_L reaches the output node only in the off phase;
    # v_out takes over the ones row of the state grid
    on_phase = np.resize(np.arange(spc) < on_steps, n + 1)
    i_c = np.where(on_phase, 0.0, i_l)
    np.multiply(i_c, p.r_c, out=v_out)
    v_out += v_c
    v_out *= r_0_applied
    i_c *= r_0_applied
    i_c -= v_c
    r_sum = r_0_applied + p.r_c
    v_out /= r_sum
    i_c /= r_sum
    return SwitchedTrace(dt, spc, i_l, v_c, v_out, i_c, on_phase, v_i_applied, r_0_applied,
                         flags=("dcm",) if dcm else ())


def _trapezoid(y: np.ndarray, t: np.ndarray) -> float:
    """Trapezoidal integral of the samples y over the grid t."""
    return float(np.sum(np.diff(t) * (y[1:] + y[:-1])) / 2.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Window energies, joules.

    ``e_l`` is the energy the source-inductor branch hands to the rest of
    the circuit: source input over the window minus the growth of stored
    magnetic energy.  The residual is what conservation says should vanish:

        residual = e_l - (e_c + e_r + e_vd + e_rm + e_rl + e_rc)
    """

    e_l: float
    e_c: float
    e_r: float
    e_vd: float
    e_rm: float
    e_rl: float
    e_rc: float

    @property
    def residual(self) -> float:
        return self.e_l - (self.e_c + self.e_r + self.e_vd + self.e_rm + self.e_rl + self.e_rc)


def energy_audit(
    p: ConverterParams, trace: SwitchedTrace, t0: float, t1: float
) -> EnergyBreakdown:
    """Trapezoidal energy bookkeeping of a switched trace over [t0, t1]."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    n = trace.v_out.size - 1
    i0 = int(round(t0 / trace.dt))
    i1 = int(round(t1 / trace.dt))
    if i0 < 0 or i1 > n:
        raise WindowOutOfRange(f"[{t0}, {t1}] outside trace of {n + 1} samples")
    if i0 == i1:
        return EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    sl = slice(i0, i1 + 1)
    t = trace.dt * np.arange(i0, i1 + 1)
    i_l = trace.i_l[sl]
    v_c = trace.v_c[sl]
    v_o = trace.v_out[sl]
    i_c = trace.i_c[sl]
    on = trace.on_phase[sl].astype(float)
    off = 1.0 - on

    stored_l = 0.5 * p.l * (i_l[-1] ** 2 - i_l[0] ** 2)
    return EnergyBreakdown(
        e_l=_trapezoid(trace.v_i_applied[sl] * i_l, t) - float(stored_l),
        e_c=float(0.5 * p.c * (v_c[-1] ** 2 - v_c[0] ** 2)),
        e_r=_trapezoid(v_o**2 / trace.r_0_applied[sl], t),
        e_vd=_trapezoid(off * i_l * p.v_d, t),
        e_rm=_trapezoid(on * i_l**2 * p.r_m, t),
        e_rl=_trapezoid(i_l**2 * p.r_l, t),
        e_rc=_trapezoid(i_c**2 * p.r_c, t),
    )
