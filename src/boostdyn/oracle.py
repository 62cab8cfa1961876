"""Numerical ground truth: an averaged and a cycle-by-cycle switched
simulator built on one piecewise-linear description of the circuit, an
energy-conservation audit, and the independent check of the closed-form
second-order responses.

One exact propagator steps every reference.  Each is an affine system
x' = A x + u: the averaged circuit, the switched circuit in each of its
modes (switch on, diode conducting, and idle with i_L = 0 in discontinuous
conduction), both in x = (i_L, v_C), and a second-order ODE in its
companion state.  A substep is the augmented matrix exponential (Van Loan,
IEEE TAC 1978), and a run of substeps is filled by doubling its powers.

The switched circuit runs at cycle rate in continuous conduction, where a
cycle is one affine map x -> phi x + gamma (the sampled-data model of
Verghese, Elbuluk and Kassakian, IEEE TPEL 1986): doubling that map gives
the starts of a run of cycles, and the i_L row of a cycle table of the
exact maps to each sample shows whether any of their off phases dips below
zero.  The cycle that dips, and a cycle that an event splits, are stepped
stretch by stretch in one cycle's columns.  That one trajectory gives both
switched outputs.  ``switched_cycle_means``, which
``analysis.compare_models`` scores with, keeps the output mean of each
whole cycle, in continuous conduction one product w @ (i_L, v_C, 1) with
its start.  ``simulate_switched`` also writes the grid that it returns and
that the energy audit reads: a batch's samples are its starts times the
table, and a stepped cycle's samples are its columns.  All grids are fixed,
so repeated runs produce identical waveforms.

The averaged circuit is the duty-weighted average of the switched modes
(Middlebrook and Cuk, PESC 1976).  Its output across an event is an exact
two-pole form, ``averaged_step_form``, which ``ebm`` solves and samples and
which ``simulate_averaged`` steps on a grid.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import ebm
from .circuit import (
    MAX_STEPS_PER_CYCLE,
    ConverterParams,
    GridTooLarge,
    ModelDomainError,
    StepEvent,
    StepKind,
    Waveform,
    _grid_steps,
    parasitic_free,
)

class NonFiniteState(ModelDomainError):
    """The integrator diverged to a non-finite state."""


class WindowOutOfRange(ModelDomainError):
    """Audit window falls outside the simulated trace."""


class _Mode(NamedTuple):
    """x' = a x + u in a two-entry state x, such as (i_L, v_C), with output out @ x."""

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


def _ladder(mode: _Mode, h: float, steps: int) -> list[np.ndarray]:
    """Exact maps of one mode over 1, 2, 4, ... substeps of length h, up to
    ``steps`` substeps.

    One substep is the augmented exponential exp([[A, u], [0, 0]] h) =
    [[phi, gamma], [0, 1]] (Van Loan), so a singular A, as in a lossless
    on mode or the idle mode, needs no special case.  It is a Taylor series
    of the matrix scaled by 2^-s, squared s times: the first s doublings,
    whose rungs are dropped.  A rung keeps the rows [phi, gamma], which act
    on the column (x, 1).
    """
    aug = np.zeros((3, 3))
    aug[:2] = np.column_stack([mode.a, mode.u]) * h
    s = max(0, math.frexp(float(np.abs(aug).sum(axis=1).max()))[1] + 1)
    a = aug / 2.0**s
    term = e = np.eye(3)
    for k in range(1, 19):
        term = term @ a / k
        e = e + term
    return _doublings(e, max(steps, 1) << s)[s:]


def _doublings(e: np.ndarray, steps: int) -> list[np.ndarray]:
    """Rows [phi, gamma] of e = [[phi, gamma], [0, 1]] and of its powers 2, 4, ... <= steps."""
    rungs = [e[:2]]
    while 2 ** len(rungs) <= steps:
        e = e @ e
        rungs.append(e[:2])
    return rungs


def _advance(x: np.ndarray, rungs: list[np.ndarray]) -> None:
    """Fill the (x, 1) columns x[..., 1:] from x[..., 0] by exact
    steps of one affine map; the rung over ``span`` steps maps columns
    [0, span) onto [span, 2 span).  Leading axes of x are a batch."""
    k = x.shape[-1] - 1
    span = 1
    for rung in rungs:
        if span > k:
            break
        w = min(span, k + 1 - span)
        np.matmul(rung, x[..., :w], out=x[..., :2, span : span + w])
        span *= 2


def _cycle_table(rungs: list[list[np.ndarray]], on_steps: int, spc: int) -> np.ndarray:
    """The exact maps, shape (2, 3, spc), from a cycle's start column
    (i_L, v_C, 1) to its samples 1..spc when its inductor current never
    falls below zero: the on-mode powers, then the off-mode powers times
    the whole on phase.  Built by advancing the three unit columns."""
    maps = []
    start = np.eye(3)
    for steps, mode_rungs in ((on_steps, rungs[0]), (spc - on_steps, rungs[1])):
        # run[j, :, s] is unit column j after s substeps of this phase
        run = np.repeat(start[:, :, None], steps + 1, axis=2)
        _advance(run, mode_rungs)
        maps.append(run[:, :2, 1:])
        start = run[:, :, -1]
    return np.ascontiguousarray(np.concatenate(maps, axis=2).transpose(1, 0, 2))


def integrate_second_order(m2: float, m1: float, m0: float, forcing: float,
                           v0: float, dv0: float, dt: float, t_end: float) -> Waveform:
    """Exact fixed-step solution of  m2 v'' + m1 v' + m0 v = forcing.

    Serves as the independent oracle for every closed-form second-order
    response in the library: it steps the ODE's companion state with the
    oracles' exact maps, and uses neither its roots nor trigonometry.
    """
    return Waveform(t0=0.0, dt=dt, samples=_stepped(m2, m1, m0, forcing, v0, dv0, dt, t_end))


def _stepped(m2, m1, m0, forcing, v0, dv0, dt, t_end, t_event=0.0, before=0.0):
    """``integrate_second_order``'s samples from t_event's nearest one, at ``before`` until then."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, not {dt!r}")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, not {t_end!r}")
    n, e = _grid_steps(t_end, dt), int(round(t_event / dt))
    out = np.full(n + 1, before)
    if e > n:
        return out
    # the state is (v, v'/w) with w = sqrt|m0/m2|: on these circuits v' is
    # ~1e4 v, and with the unscaled (v, v') the doubled maps lose digits
    # (3e-11 of the EBM peaks, against 2e-13 scaled)
    w = math.sqrt(abs(m0 / m2)) or 1.0
    mode = _Mode(np.array([[0.0, w], [-m0 / (m2 * w), -m1 / m2]]),
                 np.array([0.0, forcing / (m2 * w)]), np.array([1.0, 0.0]))
    x = np.ones((3, n + 1 - e))
    x[:2, 0] = v0, dv0 / w
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        _advance(x, _ladder(mode, dt, n - e))
        np.matmul(mode.out, x[:2], out=out[e:])
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("second-order integration diverged")
    return out


def _state_grid(p: ConverterParams, initial_state, n: int) -> np.ndarray:
    """(i_L, v_C, 1) columns for samples 0..n with the first one set by
    ``initial_state``: "zero" is rest, "steady" the fixed point of the
    averaged modes, or rest where the diode blocks at i_L = 0."""
    x = np.ones((3, n + 1))
    if initial_state == "zero":
        x[:2, 0] = 0.0
    elif initial_state == "steady" and p.v_i <= (1.0 - p.d) * p.v_d:
        x[:2, 0] = 0.0  # the diode blocks: the averaged circuit rests, as averaged_step_form does
    elif initial_state == "steady":
        # a x = -u by Cramer's rule, which leaves LAPACK unloaded
        mode = _averaged_mode(p, p.v_i, p.r_0)
        (a, b), (c, d), (u0, u1) = *mode.a, mode.u
        x[:2, 0] = (b * u1 - d * u0) / (a * d - b * c), (c * u0 - a * u1) / (a * d - b * c)
    else:
        raise ValueError("initial_state must be 'zero' or 'steady'")
    return x


def _segments(p: ConverterParams, events: Sequence[StepEvent], dt: float, n: int):
    """(a, b, v_i, r_0): the input and load in force on [a, b] of the grid
    0..n, before and after the one event, if any, from its nearest sample < n."""
    e = int(round(events[0].t_event / dt)) if events else n
    if e > 0:
        yield 0, min(e, n), p.v_i, p.r_0
    if e < n:
        ev = events[0]
        if ev.kind is StepKind.INPUT_VOLTAGE:
            yield e, n, ev.value_after, p.r_0
        else:
            yield e, n, p.v_i, ev.value_after


def simulate_averaged(
    p: ConverterParams,
    events: Sequence[StepEvent],
    dt: float,
    t_end: float,
    include_parasitics: bool = True,
    initial_state="zero",
) -> Waveform:
    """Exact fixed-step solution of the two-state averaged model across at
    most one event: ``averaged_step_form`` stepped as by
    ``integrate_second_order`` from the event's nearest sample, at its level
    before the event until then.  Without an event the circuit moves from
    its start at t = 0.

    Its matrices are the duty-weighted average of the switched modes, so
    r_l, r_m, r_c and v_d all enter the dynamics, and the output is
    R0/(R0 + r_c) * (v_C + (1 - D) r_c i_L); parasitics off: ``parasitic_free(p)``.
    """
    if len(events) > 1:
        raise ValueError("simulate_averaged takes at most one event")
    event = events[0] if events else StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, p.r_0)
    if not include_parasitics:
        p = parasitic_free(p)
    before, form = averaged_step_form(p, event, initial_state)
    w2 = form.omega0 * form.omega0
    samples = _stepped(1.0, 2.0 * form.xi * form.omega0, w2, w2 * form.v_inf, form.v0,
                       form.dv0, dt, t_end, event.t_event, before)
    return Waveform(t0=0.0, dt=dt, samples=samples)


def averaged_step_form(p: ConverterParams, event: StepEvent,
                       initial_state="zero") -> tuple[float, ebm.SecondOrderForm]:
    """The averaged circuit's output across ``event``, in closed form: its
    level before the event, and after it the two-pole form whose time 0 is
    the event, which ``ebm.ebm_response`` and ``ebm.ebm_metrics`` solve.

    The circuit of ``p`` (``parasitic_free(p)`` for the ideal one) stands at
    the start that ``initial_state`` sets until the event: at rest, or at
    the fixed point of the averaged modes.
    After it x' = A x + u, so by Cayley-Hamilton its output y = c x obeys

        y'' - tr(A) y' + det(A) y = det(A) y_inf,   y_inf = -c A^-1 u,

    from y(0) = c x0 and y'(0) = c (A x0 + u) (Middlebrook and Cuk), which is
    what ``simulate_averaged`` steps from the event's sample on.  Where
    the diode blocks at rest, the output stays at 0 and so does the form.
    """
    x0 = _state_grid(p, initial_state, 0)[:2, 0]
    threshold = (1.0 - p.d) * p.v_d
    if initial_state == "zero" and p.v_i > threshold and event.t_event > 0.0:
        raise ValueError("the averaged circuit moves before the event from rest at this input")
    before = float(_averaged_mode(p, p.v_i, p.r_0).out @ x0)
    if event.kind is StepKind.INPUT_VOLTAGE:
        v_i, r_0 = event.value_after, p.r_0
    else:
        v_i, r_0 = p.v_i, event.value_after
    mode = _averaged_mode(p, v_i, r_0)
    (a, b), (c, d), (u0, u1) = *mode.a.tolist(), mode.u.tolist()
    # the forcing is det(A) c x_inf, with x_inf by Cramer's rule as in _state_grid
    co = ebm.OdeCoefficients(m2=1.0, m1=-(a + d), m0=a * d - b * c,
                             forcing=float(mode.out @ (b * u1 - d * u0, c * u0 - a * u1)))
    if x0[0] <= 0.0 and v_i <= threshold:  # x0 is rest, and the form has nothing to move it
        return before, ebm.to_standard_form(replace(co, forcing=0.0), 0.0, 0.0)
    return before, ebm.to_standard_form(co, float(mode.out @ x0),
                                        float(mode.out @ (mode.a @ x0 + mode.u)))


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


class CycleMeans(NamedTuple):
    """The output means of a switched run's whole cycles, one per cycle at
    its midpoint, and the run's flags."""

    waveform: Waveform
    flags: tuple[str, ...]


def _output(i_l, v_c, on_phase, r_0, r_c: float, out=None) -> np.ndarray:
    """The output voltage R0/(R0 + r_c) (v_C + r_c i_L) of switched samples:
    the diode current i_L reaches the output node only off phase."""
    out = np.multiply(np.where(on_phase, 0.0, i_l), r_c, out=out)
    out += v_c
    out *= r_0
    out /= r_0 + r_c
    return out


#: the most elements of one batch's dip check, its cycles times their off-phase
#: substeps: 2^20 floats, 8 MB, whatever the length of the run
_DIP_CHECK_SIZE = 2**20


def _switched_cycles(p: ConverterParams, events: Sequence[StepEvent], spc: int,
                     t_end: float, initial_state, keep_grid: bool = False):
    """The cycle loop of both switched outputs: (the output mean of each
    whole cycle, the grid of (i_L, v_C, 1) samples if ``keep_grid`` else None, dcm).

    A CCM batch advances only its cycle starts, each mean one product
    w @ (i_L, v_C, 1), and reads its off-phase currents for a dip below zero
    from the cycle table's i_L row alone, for at most ``_DIP_CHECK_SIZE``
    off-phase substeps at once.  The cycle that dips, and every cycle
    stepped stretch by stretch, fills one cycle's columns and is averaged;
    only an off phase clamps.  A kept grid is written from the same run.
    """
    if not isinstance(spc, numbers.Integral) or spc < 50:
        raise ValueError(f"steps_per_cycle must be an integer >= 50, not {spc!r}")
    if spc > MAX_STEPS_PER_CYCLE:
        raise GridTooLarge(f"steps_per_cycle {spc} is over {MAX_STEPS_PER_CYCLE}")
    if len(events) > 1:
        raise ValueError("the switched oracle takes at most one event")
    period = p.period
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, not {t_end!r}")
    if t_end < 20.0 * period:
        raise ValueError("t_end must cover at least 20 switching periods")

    dt = period / spc
    n = _grid_steps(t_end, dt) if keep_grid else int(round(t_end / dt))
    on_steps = int(round(p.d * spc))
    on_phase = np.arange(spc) < on_steps
    # the columns of the cycle in hand and its end, and the load at each
    x = _state_grid(p, initial_state, spc)
    r_0s = np.empty(spc + 1)
    grid = _state_grid(p, initial_state, n) if keep_grid else None
    means: list[float] = []
    # the ladder of the on (0), off (1) or idle (2) mode, built at its first use
    rungs = functools.cache(lambda v_i, r_0, mode: _ladder(_modes(p, v_i, r_0)[mode], dt, spc))
    dcm = False
    batch = n // spc
    # an on phase may fill the whole cycle, and leave no off substep to check
    max_batch = max(1, _DIP_CHECK_SIZE // max(1, spc - on_steps))

    def close_cycle(c0: int) -> None:
        """Average and write the cycle in hand, from sample c0, and start the next at its end."""
        means.append(float(_output(x[0, :spc], x[1, :spc], on_phase, r_0s[:spc], p.r_c).mean()))
        if grid is not None:
            grid[:2, c0 + 1 : c0 + spc + 1] = x[:2, 1:]
        x[:, 0] = x[:, spc]

    for a, b, v_i, r_0 in _segments(p, events, dt, n):
        table = _cycle_table([rungs(v_i, r_0, 0), rungs(v_i, r_0, 1)], on_steps, spc)
        cycle_rungs = _doublings(np.vstack([table[:, :, -1], (0.0, 0.0, 1.0)]), n // spc)
        # samples 0..spc-1 of the unit start columns, so w @ (i_L, v_C, 1) is a cycle's mean
        unit = np.concatenate([np.eye(3)[:2, :, None], table[:, :, :-1]], axis=2)
        w = _output(unit[0], unit[1], on_phase, r_0, p.r_c).mean(axis=1)
        k = r_0 / (r_0 + p.r_c)
        j = a
        while j < b:
            c0 = j - j % spc
            r_0s[j - c0 :] = r_0
            whole = min(batch, max_batch, (b - j) // spc) if j == c0 and x[0, 0] >= 0.0 else 0
            if whole:
                starts = np.repeat(x[:, :1], whole, axis=1)
                _advance(starts, cycle_rungs)
                below = starts.T @ table[0, :, on_steps:] < 0.0
                dips = below.any(axis=1)
                first = int(dips.argmax()) if dips.any() else whole
                means.extend((w @ starts[:, :first]).tolist())
                if grid is not None:
                    np.matmul(starts[:, :first].T, table,
                              out=grid[:2, j + 1 : j + 1 + first * spc].reshape(2, first, spc))
                if first == whole:
                    x[:2, 0] = table[:, :, -1] @ starts[:, -1]
                    j += whole * spc
                    batch *= 2
                    continue
                c0 = j + first * spc
                x[:, 0] = starts[:, first]
                x[:2, 1:] = starts[:, first] @ table
                j = c0 + on_steps  # its on phase stands
                if x[0, on_steps] > 0.0:  # and its off mode up to the first substep below zero
                    j += int(below[first].argmax()) + 1
                    x[0, j - c0], dcm = 0.0, True
                batch = 1
                if j == c0 + spc:  # the clamp is the next cycle's start
                    close_cycle(c0)
                    c0 = j
            cycle_end = min(c0 + spc, b) - c0
            # what is left of this cycle's on phase, which keeps its start's i_L >= 0
            i = j - c0
            if i < on_steps:
                _advance(x[:, i : min(on_steps, cycle_end) + 1], rungs(v_i, r_0, 0))
                i = on_steps
            # then of its off phase, the only phase that clamps: i_L <= 0 is i_L = 0
            while i < cycle_end:
                idle = x[0, i] <= 0.0 and k * x[1, i] > v_i - p.v_d
                seg = x[:, i : cycle_end + 1]
                _advance(seg, rungs(v_i, r_0, 2 if idle else 1))
                stop = k * seg[1, 1:] <= v_i - p.v_d if idle else seg[0, 1:] < 0.0
                m = int(stop.argmax())
                if not stop[m]:
                    break
                i += m + 1
                if not idle:
                    x[0, i], dcm = 0.0, True
            j = c0 + cycle_end
            if cycle_end == spc:
                close_cycle(c0)
    if grid is not None:  # the last cycle, where it is not whole
        grid[:2, n - n % spc + 1 :] = x[:2, 1 : n % spc + 1]
    return np.array(means), grid, dcm


def simulate_switched(
    p: ConverterParams,
    events: Sequence[StepEvent],
    steps_per_cycle: int,
    t_end: float,
    initial_state="zero",
) -> SwitchedTrace:
    """Cycle-by-cycle run of the switched circuit across at most one event.

    Each cycle runs round(D * steps_per_cycle) substeps in the on mode, which
    keeps the i_L >= 0 the cycle starts at, then the rest in the off mode.
    Whole cycles run in batches: doubling the one-cycle map of the cycle table
    (``_cycle_table``, built at the start and at the event) gives their starts,
    and their samples are the starts times the table.  A cycle whose off phase
    dips below i_L = 0, or that an event splits, is stepped stretch by stretch
    in its columns: only an off substep that ends below zero is clamped,
    flagging the trace "dcm", and the idle mode runs until the output falls to
    v_i - v_d.  After a clamp the batch restarts at one cycle and doubles.
    """
    spc = steps_per_cycle
    _, grid, dcm = _switched_cycles(p, events, spc, t_end, initial_state, keep_grid=True)
    i_l, v_c, v_out = grid
    if not (np.all(np.isfinite(i_l)) and np.all(np.isfinite(v_c))):
        raise NonFiniteState("switched simulation diverged")

    dt = p.period / spc
    n = v_out.size - 1
    v_i_applied = np.empty(n + 1)
    r_0_applied = np.empty(n + 1)
    for a, b, v_i, r_0 in _segments(p, events, dt, n):
        v_i_applied[a : b + 1] = v_i
        r_0_applied[a : b + 1] = r_0
    # v_out takes over the ones row of the state grid
    on_phase = np.resize(np.arange(spc) < int(round(p.d * spc)), n + 1)
    _output(i_l, v_c, on_phase, r_0_applied, p.r_c, out=v_out)
    return SwitchedTrace(dt, spc, i_l, v_c, v_out, on_phase, v_i_applied, r_0_applied,
                         flags=("dcm",) if dcm else ())


def switched_cycle_means(
    p: ConverterParams,
    events: Sequence[StepEvent],
    steps_per_cycle: int,
    t_end: float,
    initial_state="zero",
) -> CycleMeans:
    """The run of ``simulate_switched`` reduced to what
    ``SwitchedTrace.cycle_averaged`` reads of it, its output mean over each
    whole cycle, with its flags: the same trajectory without its grid, whose
    continuous conduction advances only the cycle starts.
    """
    means, _, dcm = _switched_cycles(p, events, steps_per_cycle, t_end, initial_state)
    if not np.all(np.isfinite(means)):
        raise NonFiniteState("switched simulation diverged")
    dt = p.period / steps_per_cycle
    wave = Waveform(t0=0.5 * steps_per_cycle * dt, dt=steps_per_cycle * dt, samples=means)
    return CycleMeans(wave, ("dcm",) if dcm else ())


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
    for name, t in (("t0", t0), ("t1", t1)):
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite, not {t!r}")
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
    r_0 = trace.r_0_applied[sl]
    i_c = (np.where(trace.on_phase[sl], 0.0, i_l) * r_0 - v_c) / (r_0 + p.r_c)
    on = trace.on_phase[sl].astype(float)
    off = 1.0 - on

    stored_l = 0.5 * p.l * (i_l[-1] ** 2 - i_l[0] ** 2)
    return EnergyBreakdown(
        e_l=_trapezoid(trace.v_i_applied[sl] * i_l, t) - float(stored_l),
        e_c=float(0.5 * p.c * (v_c[-1] ** 2 - v_c[0] ** 2)),
        e_r=_trapezoid(v_o**2 / r_0, t),
        e_vd=_trapezoid(off * i_l * p.v_d, t),
        e_rm=_trapezoid(on * i_l**2 * p.r_m, t),
        e_rl=_trapezoid(i_l**2 * p.r_l, t),
        e_rc=_trapezoid(i_c**2 * p.r_c, t),
    )
