"""Error metrics, model comparison tables, parameter sweeps and
overshoot-mitigation paths over the component space.

``closed_form`` is the one place that solves an (event, model) pair in
closed form, once, for its metrics, its pre-event level and its post-event
response; ``closed_form_metrics``, ``compare_models`` and the CLI all use it.
``compare_models`` scores every row on one grid, the switched run's cycle
midpoints, where its switched row is the cycle means and each form (the
averaged rows are exact two-pole forms too) is evaluated exactly.
``_cold_start`` evaluates every cold start of sweeps and descents, of one
design or of field arrays, each model on its own kernel with no event or
record.  Every workflow takes every model of ``CLOSED_FORMS``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import ebm, tfm_line, tfm_load
from .circuit import (
    FIELD_RULES,
    ConverterParams,
    ModelDomainError,
    ResponseMetrics,
    StepEvent,
    StepKind,
    Waveform,
    _IDEAL_PARASITICS,
    _check_fields,
    _uniform_times,
    parasitic_free,
)
from .oracle import averaged_step_form, switched_cycle_means
from .steady import steady_output

#: measured reference scalars (steady V, peak V) for the two bench scenarios
AER_INPUT_STEP = (5.35, 6.74)
AER_LOAD_STEP = (8.80, 13.43)

CLOSED_FORMS = ("ebm", "tfm", "fr")
SWEEP_AXES = ("v_i", "d", "l", "c", "r_0", "r_l", "r_c", "r_m", "v_d")
SWEEP_METRICS = ("v_max", "v_steady", "t_p")


class ZeroReference(ModelDomainError):
    """Relative error against a zero reference value is undefined."""


class NotSettled(ModelDomainError):
    """The waveform tail still moves too much to call a steady value."""


class UnsupportedAxisPair(ValueError):
    """Sweep axes must be two distinct converter parameters."""


class ConstraintInfeasible(ModelDomainError):
    """No design satisfies the descent constraint."""


def error_percent(y_actual: float, y_fit: float) -> float:
    """|y - y_hat| / y * 100."""
    if y_actual == 0:
        raise ZeroReference("reference value is zero")
    return abs(y_actual - y_fit) / abs(y_actual) * 100.0


def rmse(actual: np.ndarray, fit: np.ndarray) -> float:
    """Root-mean-square error between two sample arrays of one grid."""
    diff = actual - fit
    return float(np.sqrt(np.mean(diff * diff)))


def extract_metrics(w: Waveform, t_event: float) -> ResponseMetrics:
    """Steady value, refined peak and peak time of a sampled waveform.

    The steady value averages the final 10 percent of the post-event
    samples, which must vary by less than 0.5 percent; the peak is the
    post-event maximum sharpened by three-point quadratic interpolation.
    """
    start = max(0, int(math.ceil((t_event - w.t0) / w.dt)))
    seg = w.samples[start:]
    if seg.size == 0:
        raise ValueError(f"no sample lies after t_event = {t_event:g} s")
    tail = seg[-max(1, seg.size // 10):]
    mean = float(np.mean(tail))
    span = float(np.max(tail) - np.min(tail))
    if mean == 0 or span / abs(mean) >= 0.005:
        raise NotSettled("waveform tail varies by >= 0.5% of its mean")

    k = int(np.argmax(seg))
    v_max = float(seg[k])
    t_max = w.t0 + (start + k) * w.dt
    if 0 < k < seg.size - 1:
        y0, y1, y2 = float(seg[k - 1]), float(seg[k]), float(seg[k + 1])
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            shift = 0.5 * (y0 - y2) / denom
            v_max = y1 - 0.25 * (y0 - y2) * shift
            t_max += shift * w.dt
    return ResponseMetrics(mean, v_max, max(0.0, t_max - t_event))


# --- model comparison ------------------------------------------------------

MODEL_ROWS = CLOSED_FORMS + ("avg+par", "avg-par", "switched")


@dataclass(frozen=True, slots=True)
class ModelRow:
    model: str
    v_steady: float
    v_max: float
    t_p: Optional[float]
    steady_error_pct: Optional[float] = None
    dynamic_error_pct: Optional[float] = None
    rmse_v: Optional[float] = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ComparisonTable:
    event: StepEvent
    reference: str
    rows: tuple[ModelRow, ...]

    def row(self, model: str) -> ModelRow:
        for r in self.rows:
            if r.model == model:
                return r
        raise KeyError(model)


class ClosedForm(NamedTuple):
    """One closed-form solve of an event: its metrics, the output level
    before the event, and the response ``after(t)`` at times t >= 0 after it."""

    metrics: ResponseMetrics
    before: float
    after: Callable

    def at(self, t: np.ndarray, t_event: float) -> np.ndarray:
        """The output at the times ``t``: the pre-event level before
        ``t_event``, the response from it on."""
        post = self.after(np.clip(t - t_event, 0.0, None))
        return np.where(t < t_event, self.before, post)

    def waveform(self, t_event: float, dt: float, t_end: float) -> Waveform:
        """The response sampled every ``dt`` from 0 to ``t_end``."""
        return Waveform(0.0, dt, self.at(_uniform_times(int(round(t_end / dt)) + 1, dt), t_event))


def _second_order_tf(tf: tfm_line.SecondOrderTF, base: float, k: float) -> ClosedForm:
    """Line step of height ``k`` through ``tf`` from the level ``base``; a
    step of height 0 leaves the output flat, with no peak."""
    v_steady, v_max, t_p = map(float, tfm_line.line_step_metrics(tf, base, k))
    if k == 0:
        m = ResponseMetrics(base, base, None, flags=("no-peak",))
    elif math.isnan(t_p):
        m = ResponseMetrics(v_steady, v_steady, None, flags=("overdamped",))
    else:
        m = ResponseMetrics(v_steady, v_max, t_p)
    return ClosedForm(m, base, lambda t: base + tfm_line.line_step_response(tf, k, t))


def _check_input_step(p: ConverterParams, event: StepEvent) -> None:
    """Refuse an input step that does not end at the design's input voltage:
    every model and oracle must solve a step to the same ``p.v_i``."""
    if event.kind is StepKind.INPUT_VOLTAGE and event.value_after != p.v_i:
        raise ValueError(f"an input step must end at the design's input voltage: "
                         f"value_after {event.value_after!r} V is not v_i {p.v_i!r} V")


def _check_model(model: str) -> None:
    if model not in CLOSED_FORMS:
        *rest, last = map(repr, CLOSED_FORMS)
        raise ValueError(f"model must be one of {', '.join(rest)} or {last}, not {model!r}")


def closed_form(p: ConverterParams, event: StepEvent, model: str) -> ClosedForm:
    """Solve ``event`` on ``p`` once with the closed-form ``model``, one of
    CLOSED_FORMS: its metrics, pre-event level and post-event response.

    An input step ends at ``p.v_i`` (any other step is refused) and starts
    from the steady output at the pre-step input (zero for a cold start),
    a load step from the steady output at the pre-step load.  FR solves an
    input step as the TFM of ``parasitic_free(p)``, and has no load-step
    transient: it stays flat at Vi/(1-D) and is flagged "no-transient".
    """
    _check_input_step(p, event)
    _check_model(model)
    if model == "ebm":
        if event.kind is StepKind.INPUT_VOLTAGE:
            form = ebm.startup_form(p, v_before=event.value_before)
        else:
            form = ebm.load_step_form(p, event.value_before, event.value_after)
        return ClosedForm(ebm.ebm_metrics(form), form.v0, lambda t: ebm.ebm_response(form, t))
    if event.kind is StepKind.INPUT_VOLTAGE:
        q = parasitic_free(p) if model == "fr" else p
        tf = tfm_line.line_tf_coefficients(q)
        base = 0.0
        if event.value_before > 0:
            base = steady_output(replace(q, v_i=event.value_before))
        return _second_order_tf(tf, base, event.delta)
    if model == "fr":
        level = p.v_i / (1.0 - p.d)
        flat = ResponseMetrics(level, level, None, flags=("no-transient",))
        return ClosedForm(flat, level, lambda t: np.full_like(t, level))
    pre = replace(p, r_0=event.value_before)
    base = steady_output(pre)
    modes = tfm_load.load_modes(pre, event.delta)
    return ClosedForm(tfm_load.mode_sum_metrics(base, modes), base,
                      lambda t: base + modes.deviation(t))


def closed_form_metrics(p: ConverterParams, event: StepEvent, model: str) -> ResponseMetrics:
    """Analytic response metrics for one model and one event."""
    return closed_form(p, event, model).metrics


def default_comparison_t_end(p: ConverterParams, event: StepEvent) -> float:
    """Whole-cycle horizon long enough for the slowest row to settle.

    The parasitic-free rows have only the load to damp them, so the horizon
    is set by whichever of the two coefficient sets settles slower: at
    xi w0 = m1/(2 m2) while underdamped, else at the slow real pole
    w0 (xi - sqrt(xi^2 - 1)) = w0^2 / (xi w0 + sqrt((xi w0)^2 - w0^2)).
    """
    r_post = event.value_after if event.kind is StepKind.LOAD_RESISTANCE else p.r_0
    rates = []
    for q in (p, parasitic_free(p)):
        co = ebm.ode_coefficients(q, r_0=r_post)
        rate, w0_sq = co.m1 / (2.0 * co.m2), co.m0 / co.m2
        if rate * rate >= w0_sq:
            rate = w0_sq / (rate + math.sqrt(rate * rate - w0_sq))
        rates.append(rate)
    settle = 12.0 / min(rates)
    period = p.period
    return (math.ceil((event.t_event + settle) / period) + 20) * period


def simulation_setup(
    p: ConverterParams, event: Optional[StepEvent], initial_without_event: str = "zero"
) -> tuple[ConverterParams, str, list[StepEvent]]:
    """(params, initial state, events) of an oracle run of ``event`` on ``p``:
    an event starts steady at the pre-event input or load, a cold input
    step (no input before it) from rest, and no event from
    ``initial_without_event``.  An input step must end at ``p.v_i``."""
    if event is None:
        return p, initial_without_event, []
    _check_input_step(p, event)
    if event.kind is StepKind.INPUT_VOLTAGE:
        initial = "steady" if event.value_before else "zero"
        return replace(p, v_i=event.value_before), initial, [event]
    return replace(p, r_0=event.value_before), "steady", [event]


def _averaged_row(p: ConverterParams, event: StepEvent, initial_state: str) -> ClosedForm:
    """An averaged row of ``compare_models``: the averaged circuit's exact
    two-pole form (``oracle.averaged_step_form``) from the oracle start
    ``p``, ``initial_state``.  Its metrics mean what a sampled run's would:
    v_steady the settled value, and v_max the largest value after the
    event, which is the form's first maximum, or its value just after the
    event, at t_p = 0, where that is larger: the output falls from it, as
    on a load resistance decrease.  A flat form keeps its "no-peak" flag
    and no t_p."""
    before, form = averaged_step_form(p, event, initial_state)
    m = ebm.ebm_metrics(form)
    flat = m.flags == ("no-peak",)  # how ebm_metrics marks a form with no transient
    if not flat and form.v0 > m.v_max:
        m = ResponseMetrics(m.v_steady, form.v0, 0.0,
                            tuple(flag for flag in m.flags if flag != "no-peak"))
    return ClosedForm(m, before, partial(ebm.ebm_response, form))


def compare_models(
    p: ConverterParams,
    event: StepEvent,
    reference: str = "switched",
    t_end: Optional[float] = None,
    steps_per_cycle: int = 200,
) -> ComparisonTable:
    """One row per model: closed forms, both averaged oracles and the
    switched oracle, each with metrics and errors against the reference.

    Every row is evaluated once, on one grid whatever the reference: the
    cycle midpoints of the switched run (``switched_cycle_means``, at
    ``steps_per_cycle`` substeps per cycle of ``p.period``, with no grid of
    them).  The switched row is its output means over whole cycles.  Five
    rows are forms, solved exactly and acting at the exact ``t_event``: the
    three closed forms and the two averaged rows, the averaged circuit's own
    two-pole form (``_averaged_row``).  A row's rmse is against the
    reference row's samples, so it is symmetric.  ``reference`` is a row
    name or "aer" to score against the embedded measured scalars (no
    waveform, so no rmse in that mode).  An input step must end at
    ``p.v_i``.
    """
    if reference not in MODEL_ROWS + ("aer",):
        raise ValueError(f"reference must be one of {MODEL_ROWS + ('aer',)}, not {reference!r}")
    sim_p, initial, events = simulation_setup(p, event)
    if t_end is None:
        t_end = default_comparison_t_end(p, event)
    cycles = switched_cycle_means(sim_p, events, steps_per_cycle, t_end, initial_state=initial)
    cyc = cycles.waveform
    midpoints = cyc.times

    forms = {model: closed_form(p, event, model) for model in CLOSED_FORMS}
    forms["avg+par"] = _averaged_row(sim_p, event, initial)
    forms["avg-par"] = _averaged_row(parasitic_free(sim_p), event, initial)
    # model -> (metrics, its output at the cycle midpoints)
    solved = {model: (form.metrics, form.at(midpoints, event.t_event))
              for model, form in forms.items()}
    switched = replace(extract_metrics(cyc, event.t_event), flags=cycles.flags)
    solved["switched"] = (switched, cyc.samples)

    if reference == "aer":
        ref_steady, ref_peak = (
            AER_INPUT_STEP if event.kind is StepKind.INPUT_VOLTAGE else AER_LOAD_STEP
        )
        ref_samples = None
    else:
        ref_m, ref_samples = solved[reference]
        ref_steady, ref_peak = ref_m.v_steady, ref_m.v_max

    rows = []
    for model in MODEL_ROWS:
        m, samples = solved[model]
        scored = ref_samples is not None and model != reference
        rows.append(ModelRow(
            model=model, v_steady=m.v_steady, v_max=m.v_max, t_p=m.t_p,
            steady_error_pct=error_percent(ref_steady, m.v_steady),
            dynamic_error_pct=error_percent(ref_peak, m.v_max),
            rmse_v=rmse(ref_samples, samples) if scored else None,
            flags=m.flags,
        ))
    return ComparisonTable(event=event, reference=reference, rows=tuple(rows))


# --- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    n: int
    log: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"axis {self.name!r} needs an integer n, not {self.n!r}")
        for bound in ("lo", "hi"):
            value = getattr(self, bound)
            if not math.isfinite(value):
                raise ValueError(f"axis {self.name!r} needs a finite {bound}, not {value!r}")
            if self.log and not value > 0:
                raise ValueError(f"log axis {self.name!r} needs {bound} > 0, not {value!r}")

    @property
    def values(self) -> np.ndarray:
        if self.log:
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.n)
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class SweepGrid:
    axis1: SweepAxis
    axis2: SweepAxis
    metric: str
    values: np.ndarray   # shape (axis1.n, axis2.n)

    @property
    def valid(self) -> np.ndarray:
        """Bool mask of the cells that hold a value."""
        return np.isfinite(self.values)


def _cold_start(q, model: str, metric: str):
    """``metric`` ("v_steady", "v_max" or "t_p") of the cold start of ``q`` by
    ``model``, an input step from 0 to ``q.v_i``; NaN where it has no value.
    ``q`` carries the fields: one design's numbers, or arrays that broadcast,
    whose shape the answer then has.  The TFM and FR (the ideal fields) run
    on the line kernel, the EBM on its ODE coefficients, NaN where m2 or m0
    is not positive.  Only the EBM peak search goes design by design: one
    design raises where it is refused, a cell of arrays is NaN there.
    """
    if model == "fr":
        q = SimpleNamespace(**{**{n: getattr(q, n) for n in FIELD_RULES}, **_IDEAL_PARASITICS})
    if model != "ebm":
        solved = tfm_line.line_step_metrics(tfm_line.line_tf_coefficients(q), 0.0, q.v_i)
        return dict(zip(("v_steady", "v_max", "t_p"), solved))[metric]
    co = ebm.ode_coefficients(q)
    steady = np.where((co.m2 > 0.0) & (co.m0 > 0.0), co.forcing / co.m0, np.nan)
    if metric == "v_steady":
        return steady[()]
    solve = np.isfinite(steady) | (steady.ndim == 0)
    cells = zip(*(x[solve].tolist() for x in np.broadcast_arrays(co.m2, co.m1, co.m0, co.forcing)))
    forms = (ebm.to_standard_form(ebm.OdeCoefficients(*cell), 0.0, 0.0) for cell in cells)
    values = np.full(steady.shape, np.nan)
    values[solve] = [getattr(ebm.ebm_metrics(form), metric) for form in forms]  # None as NaN
    return values[()]


def _checked_values(axis: SweepAxis) -> np.ndarray:
    """The axis values, NaN where they break the axis field's own rules."""
    holds = FIELD_RULES[axis.name][1]
    # Python floats, so math.isfinite is exact: no bool or int beyond the float range
    return np.array([x if holds(x) and math.isfinite(x) else math.nan
                     for x in axis.values.tolist()])


def sweep(
    p: ConverterParams,
    axis1: SweepAxis,
    axis2: SweepAxis,
    model: str = "tfm",
    metric: str = "v_max",
) -> SweepGrid:
    """Startup-overshoot response surface over two component axes.

    ``metric`` (one of SWEEP_METRICS) of a cold start by ``model`` (one of
    CLOSED_FORMS), each checked before any solve, as ``closed_form_metrics``
    gives it for each cell's record.  The axis values are checked once, each
    by its own field's rules (``circuit.FIELD_RULES``), and the grid is one
    ``_cold_start`` call on field arrays.  Cells that make no valid record,
    land outside a model's domain or have no value (t_p of a peak-free
    response) are NaN and marked invalid, never interpolated.
    """
    if axis1.name not in SWEEP_AXES or axis2.name not in SWEEP_AXES:
        raise UnsupportedAxisPair(f"axes must be drawn from {SWEEP_AXES}")
    if axis1.name == axis2.name:
        raise UnsupportedAxisPair("axes must differ")
    if not (1 <= axis1.n <= 512 and 1 <= axis2.n <= 512):
        raise UnsupportedAxisPair("axis resolution must be 1 to 512 points")
    _check_model(model)
    if metric not in SWEEP_METRICS:
        raise ValueError(f"sweep metric must be one of {SWEEP_METRICS}, not {metric!r}")

    # A cell makes a record exactly when each of its two axis values passes
    # its field's rules: n1 + n2 checks cover all n1 n2 cells.
    x1, x2 = _checked_values(axis1), _checked_values(axis2)
    # Arrays all: one grid for _cold_start, and NaN TFM cells, not a raise, at v_i <= 0.
    fields = {name: np.asarray(getattr(p, name)) for name in FIELD_RULES}
    fields[axis1.name], fields[axis2.name] = x1[:, None], x2[None, :]
    cells = _cold_start(SimpleNamespace(**fields), model, metric)
    valid = np.isfinite(x1)[:, None] & np.isfinite(x2)[None, :]
    return SweepGrid(axis1, axis2, metric, np.where(valid, cells, np.nan))


# --- descent ---------------------------------------------------------------

CONSTRAINTS = (None, "constant-steady-output", "constant-omega0", "parasitic-loss-bound")


@dataclass(frozen=True, slots=True)
class DescentStep:
    params: ConverterParams
    v_max: float


@dataclass(frozen=True, slots=True)
class DescentPath:
    steps: tuple[DescentStep, ...]
    constraint: Optional[str]

    @property
    def v_max_series(self) -> np.ndarray:
        return np.array([s.v_max for s in self.steps])


def _project(p: ConverterParams, constraint: Optional[str], targets: tuple) -> ConverterParams:
    """``p`` moved onto ``constraint``; ``targets`` is (steady output, L C, r_l budget)."""
    if constraint is None:
        return p
    if constraint == "constant-omega0":
        scale = math.sqrt(targets[1] / (p.l * p.c))
        return replace(p, l=p.l * scale, c=p.c * scale)
    if constraint == "parasitic-loss-bound":
        return replace(p, r_l=min(p.r_l, targets[2]))
    return _resolve_duty(p, targets[0])  # "constant-steady-output"


def _resolve_duty(p: ConverterParams, target: float) -> ConverterParams:
    """The duty cycle nearest ``p.d`` whose steady output is ``target``.

    With x = 1 - D, steady_output = V is the quadratic
    x^2 [V(R0 + RC) + Vd R0] - x [Vi R0 + V RM] + V (RL + RM) = 0, whose
    roots q/a and c/q (q = (b + sqrt(b^2 - 4ac))/2) carry no cancellation.
    """
    a = target * (p.r_0 + p.r_c) + p.v_d * p.r_0
    b = p.v_i * p.r_0 + target * p.r_m
    c = target * (p.r_l + p.r_m)
    disc = b * b - 4.0 * a * c
    q = 0.5 * (b + math.sqrt(disc)) if disc >= 0.0 else 0.0
    roots = (q / a, c / q) if a > 0.0 and q > 0.0 else ()
    duties = [d for d in (1.0 - x for x in roots) if 1e-4 < d < 1.0 - 1e-4]
    if not duties:
        raise ConstraintInfeasible("no duty cycle reaches the target steady output")
    return replace(p, d=min(duties, key=lambda d: abs(d - p.d)))


def steepest_descent(
    p: ConverterParams,
    free: Sequence[str],
    constraint: Optional[str] = None,
    max_steps: int = 50,
    model: str = "tfm",
    r_l_budget: Optional[float] = None,
) -> DescentPath:
    """Greedy overshoot descent over two or three free component axes.

    The gradient of the startup peak is taken by central differences in
    log-parameter space.  A probe is no record: it is the current design's
    fields with one value moved, checked by that field's own rules (a
    refused probe raises ParameterError) and solved by ``_cold_start``,
    which sends each model straight to its own kernel.  Each move starts at 5
    percent of the current magnitudes and is halved until the (projected)
    step strictly lowers the peak; an accepted move is a record, a
    DescentStep.  Constraints are enforced by projection after every step.
    ``model`` is one of CLOSED_FORMS, and ``r_l_budget``, the bound of
    "parasitic-loss-bound" (``p.r_l`` when None), a finite resistance >= 0.
    """
    if not 2 <= len(set(free)) == len(free) <= 3:
        raise ValueError(f"free must name two or three distinct parameters, not {list(free)}")
    for name in free:
        if name not in SWEEP_AXES:
            raise UnsupportedAxisPair(f"{name!r} is not a sweepable parameter")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"constraint must be one of {CONSTRAINTS}")
    _check_model(model)
    if isinstance(max_steps, bool) or not isinstance(max_steps, numbers.Integral) or max_steps < 0:
        raise ValueError(f"max_steps must be an integer >= 0, not {max_steps!r}")
    # min(r_l, nan) keeps r_l, so a NaN budget would bound nothing
    if r_l_budget is not None and not 0.0 <= r_l_budget < math.inf:
        raise ValueError(f"r_l_budget must be a finite resistance >= 0, not {r_l_budget!r}")

    targets = (steady_output(p), p.l * p.c, p.r_l if r_l_budget is None else r_l_budget)

    def objective(q) -> float:
        return float(_cold_start(q, model, "v_max"))  # a DescentStep holds a float

    def probe(fields: dict, name: str, s: float) -> float:
        """The peak of ``fields`` with the value of ``name`` scaled by e^s."""
        q = SimpleNamespace(**{**fields, name: fields[name] * math.exp(s)})
        _check_fields(q, (name,))
        return objective(q)

    start = _project(p, constraint, targets)
    steps = [DescentStep(start, objective(start))]
    h = 1e-4
    for _ in range(max_steps):
        current, v_now = steps[-1].params, steps[-1].v_max
        fields = {name: getattr(current, name) for name in FIELD_RULES}
        grad = np.array([probe(fields, name, h) - probe(fields, name, -h)
                         for name in free]) / (2.0 * h)
        norm = float(np.linalg.norm(grad))
        if norm < 1e-6 * v_now:
            break
        # Python floats: numpy scalars would slow every replace below
        direction = (-grad / norm).tolist()
        for k in range(40):
            step = 0.05 * 0.5**k
            try:
                cand = replace(current, **{name: getattr(current, name) * math.exp(step * g)
                                           for name, g in zip(free, direction)})
                cand = _project(cand, constraint, targets)
                v_cand = objective(cand)
            except (ValueError, ModelDomainError):
                continue
            if v_cand < v_now - 1e-9 * steps[0].v_max:
                steps.append(DescentStep(cand, v_cand))
                break
        else:
            break
    return DescentPath(steps=tuple(steps), constraint=constraint)


# --- scenario prediction ---------------------------------------------------


@dataclass(frozen=True)
class ScenarioPrediction:
    before: ResponseMetrics
    after: ResponseMetrics

    @property
    def v_max_reduction(self) -> float:
        return self.before.v_max - self.after.v_max


def scenario_predict(
    before: ConverterParams, after: ConverterParams, event: StepEvent
) -> ScenarioPrediction:
    """Transfer-function prediction of a component change: same event, both
    parameter sets, with the reduction of the peak."""
    return ScenarioPrediction(
        before=closed_form_metrics(before, event, "tfm"),
        after=closed_form_metrics(after, event, "tfm"),
    )
