"""Error metrics, model comparison tables, parameter sweeps and
overshoot-mitigation paths over the component space.

``closed_form`` is the one place that solves an (event, model) pair in
closed form, once, for its metrics, its pre-event level and its post-event
response; ``closed_form_metrics``, ``compare_models`` and the CLI all use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import ebm, refmodel, tfm_line, tfm_load
from .circuit import (
    ConverterParams,
    ModelDomainError,
    ResponseMetrics,
    StepEvent,
    StepKind,
    Waveform,
)
from .oracle import SwitchedTrace, simulate_averaged, simulate_switched
from .steady import steady_output

#: measured reference scalars (steady V, peak V) for the two bench scenarios
AER_INPUT_STEP = (5.35, 6.74)
AER_LOAD_STEP = (8.80, 13.43)

SWEEP_AXES = ("v_i", "d", "l", "c", "r_0", "r_l", "r_c", "r_m", "v_d")
SWEEP_METRICS = ("v_max", "v_steady", "t_p")


class ZeroReference(ModelDomainError):
    """Relative error against a zero reference value is undefined."""


class GridMismatch(ModelDomainError):
    """Waveforms must share t0, dt and length to be compared pointwise."""


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


def rmse(actual: Waveform, fit: Waveform) -> float:
    """Root-mean-square sample error between two waveforms on one grid."""
    if (
        actual.t0 != fit.t0
        or actual.dt != fit.dt
        or actual.samples.size != fit.samples.size
    ):
        raise GridMismatch("waveforms are sampled on different grids")
    diff = actual.samples - fit.samples
    return float(np.sqrt(np.mean(diff * diff)))


def extract_metrics(w: Waveform, t_event: float) -> ResponseMetrics:
    """Steady value, refined peak and peak time of a sampled waveform.

    The steady value averages the final 10 percent of samples, which must
    vary by less than 0.5 percent; the peak is the post-event maximum
    sharpened by three-point quadratic interpolation.
    """
    start = max(0, int(math.ceil((t_event - w.t0) / w.dt)))
    seg = w.samples[start:]
    if seg.size == 0:
        raise ValueError(f"no sample lies after t_event = {t_event:g} s")
    tail = w.samples[-max(1, w.samples.size // 10):]
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
    t_p = max(0.0, t_max - t_event)
    overshoot = 100.0 * (v_max - mean) / mean
    return ResponseMetrics(mean, v_max, t_p, overshoot)


# --- model comparison ------------------------------------------------------

MODEL_ROWS = ("ebm", "tfm", "fr", "avg+par", "avg-par", "switched")


@dataclass(frozen=True)
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

    def waveform(self, t_event: float, dt: float, t_end: float) -> Waveform:
        """The response sampled every ``dt`` from 0 to ``t_end``."""
        t = dt * np.arange(int(round(t_end / dt)) + 1)
        post = self.after(np.clip(t - t_event, 0.0, None))
        return Waveform(0.0, dt, np.where(t < t_event, self.before, post))


def _second_order_tf(tf: tfm_line.SecondOrderTF, base: float, k: float) -> ClosedForm:
    """Line step of height ``k`` through ``tf`` from the level ``base``."""
    v_steady = base + k * tf.dc_gain
    if not tf.is_underdamped:
        m = ResponseMetrics(v_steady, v_steady, None, 0.0, flags=("overdamped",))
    else:
        v_max = base + tfm_line.line_peak_voltage(tf, k)
        over = 100.0 * (v_max - v_steady) / v_steady if v_steady else 0.0
        m = ResponseMetrics(v_steady, v_max, tfm_line.line_peak_time(tf), over)
    return ClosedForm(m, base, lambda t: base + tfm_line.line_step_response(tf, k, t))


def closed_form(p: ConverterParams, event: StepEvent, model: str) -> ClosedForm:
    """Solve ``event`` on ``p`` once with the closed-form ``model`` ("ebm",
    "tfm" or "fr"): its metrics, pre-event level and post-event response.

    An input step starts from the steady output at the pre-step input
    (FR's ideal ratio for FR, zero for a cold start), a load step from the
    steady output at the pre-step load.  FR has no load-step transient: it
    stays flat at Vi/(1-D) and is flagged "no-transient".
    """
    if model == "ebm":
        if event.kind is StepKind.INPUT_VOLTAGE:
            form = ebm.startup_form(p, v_before=event.value_before)
        else:
            form = ebm.load_step_form(p, event.value_before, event.value_after)
        return ClosedForm(ebm.ebm_metrics(form), form.v0, lambda t: ebm.ebm_response(form, t))
    if model not in ("tfm", "fr"):
        raise ValueError(model)
    if event.kind is StepKind.INPUT_VOLTAGE:
        if model == "fr":
            base = event.value_before / (1.0 - p.d)
            return _second_order_tf(refmodel.fr_tf(p), base, event.delta)
        tf = tfm_line.line_tf_coefficients(p)
        base = 0.0
        if event.value_before > 0:
            base = steady_output(replace(p, v_i=event.value_before))
        return _second_order_tf(tf, base, event.delta)
    if model == "fr":
        level = p.v_i / (1.0 - p.d)
        flat = ResponseMetrics(level, level, None, 0.0, flags=("no-transient",))
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
    ideal = replace(p, r_l=0.0, r_c=0.0, r_m=0.0, v_d=0.0)
    rates = []
    for q in (p, ideal):
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
    an input step starts from rest at the pre-step input, a load step steady
    at the pre-step load, and no event from ``initial_without_event``."""
    if event is None:
        return p, initial_without_event, []
    if event.kind is StepKind.INPUT_VOLTAGE:
        return replace(p, v_i=event.value_before), "zero", [event]
    return replace(p, r_0=event.value_before), "steady", [event]


def compare_models(
    p: ConverterParams,
    event: StepEvent,
    reference: str = "switched",
    t_end: Optional[float] = None,
    steps_per_cycle: int = 200,
) -> ComparisonTable:
    """One row per model: closed forms, both averaged oracles and the
    switched oracle, each with metrics and errors against the reference.

    Every waveform is sampled every ``p.period / steps_per_cycle``.
    ``reference`` is a row name or "aer" to score against the embedded
    measured scalars (no waveform, so no rmse in that mode).
    """
    if t_end is None:
        t_end = default_comparison_t_end(p, event)
    dt = p.period / steps_per_cycle

    sim_p, initial, events = simulation_setup(p, event)
    trace = simulate_switched(sim_p, events, steps_per_cycle, t_end, initial_state=initial)

    waveforms: dict[str, Waveform] = {}
    metrics: dict[str, ResponseMetrics] = {}

    for model in ("ebm", "tfm", "fr"):
        solved = closed_form(p, event, model)
        waveforms[model] = solved.waveform(event.t_event, dt, t_end)
        metrics[model] = solved.metrics

    for name, parasitics in (("avg+par", True), ("avg-par", False)):
        wave = simulate_averaged(
            sim_p, events, dt, t_end, include_parasitics=parasitics, initial_state=initial
        )
        waveforms[name] = wave
        metrics[name] = extract_metrics(wave, event.t_event)

    cyc = trace.cycle_averaged()
    metrics["switched"] = replace(extract_metrics(cyc, event.t_event), flags=trace.flags)
    # switched rmse is computed on the cycle-averaged grid against resampled rows
    waveforms["switched"] = cyc

    if reference == "aer":
        ref_steady, ref_peak = (
            AER_INPUT_STEP if event.kind is StepKind.INPUT_VOLTAGE else AER_LOAD_STEP
        )
        ref_wave = None
    else:
        ref_m = metrics[reference]
        ref_steady, ref_peak = ref_m.v_steady, ref_m.v_max
        ref_wave = waveforms[reference]

    rows = []
    for model in MODEL_ROWS:
        m = metrics[model]
        row_rmse = None
        if ref_wave is not None and model != reference:
            a, b = _common_grid(ref_wave, waveforms[model])
            row_rmse = rmse(a, b)
        rows.append(
            ModelRow(
                model=model,
                v_steady=m.v_steady,
                v_max=m.v_max,
                t_p=m.t_p,
                steady_error_pct=error_percent(ref_steady, m.v_steady),
                dynamic_error_pct=error_percent(ref_peak, m.v_max),
                rmse_v=row_rmse,
                flags=m.flags,
            )
        )
    return ComparisonTable(event=event, reference=reference, rows=tuple(rows))


def _common_grid(ref: Waveform, other: Waveform) -> tuple[Waveform, Waveform]:
    """Resample ``other`` onto ``ref``'s grid by linear interpolation."""
    if ref.t0 == other.t0 and ref.dt == other.dt and len(ref) == len(other):
        return ref, other
    resampled = np.interp(ref.times, other.times, other.samples)
    return ref, Waveform(ref.t0, ref.dt, resampled)


# --- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    n: int
    log: bool = False

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


def _metric_for(p: ConverterParams, model: str, metric: str) -> float:
    m = closed_form_metrics(p, StepEvent(StepKind.INPUT_VOLTAGE, 0.0, p.v_i), model)
    value = getattr(m, metric)
    return math.nan if value is None else value


def sweep(
    p: ConverterParams,
    axis1: SweepAxis,
    axis2: SweepAxis,
    model: str = "tfm",
    metric: str = "v_max",
) -> SweepGrid:
    """Startup-overshoot response surface over two component axes.

    ``metric`` is one of SWEEP_METRICS, read off ``closed_form_metrics`` of
    a cold start at each cell in turn.  Cells whose parameters make no
    valid record, land outside a model's domain or have no value (t_p of a
    peak-free response) are NaN and marked invalid, never interpolated.
    """
    if axis1.name not in SWEEP_AXES or axis2.name not in SWEEP_AXES:
        raise UnsupportedAxisPair(f"axes must be drawn from {SWEEP_AXES}")
    if axis1.name == axis2.name:
        raise UnsupportedAxisPair("axes must differ")
    if not (1 <= axis1.n <= 512 and 1 <= axis2.n <= 512):
        raise UnsupportedAxisPair("axis resolution must be 1 to 512 points")
    if model not in ("ebm", "tfm"):
        raise ValueError("sweep models are the two closed forms: 'ebm' or 'tfm'")
    if metric not in SWEEP_METRICS:
        raise ValueError(f"sweep metric must be one of {SWEEP_METRICS}, not {metric!r}")

    v2 = axis2.values
    values = np.full((axis1.n, axis2.n), np.nan)
    for i, x in enumerate(axis1.values):
        for j, y in enumerate(v2):
            try:
                q = replace(p, **{axis1.name: float(x), axis2.name: float(y)})
                values[i, j] = _metric_for(q, model, metric)
            except (ValueError, ModelDomainError):
                pass
    return SweepGrid(axis1=axis1, axis2=axis2, metric=metric, values=values)


# --- descent ---------------------------------------------------------------

CONSTRAINTS = (None, "constant-steady-output", "constant-omega0", "parasitic-loss-bound")


@dataclass(frozen=True)
class DescentStep:
    params: ConverterParams
    v_max: float


@dataclass(frozen=True)
class DescentPath:
    steps: tuple[DescentStep, ...]
    constraint: Optional[str]

    @property
    def v_max_series(self) -> np.ndarray:
        return np.array([s.v_max for s in self.steps])


def _project(
    p: ConverterParams, constraint: Optional[str], target_steady: float,
    target_lc: float, r_l_budget: float,
) -> ConverterParams:
    if constraint is None:
        return p
    if constraint == "constant-omega0":
        scale = math.sqrt(target_lc / (p.l * p.c))
        return replace(p, l=p.l * scale, c=p.c * scale)
    if constraint == "parasitic-loss-bound":
        return replace(p, r_l=min(p.r_l, r_l_budget))
    if constraint == "constant-steady-output":
        return _resolve_duty(p, target_steady)
    raise ValueError(f"unknown constraint {constraint!r}")


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
    log-parameter space; each move starts at 5 percent of the current
    magnitudes and is halved until the (projected) step strictly lowers
    the peak.  Constraints are enforced by projection after every step.
    """
    if not 2 <= len(set(free)) == len(free) <= 3:
        raise ValueError(f"free must name two or three distinct parameters, not {list(free)}")
    for name in free:
        if name not in SWEEP_AXES:
            raise UnsupportedAxisPair(f"{name!r} is not a sweepable parameter")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"constraint must be one of {CONSTRAINTS}")

    target_steady = steady_output(p)
    target_lc = p.l * p.c
    budget = p.r_l if r_l_budget is None else r_l_budget

    def objective(q: ConverterParams) -> float:
        return _metric_for(q, model, "v_max")

    current = _project(p, constraint, target_steady, target_lc, budget)
    v_now = objective(current)
    v_init = v_now
    steps = [DescentStep(current, v_now)]

    h = 1e-4
    for _ in range(max_steps):
        grad = np.zeros(len(free))
        for k, name in enumerate(free):
            theta = getattr(current, name)
            up = replace(current, **{name: theta * math.exp(h)})
            dn = replace(current, **{name: theta * math.exp(-h)})
            grad[k] = (objective(up) - objective(dn)) / (2.0 * h)
        norm = float(np.linalg.norm(grad))
        if norm < 1e-6 * v_now:
            break
        direction = -grad / norm

        accepted = False
        step_size = 0.05
        for _ in range(40):
            cand = current
            try:
                for k, name in enumerate(free):
                    theta = getattr(cand, name)
                    cand = replace(cand, **{name: theta * math.exp(step_size * direction[k])})
                cand = _project(cand, constraint, target_steady, target_lc, budget)
                v_cand = objective(cand)
            except (ValueError, ModelDomainError):
                step_size *= 0.5
                continue
            if v_cand < v_now - 1e-9 * v_init:
                current, v_now = cand, v_cand
                steps.append(DescentStep(current, v_now))
                accepted = True
                break
            step_size *= 0.5
        if not accepted:
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

    @property
    def v_steady_change(self) -> float:
        return self.after.v_steady - self.before.v_steady


def scenario_predict(
    before: ConverterParams, after: ConverterParams, event: StepEvent
) -> ScenarioPrediction:
    """Transfer-function prediction of a component change: same event, both
    parameter sets, with the overshoot reduction and steady-state cost."""
    return ScenarioPrediction(
        before=closed_form_metrics(before, event, "tfm"),
        after=closed_form_metrics(after, event, "tfm"),
    )
