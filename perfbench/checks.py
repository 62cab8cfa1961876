"""Answer checks for every benchmark operation, the fingerprint of the
answers, and the record of known seed behaviours that are observed but not
gated.

Each tolerance sits above the error measured on the seed code and admits
the 1e-12 relative drift that array closed forms, another root finder or
another oracle discretisation may bring. Measured worst cases on the seed,
over the 6,000 operations of three predict pools, are given next to each
tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict
from dataclasses import replace
from typing import Any

import numpy as np

from boostdyn import (
    StepEvent,
    StepKind,
    analysis,
    ebm,
    oracle,
    refmodel,
    steady_output,
    tfm_line,
    tfm_load,
)
from boostdyn.circuit import ModelDomainError

#: v_max against the response at t_p and against the extremum of its dense
#: samples around t_p (seed: 1.5e-14).
PEAK_TOL = 2e-12
#: |dv/dt| * t_p / max(|v_max|, |v_steady|) at t_p. The peak searches stop
#: at a slope of 1e-9 * omega * |v|, so nearly flat extrema sit further from
#: the exact stationary point (seed: 6e-8, load-decrease TFM).
STATIONARY_TOL = 1e-6
#: Line-step settled value against steady_output (seed: 4.4e-16).
STEADY_TOL = 2e-12
#: EBM peak against the RK4 oracle run to t_p in ORACLE_STEPS steps
#: (seed: 9.3e-14).
ORACLE_TOL = 2e-12
ORACLE_STEPS = 2000
#: avg-par settled value in ``compare`` against Vi/(1-D). The default
#: horizon ends 12 time constants of the slowest row after the step and the
#: settled value is the mean of its last tenth, so up to e^-10.8 = 2e-5 of
#: the step's excursion is still ringing. A load step R1 -> R2 sets the
#: parasitic-free model ringing by about V*|1/R1 - 1/R2|*sqrt(L/C)/(1-D)^2,
#: up to 5 V on these designs (seed: 2.3e-5, load decreases).
IDEAL_STEADY_TOL = 1e-4
#: Parasitic-free averaged simulation against the FR closed form, relative
#: to the largest sample (seed: 8.1e-12 from the RK4 step).
IDEAL_WAVE_TOL = 1e-10
#: Any value recomputed through another public path of the library.
SAME_TOL = 2e-12
#: constant-steady-output holds the steady value to the duty bisection's
#: absolute tolerance of 1e-6 V.
DUTY_TOL_V = 2e-6
#: Relative offsets of the dense samples around t_p.
FINE = np.linspace(-1e-6, 1e-6, 401)
#: The extremum scan of tfm_load.load_metrics: SCAN_POINTS samples over
#: SCAN_SPAN time constants of the slowest mode.
SCAN_SPAN = 14.0
SCAN_POINTS = 512
SWEEP_SAMPLES = 4

MODEL_ROWS = ("ebm", "tfm", "fr", "avg+par", "avg-par", "switched")
ERROR_KEYS = {"error", "message", "exit_code"}


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


class Checker:
    """Collects failed checks, the answer fingerprint and observed known
    seed behaviours over one run."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.checked = 0
        self.fingerprint: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.observed: dict[str, float] = defaultdict(float)
        #: failed checks of answers that a known seed defect explains
        self.known: list[str] = []
        #: whether answers checked now enter the fingerprint
        self.recording = True

    def fail(self, where: str, what: str) -> None:
        self.failures.append(f"{where}: {what}")

    def expect_close(self, where: str, what: str, got: float, want: float, tol: float,
                     scale: float | None = None) -> None:
        """|got - want| <= tol * scale, where scale defaults to the larger
        magnitude of the two."""
        scale = max(abs(got), abs(want)) if scale is None else scale
        if not (math.isfinite(got) and abs(got - want) <= tol * scale):
            self.fail(where, f"{what} {got!r} against {want!r} (tolerance {tol:g})")

    def note_max(self, key: str, value: float) -> None:
        self.observed[key] = max(self.observed[key], value)

    def add(self, kind: str, **values: float) -> None:
        if not self.recording:
            return
        fp = self.fingerprint[kind]
        fp["n"] += 1
        for name, value in values.items():
            if value is None:
                continue
            fp[f"sum_{name}"] += value
            fp[f"max_{name}"] = max(fp.get(f"max_{name}", -math.inf), value)
            fp[f"min_{name}"] = min(fp.get(f"min_{name}", math.inf), value)

    def check(self, op, answer: Any, where: str) -> None:
        """Check one answer of an operation that did not fail: it returned,
        with the exit code it was expected to give."""
        self.checked += 1
        CHECKS[op.kind.split("-")[0]](self, op, answer, where)


# --- closed forms ------------------------------------------------------------


def _response(p, event: StepEvent, model: str):
    """The sampled response whose first extremum ``closed_form_metrics``
    reports, through the library's own waveform functions, and the load
    TFM's mode sum (None for the other responses)."""
    if event.kind is StepKind.INPUT_VOLTAGE:
        base = 0.0 if event.value_before == 0 else steady_output(replace(p, v_i=event.value_before))
        if model == "ebm":
            form = ebm.startup_form(p, v_before=event.value_before)
            return (lambda t: ebm.ebm_response(form, t)), None
        if model == "tfm":
            tf = tfm_line.line_tf_coefficients(p)
            return (lambda t: base + tfm_line.line_step_response(tf, event.delta, t)), None
        fr_base = event.value_before / (1.0 - p.d)
        return (lambda t: fr_base + refmodel.fr_step_response(p, event.delta, t)), None
    if model == "ebm":
        form = ebm.load_step_form(p, event.value_before, event.value_after)
        return (lambda t: ebm.ebm_response(form, t)), None
    # tfm_load.load_response, with the quartic solved once
    pre = replace(p, r_0=event.value_before)
    modes = tfm_load.invert_quartic_tf(tfm_load.load_tf_corrected(pre, event.delta))
    base = steady_output(pre)
    return (lambda t: base + modes.deviation(t)), modes


def _scan_aliased(modes) -> bool:
    """Whether load_metrics' bracket scan, SCAN_POINTS samples over
    SCAN_SPAN time constants of the slowest mode, takes fewer than two
    samples per half period of the fastest mode, so that the slope sign
    change it brackets need not be the first one."""
    decay = min(abs(r.real) for _, r in modes.modes if r.real != 0)
    fastest = max(abs(r.imag) for _, r in modes.modes)
    return fastest * SCAN_SPAN / (decay * SCAN_POINTS) > math.pi / 2


def _ebm_oracle_peak(p, event: StepEvent, t_p: float) -> float:
    """The EBM ODE integrated by the independent RK4 oracle up to t_p."""
    if event.kind is StepKind.INPUT_VOLTAGE:
        form = ebm.startup_form(p, v_before=event.value_before)
        co = ebm.ode_coefficients(p)
    else:
        form = ebm.load_step_form(p, event.value_before, event.value_after)
        co = ebm.ode_coefficients(p, r_0=event.value_after)
    wave = oracle.integrate_second_order(co.m2, co.m1, co.m0, co.forcing, form.v0, form.dv0,
                                         t_p / ORACLE_STEPS, t_p)
    return float(wave.samples[-1])


def _check_peak(ck: Checker, where: str, f, m, first_rise: bool) -> None:
    """Peak value and time of ``m`` against the response ``f``, to tolerances
    relative to the response's scale (an undershoot can end near 0 V)."""
    v_max, t_p = m.v_max, m.t_p
    scale = max(abs(v_max), abs(m.v_steady))
    dense = f(t_p * (1.0 + FINE))
    centre = len(FINE) // 2
    ck.expect_close(where, "v_max against the response at t_p", v_max, float(dense[centre]),
                    PEAK_TOL, scale)
    nearest = min((float(dense.max()), float(dense.min())), key=lambda v: abs(v - v_max))
    ck.expect_close(where, "v_max against the dense extremum", v_max, nearest, PEAK_TOL, scale)
    slope = (dense[-1] - dense[0]) / (t_p * (FINE[-1] - FINE[0]))
    if not abs(slope) * t_p <= STATIONARY_TOL * scale:
        ck.fail(where, f"t_p={t_p!r} is not a stationary point: dv/dt={slope!r}")
    if first_rise:
        # a response that starts below its first peak stays below it until then
        before = float(f(np.linspace(0.0, t_p, 2001)).max())
        if before - v_max > PEAK_TOL * scale:
            ck.fail(where, f"response reaches {before!r} before its first peak {v_max!r}")


def check_metrics(ck: Checker, where: str, p, event: StepEvent, model: str, m) -> None:
    """Settled value, first extremum and peak time of one closed form."""
    line = event.kind is StepKind.INPUT_VOLTAGE
    ideal = p.v_i / (1.0 - p.d)
    if model == "fr":
        ck.expect_close(where, "fr v_steady against Vi/(1-D)", m.v_steady, ideal, STEADY_TOL)
    elif line and model == "tfm" and event.value_before > 0:
        # the line TF settles at base + delta * G(0), and G(0) = steady/Vi
        want = steady_output(replace(p, v_i=event.value_before)) + event.delta * steady_output(p) / p.v_i
        ck.expect_close(where, "warm tfm v_steady", m.v_steady, want, STEADY_TOL)
        ck.note_max("warm_tfm_steady_gap", _rel(m.v_steady, steady_output(p)))
    elif line or model == "ebm":
        post = p if line else replace(p, r_0=event.value_after)
        ck.expect_close(where, "v_steady against steady_output", m.v_steady, steady_output(post), STEADY_TOL)
    else:
        post = steady_output(replace(p, r_0=event.value_after))
        ck.note_max("load_tfm_settle_gap", _rel(m.v_steady, post))
        if not math.isfinite(m.v_steady):
            ck.fail(where, "load tfm v_steady is not finite")
    if m.t_p is None:
        if m.v_max != m.v_steady:
            ck.fail(where, "a response without a peak must report v_max = v_steady")
        return
    first_rise = line or event.value_after > event.value_before
    response, modes = _response(p, event, model)
    if modes is not None and _scan_aliased(modes):
        # known seed defect: record a wrong peak, do not gate on it
        ck.observed["load_tfm_aliased_scans"] += 1
        sub = Checker()
        _check_peak(sub, where, response, m, first_rise)
        if sub.failures:
            ck.observed["load_tfm_aliased_wrong_peaks"] += 1
            ck.known += sub.failures
    else:
        _check_peak(ck, where, response, m, first_rise)
    if model == "ebm":
        ck.expect_close(where, "EBM peak against the RK4 oracle", m.v_max,
                        _ebm_oracle_peak(p, event, m.t_p), ORACLE_TOL)


def check_closed_form(ck: Checker, op, m, where: str) -> None:
    p, event, model = op.args
    check_metrics(ck, where, p, event, model, m)
    ck.add(op.kind, v_max=m.v_max, v_steady=m.v_steady, t_p=m.t_p)


def check_scenario(ck: Checker, op, answer, where: str) -> None:
    before, after, event = op.args
    check_metrics(ck, where + " before", before, event, "tfm", answer.before)
    check_metrics(ck, where + " after", after, event, "tfm", answer.after)
    ck.add(op.kind, v_max=answer.after.v_max, v_steady=answer.after.v_steady,
           t_p=answer.after.t_p, v_max_reduction=answer.v_max_reduction)


# --- explore -------------------------------------------------------------------


def check_sweep(ck: Checker, op, grid, where: str) -> None:
    p, axis1, axis2, model, metric = op.args
    if grid.values.shape != (axis1.n, axis2.n) or grid.valid.shape != grid.values.shape:
        ck.fail(where, f"grid shape {grid.values.shape} for axes {axis1.n}x{axis2.n}")
        return
    if not np.array_equal(grid.valid, np.isfinite(grid.values)):
        ck.fail(where, "valid mask disagrees with the finite cells")
    rng = np.random.default_rng(op.info["index"])
    for _ in range(SWEEP_SAMPLES):
        i, j = int(rng.integers(axis1.n)), int(rng.integers(axis2.n))
        q = replace(p, **{axis1.name: float(axis1.values[i]), axis2.name: float(axis2.values[j])})
        cell = f"{where} cell ({i},{j})"
        try:
            m = analysis.closed_form_metrics(q, StepEvent(StepKind.INPUT_VOLTAGE, 0.0, q.v_i), model)
        except (ValueError, ModelDomainError):
            if grid.valid[i, j]:
                ck.fail(cell, "valid in the grid but refused by the scalar path")
            continue
        want = {"v_max": m.v_max, "v_steady": m.v_steady,
                "t_p": math.nan if m.t_p is None else m.t_p}[metric]
        if math.isnan(want):
            if grid.valid[i, j]:
                ck.fail(cell, "valid in the grid but undefined on the scalar path")
        else:
            ck.expect_close(cell, f"{metric} against closed_form_metrics",
                            float(grid.values[i, j]), want, SAME_TOL)
    valid = grid.values[grid.valid]
    ck.add(f"{op.kind}-{metric}", value=float(valid.sum()), valid_cells=float(valid.size))


def check_descent(ck: Checker, op, path, where: str) -> None:
    p, free, constraint, max_steps = op.args
    steps = path.steps
    if not 1 <= len(steps) <= max_steps + 1:
        ck.fail(where, f"{len(steps)} steps for max_steps={max_steps}")
        return
    series = path.v_max_series
    if not np.all(np.diff(series) < 0):
        ck.fail(where, "v_max does not fall strictly along the path")
    target = steady_output(p)
    for k, step in enumerate(steps):
        q = step.params
        at = f"{where} step {k}"
        m = analysis.closed_form_metrics(q, StepEvent(StepKind.INPUT_VOLTAGE, 0.0, q.v_i), "tfm")
        ck.expect_close(at, "v_max against closed_form_metrics", step.v_max, m.v_max, SAME_TOL)
        if constraint == "constant-steady-output":
            if not abs(steady_output(q) - target) <= DUTY_TOL_V:
                ck.fail(at, f"steady output {steady_output(q)!r} left target {target!r}")
        elif constraint == "constant-omega0":
            ck.expect_close(at, "L*C", q.l * q.c, p.l * p.c, SAME_TOL)
        elif constraint == "parasitic-loss-bound" and q.r_l > p.r_l:
            ck.fail(at, f"r_l {q.r_l!r} above the budget {p.r_l!r}")
    ck.add(f"descent-{constraint}", v_max=float(series[-1]), steps=float(len(steps) - 1))


# --- validate --------------------------------------------------------------------


def _csv_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _float(cell: str):
    return None if cell == "" else float(cell)


def _check_output_written(ck: Checker, answer, where: str) -> bool:
    if answer.out is None:
        ck.fail(where, "no output file written")
        return False
    if answer.stderr:
        ck.fail(where, f"unexpected stderr {answer.stderr[:200]!r}")
    return True


def check_compare(ck: Checker, op, answer, where: str) -> None:
    if not _check_output_written(ck, answer, where):
        return
    p, event = op.info["params"], op.info["event"]
    rows = {r["model"]: r for r in _csv_rows(answer.out)}
    if tuple(rows) != MODEL_ROWS:
        ck.fail(where, f"rows {tuple(rows)}")
        return
    ref = rows["switched"]
    ref_steady, ref_peak = float(ref["v_steady"]), float(ref["v_max"])
    for model, row in rows.items():
        at = f"{where} row {model}"
        v_steady, v_max, t_p = float(row["v_steady"]), float(row["v_max"]), _float(row["t_p"])
        ck.expect_close(at, "steady_error_pct", float(row["steady_error_pct"]),
                        abs(ref_steady - v_steady) / abs(ref_steady) * 100.0, SAME_TOL)
        ck.expect_close(at, "dynamic_error_pct", float(row["dynamic_error_pct"]),
                        abs(ref_peak - v_max) / abs(ref_peak) * 100.0, SAME_TOL)
        rmse = _float(row["rmse"])
        if (rmse is None) != (model == "switched") or (rmse is not None and not rmse >= 0):
            ck.fail(at, f"rmse {row['rmse']!r}")
        if model in ("ebm", "tfm", "fr"):
            m = analysis.closed_form_metrics(p, event, model)
            ck.expect_close(at, "v_steady", v_steady, m.v_steady, SAME_TOL)
            ck.expect_close(at, "v_max", v_max, m.v_max, SAME_TOL)
            if (t_p is None) != (m.t_p is None) or (t_p is not None and _rel(t_p, m.t_p) > SAME_TOL):
                ck.fail(at, f"t_p {t_p!r} against {m.t_p!r}")
            check_metrics(ck, at, p, event, model, m)
        ck.add(f"compare-{model}", v_max=v_max, v_steady=v_steady, t_p=t_p, rmse=rmse)
    avg_par = float(rows["avg-par"]["v_steady"])
    ck.expect_close(f"{where} row avg-par", "v_steady against Vi/(1-D)",
                    avg_par, p.v_i / (1.0 - p.d), IDEAL_STEADY_TOL)
    ck.note_max("avg-par_ideal_gap", _rel(avg_par, p.v_i / (1.0 - p.d)))
    post = p if event.kind is StepKind.INPUT_VOLTAGE else replace(p, r_0=event.value_after)
    ck.note_max("switched_steady_gap", _rel(ref_steady, steady_output(post)))
    ck.note_max("avg+par_steady_gap", _rel(float(rows["avg+par"]["v_steady"]), steady_output(post)))
    ck.observed["compare_dcm"] += "dcm" in ref["flags"].split(";")
    ck.observed["compare_ops"] += 1


def _simulation_setup(p, event: StepEvent):
    if event.kind is StepKind.INPUT_VOLTAGE:
        return replace(p, v_i=event.value_before), "zero"
    return replace(p, r_0=event.value_before), "steady"


def check_simulate(ck: Checker, op, answer, where: str) -> None:
    if not _check_output_written(ck, answer, where):
        return
    p, event = op.info["params"], op.info["event"]
    rows = _csv_rows(answer.out)
    t = np.array([float(r["t"]) for r in rows])
    v = np.array([float(r["v"]) for r in rows])
    t_end = op.info["config"]["solver"]["t_end"]
    sim_p, initial = _simulation_setup(p, event)
    if op.kind == "simulate-switched":
        want = oracle.simulate_switched(sim_p, [event], 200, t_end, initial_state=initial).waveform
    else:
        want = oracle.simulate_averaged(sim_p, [event], p.period / 200, t_end,
                                        include_parasitics=op.kind == "simulate-averaged",
                                        initial_state=initial)
    if v.shape != want.samples.shape:
        ck.fail(where, f"{v.size} samples against {want.samples.size}")
        return
    scale = float(np.max(np.abs(want.samples)))
    if np.max(np.abs(t - want.times)) > SAME_TOL * float(want.times[-1]):
        ck.fail(where, "time column differs from the simulation grid")
    if np.max(np.abs(v - want.samples)) > SAME_TOL * scale:
        ck.fail(where, "written waveform differs from the library simulation")
    if op.kind == "simulate-averaged-ideal":
        fr = refmodel.fr_step_response(p, event.delta, t)
        err = float(np.max(np.abs(v - fr))) / float(np.max(np.abs(fr)))
        if not err <= IDEAL_WAVE_TOL:
            ck.fail(where, f"parasitic-free averaged run is {err:g} from the FR closed form")
    ck.add(op.kind, v_final=float(v[-1]), v_max=float(v.max()), samples=float(v.size))


def check_audit(ck: Checker, op, answer, where: str) -> None:
    if not _check_output_written(ck, answer, where):
        return
    payload = json.loads(answer.out)
    keys = {"t0", "t1", "e_l", "e_c", "e_r", "e_vd", "e_rm", "e_rl", "e_rc", "residual", "flags"}
    if set(payload) != keys:
        ck.fail(where, f"audit keys {sorted(payload)}")
        return
    if not all(math.isfinite(payload[k]) for k in keys - {"flags"}):
        ck.fail(where, "non-finite audit energy")
    ck.add(op.kind, residual=abs(payload["residual"]), e_r=payload["e_r"])


def check_error_contract(ck: Checker, op, answer, where: str) -> None:
    if answer.stdout:
        ck.fail(where, f"stdout {answer.stdout[:200]!r} on an error")
    lines = answer.stderr.splitlines()
    if len(lines) != 1:
        ck.fail(where, f"{len(lines)} stderr lines, expected one JSON object")
        return
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError:
        ck.fail(where, f"stderr is not JSON: {lines[0][:200]!r}")
        return
    want = "ConfigError" if op.kind == "error-config" else "CorrectionOutOfDomain"
    if not isinstance(payload, dict) or set(payload) != ERROR_KEYS:
        ck.fail(where, f"error object {payload!r}")
    elif payload["exit_code"] != answer.code or payload["error"] != want:
        ck.fail(where, f"error object {payload!r}, expected {want} with exit {answer.code}")
    ck.add(op.kind, exit_code=float(answer.code))


CHECKS = {
    "tfm": check_closed_form, "ebm": check_closed_form, "fr": check_closed_form,
    "scenario": check_scenario,
    "sweep": check_sweep, "descent": check_descent,
    "compare": check_compare, "simulate": check_simulate, "audit": check_audit,
    "error": check_error_contract,
}
