"""Seeded inputs and operations of the three benchmark workloads.

Every workload is a closed loop: one caller in one thread sends the next
operation only after the previous one returned. All inputs are generated
from the seed before timing starts, and the program sees only those inputs.

Each operation calls ``boostdyn`` through a module attribute at call time
(``analysis.sweep(...)``, never a reference bound earlier), so the tracer's
wrappers are the functions that run when tracing is on.

The kind mixes are fixed per block of slots and shuffled inside each block,
so every run holds the same share of each kind whatever its length. The
shares put each latency percentile well inside one kind's latency band:

- predict: fast closed forms 30 %, EBM 45 % (p50), load TFM 25 % (p90);
- explore: descents 25 %, TFM sweeps 45 % (p50), EBM sweeps 30 % (p90);
- validate: error cases 8 %, simulations 12 %, line-step and
  load-decrease compares 60 % (p50), load-increase compares 20 % (p90).

No operation of a timed loop fails on the seed code. ``audit`` raises on
the seed (``np.trapz`` is gone from numpy 2.4), so the validate audits are
not in the timed loop, where their count would vary with the run's length:
they are the run's known-defect probes (``audit_probes``), run after the
loop, untimed, and reported on their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from boostdyn import ConverterParams, StepEvent, StepKind, analysis, cli, tfm_load

#: The three converters of the test suite's conftest.
LINE = ConverterParams(v_i=3.3, l=1e-3, r_l=1.5, c=42e-6, r_c=1.3, r_m=0.9,
                       v_d=0.5, r_0=92.0, d=0.49, f_sw=1e4)
LOAD = ConverterParams(v_i=5.0, l=1e-3, r_l=1.4, c=43e-6, r_c=1.0, r_m=0.8,
                       v_d=0.4, r_0=10.0, d=0.50, f_sw=1e4)
FAST = ConverterParams(v_i=3.0, l=1e-4, r_l=0.5, c=1e-5, r_c=0.2, r_m=0.4,
                       v_d=0.3, r_0=20.0, d=0.5, f_sw=1e5)
#: Small converter whose oracles settle within a few hundred cycles, so one
#: ``compare`` costs about 0.1-0.3 s.
QUICK = ConverterParams(v_i=3.0, l=20e-6, r_l=0.1, c=4e-6, r_c=0.05, r_m=0.08,
                        v_d=0.3, r_0=8.0, d=0.5, f_sw=1e5)

_SCALED = ("v_i", "l", "r_l", "c", "r_c", "r_m", "v_d", "r_0")


@dataclass
class Op:
    """One operation: ``fn(*args)`` is what gets timed.

    ``expect`` is the exit code a CLI operation must return; ``info`` holds
    what the answer checks need to know about the inputs.
    """

    kind: str
    fn: Callable[..., Any]
    args: tuple
    expect: Optional[int] = None
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CliAnswer:
    """Exit code, captured streams and the file a CLI operation wrote.

    ``out`` holds the file's bytes only for the first run of an operation;
    repeats keep its ``digest`` and ``size``.
    """

    code: int
    stdout: str
    stderr: str
    out: Optional[bytes] = None
    digest: Optional[bytes] = None
    size: int = 0


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of returning."""

    error: str
    message: str


def _perturb(rng: np.random.Generator, p: ConverterParams, spread: float,
             d_spread: float) -> ConverterParams:
    """Scale each component by a factor in [1 - spread, 1 + spread] and move
    the duty cycle by up to ``d_spread``."""
    kw = {name: getattr(p, name) * rng.uniform(1.0 - spread, 1.0 + spread)
          for name in _SCALED}
    kw["d"] = p.d + rng.uniform(-d_spread, d_spread)
    return replace(p, **kw)


def _block_kinds(rng: np.random.Generator, mix: dict[str, int]) -> list[str]:
    kinds = [kind for kind, count in mix.items() for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


# --- predict ---------------------------------------------------------------

#: Slots per block of 100 predict ops.
PREDICT_MIX = {
    "tfm-cold": 8, "tfm-warm": 6, "fr-cold": 4, "fr-warm": 3, "fr-load": 3,
    "scenario-line": 6,
    "ebm-cold": 15, "ebm-warm": 12, "ebm-load-up": 9, "ebm-load-down": 9,
    "tfm-load-up": 11, "tfm-load-down": 10, "scenario-load-up": 2,
    "scenario-load-down": 2,
}
PREDICT_BLOCKS = 20


def closed_form(p: ConverterParams, event: StepEvent, model: str):
    return analysis.closed_form_metrics(p, event, model)


def scenario(before: ConverterParams, after: ConverterParams, event: StepEvent):
    return analysis.scenario_predict(before, after, event)


def _predict_design(rng: np.random.Generator) -> ConverterParams:
    """A design around one of the conftest converters inside the load-TFM
    correction domain (kappa > 0), so that no operation is refused."""
    while True:
        p = _perturb(rng, (LINE, LOAD, FAST)[rng.integers(3)], 0.2, 0.08)
        if tfm_load.correction_factor(p) > 0.05:
            return p


def _predict_event(rng: np.random.Generator, p: ConverterParams, kind: str) -> StepEvent:
    if kind.endswith("cold") or kind == "scenario-line":
        return StepEvent(StepKind.INPUT_VOLTAGE, 0.0, p.v_i)
    if kind.endswith("warm"):
        return StepEvent(StepKind.INPUT_VOLTAGE, p.v_i * rng.uniform(0.5, 0.9), p.v_i)
    if kind.endswith("load-down"):
        return StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, p.r_0 * rng.uniform(0.3, 0.7))
    # load-up and fr-load: the bench load step is 10 -> 150 ohm
    return StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, p.r_0 * rng.uniform(1.5, 15.0))


def predict_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for _ in range(PREDICT_BLOCKS):
        for kind in _block_kinds(rng, PREDICT_MIX):
            p = _predict_design(rng)
            event = _predict_event(rng, p, kind)
            if kind.startswith("scenario"):
                # a component change a designer would try: more capacitance,
                # less inductance
                after = replace(p, c=p.c * rng.uniform(1.1, 2.0), l=p.l * rng.uniform(0.6, 0.95))
                if tfm_load.correction_factor(after) <= 0.05:
                    after = replace(after, l=p.l)
                ops.append(Op(kind, scenario, (p, after, event)))
            else:
                ops.append(Op(kind, closed_form, (p, event, kind.split("-")[0])))
    return ops


# --- explore ---------------------------------------------------------------

#: Slots per block of 20 explore ops.
EXPLORE_MIX = {"descent": 5, "sweep-tfm": 9, "sweep-ebm": 6}
EXPLORE_BLOCKS = 12
SWEEP_N = {"tfm": 32, "ebm": 20}
DESCENT_FREE = (("l", "c"), ("l", "c", "r_c"), ("c", "r_c"), ("l", "r_l"),
                ("c", "r_0"), ("l", "c", "r_l"))
DESCENT_MAX_STEPS = 20


def sweep(p, axis1, axis2, model, metric):
    return analysis.sweep(p, axis1, axis2, model=model, metric=metric)


def descend(p, free, constraint, max_steps):
    return analysis.steepest_descent(p, free, constraint=constraint, max_steps=max_steps)


def _axis(p: ConverterParams, name: str, n: int) -> "analysis.SweepAxis":
    value = getattr(p, name)
    if name == "d":
        return analysis.SweepAxis(name, max(0.1, value - 0.2), min(0.9, value + 0.2), n)
    return analysis.SweepAxis(name, value * 0.7, value * 1.3, n, log=name in ("l", "c"))


def explore_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    n_descent = 0
    for _ in range(EXPLORE_BLOCKS):
        for kind in _block_kinds(rng, EXPLORE_MIX):
            p = _perturb(rng, (LINE, LOAD, FAST)[rng.integers(3)], 0.15, 0.05)
            if kind == "descent":
                free = DESCENT_FREE[rng.integers(len(DESCENT_FREE))]
                constraint = analysis.CONSTRAINTS[n_descent % len(analysis.CONSTRAINTS)]
                n_descent += 1
                ops.append(Op(kind, descend, (p, free, constraint, DESCENT_MAX_STEPS)))
                continue
            model = kind.split("-")[1]
            name1, name2 = rng.choice(analysis.SWEEP_AXES, size=2, replace=False)
            metric = ("v_max", "v_max", "v_max", "t_p", "v_steady")[rng.integers(5)]
            axes = (_axis(p, str(name1), SWEEP_N[model]), _axis(p, str(name2), SWEEP_N[model]))
            ops.append(Op(kind, sweep, (p, *axes, model, metric)))
    return ops


# --- validate --------------------------------------------------------------

#: Slots per block of 25 validate ops.
VALIDATE_MIX = {
    "compare-cold": 5, "compare-warm": 5, "compare-load-down": 5, "compare-load-up": 5,
    "simulate-switched": 1, "simulate-averaged": 1, "simulate-averaged-ideal": 1,
    "error-config": 1, "error-domain": 1,
}
VALIDATE_BLOCKS = 6
#: ``audit`` operations of each validate run, run once after the timed loop.
AUDIT_PROBES = 2


def run_cli(argv: list[str]) -> CliAnswer:
    """``boostdyn <argv>`` in-process, as a user runs it, with stdout and
    stderr captured. Exceptions that escape ``cli.main`` propagate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliAnswer(code, out.getvalue(), err.getvalue())


def _event_block(event: StepEvent) -> dict:
    return {"kind": event.kind.value, "value_before": event.value_before,
            "value_after": event.value_after, "t_event": event.t_event}


def _quick_design(rng: np.random.Generator) -> ConverterParams:
    """QUICK with its components and duty cycle moved by up to 30 %. The
    load, the capacitance and the switching frequency set how many substeps
    the oracles need (about R*C*f_sw), so they move by up to 10 % only, which
    keeps the cost of one ``compare`` within a narrow band."""
    p = _perturb(rng, QUICK, 0.3, 0.15)
    return replace(p, r_0=QUICK.r_0 * rng.uniform(0.9, 1.1), c=QUICK.c * rng.uniform(0.9, 1.1),
                   f_sw=QUICK.f_sw * rng.uniform(0.9, 1.1))


def _validate_event(rng: np.random.Generator, p: ConverterParams, kind: str) -> StepEvent:
    if kind.endswith("load-up"):
        return StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, p.r_0 * rng.uniform(1.8, 2.2))
    if kind.endswith("load-down"):
        return StepEvent(StepKind.LOAD_RESISTANCE, p.r_0, p.r_0 * rng.uniform(0.4, 0.7))
    if kind.endswith("warm"):
        return StepEvent(StepKind.INPUT_VOLTAGE, p.v_i * rng.uniform(0.5, 0.8), p.v_i)
    return StepEvent(StepKind.INPUT_VOLTAGE, 0.0, p.v_i)


def _validate_op(rng: np.random.Generator, kind: str, tag: str, k: int,
                 workdir: Path) -> Op:
    p = _quick_design(rng)
    cfg: dict[str, Any] = {"converter": {name: getattr(p, name) for name in
                                         ("v_i", "l", "r_l", "c", "r_c", "r_m",
                                          "v_d", "r_0", "d", "f_sw")}}
    info: dict[str, Any] = {"params": p}
    out = workdir / f"out-{tag}"
    expect = 0
    if kind.startswith("compare"):
        event = _validate_event(rng, p, kind)
        argv = ["compare"]
    elif kind.startswith("simulate"):
        # the parasitic-free run is checked against the FR step response
        shape = "cold" if kind.endswith("ideal") else ("cold", "load-up", "load-down")[k % 3]
        event = _validate_event(rng, p, shape)
        # short horizon: 25-40 switching periods
        cfg["solver"] = {"t_end": float(rng.integers(25, 41)) / p.f_sw}
        engine = "switched" if kind == "simulate-switched" else "averaged"
        argv = ["simulate", "--engine", engine,
                "--parasitics", "off" if kind.endswith("ideal") else "on"]
    elif kind == "audit":
        event = _validate_event(rng, p, "cold")
        cfg["solver"] = {"t_end": float(rng.integers(25, 41)) / p.f_sw}
        argv = ["audit"]
    elif kind == "error-config":
        event = _validate_event(rng, p, "cold")
        cfg["converter"].pop(("l", "c", "r_0", "d")[k % 4])
        argv, expect = ["predict"], 2
    else:  # error-domain: a large inductance drives kappa below 0
        p = replace(p, l=2e-3)
        cfg["converter"]["l"] = p.l
        info["params"] = p
        event = _validate_event(rng, p, "load-up")
        if tfm_load.correction_factor(p) > 0:
            raise RuntimeError("the out-of-domain design has kappa > 0")
        argv, expect = ["predict"], 3
    cfg["event"] = _event_block(event)
    info["event"] = event
    info["config"] = cfg
    path = workdir / f"config-{tag}.json"
    path.write_text(json.dumps(cfg))
    argv += ["--config", str(path)]
    if expect == 0:
        argv += ["--out", str(out)]
        info["out"] = out
    return Op(kind, run_cli, (argv,), expect=expect, info=info)


def validate_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    for _ in range(VALIDATE_BLOCKS):
        for kind in _block_kinds(rng, VALIDATE_MIX):
            ops.append(_validate_op(rng, kind, str(len(ops)), len(ops), workdir))
    return ops


def audit_probes(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The ``audit`` operations of a validate run, from a stream of the seed
    of their own, so that the timed pool does not depend on them."""
    if workload != "validate":
        return []
    rng = np.random.default_rng([seed, 1])
    return [_validate_op(rng, "audit", f"audit-{j}", j, workdir) for j in range(AUDIT_PROBES)]


GENERATORS = {"predict": predict_ops, "explore": explore_ops, "validate": validate_ops}


def generate(workload: str, seed: int, workdir: Path) -> list[Op]:
    ops = GENERATORS[workload](np.random.default_rng(seed), workdir)
    for k, op in enumerate(ops):
        op.info["index"] = k
    return ops


def collect(op: Op, answer: Any, keep: bool) -> Any:
    """Attach the digest of the file a CLI operation wrote to its answer,
    and the bytes themselves when ``keep`` is set. The file is removed so
    that the next run of the operation cannot pass on a stale copy."""
    out = op.info.get("out")
    if out is None or not isinstance(answer, CliAnswer):
        return answer
    try:
        data = out.read_bytes()
    except FileNotFoundError:
        return answer
    out.unlink()
    return replace(answer, out=data if keep else None,
                   digest=hashlib.sha256(data).digest(), size=len(data))


def answer_key(answer: Any) -> Any:
    """What must be identical between two runs of one operation."""
    if isinstance(answer, CliAnswer):
        return (answer.code, answer.stdout, answer.stderr, answer.digest)
    if isinstance(answer, analysis.SweepGrid):
        return (answer.values.tobytes(), answer.valid.tobytes(), answer.metric)
    return answer
