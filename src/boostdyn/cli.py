"""Command-line front end.

One JSON config describes the converter, the disturbance, the solver grid
and the output targets; subcommands map onto the library operations.
``predict`` and ``audit`` emit JSON, the others CSV, each to ``--out`` if
given and to stdout otherwise.  Exit codes: 0 success, 1 any other
(internal) error, 2 config or usage error, 3 numeric or model-domain
error.  Every error goes to stderr as one JSON object
``{"error", "message", "exit_code"}`` and nothing to stdout; only
argparse's own usage errors print text (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

from . import analysis
from .circuit import (
    ConverterParams,
    ModelDomainError,
    ParameterError,
    ResponseMetrics,
    StepEvent,
    StepKind,
    Waveform,
    validate_params,
)
from .oracle import simulate_averaged, simulate_switched
from .steady import steady_output


class ConfigError(ValueError):
    """Malformed run configuration."""


_CONVERTER_KEYS = {"v_i", "l", "r_l", "c", "r_c", "r_m", "v_d", "r_0", "d", "f_sw"}
_EVENT_KEYS = {"kind", "value_before", "value_after", "t_event"}
_SOLVER_KEYS = {"dt", "t_end", "steps_per_cycle"}
_SWEEP_KEYS = {"axis1", "axis2", "model", "metric"}
_AXIS_KEYS = {"name", "lo", "hi", "n", "log"}
_DESCENT_KEYS = {"free", "constraint", "max_steps", "model", "r_l_budget"}
_TOP_KEYS = {"converter", "event", "solver", "output", "sweep", "descent", "audit"}
_AUDIT_KEYS = {"t0", "t1"}


def _require_keys(block: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(raw, _TOP_KEYS, {"converter"}, "config")
    return raw


def parse_converter(cfg: dict) -> ConverterParams:
    block = cfg["converter"]
    _require_keys(block, _CONVERTER_KEYS, _CONVERTER_KEYS, "converter")
    try:
        p = ConverterParams(**{k: float(block[k]) for k in _CONVERTER_KEYS})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"converter block holds a non-numeric value: {exc}") from exc
    return validate_params(p)


def parse_event(cfg: dict, p: ConverterParams) -> StepEvent:
    if "event" not in cfg:
        raise ConfigError("this command needs an event block")
    block = cfg["event"]
    _require_keys(block, _EVENT_KEYS, {"kind", "value_before", "value_after"}, "event")
    kinds = {"input_voltage": StepKind.INPUT_VOLTAGE, "load_resistance": StepKind.LOAD_RESISTANCE}
    if block["kind"] not in kinds:
        raise ConfigError(f"event kind must be one of {sorted(kinds)}")
    try:
        event = StepEvent(
            kind=kinds[block["kind"]],
            value_before=float(block["value_before"]),
            value_after=float(block["value_after"]),
            t_event=float(block.get("t_event", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if event.kind is StepKind.INPUT_VOLTAGE and event.value_after != p.v_i:
        raise ConfigError("converter.v_i must equal event.value_after for input steps")
    if event.kind is StepKind.LOAD_RESISTANCE and event.value_before != p.r_0:
        raise ConfigError("converter.r_0 must equal event.value_before for load steps")
    return event


def parse_solver(cfg: dict, p: ConverterParams) -> dict:
    block = dict(cfg.get("solver", {}))
    _require_keys(block, _SOLVER_KEYS, set(), "solver")
    spc = int(block.get("steps_per_cycle", 200))
    return {
        "dt": float(block["dt"]) if "dt" in block else p.period / spc,
        "t_end": float(block["t_end"]) if "t_end" in block else None,
        "steps_per_cycle": spc,
    }


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def write_csv(path: Optional[str], header: list[str], rows: list[list[Any]]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def write_waveform_csv(path: Optional[str], wave: Waveform) -> None:
    """Two columns t,v with every value in full ``repr`` precision."""
    rows = [f"{t!r},{v!r}\n" for t, v in zip(wave.times.tolist(), wave.samples.tolist())]
    _write_text(path, "t,v\n" + "".join(rows))


def _metrics_payload(model: str, m: ResponseMetrics) -> dict:
    return {
        "model": model,
        "v_steady": m.v_steady,
        "v_max": m.v_max,
        "t_p": m.t_p,
        "overshoot_pct": m.overshoot_pct,
        "flags": list(m.flags),
    }


def cmd_predict(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    event = parse_event(cfg, p)
    solved = analysis.closed_form(p, event, args.model)
    payload = _metrics_payload(args.model, solved.metrics)
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.waveform:
        solver = parse_solver(cfg, p)
        t_end = solver["t_end"] or analysis.default_comparison_t_end(p, event)
        write_waveform_csv(args.waveform, solved.waveform(event.t_event, solver["dt"], t_end))
    return 0


def cmd_simulate(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    event = parse_event(cfg, p) if "event" in cfg else None
    solver = parse_solver(cfg, p)
    sim_p, initial, events = analysis.simulation_setup(p, event, "zero")
    t_end = solver["t_end"] or (
        analysis.default_comparison_t_end(p, event) if event else 40 * p.period)
    if args.engine == "averaged":
        wave = simulate_averaged(
            sim_p, events, solver["dt"], t_end,
            include_parasitics=(args.parasitics == "on"), initial_state=initial,
        )
    else:
        trace = simulate_switched(
            sim_p, events, solver["steps_per_cycle"], t_end, initial_state=initial
        )
        wave = trace.waveform
    write_waveform_csv(args.out, wave)
    return 0


def cmd_compare(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    event = parse_event(cfg, p)
    solver = parse_solver(cfg, p)
    table = analysis.compare_models(
        p,
        event,
        reference=args.reference,
        t_end=solver["t_end"],
        steps_per_cycle=solver["steps_per_cycle"],
    )
    header = ["model", "v_steady", "v_max", "t_p", "steady_error_pct", "dynamic_error_pct", "rmse", "flags"]
    rows = [
        [
            r.model, r.v_steady, r.v_max, r.t_p, r.steady_error_pct,
            r.dynamic_error_pct, r.rmse_v, ";".join(r.flags),
        ]
        for r in table.rows
    ]
    write_csv(args.out, header, rows)
    return 0


def _parse_axis(block: dict, where: str) -> analysis.SweepAxis:
    _require_keys(block, _AXIS_KEYS, {"name", "lo", "hi", "n"}, where)
    return analysis.SweepAxis(
        name=block["name"],
        lo=float(block["lo"]),
        hi=float(block["hi"]),
        n=int(block["n"]),
        log=bool(block.get("log", False)),
    )


def cmd_sweep(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a sweep block")
    block = cfg["sweep"]
    _require_keys(block, _SWEEP_KEYS, {"axis1", "axis2"}, "sweep")
    axis1 = _parse_axis(block["axis1"], "sweep.axis1")
    axis2 = _parse_axis(block["axis2"], "sweep.axis2")
    try:
        grid = analysis.sweep(
            p, axis1, axis2,
            model=block.get("model", "tfm"),
            metric=block.get("metric", "v_max"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = [f"{axis1.name}\\{axis2.name}"] + [repr(float(v)) for v in axis2.values]
    valid = grid.valid
    rows = []
    for i, v1 in enumerate(axis1.values):
        row: list[Any] = [float(v1)]
        for j in range(axis2.n):
            row.append(float(grid.values[i, j]) if valid[i, j] else "invalid")
        rows.append(row)
    write_csv(args.out, header, rows)
    return 0


def cmd_descend(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    if "descent" not in cfg:
        raise ConfigError("descend command needs a descent block")
    block = cfg["descent"]
    _require_keys(block, _DESCENT_KEYS, {"free"}, "descent")
    free = list(block["free"])
    constraint = block.get("constraint")
    try:
        path = analysis.steepest_descent(
            p,
            free,
            constraint=constraint,
            max_steps=int(block.get("max_steps", 50)),
            model=block.get("model", "tfm"),
            r_l_budget=block.get("r_l_budget"),
        )
    except (analysis.UnsupportedAxisPair, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    header = ["step"] + free + ["v_max"]
    if constraint == "constant-steady-output":
        header.append("steady_output")
    rows = []
    for k, step in enumerate(path.steps):
        row: list[Any] = [k] + [getattr(step.params, name) for name in free] + [step.v_max]
        if constraint == "constant-steady-output":
            row.append(steady_output(step.params))
        rows.append(row)
    write_csv(args.out, header, rows)
    return 0


def cmd_audit(cfg: dict, args: argparse.Namespace) -> int:
    from .oracle import energy_audit

    p = parse_converter(cfg)
    event = parse_event(cfg, p) if "event" in cfg else None
    solver = parse_solver(cfg, p)
    block = dict(cfg.get("audit", {}))
    _require_keys(block, _AUDIT_KEYS, set(), "audit")
    sim_p, initial, events = analysis.simulation_setup(p, event, "steady")
    t_end = solver["t_end"] or 40 * p.period
    trace = simulate_switched(sim_p, events, solver["steps_per_cycle"], t_end, initial_state=initial)
    t0 = float(block.get("t0", 0.0))
    t1 = float(block.get("t1", t_end))
    breakdown = energy_audit(p, trace, t0, t1)
    payload = {
        "t0": t0,
        "t1": t1,
        "e_l": breakdown.e_l,
        "e_c": breakdown.e_c,
        "e_r": breakdown.e_r,
        "e_vd": breakdown.e_vd,
        "e_rm": breakdown.e_rm,
        "e_rl": breakdown.e_rl,
        "e_rc": breakdown.e_rc,
        "residual": breakdown.residual,
        "flags": list(trace.flags),
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostdyn",
        description="Boost converter transient prediction and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", default=None, help="output file (default: stdout)")

    sp = sub.add_parser("predict", help="closed-form metrics for one event")
    add_common(sp)
    sp.add_argument("--model", choices=("ebm", "tfm", "fr"), default="tfm")
    sp.add_argument("--waveform", default=None, help="also write the response CSV here")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("simulate", help="run a numerical oracle")
    add_common(sp)
    sp.add_argument("--engine", choices=("averaged", "switched"), default="averaged")
    sp.add_argument("--parasitics", choices=("on", "off"), default="on")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("compare", help="model comparison table")
    add_common(sp)
    sp.add_argument("--reference", default="switched",
                    choices=analysis.MODEL_ROWS + ("aer",))
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("sweep", help="metric grid over two parameters")
    add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("descend", help="overshoot descent path")
    add_common(sp)
    sp.set_defaults(func=cmd_descend)

    sp = sub.add_parser("audit", help="energy-conservation audit of a switched run")
    add_common(sp)
    sp.set_defaults(func=cmd_audit)
    return parser


def _emit_error(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except (ConfigError, ParameterError) as exc:
        return _emit_error(exc, 2)
    except ModelDomainError as exc:
        return _emit_error(exc, 3)
    except Exception as exc:
        return _emit_error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
