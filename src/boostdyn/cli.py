"""Command-line front end.

One JSON config drives every subcommand.  ``_SCHEMA`` lists the six
blocks it may hold, their keys, each key's type and which are required; a
null value counts as an absent key.  Each block, with the commands that
read it:

- ``converter`` (every command): the ten ``ConverterParams`` fields.
- ``event`` (predict, compare; simulate and audit if present): ``kind``
  ("input_voltage" or "load_resistance"), ``value_before``,
  ``value_after`` and optionally ``t_event``.
- ``solver`` (simulate, compare, audit, predict ``--waveform``):
  optionally ``t_end``, else each command picks its own horizon, and
  ``steps_per_cycle`` (default 200), the one sampling knob: every waveform
  is sampled every ``period / steps_per_cycle``.
- ``sweep`` (sweep): ``axis1`` and ``axis2`` (``name``, ``lo``, ``hi``,
  ``n``, optionally ``log``); optionally ``model`` and ``metric``.
- ``descent`` (descend): ``free``, an array of names; optionally
  ``constraint``, ``max_steps``, ``model`` and ``r_l_budget``.
- ``audit`` (audit): optionally the window ``t0`` and ``t1``.

``predict`` and ``audit`` emit JSON, the others CSV, each to ``--out`` if
given and to stdout otherwise.  Exit codes: 0 success; 2 a config or usage
error, which is any ``ValueError``: ``ConfigError``, ``ParameterError`` or
a library argument check; 3 a ``ModelDomainError``; 1 any other (internal)
error.  Every error goes to stderr as one JSON object ``{"error",
"message", "exit_code"}`` and nothing to stdout; only argparse's own usage
errors print text (exit 2).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import Any, Optional

from . import analysis
from .circuit import (
    ConverterParams,
    ModelDomainError,
    StepEvent,
    StepKind,
    Waveform,
)
from .oracle import energy_audit, simulate_averaged, simulate_switched
from .steady import steady_output


class ConfigError(ValueError):
    """Malformed run configuration."""


def _number(value: Any) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def _integer(value: Any) -> int:
    x = _number(value)
    if not x.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(x)


def _count(value: Any) -> int:
    n = _integer(value)
    if n < 1:
        raise ValueError(f"{value!r} is not a positive integer")
    return n


def _flag(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not true or false")
    return value


def _names(value: Any) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{value!r} is not an array of names")
    return value


REQUIRED, OPTIONAL = True, False

_AXIS = {"name": (str, REQUIRED), "lo": (_number, REQUIRED), "hi": (_number, REQUIRED),
         "n": (_integer, REQUIRED), "log": (_flag, OPTIONAL)}

#: block -> key -> (conversion, required); a dict in place of a conversion
#: is a nested block.  Every string value is checked by the library call
#: it reaches.
_SCHEMA = {
    "converter": ({f.name: (_number, REQUIRED) for f in fields(ConverterParams)}, REQUIRED),
    "event": ({"kind": (StepKind, REQUIRED), "value_before": (_number, REQUIRED),
               "value_after": (_number, REQUIRED), "t_event": (_number, OPTIONAL)}, OPTIONAL),
    "solver": ({"t_end": (_number, OPTIONAL), "steps_per_cycle": (_count, OPTIONAL)}, OPTIONAL),
    "sweep": ({"axis1": (_AXIS, REQUIRED), "axis2": (_AXIS, REQUIRED),
               "model": (str, OPTIONAL), "metric": (str, OPTIONAL)}, OPTIONAL),
    "descent": ({"free": (_names, REQUIRED), "constraint": (str, OPTIONAL),
                 "max_steps": (_integer, OPTIONAL), "model": (str, OPTIONAL),
                 "r_l_budget": (_number, OPTIONAL)}, OPTIONAL),
    "audit": ({"t0": (_number, OPTIONAL), "t1": (_number, OPTIONAL)}, OPTIONAL),
}


def _read(block: dict, schema: dict, prefix: str = "") -> dict:
    """The keys of ``block`` converted by ``schema``, nulls dropped; the
    key paths in messages start with ``prefix``."""
    block = {key: value for key, value in block.items() if value is not None}
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s): {sorted(prefix + key for key in unknown)}")
    missing = {key for key, (_, required) in schema.items() if required} - set(block)
    if missing:
        raise ConfigError(f"missing key(s): {sorted(prefix + key for key in missing)}")
    out = {}
    for key, value in block.items():
        convert = schema[key][0]
        if isinstance(convert, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key} must be a JSON object")
            out[key] = _read(value, convert, f"{prefix}{key}.")
            continue
        try:
            out[key] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{prefix}{key}: {exc}") from exc
    return out


def load_config(path: str | Path) -> dict:
    """The config at ``path``, every block checked and converted."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return _read(raw, _SCHEMA)


def _block(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"this command needs the {name} block")
    return cfg[name]


def parse_converter(cfg: dict) -> ConverterParams:
    return ConverterParams(**cfg["converter"])


def parse_event(cfg: dict, p: ConverterParams) -> StepEvent:
    event = StepEvent(**_block(cfg, "event"))
    if event.kind is StepKind.INPUT_VOLTAGE and event.value_after != p.v_i:
        raise ConfigError("converter.v_i must equal event.value_after for input steps")
    if event.kind is StepKind.LOAD_RESISTANCE and event.value_before != p.r_0:
        raise ConfigError("converter.r_0 must equal event.value_before for load steps")
    return event


def _sampling(cfg: dict, p: ConverterParams,
              event: Optional[StepEvent]) -> tuple[int, float, float]:
    """(steps_per_cycle, sample step, t_end) of the solver block.  Without
    t_end the horizon lets ``event`` settle, or is 40 periods without one."""
    solver = cfg.get("solver", {})
    steps_per_cycle = solver.get("steps_per_cycle", 200)
    t_end = solver.get("t_end")
    if t_end is None:
        t_end = analysis.default_comparison_t_end(p, event) if event else 40 * p.period
    return steps_per_cycle, p.period / steps_per_cycle, t_end


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def write_csv(path: Optional[str], header: list[str], rows: list[list[Any]]) -> None:
    lines = [",".join(header)]
    lines += [",".join("" if cell is None else str(cell) for cell in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def write_waveform_csv(path: Optional[str], wave: Waveform) -> None:
    """Two columns t,v with every value in full ``repr`` precision."""
    rows = [f"{t!r},{v!r}\n" for t, v in zip(wave.times.tolist(), wave.samples.tolist())]
    _write_text(path, "t,v\n" + "".join(rows))


def cmd_predict(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    event = parse_event(cfg, p)
    solved = analysis.closed_form(p, event, args.model)
    payload = {"model": args.model, **asdict(solved.metrics)}
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.waveform:
        _, dt, t_end = _sampling(cfg, p, event)
        write_waveform_csv(args.waveform, solved.waveform(event.t_event, dt, t_end))
    return 0


def cmd_simulate(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    event = parse_event(cfg, p) if "event" in cfg else None
    steps_per_cycle, dt, t_end = _sampling(cfg, p, event)
    sim_p, initial, events = analysis.simulation_setup(p, event, "zero")
    if args.engine == "averaged":
        wave = simulate_averaged(
            sim_p, events, dt, t_end,
            include_parasitics=(args.parasitics == "on"), initial_state=initial,
        )
    else:
        wave = simulate_switched(sim_p, events, steps_per_cycle, t_end,
                                 initial_state=initial).waveform
    write_waveform_csv(args.out, wave)
    return 0


def cmd_compare(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    event = parse_event(cfg, p)
    steps_per_cycle, _, t_end = _sampling(cfg, p, event)
    table = analysis.compare_models(p, event, reference=args.reference, t_end=t_end,
                                    steps_per_cycle=steps_per_cycle)
    # the columns are ModelRow's fields, its flags joined by ";"
    header = ["model", "v_steady", "v_max", "t_p", "steady_error_pct", "dynamic_error_pct", "rmse", "flags"]
    rows = [[*astuple(r)[:-1], ";".join(r.flags)] for r in table.rows]
    write_csv(args.out, header, rows)
    return 0


def cmd_sweep(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    block = _block(cfg, "sweep")
    axes = {name: analysis.SweepAxis(**block[name]) for name in ("axis1", "axis2")}
    try:
        grid = analysis.sweep(p, **{**block, **axes})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    axis1, axis2 = grid.axis1, grid.axis2
    header = [f"{axis1.name}\\{axis2.name}"] + [repr(float(v)) for v in axis2.values]
    rows = [[float(v1)] + [float(v) if ok else "invalid" for v, ok in zip(values, valid)]
            for v1, values, valid in zip(axis1.values, grid.values, grid.valid)]
    write_csv(args.out, header, rows)
    return 0


def cmd_descend(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    block = _block(cfg, "descent")
    try:
        path = analysis.steepest_descent(p, **block)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    free = block["free"]
    # a descent that holds the steady output also writes it, as a check
    held = block.get("constraint") == "constant-steady-output"
    header = ["step", *free, "v_max"] + ["steady_output"] * held
    rows = [[k, *(getattr(step.params, name) for name in free), step.v_max]
            + [steady_output(step.params)] * held for k, step in enumerate(path.steps)]
    write_csv(args.out, header, rows)
    return 0


def cmd_audit(cfg: dict, args: argparse.Namespace) -> int:
    p = parse_converter(cfg)
    event = parse_event(cfg, p) if "event" in cfg else None
    steps_per_cycle, _, t_end = _sampling(cfg, p, None)  # 40 periods by default
    window = cfg.get("audit", {})
    sim_p, initial, events = analysis.simulation_setup(p, event, "steady")
    trace = simulate_switched(sim_p, events, steps_per_cycle, t_end, initial_state=initial)
    t0, t1 = window.get("t0", 0.0), window.get("t1", t_end)
    breakdown = energy_audit(p, trace, t0, t1)
    payload = {"t0": t0, "t1": t1, **asdict(breakdown), "residual": breakdown.residual,
               "flags": list(trace.flags)}
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostdyn",
        description="Boost converter transient prediction and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", default=None, help="output file (default: stdout)")
        sp.set_defaults(func=func)
        return sp

    sp = add("predict", cmd_predict, "closed-form metrics for one event")
    sp.add_argument("--model", choices=("ebm", "tfm", "fr"), default="tfm")
    sp.add_argument("--waveform", default=None, help="also write the response CSV here")

    sp = add("simulate", cmd_simulate, "run a numerical oracle")
    sp.add_argument("--engine", choices=("averaged", "switched"), default="averaged")
    sp.add_argument("--parasitics", choices=("on", "off"), default="on")

    sp = add("compare", cmd_compare, "model comparison table")
    sp.add_argument("--reference", default="switched",
                    choices=analysis.MODEL_ROWS + ("aer",))

    add("sweep", cmd_sweep, "metric grid over two parameters")
    add("descend", cmd_descend, "overshoot descent path")
    add("audit", cmd_audit, "energy-conservation audit of a switched run")
    return parser


def _emit_error(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(load_config(args.config), args)
    except ModelDomainError as exc:
        return _emit_error(exc, 3)
    except ValueError as exc:
        return _emit_error(exc, 2)
    except Exception as exc:
        return _emit_error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
