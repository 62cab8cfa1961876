"""Per-layer tracing of ``boostdyn`` from outside the package.

The layers are the package modules. Installing a :class:`Tracer` replaces
each public function of every module with a wrapper that records one span
(name, start, end, parent span, operation id, whether it raised). The
modules import each other's functions by name (``from .steady import
steady_output``), so a wrapper replaces the function in every ``boostdyn``
namespace that holds it; methods are patched on their class. Spans stay in
memory and are written once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Two inner-loop functions, listed in COUNT_ONLY, are counted without a span:
they are called tens of times per peak search, and their time stays in the
calling span of the same module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

import boostdyn
from workloads import CliAnswer

LAYERS = ("circuit", "steady", "tfm_line", "refmodel", "ebm", "tfm_load", "polyroots",
          "oracle", "analysis", "cli")
METHODS = {"tfm_load": {"ExpModeSum": ("deviation", "deviation_slope")},
           "oracle": {"SwitchedTrace": ("cycle_averaged",)}}
COUNT_ONLY = {"ebm.response_slope", "tfm_load.ExpModeSum.deviation_slope"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.op = -1
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._restore: list[tuple[Any, str, Any]] = []

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"boostdyn.{layer}") for layer in LAYERS}
        wrappers: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for namespace in (boostdyn, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._patch(namespace, attr, wrappers[id(obj)])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for attr in methods:
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], f"{layer}.{cls_name}.{attr}"))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def _patch(self, namespace: Any, attr: str, value: Any) -> None:
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        if name in COUNT_ONLY:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        nid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        perf = time.perf_counter
        stack, raised, end = self._stack, self.raised, self.end
        appends = (self.name.append, self.parent.append, self.op_id.append,
                   self.end.append, self.raised.append)
        start_append = self.start.append
        tracer = self

        def spanned(*args, **kwargs):
            idx = len(raised)
            name_a, parent_a, op_a, end_a, raised_a = appends
            name_a(nid)
            parent_a(stack[-1])
            op_a(tracer.op)
            end_a(0.0)
            raised_a(0)
            stack.append(idx)
            start_append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf()
                stack.pop()
            if probe is not None:
                probe(tracer.counts, result)
            return result

        return functools.wraps(fn)(spanned)

    # --- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _switched_probe(counts: Counter, trace) -> None:
    counts["switched_substeps"] += trace.v_out.size - 1
    counts["switched_dcm"] += "dcm" in trace.flags


def _averaged_probe(counts: Counter, wave) -> None:
    counts["averaged_steps"] += wave.samples.size - 1


def _main_probe(counts: Counter, code) -> None:
    counts[f"exit_{code}"] += 1


PROBES = {
    "oracle.simulate_switched": _switched_probe,
    "oracle.simulate_averaged": _averaged_probe,
    "cli.main": _main_probe,
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, kinds: list[str], answers: list[Any],
                  op_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass.

    ``kinds`` and ``answers`` hold each traced operation's kind and result;
    ``op_seconds`` is the summed latency of those operations, the base of
    every self-time share.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    n_names = len(tracer.names)
    calls = np.bincount(a["name"], minlength=n_names)
    self_by_name = np.bincount(a["name"], weights=self_time, minlength=n_names)
    raised_by_name = np.bincount(a["name"], weights=a["raised"], minlength=n_names)
    index = {name: k for k, name in enumerate(tracer.names)}

    def n(name: str) -> float:
        return float(calls[index[name]])

    def self_ms(name: str) -> float:
        return float(self_by_name[index[name]]) * 1e3

    def raised(name: str) -> float:
        return float(raised_by_name[index[name]])

    out: dict[str, tuple[float, str]] = {}
    layer_of = np.array([name.split(".")[0] for name in tracer.names])
    for layer in LAYERS:
        mask = layer_of == layer
        layer_self = float(self_by_name[mask].sum())
        out[f"{layer}.calls"] = (float(calls[mask].sum()), "count")
        out[f"{layer}.self_ms"] = (layer_self * 1e3, "ms")
        out[f"{layer}.self_share"] = (_div(layer_self, op_seconds), "share")
    out["bench.self_share"] = (_div(op_seconds - float(dur[~has_parent].sum()), op_seconds), "share")
    out["trace.spans"] = (float(dur.size), "count")

    c = tracer.counts
    out["polyroots.ms_per_call"] = (_div(out["polyroots.self_ms"][0], n("polyroots.all_roots")), "ms")
    out["tfm_load.metrics_calls"] = (n("tfm_load.load_metrics"), "count")
    out["tfm_load.metrics_self_ms"] = (self_ms("tfm_load.load_metrics"), "ms")
    out["tfm_load.invert_self_ms"] = (self_ms("tfm_load.invert_quartic_tf"), "ms")
    out["tfm_load.slope_evals_per_peak"] = (
        _div(c["tfm_load.ExpModeSum.deviation_slope"], n("tfm_load.load_metrics")), "count")
    out["tfm_load.refused"] = (raised("tfm_load.load_tf_corrected"), "count")
    out["ebm.metrics_calls"] = (n("ebm.ebm_metrics"), "count")
    out["ebm.metrics_self_ms"] = (self_ms("ebm.ebm_metrics"), "ms")
    out["ebm.slope_evals_per_peak"] = (_div(c["ebm.response_slope"], n("ebm.ebm_metrics")), "count")
    out["circuit.validate_calls"] = (n("circuit.validate_params"), "count")

    out["analysis.cfm_calls"] = (n("analysis.closed_form_metrics"), "count")
    out["analysis.cfm_self_ms"] = (self_ms("analysis.closed_form_metrics"), "ms")
    grids = [g for kind, g in zip(kinds, answers) if kind.startswith("sweep")]
    cells = float(sum(g.values.size for g in grids))
    out["analysis.sweep_cells"] = (cells, "count")
    out["analysis.sweep_valid_share"] = (_div(float(sum(g.valid.sum() for g in grids)), cells), "share")
    out["analysis.sweep_self_ms"] = (self_ms("analysis.sweep"), "ms")
    paths = [p for kind, p in zip(kinds, answers) if kind == "descent"]
    steps = float(sum(len(p.steps) - 1 for p in paths))
    descent_ops = np.array([k for k, kind in enumerate(kinds) if kind == "descent"], dtype=np.int32)
    descent_evals = np.count_nonzero((a["name"] == index["analysis.closed_form_metrics"])
                                     & np.isin(a["op"], descent_ops))
    out["analysis.descent_steps"] = (steps, "count")
    out["analysis.descent_evals_per_step"] = (_div(float(descent_evals), steps), "count")
    out["analysis.descent_self_ms"] = (self_ms("analysis.steepest_descent"), "ms")
    out["analysis.compare_self_ms"] = (self_ms("analysis.compare_models"), "ms")
    out["analysis.extract_self_ms"] = (self_ms("analysis.extract_metrics"), "ms")

    switched = n("oracle.simulate_switched")
    out["oracle.switched_calls"] = (switched, "count")
    out["oracle.switched_self_ms"] = (self_ms("oracle.simulate_switched"), "ms")
    out["oracle.switched_substeps"] = (float(c["switched_substeps"]), "count")
    out["oracle.switched_us_per_substep"] = (
        _div(out["oracle.switched_self_ms"][0] * 1e3, c["switched_substeps"]), "us")
    out["oracle.switched_dcm_share"] = (_div(c["switched_dcm"], switched), "share")
    out["oracle.averaged_calls"] = (n("oracle.simulate_averaged"), "count")
    out["oracle.averaged_self_ms"] = (self_ms("oracle.simulate_averaged"), "ms")
    out["oracle.averaged_us_per_step"] = (
        _div(out["oracle.averaged_self_ms"][0] * 1e3, c["averaged_steps"]), "us")
    out["oracle.audit_calls"] = (n("oracle.energy_audit"), "count")
    out["oracle.audit_failed"] = (raised("oracle.energy_audit"), "count")

    out["cli.main_calls"] = (n("cli.main"), "count")
    out["cli.write_self_ms"] = (self_ms("cli.write_csv") + self_ms("cli.write_waveform_csv"), "ms")
    out["cli.bytes_out"] = (float(sum(
        len(ans.stdout) + len(ans.stderr) + ans.size
        for ans in answers if isinstance(ans, CliAnswer))), "bytes")
    out["cli.exit_2"] = (float(c["exit_2"]), "count")
    out["cli.exit_3"] = (float(c["exit_3"]), "count")
    out["cli.uncaught"] = (raised("cli.main"), "count")
    return out

