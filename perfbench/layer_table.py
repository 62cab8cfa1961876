"""One-shot layer table: the baseline rows of ROADMAP.md, timed in-process.

    python3 perfbench/layer_table.py

Run it from the root of a checkout. Each row runs one call on the
conftest converters (the load rows use the bench load step 10 -> 150 ohm)
and reports the best and the median of ROUNDS timings with
``time.perf_counter``, plus a numeric fingerprint of the answer, so that a
speedup that moves answers shows next to its timing. The table goes to
standard output and, as JSON with the run record, to
``perfbench/out/layer_table.json``. This is not a benchmark workload.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

from boostdyn import StepEvent, StepKind, analysis, oracle  # noqa: E402
from harness import OUT, git_sha  # noqa: E402
from workloads import LINE, LOAD  # noqa: E402

LINE_STEP = StepEvent(StepKind.INPUT_VOLTAGE, 0.0, LINE.v_i)
LOAD_STEP = StepEvent(StepKind.LOAD_RESISTANCE, 10.0, 150.0)
ROUNDS = 3
SWEEP_AXES = (analysis.SweepAxis("l", 0.5e-3, 2e-3, 64, log=True),
              analysis.SweepAxis("c", 20e-6, 80e-6, 64, log=True))


def _load_setup():
    sim_p = replace(LOAD, r_0=LOAD_STEP.value_before)
    return sim_p, analysis.default_comparison_t_end(LOAD, LOAD_STEP)


def _switched():
    sim_p, t_end = _load_setup()
    trace = oracle.simulate_switched(sim_p, [LOAD_STEP], 200, t_end, initial_state="steady")
    return float(trace.cycle_averaged().samples[-1])


def _averaged():
    sim_p, t_end = _load_setup()
    wave = oracle.simulate_averaged(sim_p, [LOAD_STEP], LOAD.period / 200, t_end,
                                    initial_state="steady")
    return float(wave.samples[-1])


def _compare(p, event):
    table = analysis.compare_models(p, event)
    return sum(row.rmse_v or 0.0 for row in table.rows)


def _sweep(model):
    grid = analysis.sweep(LINE, *SWEEP_AXES, model=model)
    return float(grid.values[grid.valid].sum())


#: (path, layer, call returning the fingerprint)
ROWS = (
    ("closed_form_metrics tfm, line step", "L0/L1",
     lambda: analysis.closed_form_metrics(LINE, LINE_STEP, "tfm").v_max),
    ("closed_form_metrics ebm, line step", "L1",
     lambda: analysis.closed_form_metrics(LINE, LINE_STEP, "ebm").v_max),
    ("closed_form_metrics tfm, load step", "L1",
     lambda: analysis.closed_form_metrics(LOAD, LOAD_STEP, "tfm").v_max),
    ("simulate_switched load, 200 substeps/cycle", "L3", _switched),
    ("simulate_averaged load", "L3", _averaged),
    ("compare_models line", "L4", lambda: _compare(LINE, LINE_STEP)),
    ("compare_models load", "L4", lambda: _compare(LOAD, LOAD_STEP)),
    ("sweep 64x64 tfm", "L4", lambda: _sweep("tfm")),
    ("sweep 64x64 ebm", "L4", lambda: _sweep("ebm")),
    ("steepest_descent over (l, c)", "L4",
     lambda: analysis.steepest_descent(LINE, ("l", "c")).steps[-1].v_max),
)


def main() -> int:
    os.environ.pop("BOOSTDYN_THREADS", None)
    rows = []
    for path, layer, call in ROWS:
        times, fingerprint = [], None
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            fingerprint = call()
            times.append((time.perf_counter() - t0) * 1e3)
        rows.append({"path": path, "layer": layer, "best_ms": min(times),
                     "median_ms": statistics.median(times), "rounds": ROUNDS,
                     "fingerprint": fingerprint})
        print(f"{path:44s} {layer:6s} {min(times):12.4f} ms  (median {statistics.median(times):.4f})"
              f"  fingerprint {fingerprint!r}")
    record = {"git_sha": git_sha(Path.cwd()), "python": sys.version.split()[0],
              "numpy": np.__version__, "nproc": os.cpu_count(), "rows": rows}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "layer_table.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
