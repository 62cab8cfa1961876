"""The benchmark's tracer looks library functions up by name, so a deletion
or a rename that it misses would fail only a traced benchmark run."""

import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_name_it_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        # the empty trace still reads every name through the tracer's index
        metrics = tracer.layer_metrics(t, [], [], 0.0)
    finally:
        t.uninstall()
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared
                            if not m["name"].startswith("trace.overhead_")}
