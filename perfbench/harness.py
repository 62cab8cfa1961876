"""The measured loop, the metrics and the result line of one benchmark run.

Imported by run.py once ``boostdyn`` is imported and its import timed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import Tracer, layer_metrics

#: Answers of the first operations of the pool form the fingerprint, so
#: that runs of different speed fingerprint the same inputs.
FINGERPRINT_OPS = {"predict": 1000, "explore": 100, "validate": 50}
OUT = Path(__file__).resolve().parent / "out"
#: Seconds between two speed probes in the timed loop.
SPEED_EVERY = 0.25
#: Median time of the speed probe at the reference machine speed, seconds.
#: Times are reported at this speed: each measured time is scaled by the
#: ratio of the probe time measured around it to this one.
REF_PROBE_S = 1.2e-3
#: An op's speed is the median of the probes this many places either side
#: of the last probe before it (11 probes, about 3 s of the loop).
LOCAL_PROBES = 5


def git_sha(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class _Record:
    a: float
    b: float
    c: float


_TINY_POLY = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
_TINY_ROOTS = np.array([0.1 + 0.2j, 0.3, 0.5 - 0.1j, 0.7])
_GRID = np.linspace(0.0, 1.0, 257)


def speed_probe() -> float:
    """Seconds taken by a fixed kernel of the benchmark's own: a pure-Python
    float loop, numpy calls on 4- and 257-element arrays, and dataclass
    copies, the kinds of work the workloads spend their time on. It uses no
    ``boostdyn`` code, so a change to the program cannot move it. Its mix
    follows the workloads' speed about three times better than any one of
    its parts."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += (i % 7) * 0.5
    for _ in range(30):
        np.polyval(_TINY_POLY, _TINY_ROOTS)
        np.prod(np.delete(_TINY_ROOTS, 1) - _TINY_ROOTS[0])
    for _ in range(12):
        np.exp(-_GRID) * np.cos(3.0 * _GRID) + np.sin(2.0 * _GRID)
    rec = _Record(1.0, 2.0, 3.0)
    for _ in range(80):
        rec = replace(rec, a=rec.a + acc * 1e-9)
    return time.perf_counter() - t0


@dataclass
class SpeedTrack:
    """Speed probes taken between the ops of a timed loop: each probe's
    time, and for each op the index of the last probe before it."""

    probes: list[float] = field(default_factory=list)
    last_probe: list[int] = field(default_factory=list)

    def op_factors(self) -> np.ndarray:
        """Per op, the local probe time over REF_PROBE_S: the median of the
        probes within LOCAL_PROBES places of the op's last probe."""
        t = np.asarray(self.probes)
        local = np.array([np.median(t[max(0, i - LOCAL_PROBES):i + LOCAL_PROBES + 1])
                          for i in range(t.size)])
        return local[np.asarray(self.last_probe)] / REF_PROBE_S


def run_ops(ops, seconds=None, count=None, tracer=None, speed=None):
    """Run the pool in order, cycling, for ``seconds`` or for ``count`` ops.

    Returns (latencies in s, answers, failed flags, loop wall time in s).
    The first run of each pool entry keeps its whole answer; repeats keep
    what must be identical to it. If ``speed`` is a SpeedTrack, a speed
    probe runs between ops every SPEED_EVERY seconds, and the probes are
    recorded in it and left out of the wall time.
    """
    size = len(ops)
    lat, answers, failed = [], [], []
    perf = time.perf_counter
    begin = perf()
    deadline = begin + (seconds if seconds is not None else float("inf"))
    next_probe = begin
    k = 0
    while (k < count) if count is not None else (perf() < deadline):
        if speed is not None:
            if perf() >= next_probe:
                speed.probes.append(speed_probe())
                next_probe = perf() + SPEED_EVERY
            speed.last_probe.append(len(speed.probes) - 1)
        op = ops[k % size]
        if tracer is not None:
            tracer.op = k
        t0 = perf()
        try:
            answer = op.fn(*op.args)
            bad = op.expect is not None and answer.code != op.expect
        except Exception as exc:
            answer, bad = workloads.Raised(type(exc).__name__, str(exc)), True
        lat.append(perf() - t0)
        answers.append(workloads.collect(op, answer, keep=k < size))
        failed.append(bad)
        k += 1
    return lat, answers, failed, perf() - begin - (sum(speed.probes) if speed else 0.0)


def end_to_end(lat, failed, wall, rss, setup):
    ms = np.asarray(lat) * 1e3
    return {
        "ops_per_s": (len(lat) / wall, "1/s"),
        "op_p50_ms": (float(np.percentile(ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(ms, 90)), "ms"),
        "ok_share": (1.0 - sum(failed) / len(failed), "share"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup, "s"),
    }


def at_reference_speed(metrics, lat, wall, speed: SpeedTrack):
    """The loop's time metrics as they would read on a machine running the
    speed probe in REF_PROBE_S. The CPU speed of a shared machine drifts by
    a third and more within a minute, and every time measured in the loop
    drifts with it; the probe, which runs no ``boostdyn`` code, takes most
    of that drift out. Each op's latency is scaled by the probes taken
    around it, the loop's time between ops by the run's median probe."""
    lat = np.asarray(lat)
    ref = lat / speed.op_factors()
    between = (wall - lat.sum()) / (statistics.median(speed.probes) / REF_PROBE_S)
    out = dict(metrics)
    out["ops_per_s"] = (lat.size / (ref.sum() + between), "1/s")
    out["op_p50_ms"] = (float(np.percentile(ref, 50)) * 1e3, "ms")
    out["op_p90_ms"] = (float(np.percentile(ref, 90)) * 1e3, "ms")
    return out


def setup_at_reference_speed(imports) -> float:
    """Median over the import probes of the time to import ``boostdyn``,
    each scaled by the speed probe its process ran right after the import."""
    return statistics.median(d * REF_PROBE_S / probe for d, probe in imports)


def check_answers(ck, ops, answers, failed, workload) -> None:
    """Check every first run in full and every repeat against its first run."""
    size = len(ops)
    for k, (answer, bad) in enumerate(zip(answers, failed)):
        op = ops[k % size]
        if k >= size:
            if workloads.answer_key(answer) != workloads.answer_key(answers[k % size]):
                ck.fail(f"op {k} ({op.kind})", f"answer differs from op {k % size}, its first run")
        elif not bad:
            ck.recording = k < FINGERPRINT_OPS[workload]
            ck.check(op, answer, f"op {k} ({op.kind})")


def warm_up(ops) -> None:
    """Run the first operation of each kind once, untimed, so that lazy
    imports and first-call set-up are not measured."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                workloads.collect(op, op.fn(*op.args), keep=False)
            except Exception:
                pass  # the timed loop counts it


def run_audit_probes(ck, probes) -> None:
    """Run the known-defect probes once each, untimed, and record how they end.

    On the seed code ``audit`` raises AttributeError out of ``cli.main``
    (``np.trapz`` is gone from numpy 2.4): that is recorded, counted in
    ``observed.audit_raised`` and printed as a known seed defect, not gated.
    An audit that returns is checked like every answer, and any other error
    fails the check."""
    ck.recording = True
    for j, op in enumerate(probes):
        where = f"audit probe {j}"
        try:
            answer = workloads.collect(op, op.fn(*op.args), keep=True)
        except AttributeError as exc:
            if "trapz" in str(exc):
                ck.observed["audit_raised"] += 1
                ck.known.append(f"{where}: raised AttributeError: {exc}")
            else:
                ck.fail(where, f"raised AttributeError: {exc}")
            continue
        except Exception as exc:
            ck.fail(where, f"raised {type(exc).__name__}: {exc}")
            continue
        if answer.code != op.expect:
            ck.fail(where, f"exit code {answer.code}, expected {op.expect}")
        else:
            ck.check(op, answer, where)
    ck.observed["audit_probes"] = len(probes)


def traced_probes(ck, probes, metrics) -> None:
    """Run the audit probes traced, and add their audit and uncaught-error
    counts to the loop's per-layer metrics; their time stays out of the
    loop's self times and shares."""
    tracer = Tracer()
    tracer.install()
    try:
        run_audit_probes(ck, probes)
    finally:
        tracer.uninstall()
    probe = layer_metrics(tracer, [], [], 0.0)
    for name in ("oracle.audit_calls", "oracle.audit_failed", "cli.uncaught"):
        metrics[name] = (metrics[name][0] + probe[name][0], "count")


def traced_run(args, ops, ck, import_s):
    """Untraced pass for half the time, then the same operations traced.

    Returns the per-layer metrics, the untraced answers and failures, and
    the failures of both passes."""
    lat0, answers0, failed0, wall0 = run_ops(ops, seconds=args.seconds / 2)
    rss0 = peak_rss_mb()
    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.install()
    install_s = time.perf_counter() - t0
    try:
        lat1, answers1, failed1, wall1 = run_ops(ops, count=len(lat0), tracer=tracer)
    finally:
        tracer.uninstall()
    rss1 = peak_rss_mb()
    tracer.save(OUT / f"spans-{args.workload}.npz")

    for k, (a, b) in enumerate(zip(answers0, answers1)):
        if workloads.answer_key(a) != workloads.answer_key(b):
            ck.fail(f"op {k} ({ops[k % len(ops)].kind})", "traced answer differs from untraced")
    base = end_to_end(lat0, failed0, wall0, rss0, import_s)
    traced = end_to_end(lat1, failed1, wall1, rss1, import_s + install_s)
    kinds = [ops[k % len(ops)].kind for k in range(len(answers1))]
    metrics = layer_metrics(tracer, kinds, answers1, sum(lat1))
    for name, (value, _) in base.items():
        worse = traced[name][0] / value - 1.0
        if name in ("ops_per_s", "ok_share"):
            worse = value / traced[name][0] - 1.0
        metrics[f"trace.overhead_{name}"] = (worse, "share")
    return metrics, answers0, failed0, failed0 + failed1


def run(args, root: Path, own_import_s: float, imports: list[tuple[float, float]],
        env_found: dict) -> int:
    """Generate, warm up, measure, check and print one run.

    ``own_import_s`` is this process's time to import ``boostdyn``;
    ``imports`` holds (import time, speed probe time) from fresh processes,
    empty in a traced run."""
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    speed = SpeedTrack()
    try:
        ops = workloads.generate(args.workload, args.seed, workdir)
        probes = workloads.audit_probes(args.workload, args.seed, workdir)
        warm_up(ops)
        ck = checks.Checker()
        if args.trace:
            metrics, answers, failed, attempted = traced_run(args, ops, ck, own_import_s)
        else:
            lat, answers, failed, wall = run_ops(ops, seconds=args.seconds, speed=speed)
            attempted = failed
            measured = end_to_end(lat, failed, wall, peak_rss_mb(),
                                  statistics.median(d for d, _ in imports))
            metrics = at_reference_speed(measured, lat, wall, speed)
            metrics["setup_s"] = (setup_at_reference_speed(imports), "s")
        check_answers(ck, ops, answers, failed, args.workload)
        if args.trace:
            traced_probes(ck, probes, metrics)
        else:
            run_audit_probes(ck, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(answers), "pool": len(ops),
        "checked_ops": ck.checked, "git_sha": git_sha(root),
        "python": sys.version.split()[0], "numpy": np.__version__, "nproc": os.cpu_count(),
        "env": env_found, "own_import_s": own_import_s,
        "import_s": [d for d, _ in imports],
        "import_speed_probe_ms": [probe * 1e3 for _, probe in imports],
        "speed_probe_ms": statistics.median(speed.probes) * 1e3 if speed.probes else None,
    }
    if not args.trace:
        record["measured"] = {name: value for name, (value, _) in measured.items()}
    print("run_record " + json.dumps(record, sort_keys=True))
    print("fingerprint " + json.dumps(ck.fingerprint, sort_keys=True))
    print("observed " + json.dumps(ck.observed, sort_keys=True))
    for failure in ck.failures[:20]:
        print("check failed: " + failure, file=sys.stderr)
    for failure in ck.known[:20]:
        print("known seed defect, not gated: " + failure, file=sys.stderr)
    result = {
        "correct": not ck.failures,
        "attempted": len(attempted),
        "failed": int(sum(attempted)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0
