"""Benchmark of boostdyn: one seeded workload, measured end to end or traced
layer by layer.

    python3 perfbench/run.py --workload predict|explore|validate \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``boostdyn`` from ``src/``
there and nowhere else, and exits with code 2 without a result when that
is missing. Each workload is a closed loop with one caller in one thread
(see workloads.py and NOTES.md).

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
runs the operations of the first ``S/2`` seconds untraced, runs the same
operations again with every public function of the package wrapped in a
span, requires identical answers from both passes, and reports the
per-layer metrics plus the tracing overhead on every end-to-end metric.

Every answer is checked (checks.py). The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it hold the run record, the answer
fingerprint and the observed known seed behaviours.

This file imports nothing beyond the standard library before it has timed
``import boostdyn``, which is the set-up metric.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("predict", "explore", "validate")
#: Fresh processes that time ``import boostdyn`` and then the speed probe
#: (harness.speed_probe, median of nine after three warm-up calls);
#: setup_s is the median of their import times at the reference speed.
IMPORT_PROBES = 9
PROBE = ("import statistics, sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
         "import boostdyn; d = time.perf_counter() - t; import harness; "
         "[harness.speed_probe() for _ in range(3)]; "
         "print(repr(d), repr(statistics.median(harness.speed_probe() for _ in range(9))))")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_probe(src: Path) -> tuple[float, float]:
    """(seconds to import boostdyn, seconds of the speed probe right after)
    in a fresh process."""
    done = subprocess.run([sys.executable, "-c", PROBE, str(src), str(Path(__file__).parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    import_s, probe_s = map(float, done.stdout.split())
    return import_s, probe_s


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "boostdyn" / "__init__.py").is_file():
        print(f"no boostdyn sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    found = {name: os.environ.get(name) for name in ("BOOSTDYN_THREADS",) + BLAS_THREAD_VARS}
    # the default single-threaded sweep is what gets measured
    os.environ.pop("BOOSTDYN_THREADS", None)
    # one process, one thread: BLAS thread pools are held at one thread too.
    # Starting them varied from run to run by as much as the rest of the
    # import, so it stays out of setup_s.
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

    imports = [] if args.trace else [import_probe(src) for _ in range(IMPORT_PROBES)]
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import boostdyn
    own_import_s = time.perf_counter() - t0
    if Path(boostdyn.__file__).resolve().parent != (src / "boostdyn").resolve():
        print(f"imported boostdyn from {boostdyn.__file__}, not from {src}", file=sys.stderr)
        return 2

    import harness

    return harness.run(args, root, own_import_s, imports, found)


if __name__ == "__main__":
    sys.exit(main())
