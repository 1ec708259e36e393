"""ebx benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0

Workloads: sweep-small, sweep-large, cli (see BENCHMARK.json for why each
exists). ``--trace 0`` times an untraced closed loop and prints the
end-to-end metrics; ``--trace 1`` runs a fixed batch untraced and traced in
turn and prints the per-layer metrics. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it holds the environment block and run details. Every op's output
is checked against its input's ground truth; failures count in ``failed``.

The package is imported from ``src/`` next to this directory; without it
the script exits with code 2 and prints no result.

Self-test: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep-small", "sweep-large", "cli")


def pin_blas_threads() -> int:
    """One BLAS thread for every run and every child.

    It must be set before numpy loads OpenBLAS. On a 2-core machine two
    threads made the large SVDs about 1.4x faster but made whole passes over
    the small-matrix inputs up to 2.7x slower at random, which no bound
    could absorb.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "ebx", "__init__.py")):
        print(f"bench: no ebx package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ebx

    if os.path.dirname(os.path.dirname(os.path.abspath(ebx.__file__))) != SRC:
        print(f"bench: imported ebx from {ebx.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    from tracing import METRICS
    from workloads import child_env, make_workloads

    workload = make_workloads(SRC)[args.workload]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        inputs = harness.set_up(workload, args.seed, workdir)
        tally = harness.Tally()
        timed_ops = None
        if args.trace:
            values = harness.traced(workload, inputs, args.seconds, tally, child_env(SRC))
            units = dict(METRICS)
        else:
            values, timed_ops = harness.measure(workload, inputs, args.seconds, tally)
            units = dict(harness.END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in tally.errors:
        print(f"bench: failed op {line}", file=sys.stderr)
    for line in tally.notes:
        print(f"bench: known defect {line}", file=sys.stderr)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": timed_ops,
        "failed_frac": tally.failed / tally.attempted,
        "known_defect_ops": tally.noted,
        "environment": harness.environment(ROOT, SRC, threads),
    }
    print(json.dumps(details))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
