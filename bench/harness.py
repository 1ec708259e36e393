"""Set-up, the timed closed loop, the traced run and the environment block.

All timing uses the standard library: ``time.perf_counter`` for wall time,
``time.process_time`` and ``resource.getrusage`` for CPU time and peak
memory. Each workload is a closed loop with a single caller and no think
time.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from tracing import Tracer
from workloads import Workload

SETUP_REPS = 3
SETUP_REPS_DURING = 20
MIN_OPS = 100
WARMUP_OPS = 3
MAX_TRACE_PAIRS = 3
IMPORT_REPS = 5

END_TO_END = (
    ("throughput_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    noted: int = 0
    notes: list = field(default_factory=list)

    def run(self, workload: Workload, ebx, item) -> float:
        """Run and check one op; return its wall time in seconds."""
        start = time.perf_counter()
        elapsed = None
        try:
            out = workload.run(ebx, item)
            elapsed = time.perf_counter() - start
            notes = workload.check(item, out)
            self.noted += len(notes)
            if notes and len(self.notes) < 5:
                self.notes.append(f"{item.key}: {notes[0]}")
        except Exception as exc:  # a failing op is counted and the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{item.key}: {type(exc).__name__}: {exc}")
        self.attempted += 1
        return elapsed


@dataclass
class Inputs:
    ebx: object
    prologue: list
    cycle: list
    stride: int
    seed: int
    workdir: str
    setup_times: list


def _purge_ebx() -> None:
    for name in [m for m in sys.modules if m == "ebx" or m.startswith("ebx.")]:
        del sys.modules[name]


def set_up(workload: Workload, seed: int, workdir: str, reps: int = SETUP_REPS) -> Inputs:
    """Import ebx afresh and build the inputs ``reps`` times, timing each.
    numpy stays imported, so each repetition costs the same."""
    times = []
    for _ in range(reps):
        gc.collect()  # garbage of the previous repetition is not set-up work
        start = time.perf_counter()
        _purge_ebx()
        ebx = importlib.import_module("ebx")
        prologue, cycle, stride = workload.build(ebx, seed, workdir)
        times.append(time.perf_counter() - start)
    return Inputs(ebx, prologue, cycle, stride, seed, workdir, times)


def _cpu_seconds(children: bool) -> float:
    if not children:
        return time.process_time()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def measure(workload: Workload, inputs: Inputs, seconds: float, tally: Tally,
            min_ops: int = MIN_OPS) -> tuple[dict, int]:
    """The untraced closed loop: its end-to-end metrics and timed op count.

    Throughput and CPU per op are medians over strides, so a stall of the
    machine in one stride does not move them; the prologue counts only in
    the latency samples and the peak memory. setup_s is the median of the
    set-ups before the loop and of ``SETUP_REPS_DURING`` more, spread
    evenly over the run between strides, so that it samples the machine
    as the per-op metrics do. Their time is not counted in ``seconds``.
    """
    ebx, cycle = inputs.ebx, inputs.cycle
    for item in cycle[:WARMUP_OPS]:
        tally.run(workload, ebx, item)
    children = workload.in_children
    start = time.perf_counter()
    latencies = [tally.run(workload, ebx, item) for item in inputs.prologue]
    rates, cpu_per_op = [], []
    during = []  # set-up times taken between strides
    paused = 0.0  # wall time of those set-ups, left out of the run time

    def set_up_between_strides():
        nonlocal during, paused
        t0 = time.perf_counter()
        during += set_up(workload, inputs.seed, inputs.workdir, 1).setup_times
        paused += time.perf_counter() - t0

    k = 0
    while True:
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds and len(latencies) >= min_ops:
            break
        while seconds and len(during) < min(SETUP_REPS_DURING, SETUP_REPS_DURING * elapsed / seconds):
            set_up_between_strides()
        cpu0, t0 = _cpu_seconds(children), time.perf_counter()
        for j in range(inputs.stride):
            latencies.append(tally.run(workload, ebx, cycle[(k + j) % len(cycle)]))
        rates.append(inputs.stride / (time.perf_counter() - t0))
        cpu_per_op.append((_cpu_seconds(children) - cpu0) / inputs.stride)
        k += inputs.stride
    while seconds and len(during) < SETUP_REPS_DURING:
        set_up_between_strides()
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "throughput_ops_per_s": statistics.median(rates),
        "latency_p50_ms": 1000 * deciles[4],
        "latency_p90_ms": 1000 * deciles[8],
        "setup_s": statistics.median(inputs.setup_times + during),
        "peak_rss_mb": _peak_rss_mib(children),
        "cpu_ms_per_op": 1000 * statistics.median(cpu_per_op),
    }, len(latencies)


def cli_import_ms(env: dict) -> float:
    """Median time of ``import ebx.cli`` inside fresh interpreters."""
    code = "import time; t = time.perf_counter(); import ebx.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        samples.append(1000 * float(proc.stdout))
    return statistics.median(samples)


def traced(workload: Workload, inputs: Inputs, seconds: float, tally: Tally, env: dict) -> dict:
    """Per-layer metrics from the same batch of ops run untraced and traced
    in turn. The batch is one stride, fixed by the seed, so call counts
    repeat exactly. The prologue is left out: its heavy shapes would make a
    traced run far longer than ``seconds``."""
    ebx = inputs.ebx
    if workload.in_children:
        importlib.import_module("ebx.cli")
        workload.in_process = True
    batch = inputs.cycle[: inputs.stride]
    for item in inputs.cycle[:WARMUP_OPS]:
        tally.run(workload, ebx, item)
    tracer = Tracer()
    plain, with_trace = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for item in batch:
            tally.run(workload, ebx, item)
        plain.append(time.perf_counter() - t0)
        tracer.install()
        try:
            t0 = time.perf_counter()
            for item in batch:
                tally.run(workload, ebx, item)
            with_trace.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        pair = plain[-1] + with_trace[-1]
        if len(with_trace) >= MAX_TRACE_PAIRS or time.perf_counter() - start + pair > seconds:
            break
    n_ops = len(batch) * len(with_trace)
    distinct = sum(item.truth.get("distinct_states", 0) for item in batch) * len(with_trace)
    metrics = tracer.per_op(n_ops, distinct)
    metrics["cli.import_ms"] = cli_import_ms(env)
    metrics["cli.in_process_ms_per_op"] = (
        1000 * statistics.median(plain) / len(batch) if workload.in_children else 0.0
    )
    metrics["trace.overhead_frac"] = statistics.median(with_trace) / statistics.median(plain) - 1
    return metrics


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None where it is not a git repository.
    git is kept from searching the directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, src: str, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_sha256": _src_sha256(src),
    }
