"""Self-test of the benchmark at a tiny size.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH_DIR]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _tiny(name: str, workdir, n_items: int, seed: int = 3):
    workload = workloads.make_workloads(SRC)[name]
    inputs = harness.set_up(workload, seed, str(workdir), reps=1)
    inputs.prologue = []
    inputs.cycle = inputs.cycle[:n_items]
    inputs.stride = n_items
    return workload, inputs


def _spec_units(key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path):
    assert dict(harness.END_TO_END) == _spec_units("end_to_end")
    for name in ("sweep-small", "sweep-large", "cli"):
        workload, inputs = _tiny(name, tmp_path, 2)
        tally = harness.Tally()
        values, _ = harness.measure(workload, inputs, 0.0, tally, min_ops=2)
        assert tally.failed == 0, tally.errors
        for metric in harness.END_TO_END:
            assert values[metric[0]] > 0, (name, metric)


def test_injected_wrong_verdict_counts_as_failed(tmp_path):
    workload, inputs = _tiny("sweep-small", tmp_path, 4)
    wrong = inputs.cycle[1]
    wrong.truth["extreme"] = not wrong.truth["extreme"]
    tally = harness.Tally()
    harness.measure(workload, inputs, 0.0, tally, min_ops=4)
    # the warm-up pass and the timed pass each run the item once
    assert tally.failed == 2
    assert tally.failed / tally.attempted > 0
    assert all(line.startswith(wrong.key) for line in tally.errors)


def test_injected_wrong_commutant_counts_as_failed(tmp_path):
    workload, inputs = _tiny("sweep-small", tmp_path, 4)
    wrong = next(item for item in inputs.cycle
                 if item.truth["block_ranks"] and len(item.truth["block_ranks"]) > 1)
    assert not wrong.truth["scalar_range"]
    wrong.truth["commutant"] += 1
    tally = harness.Tally()
    harness.measure(workload, inputs, 0.0, tally, min_ops=4)
    assert tally.failed == 2, tally.errors
    assert all(line.startswith(wrong.key) for line in tally.errors)


def test_injected_wrong_cli_output_counts_as_failed(tmp_path):
    workload, inputs = _tiny("cli", tmp_path, 2)
    km = inputs.cycle[1]
    km.truth["n_terms"] += 1
    tally = harness.Tally()
    harness.measure(workload, inputs, 0.0, tally, min_ops=2)
    assert tally.failed == 2, tally.errors


def test_traced_run_emits_every_per_layer_metric_and_repeats_counts(tmp_path):
    assert dict(tracing.METRICS) == _spec_units("per_layer")
    runs = []
    for _ in range(2):
        # a 2x2 analyze call and a 2x2 km call, run in-process
        workload, inputs = _tiny("cli", tmp_path, 2)
        tally = harness.Tally()
        runs.append(harness.traced(workload, inputs, 0.0, tally, workloads.child_env(SRC)))
        assert tally.failed == 0, tally.errors
    first, second = runs
    assert set(first) == set(dict(tracing.METRICS))
    counts = [k for k in first if k.endswith("calls_per_op")]
    assert all(first[k] == second[k] for k in counts)
    assert first["cli.calls_per_op"] == 1
    assert first["serialize.load_channel.calls_per_op"] == 1
    assert first["decomp.km_decompose.calls_per_op"] == 0.5
    assert first["cli.in_process_ms_per_op"] > 0
    # every factor state of the 2x2 km input is checked d2 = 2 times
    assert first["decomp.factor_checks_per_distinct_state"] == 2
    assert first["decomp.repeat_factor_share"] == 0.5


def test_tracer_restores_every_binding_site(tmp_path):
    _tiny("cli", tmp_path, 1)
    import ebx.cli

    before = ebx.extremality.predicates
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ebx.extremality.predicates is not before
        assert ebx.extremality.predicates is ebx.channel.predicates is ebx.predicates
    finally:
        tracer.uninstall()
    assert ebx.extremality.predicates is before


def test_run_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
