"""In-memory spans around every function of the ebx layers.

The wrappers live here, not in ``ebx``: ``Tracer.install`` replaces each
module-level function of a layer module at every binding site, that is in
every ``ebx`` module namespace that holds it. Modules import functions by
name (``extremality`` does ``from .channel import predicates``), so
patching the defining module alone would miss most calls.

A span is [name, start, end, parent index]. Its self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("linalg", "channel", "separability", "extremality", "decomp", "serialize", "cli")

NAMED = {
    "linalg": ("herm_eig", "svd_rank", "nullspace", "is_psd", "max_abs"),
    "channel": ("to_choi", "apply", "predicates", "commutant_dimension", "choi_to_kraus"),
    "separability": ("eb_verdict", "is_ppt", "rank_bounds"),
    "extremality": (
        "is_cstar_extreme",
        "extract_canonical",
        "rn_derivative",
        "arveson_derivative",
        "extremality_witness",
        "unitary_equivalent",
    ),
    "decomp": ("km_decompose", "verify_decomposition", "evaluate"),
    "serialize": ("load_channel", "channel_to_json"),
}

# (name, unit) of every metric a traced run reports, in output order
DERIVED = (
    ("linalg.nullspace.u_mb_per_op", "MB"),
    ("decomp.factor_checks_per_distinct_state", "count"),
    ("decomp.repeat_factor_share", "frac"),
    ("cli.import_ms", "ms"),
    ("cli.in_process_ms_per_op", "ms"),
    ("trace.overhead_frac", "frac"),
)
METRICS = (
    [(f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in
     (("calls_per_op", "count"), ("self_ms_per_op", "ms"))]
    + [(f"{layer}.{fn}.{kind}", unit) for layer, fns in NAMED.items() for fn in fns
       for kind, unit in (("calls_per_op", "count"), ("self_ms_per_op", "ms"))]
    + list(DERIVED)
)


def _nullspace_u_bytes(m, *args, **kwargs) -> int:
    # nullspace takes a full SVD, whose U is rows x rows complex128
    rows = len(m)
    return rows * rows * 16


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.u_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = _nullspace_u_bytes if name == "linalg.nullspace" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                self.u_bytes += probe(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"ebx.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "ebx" and not modname.startswith("ebx."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def per_op(self, n_ops: int, distinct_states: int) -> dict:
        """Counts and self times per op, per layer and per named function.

        A layer's calls are entries into it: spans whose parent lies in
        another layer or that have no parent.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, entries, factor_checks = Counter(), Counter(), Counter(), 0
        for i, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            self_s[layer] += own
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent_name.split(".", 1)[0] != layer:
                entries[layer] += 1
            if name == "extremality.is_cstar_extreme" and parent_name == "decomp.verify_decomposition":
                factor_checks += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_op"] = entries[layer] / n_ops
            out[f"{layer}.self_ms_per_op"] = 1000 * self_s[layer] / n_ops
        for layer, fns in NAMED.items():
            for fn in fns:
                out[f"{layer}.{fn}.calls_per_op"] = calls[f"{layer}.{fn}"] / n_ops
                out[f"{layer}.{fn}.self_ms_per_op"] = 1000 * self_s[f"{layer}.{fn}"] / n_ops
        out["linalg.nullspace.u_mb_per_op"] = self.u_bytes / 1e6 / n_ops
        out["decomp.factor_checks_per_distinct_state"] = (
            factor_checks / distinct_states if distinct_states else 0.0
        )
        out["decomp.repeat_factor_share"] = (
            1 - distinct_states / factor_checks if factor_checks else 0.0
        )
        return out
