"""Seeded inputs, timed operations and output checks for each workload.

Every input is generated from the workload seed with ``SeededRng``,
``random_cstar_extreme``, ``random_unital_eb`` and the gallery channels,
outside the timed region. Each input carries its ground truth, so every op
can be checked: a wrong verdict, a raised exception or a failed
reconstruction counts the op as failed.

All library calls get an explicit ``Tolerance(1e-9, 1e-9, 1e-9)`` and all
CLI calls ``--tol 1e-9``, so a looser default cannot speed the benchmark up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9
TOL_ARG = "1e-9"
# a reconstruction or derivative deviation above this fails the op
DEV_LIMIT = 100 * TOL

SMALL_SHAPES = [(d1, d2) for d1 in (2, 3, 4) for d2 in (2, 3, 4)]
LARGE_HEAVY = [(8, 8), (7, 7), (6, 8)]
REPRESENTATIONS = ("holevo", "kraus", "choi")
KINDS = ("cstar", "ebn")
# (d1, d2, km n_terms) of each analyze and km file pair. The 4x4 km call,
# the slowest, is there twice, so that latency_p90_ms falls inside its band
# and not on the edge between two calls of different cost.
CLI_CASES = [(2, 2, 2), (2, 3, 3), (3, 3, 4), (3, 4, 2), (4, 4, 3), (4, 4, 3)]


class CheckFailed(Exception):
    """An op's output disagrees with its input's ground truth."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(eq=False)
class Item:
    """One op input: a channel in one representation and its ground truth.

    ``truth`` keys: d1, d2, extreme, eb ("yes" or "unknown"), choi_rank and
    block_ranks (None when not pinned down), commutant (the dimension of
    the commutant of the range) and scalar_range (the range is the scalars,
    so every image is a multiple of I). Extreme sweep inputs also carry
    ``planted``: the dominated map psi, its R and the Ad_U-rotated
    canonical form.
    """

    key: str
    channel: object
    truth: dict
    planted: dict | None = None
    argv: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _state_of(f: np.ndarray) -> np.ndarray:
    """The unit vector u of a rank-one projection f = u u^*."""
    k = int(np.argmax(np.real(np.diagonal(f))))
    u = f[:, k]
    return u / np.linalg.norm(u)


def _canonical_truth(d1, d2, blocks, eb):
    ranks = tuple(sorted(int(round(np.trace(p).real)) for _, p in blocks))
    return {
        "d1": d1,
        "d2": d2,
        "extreme": True,
        "eb": eb,
        "choi_rank": d2,
        "block_ranks": ranks,
        # the range is spanned by the block projections, whose commutant
        # is the direct sum of full matrix algebras on the blocks
        "commutant": sum(r * r for r in ranks),
        "scalar_range": len(ranks) == 1,
    }


def _expected_eb(rep: str, d1: int, d2: int) -> str:
    # Holevo data and attached certificates prove EB; bare Choi matrices
    # are decided by PPT only up to d1*d2 = 6
    if rep != "choi" or d1 * d2 <= 6:
        return "yes"
    return "unknown"


def _in_representation(ebx, ensemble, rep: str, label: str):
    """The channel of a Holevo ensemble in the requested representation."""
    ch = ebx.Channel(ensemble.d1, ensemble.d2, ensemble, label=label)
    if rep == "holevo":
        return ch
    tol = tolerance(ebx)
    choi = ebx.to_choi(ch)
    if rep == "kraus":
        kraus = ebx.choi_to_kraus(choi, tol)
        return ebx.kraus_channel(kraus.operators, label=label, certificate=ensemble)
    return ebx.choi_channel(choi.matrix, ensemble.d1, ensemble.d2, label=label)


def _plant(ebx, rng, d1, d2, blocks):
    """A dominated psi = sum <u_i, . u_i> R_i with R_i = P_i M P_i, and the
    canonical form rotated by a Haar unitary."""
    q = rng.unitary(d2)
    spectrum = 0.1 + 0.85 * rng.generator.random(d2)
    m = (q * spectrum) @ q.conj().T
    pieces = [(u, p @ m @ p) for u, p in blocks]
    psi = ebx.holevo_channel(
        tuple((np.outer(u, u.conj()), r) for u, r in pieces), label="planted-psi"
    )
    u_rot = rng.unitary(d2)
    rotated = ebx.CanonicalEBForm(
        d1, d2, tuple((u, u_rot.conj().T @ p @ u_rot) for u, p in blocks)
    )
    return {"psi": psi, "R": sum(r for _, r in pieces), "rotated": rotated}


def _extreme_item(ebx, rng, ensemble, rep, label):
    d1, d2 = ensemble.d1, ensemble.d2
    blocks = [(_state_of(f), r) for f, r in ensemble.terms]
    truth = _canonical_truth(d1, d2, blocks, _expected_eb(rep, d1, d2))
    return Item(
        key=f"{label} {d1}x{d2} {rep}",
        channel=_in_representation(ebx, ensemble, rep, label),
        truth=truth,
        planted=_plant(ebx, rng, d1, d2, blocks),
    )


def _random_item(ebx, rng, kind: str, d1: int, d2: int, rep: str, slot: int) -> Item:
    """kind: cstar (random_cstar_extreme), eb1 (random_unital_eb with one
    term, which is extreme) or ebn (random_unital_eb with 2 <= n_terms <=
    d1*d2, not extreme). The block or term count follows the input's slot
    in the schedule, so only the channels' contents depend on the seed and
    every seed costs about the same."""
    tol = tolerance(ebx)
    if kind == "cstar":
        n_blocks = 1 + slot % d2
        ch = ebx.random_cstar_extreme(rng, d1, d2, n_blocks=n_blocks, tol=tol)
        return _extreme_item(ebx, rng, ch.representation, rep, f"cstar{n_blocks}")
    if kind == "eb1":
        ch = ebx.random_unital_eb(rng, d1, d2, n_terms=1, tol=tol)
        return _extreme_item(ebx, rng, ch.representation, rep, kind)
    n_terms = 2 + slot % (d1 * d2 - 1)
    ch = ebx.random_unital_eb(rng, d1, d2, n_terms=n_terms, tol=tol)
    truth = {
        "d1": d1,
        "d2": d2,
        "extreme": False,
        "eb": _expected_eb(rep, d1, d2),
        "choi_rank": None,
        "block_ranks": None,
        # the range is spanned by the generic outputs R_i, which sum to I:
        # with two terms it is span{I, R_1}, whose commutant is the algebra
        # of R_1 (dimension d2); with more it has only scalars in its
        # commutant
        "commutant": d2 if n_terms == 2 else 1,
        "scalar_range": False,
    }
    return Item(
        key=f"ebn{n_terms} {d1}x{d2} {rep}",
        channel=_in_representation(ebx, ch.representation, rep, kind),
        truth=truth,
    )


def _unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def _gallery_items(ebx, rng) -> list[Item]:
    """The unital gallery channels, whose verdicts the gallery documents.

    The pinchings are stored as Kraus sets, so their Holevo ensembles are
    written out here from the block form the gallery states.
    """
    from ebx import gallery

    e0, e1 = _unit(2, 0, 0), _unit(2, 1, 1)
    extreme = [
        ("diagonal-pinching", ebx.HolevoEnsemble(2, 2, ((e0, e0), (e1, e1)))),
        ("swapped-pinching", ebx.HolevoEnsemble(2, 2, ((e1, e0), (e0, e1)))),
        ("two-block-pinching", gallery.two_block_pinching_channel().representation),
    ]
    # (label, channel, Choi rank, commutant dimension): the tetrahedral
    # channel's range is all of M2; the depolarizing channels' range is the
    # scalars
    not_extreme = [
        ("tetrahedral", gallery.tetrahedral_channel(), 4, 1),
        ("depolarizing-2", gallery.depolarizing_channel(2), 4, 4),
        ("depolarizing-3", gallery.depolarizing_channel(3), 9, 9),
        ("depolarizing-4", gallery.depolarizing_channel(4), 16, 16),
    ]
    items = []
    for rep in REPRESENTATIONS:
        for label, ensemble in extreme:
            items.append(_extreme_item(ebx, rng, ensemble, rep, label))
        for label, ch, rank, commutant in not_extreme:
            truth = {
                "d1": ch.d1,
                "d2": ch.d2,
                "extreme": False,
                "eb": _expected_eb(rep, ch.d1, ch.d2),
                "choi_rank": rank,
                "block_ranks": None,
                "commutant": commutant,
                "scalar_range": commutant == ch.d2 ** 2,
            }
            items.append(
                Item(
                    key=f"{label} {rep}",
                    channel=_in_representation(ebx, ch.representation, rep, label),
                    truth=truth,
                )
            )
    return items


def tolerance(ebx):
    return ebx.Tolerance(TOL, TOL, TOL)


# ---------------------------------------------------------------------------
# the analysis op shared by both sweeps
# ---------------------------------------------------------------------------


def analyze(ebx, item: Item) -> dict:
    """The calls ``ebx analyze`` makes, then the derivative calls on a
    planted dominated map when the channel is extreme."""
    tol = tolerance(ebx)
    ch = item.channel
    p = ebx.predicates(ch, tol)
    facts = {
        "is_cp": p.is_cp,
        "is_unital": p.is_unital,
        "choi_rank": ebx.svd_rank(ebx.to_choi(ch).matrix, tol),
        "ppt": ebx.is_ppt(ch, tol),
    }
    verdict = ebx.eb_verdict(ch, tol)
    facts["eb"] = verdict.is_eb
    if verdict.is_eb == "yes":
        bounds = ebx.rank_bounds(ch, tol)
        facts["eb_kraus_rank"] = (bounds.eb_rank_lower, bounds.eb_rank_upper)
    ext = ebx.is_cstar_extreme(ch, tol)
    facts["extreme"] = ext.is_cstar_extreme
    facts["irreducible"] = ext.is_irreducible
    if ext.canonical is not None:
        facts["block_ranks"] = tuple(sorted(ext.canonical.block_ranks()))
    facts["commutant"] = ebx.commutant_dimension(ch, tol).dim
    if ext.canonical is not None and item.planted is not None:
        planted = item.planted
        psi = planted["psi"]
        facts["rn_R"] = ebx.rn_derivative(ext.canonical, psi, tol).R
        facts["witness"] = ebx.extremality_witness(ext.canonical, psi, tol)
        facts["arveson"] = ebx.arveson_derivative(ch, psi, tol)
        facts["equivalence"] = ebx.unitary_equivalent(
            ext.canonical, planted["rotated"], tol
        )
    return facts


def check_analysis(item: Item, facts: dict) -> list[str]:
    """Raise CheckFailed on a wrong output; return notes on known defects."""
    truth = item.truth
    d2 = truth["d2"]
    expect(facts["is_cp"] and facts["is_unital"], "channel not reported unital CP")
    expect(facts["ppt"], "EB channel reported not PPT")
    expect(facts["eb"] == truth["eb"], f"eb verdict {facts['eb']}, expected {truth['eb']}")
    expect(
        facts["extreme"] == truth["extreme"],
        f"extreme={facts['extreme']}, expected {truth['extreme']}",
    )
    if truth["choi_rank"] is not None:
        expect(facts["choi_rank"] == truth["choi_rank"], f"choi rank {facts['choi_rank']}")
    else:
        expect(facts["choi_rank"] > d2, f"choi rank {facts['choi_rank']} <= d2")
    if "eb_kraus_rank" in facts:
        lo, hi = facts["eb_kraus_rank"]
        expect(lo == facts["choi_rank"] <= hi, f"EB Kraus rank bounds {lo}..{hi}")
        if truth["extreme"]:
            expect(lo == hi == d2, f"extreme channel has EB Kraus rank bounds {lo}..{hi}")
    if truth["block_ranks"] is not None:
        expect(facts.get("block_ranks") == truth["block_ranks"], "block ranks differ")
    notes = []
    if facts["commutant"] != truth["commutant"] and truth["scalar_range"]:
        # Known defect, reported but not counted as a failure, and only for
        # a range that is the scalars (one block with P = I, or complete
        # depolarizing): the stacked system is then zero up to rounding,
        # the relative rank cutoff in nullspace counts the rounding noise
        # as rank, and commutant_dimension returns anything from 1 to
        # d2**2 - 1 instead of d2**2. Every other range is checked exactly.
        notes.append(f"commutant_dimension {facts['commutant']}, expected {truth['commutant']}")
    else:
        expect(
            facts["commutant"] == truth["commutant"],
            f"commutant_dimension {facts['commutant']}, expected {truth['commutant']}",
        )
        expect(
            facts["irreducible"] == (truth["commutant"] == 1),
            f"irreducible={facts['irreducible']} with commutant {truth['commutant']}",
        )
    if item.planted is None or "rn_R" not in facts:
        expect(item.planted is None, "derivatives of the planted map were not computed")
        return notes
    r = item.planted["R"]
    expect(np.max(np.abs(facts["rn_R"] - r)) <= DEV_LIMIT, "rn_derivative lost the planted R")
    z = facts["witness"]
    expect(np.max(np.abs(z @ z - r)) <= DEV_LIMIT, "witness Z does not square to R")
    t = facts["arveson"].T
    vals = np.linalg.eigvalsh((t + t.conj().T) / 2)
    expect(vals[0] >= -TOL and vals[-1] <= 1 + TOL, "Arveson T is not a contraction")
    eq = facts["equivalence"]
    expect(eq.equivalent, "rotated copy not found unitarily equivalent")
    w = eq.witness_unitary
    expect(np.max(np.abs(w.conj().T @ w - np.eye(d2))) <= DEV_LIMIT, "witness not unitary")
    return notes


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """A schedule of inputs and the op run on each.

    A run times ``prologue`` once, then passes over ``cycle`` until the run
    time is used up, stopping only at the end of a stride of ``stride``
    items, so every run sees the same mix of inputs.
    """

    name = ""
    in_children = False

    def build(self, ebx, seed: int, workdir: str) -> tuple[list[Item], list[Item], int]:
        raise NotImplementedError

    def run(self, ebx, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> list[str]:
        """Raise CheckFailed on a wrong output; return notes on known defects."""
        raise NotImplementedError


class SweepSmall(Workload):
    name = "sweep-small"

    def build(self, ebx, seed, workdir):
        rng = ebx.SeededRng(seed)
        slots = [
            (kind, d1, d2, rep)
            for rep in REPRESENTATIONS
            for kind in ("cstar", "eb1", "ebn")
            for d1, d2 in SMALL_SHAPES
        ]
        cycle = [_random_item(ebx, rng, *slot, k) for k, slot in enumerate(slots)]
        cycle += _gallery_items(ebx, rng)
        return [], cycle, len(cycle)

    def run(self, ebx, item):
        return analyze(ebx, item)

    def check(self, item, out):
        return check_analysis(item, out)


class SweepLarge(SweepSmall):
    name = "sweep-large"

    def build(self, ebx, seed, workdir):
        rng = ebx.SeededRng(seed)
        # the heavy shapes run once per run: an 8x8 analysis alone takes
        # about 10 s with one BLAS thread
        prologue = [
            _random_item(ebx, rng, kind, d1, d2, rep, k)
            for k, ((d1, d2), kind, rep) in enumerate(
                zip(LARGE_HEAVY, ("cstar", "ebn", "cstar"), REPRESENTATIONS)
            )
        ]
        # a stride is 12 (5,5), 1 (8,4), 1 (4,8) and 6 (6,6) ops: p50 lies
        # inside the (5,5) band, p90 inside the (6,6) band, and 100 ops fit
        # in a run; three distinct strides average out single inputs
        shapes = [(5, 5)] * 12 + [(8, 4), (4, 8)] + [(6, 6)] * 6
        cycle = [
            _random_item(ebx, rng, KINDS[k % 2], d1, d2, REPRESENTATIONS[k % 3], k)
            for k, (d1, d2) in enumerate(shapes * 3)
        ]
        return prologue, cycle, len(shapes)


def check_km(item: Item, doc: dict) -> None:
    truth = item.truth
    # each term (|u><u|, R) with R of full rank d2 refines into d2 factors
    expected = truth["n_terms"] * truth["d2"]
    expect(doc["n_terms"] == expected, f"{doc['n_terms']} factors, expected {expected}")
    expect(doc["reconstruction_error"] <= DEV_LIMIT, f"reconstruction error {doc['reconstruction_error']:.2e}")
    expect(doc["all_factors_extreme"] is True, "a factor is not C*-extreme")
    expect(doc["proper"] is (truth["d2"] == 1), "properness differs from d2 == 1")
    expect(not doc["factor_diagnostics"], "factor diagnostics reported")


def child_env(src_dir: str) -> dict:
    """Environment for a child interpreter that imports ebx from src_dir.

    The ``ebx`` console script is not required: children run
    ``python -m ebx.cli`` with src_dir on PYTHONPATH.
    """
    env = dict(os.environ)
    env.pop("EBX_TOL", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + path if path else "")
    return env


class Cli(Workload):
    """Alternating ``analyze`` and ``km`` calls of the CLI on channel files.

    Untraced, each op is a fresh ``python -m ebx.cli`` process; the traced
    run calls ``ebx.cli.main`` in-process so its spans can be recorded.
    """

    name = "cli"
    in_children = True

    def __init__(self, src_dir: str):
        self.env = child_env(src_dir)
        self.in_process = False

    def build(self, ebx, seed, workdir):
        rng = ebx.SeededRng(seed)
        tol = tolerance(ebx)
        cycle = []
        for k, (d1, d2, n_terms) in enumerate(CLI_CASES):
            rep = REPRESENTATIONS[k % 3]
            item = _random_item(ebx, rng, KINDS[k % 2], d1, d2, rep, k)
            # a channel file keeps the representation but not a certificate
            item.truth["eb"] = _expected_eb("holevo" if rep == "holevo" else "choi", d1, d2)
            item.planted = None
            path = os.path.join(workdir, f"analyze-{k}.json")
            ebx.save_channel(item.channel, path)
            item.argv = ["analyze", path, "--json", "--tol", TOL_ARG]
            cycle.append(item)

            ch = ebx.random_unital_eb(rng, d1, d2, n_terms=n_terms, tol=tol)
            path = os.path.join(workdir, f"km-{k}.json")
            ebx.save_channel(ch, path)
            truth = {"d1": d1, "d2": d2, "n_terms": n_terms, "distinct_states": n_terms}
            cycle.append(
                Item(key=f"km {d1}x{d2}", channel=ch, truth=truth,
                     argv=["km", path, "--json", "--tol", TOL_ARG])
            )
        return [], cycle, len(cycle)

    def run(self, ebx, item):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ebx.cli.main(list(item.argv))
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "ebx.cli", *item.argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, item, out):
        code, stdout = out
        expect(code == 0, f"exit code {code}")
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"stdout is not JSON: {exc}") from None
        if item.argv[0] == "km":
            check_km(item, doc)
            return []
        expect(all(doc["tolerance"][k] == TOL for k in ("rank_rel", "psd_floor", "eq_abs")),
               "CLI did not use --tol")
        ext = doc["extremality"]
        facts = {
            "is_cp": doc["predicates"]["is_cp"],
            "is_unital": doc["predicates"]["is_unital"],
            "choi_rank": doc["choi_rank"],
            "ppt": doc["ppt"],
            "eb": doc["eb"]["is_eb"],
            "extreme": ext["is_cstar_extreme"],
            "irreducible": ext["is_irreducible"],
            "commutant": doc["commutant_dimension"],
        }
        if "eb_kraus_rank" in doc:
            facts["eb_kraus_rank"] = (doc["eb_kraus_rank"]["lower"], doc["eb_kraus_rank"]["upper"])
        if "canonical" in ext:
            facts["block_ranks"] = tuple(sorted(ext["canonical"]["block_ranks"]))
        return check_analysis(item, facts)


def make_workloads(src_dir: str) -> dict:
    return {w.name: w for w in (SweepSmall(), SweepLarge(), Cli(src_dir))}
