"""Command line interface.

Subcommands:

  analyze  full report on a channel file: predicates, PPT, EB verdict,
           Choi rank, extremality, canonical form, commutant
  km       decompose a unital EB channel into C*-extreme factors
  rn       commuting derivative of a dominated channel w.r.t. a C*-extreme one
  arveson  coefficient matrix of a CP domination in the dominating Kraus frame
  equiv    unitary equivalence of two C*-extreme channels
  random   generate a seeded random channel file
  gallery  run the built-in worked examples

Each command prints one document of its results: with --json as JSON,
otherwise one field per line.

Exit codes: 0 success, 1 usage error or closed stdout, 2 domain error (bad
input data, failed preconditions, failed gallery checks).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Iterator

import numpy as np

from . import __version__
from .channel import Channel, commutant_dimension, predicates, to_choi
from .decomp import km_decompose, verify_decomposition
from .errors import EbxError, NotExtreme, ParseError
from .extremality import (
    arveson_derivative,
    extract_canonical,
    is_cstar_extreme,
    random_cstar_extreme,
    rn_derivative,
    unitary_equivalent,
)
from .gallery import CASE_NAMES, run_all, run_case
from .linalg import DEFAULT_TOL, Tolerance, herm_eig, svd_rank
from .rng import SeededRng
from .separability import _eb_verdict, random_unital_eb, rank_bounds
from .serialize import _save_json, _to_json, channel_to_json, load_channel, save_channel

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(value: float | None) -> Tolerance:
    """One threshold for every field: ``value``, else EBX_TOL, else the default."""
    if value is None:
        raw = os.environ.get("EBX_TOL")
        if raw is None:
            value = DEFAULT_TOL.eq_abs
        else:
            try:
                value = float(raw)
            except ValueError:
                raise EbxError(f"EBX_TOL is not a number: {raw!r}")
    return Tolerance(rank_rel=value, psd_floor=value, eq_abs=value)


def _leaf(prefix: str, value) -> str:
    """``prefix`` and ``value`` as text: a bool as yes/no, an array as numpy
    prints it, its continuation lines aligned under its first."""
    if isinstance(value, bool):
        text = "yes" if value else "no"
    else:
        with np.printoptions(precision=6, suppress=True, linewidth=100):
            text = str(value)
    return prefix + text.replace("\n", "\n" + " " * len(prefix))


def _text_lines(doc, indent: str = "") -> Iterator[str]:
    """``doc`` one field per line: ``key: value`` for each field of a dict
    or dataclass whose value is not None; a nested record or a list under
    its key, indented two spaces, each list item marked ``- ``."""
    if dataclasses.is_dataclass(doc):
        doc = {f.name: getattr(doc, f.name) for f in dataclasses.fields(doc)}
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list, tuple)) or dataclasses.is_dataclass(value):
                yield f"{indent}{key}:"
                yield from _text_lines(value, indent + "  ")
            elif value is not None:
                yield _leaf(f"{indent}{key}: ", value)
    elif isinstance(doc, (list, tuple)):
        for item in doc:
            first, *rest = _text_lines(item, indent + "  ")
            yield f"{indent}- {first[len(indent) + 2:]}"
            yield from rest
    else:
        yield _leaf(indent, doc)


def _emit(doc, as_json: bool) -> None:
    """Print ``doc`` as indented JSON (``_to_json``) or as ``_text_lines``."""
    text = json.dumps(_to_json(doc), indent=2) if as_json else "\n".join(_text_lines(doc))
    print(text, flush=True)  # so that a closed stdout fails in main, not at exit


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _build_report(ch: Channel, tol: Tolerance) -> dict:
    p = predicates(ch, tol)
    report: dict = {
        "version": __version__,
        "tolerance": tol,
        "label": ch.label,
        "d1": ch.d1,
        "d2": ch.d2,
        "predicates": p,
        "choi_rank": svd_rank(to_choi(ch).matrix, tol),
        "notes": [],
    }
    if not p.is_cp:
        # a map that is not CP has a non-psd Choi matrix, so it is not PPT
        report["ppt"] = False
        report["notes"].append("not completely positive; EB analysis skipped")
        return report

    verdict, note = _eb_verdict(ch, tol)
    report["ppt"] = verdict.ppt
    report["eb"] = {
        "is_eb": verdict.is_eb,
        "conclusive": verdict.conclusive,
        "ppt": verdict.ppt,
        "has_certificate": verdict.certificate is not None,
    }
    report["notes"].append(note)
    if verdict.is_eb == "yes":
        bounds = rank_bounds(ch, tol)
        report["eb_kraus_rank"] = {
            "lower": bounds.eb_rank_lower,
            "upper": bounds.eb_rank_upper,
        }

    if p.is_unital and verdict.is_eb != "no":
        ext = is_cstar_extreme(ch, tol)
        entry: dict = {
            "is_cstar_extreme": ext.is_cstar_extreme,
            "is_irreducible": ext.is_irreducible,
        }
        form = ext.canonical
        if form is not None:
            entry["canonical"] = {
                "n_blocks": form.n_blocks,
                "block_ranks": form.block_ranks(),
                "blocks": [{"state": u, "projection": p} for u, p in form.blocks],
            }
            entry["is_cq_linear_extreme_in_ucp"] = ext.is_cq_linear_extreme_in_ucp
        report["extremality"] = entry
        if verdict.is_eb == "unknown" and ext.is_cstar_extreme:
            report["notes"].append(
                "Choi rank equals the output dimension, so the channel is "
                "C*-extreme provided it is entanglement breaking"
            )
    report["commutant_dimension"] = commutant_dimension(ch, tol).dim
    return report


def _cmd_analyze(args, tol: Tolerance) -> int:
    ch = load_channel(args.channel)
    _emit(_build_report(ch, tol), args.json)
    return 0


# ---------------------------------------------------------------------------
# km
# ---------------------------------------------------------------------------


def _cmd_km(args, tol: Tolerance) -> int:
    ch = load_channel(args.channel)
    comb = km_decompose(ch, tol)
    check = verify_decomposition(comb, ch, tol)
    doc = {"n_terms": comb.n_terms, **_to_json(check)}
    if args.emit:
        terms = [
            {"coefficient": _to_json(t), "factor": channel_to_json(factor)}
            for t, factor in comb.terms
        ]
        _save_json({"d1": comb.d1, "d2": comb.d2, "terms": terms}, args.emit)
        doc["emitted"] = args.emit
    _emit(doc, args.json)
    return 0


# ---------------------------------------------------------------------------
# rn / arveson
# ---------------------------------------------------------------------------


def _cmd_rn(args, tol: Tolerance) -> int:
    psi = load_channel(args.channel)
    phi = load_channel(args.dominating)
    form = extract_canonical(phi, tol)
    _emit(rn_derivative(form, psi, tol), args.json)
    return 0


def _cmd_arveson(args, tol: Tolerance) -> int:
    psi = load_channel(args.channel)
    phi = load_channel(args.dominating)
    deriv = arveson_derivative(phi, psi, tol)
    vals, _ = herm_eig(deriv.T, tol)
    _emit({"T": deriv.T, "eigenvalues": vals, "residual": deriv.residual}, args.json)
    return 0


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------


def _cmd_equiv(args, tol: Tolerance) -> int:
    a = load_channel(args.first)
    b = load_channel(args.second)
    try:
        form_a = extract_canonical(a, tol)
        form_b = extract_canonical(b, tol)
    except NotExtreme as exc:
        raise NotExtreme(f"equivalence needs two C*-extreme channels: {exc}") from exc
    _emit(unitary_equivalent(form_a, form_b, tol), args.json)
    return 0


# ---------------------------------------------------------------------------
# random
# ---------------------------------------------------------------------------


def _cmd_random(args, tol: Tolerance) -> int:
    rng = SeededRng(args.seed)
    if args.kind == "povm-ensemble":
        n_terms = args.terms if args.terms is not None else args.d1 * args.d2
        ch = random_unital_eb(rng, args.d1, args.d2, n_terms=n_terms, tol=tol)
    else:
        ch = random_cstar_extreme(rng, args.d1, args.d2, n_blocks=args.terms, tol=tol)
    if args.out:
        save_channel(ch, args.out)
    else:
        _emit(channel_to_json(ch), as_json=True)
    return 0


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------


def _cmd_gallery(args, tol: Tolerance) -> int:
    outcomes = [run_case(args.case, tol)] if args.case else run_all(tol)
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for outcome in outcomes:
            for key, ch in outcome.channels.items():
                save_channel(ch, os.path.join(args.emit, f"{outcome.name}.{key}.json"))
    # text mode shows the checks of a passed case only with -v
    show = args.json or args.verbose
    doc = [
        {"name": o.name, "summary": o.summary, "passed": o.passed,
         "checks": o.checks if show or not o.passed else None}
        for o in outcomes
    ]
    _emit(doc, args.json)
    return 0 if all(o.passed for o in outcomes) else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_command(sub, name: str, fn, help: str, has_json: bool = True) -> _Parser:
    """A subcommand that runs ``fn`` and takes --tol, and --json if ``has_json``."""
    sp = sub.add_parser(name, help=help)
    if has_json:
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.add_argument(
        "--tol",
        type=float,
        default=None,
        help="numerical tolerance (default: EBX_TOL env var or 1e-9)",
    )
    sp.set_defaults(fn=fn)
    return sp


def _build_parser() -> _Parser:
    parser = _Parser(prog="ebx", description="C*-extreme analysis of EB channels")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = _add_command(sub, "analyze", _cmd_analyze, "full report on a channel file")
    sp.add_argument("channel", help="channel JSON file")

    sp = _add_command(sub, "km", _cmd_km, "decompose into C*-extreme factors")
    sp.add_argument("channel", help="channel JSON file (unital EB with ensemble)")
    sp.add_argument("--emit", metavar="FILE", help="write the terms as JSON")

    sp = _add_command(sub, "rn", _cmd_rn, "commuting derivative of a dominated channel")
    sp.add_argument("channel", help="dominated channel JSON file")
    sp.add_argument(
        "--dominating", required=True, metavar="FILE", help="C*-extreme channel file"
    )

    sp = _add_command(sub, "arveson", _cmd_arveson, "coefficient matrix of a CP domination")
    sp.add_argument("channel", help="dominated channel JSON file")
    sp.add_argument(
        "--dominating", required=True, metavar="FILE", help="dominating channel file"
    )

    sp = _add_command(sub, "equiv", _cmd_equiv, "unitary equivalence of two extreme channels")
    sp.add_argument("first", help="channel JSON file")
    sp.add_argument("second", help="channel JSON file")

    sp = _add_command(
        sub, "random", _cmd_random, "generate a seeded random channel", has_json=False
    )
    sp.add_argument(
        "--kind",
        choices=("povm-ensemble", "cstar-extreme"),
        required=True,
        help="povm-ensemble: generic unital EB; cstar-extreme: canonical block form",
    )
    sp.add_argument("--d1", type=int, required=True, help="input dimension")
    sp.add_argument("--d2", type=int, required=True, help="output dimension")
    sp.add_argument(
        "--terms",
        type=int,
        default=None,
        help="ensemble terms (povm-ensemble) or blocks (cstar-extreme)",
    )
    sp.add_argument("--seed", type=int, required=True, help="RNG seed")
    sp.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")

    sp = _add_command(sub, "gallery", _cmd_gallery, "run the built-in worked examples")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--case", choices=CASE_NAMES, help="run a single case")
    group.add_argument(
        "--all", action="store_true", help="run every case (the default)"
    )
    sp.add_argument("--emit", metavar="DIR", help="write case channels as JSON files")
    sp.add_argument("-v", "--verbose", action="store_true", help="show every check")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, _tolerance(args.tol))
    except BrokenPipeError:
        # stdout was closed: stop quietly, and send what is still buffered
        # to devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (EbxError, OSError, ValueError) as exc:
        # bad files and bad paths are usage-level failures; ValueError
        # covers out-of-range tolerances and generator arguments
        print(f"ebx: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ParseError, OSError)) else 2


if __name__ == "__main__":
    sys.exit(main())
