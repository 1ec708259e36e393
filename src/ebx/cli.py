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

Exit codes: 0 success, 1 usage error, 2 domain error (bad input data,
failed preconditions, failed gallery checks).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .channel import Channel, commutant_dimension, predicates, to_choi
from .decomp import km_decompose, verify_decomposition
from .errors import EbxError, NotExtreme, ParseError
from .extremality import (
    CanonicalEBForm,
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


def _fmt_matrix(m: np.ndarray) -> str:
    with np.printoptions(precision=6, suppress=True, linewidth=100):
        return str(np.asarray(m))


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


def _canonical_to_json(form: CanonicalEBForm) -> dict:
    return {
        "n_blocks": form.n_blocks,
        "block_ranks": list(form.block_ranks()),
        "blocks": [{"state": _to_json(u), "projection": _to_json(p)} for u, p in form.blocks],
    }


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _build_report(ch: Channel, tol: Tolerance) -> dict:
    p = predicates(ch, tol)
    report: dict = {
        "version": __version__,
        "tolerance": _to_json(tol),
        "label": ch.label,
        "d1": ch.d1,
        "d2": ch.d2,
        "predicates": _to_json(p),
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
        if ext.canonical is not None:
            entry["canonical"] = _canonical_to_json(ext.canonical)
            entry["is_cq_linear_extreme_in_ucp"] = ext.is_cq_linear_extreme_in_ucp
        report["extremality"] = entry
        if verdict.is_eb == "unknown" and ext.is_cstar_extreme:
            report["notes"].append(
                "Choi rank equals the output dimension, so the channel is "
                "C*-extreme provided it is entanglement breaking"
            )
    report["commutant_dimension"] = commutant_dimension(ch, tol).dim
    return report


def _print_report(report: dict) -> None:
    label = report["label"] or "(unlabeled)"
    print(f"channel {label}: M{report['d1']} -> M{report['d2']}")
    p = report["predicates"]
    print(
        f"  cp={_yn(p['is_cp'])} unital={_yn(p['is_unital'])} "
        f"tp={_yn(p['is_tp'])} hermiticity-preserving={_yn(p['is_hermiticity_preserving'])}"
    )
    print(f"  choi rank: {report['choi_rank']}")
    print(f"  ppt: {_yn(report['ppt'])}")
    if "eb" in report:
        eb = report["eb"]
        extra = " (certified)" if eb["has_certificate"] else ""
        print(f"  entanglement breaking: {eb['is_eb']}{extra}")
        if "eb_kraus_rank" in report:
            lo = report["eb_kraus_rank"]["lower"]
            hi = report["eb_kraus_rank"]["upper"]
            print(f"  EB Kraus count: between {lo} and {hi}")
    if "extremality" in report:
        ext = report["extremality"]
        print(f"  C*-extreme: {_yn(ext['is_cstar_extreme'])}")
        print(f"  irreducible range: {_yn(ext['is_irreducible'])}")
        if "canonical" in ext:
            canon = ext["canonical"]
            print(
                f"  canonical form: {canon['n_blocks']} block(s), "
                f"ranks {canon['block_ranks']}"
            )
            print(
                "  linearly extreme among unital CP maps: "
                f"{_yn(ext['is_cq_linear_extreme_in_ucp'])}"
            )
    if "commutant_dimension" in report:
        print(f"  range commutant dimension: {report['commutant_dimension']}")
    for note in report["notes"]:
        print(f"  note: {note}")


def _yn(v: bool) -> str:
    return "yes" if v else "no"


def _cmd_analyze(args, tol: Tolerance) -> int:
    ch = load_channel(args.channel)
    report = _build_report(ch, tol)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_report(report)
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
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"decomposed into {doc['n_terms']} C*-extreme term(s)")
        print(f"  reconstruction error: {doc['reconstruction_error']:.3e}")
        print(f"  all factors extreme: {_yn(doc['all_factors_extreme'])}")
        print(f"  proper combination: {_yn(doc['proper'])}")
        for line in doc["factor_diagnostics"]:
            print(f"  note: {line}")
        if args.emit:
            print(f"  wrote terms to {args.emit}")
    return 0


# ---------------------------------------------------------------------------
# rn / arveson
# ---------------------------------------------------------------------------


def _cmd_rn(args, tol: Tolerance) -> int:
    psi = load_channel(args.channel)
    phi = load_channel(args.dominating)
    form = extract_canonical(phi, tol)
    deriv = rn_derivative(form, psi, tol)
    if args.json:
        print(json.dumps(_to_json(deriv), indent=2))
    else:
        print("commuting derivative R with Psi = Phi(.) R:")
        print(_indent(_fmt_matrix(deriv.R)))
        print(f"  blocks: {form.n_blocks}, factorization residual {deriv.residual:.3e}")
    return 0


def _cmd_arveson(args, tol: Tolerance) -> int:
    psi = load_channel(args.channel)
    phi = load_channel(args.dominating)
    deriv = arveson_derivative(phi, psi, tol)
    vals, _ = herm_eig(deriv.T, tol)
    if args.json:
        doc = {"T": _to_json(deriv.T), "eigenvalues": _to_json(vals), "residual": deriv.residual}
        print(json.dumps(doc, indent=2))
    else:
        print("coefficient matrix T in the dominating Kraus frame:")
        print(_indent(_fmt_matrix(deriv.T)))
        with np.printoptions(precision=6, suppress=True):
            print(f"  eigenvalues: {np.asarray(vals)}")
        print(f"  residual: {deriv.residual:.3e}")
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
    check = unitary_equivalent(form_a, form_b, tol)
    if args.json:
        print(json.dumps(_to_json(check), indent=2))
    else:
        print(f"unitarily equivalent: {_yn(check.equivalent)}")
        if check.witness_unitary is not None:
            print("witness U (second = Ad_U first):")
            print(_indent(_fmt_matrix(check.witness_unitary)))
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
        print(json.dumps(channel_to_json(ch), indent=2))
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
    if args.json:
        doc = [
            {
                "name": o.name,
                "summary": o.summary,
                "passed": o.passed,
                "checks": _to_json(o.checks),
            }
            for o in outcomes
        ]
        print(json.dumps(doc, indent=2))
    else:
        for o in outcomes:
            print(f"{'PASS' if o.passed else 'FAIL'}  {o.name}: {o.summary}")
            if args.verbose or not o.passed:
                for c in o.checks:
                    mark = "ok" if c.passed else "FAILED"
                    detail = f" ({c.detail})" if c.detail else ""
                    print(f"        [{mark}] {c.name}{detail}")
        n_pass = sum(o.passed for o in outcomes)
        print(f"{n_pass}/{len(outcomes)} cases passed")
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
    except (ParseError, OSError) as exc:
        # bad files and bad paths are usage-level failures
        print(f"ebx: error: {exc}", file=sys.stderr)
        return 1
    except (EbxError, ValueError) as exc:
        # ValueError covers out-of-range tolerances and generator arguments
        print(f"ebx: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
