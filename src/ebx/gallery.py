"""A gallery of small worked channels exercising every capability.

Each case builds concrete channels on M2 or M3, runs the relevant
analyses, and checks the outcomes against exact hand-computed values.
Cases double as executable documentation: the CLI's gallery subcommand
runs them and can emit the channels as JSON files for experimentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import (
    Channel,
    _choi_deviation,
    apply,
    channel_from_map,
    holevo_channel,
    identity_channel,
    kraus_channel,
    predicates,
    to_choi,
)
from .decomp import CStarCombination, evaluate, is_proper, km_decompose, verify_decomposition
from .errors import NotExtreme
from .extremality import (
    cq_remark_flags,
    dominates_cp,
    dominates_eb,
    extract_canonical,
    extremality_witness,
    is_cstar_extreme,
    rn_derivative,
    unitary_equivalent,
)
from .linalg import DEFAULT_TOL, Tolerance, max_abs, svd_rank
from .rng import SeededRng
from .separability import eb_verdict, rank_bounds, random_unital_eb

__all__ = [
    "GalleryCheck",
    "GalleryOutcome",
    "CASE_NAMES",
    "run_case",
    "run_all",
    "diagonal_pinching_channel",
    "swapped_pinching_channel",
    "two_block_pinching_channel",
    "tetrahedral_channel",
    "depolarizing_channel",
    "partial_averaging_channel",
    "inflation_channel",
]


@dataclass(frozen=True)
class GalleryCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True, eq=False)
class GalleryOutcome:
    name: str
    summary: str
    passed: bool
    checks: tuple[GalleryCheck, ...]
    channels: dict


# what a case returns: its summary, its checks and the channels it emits
_CaseResult = tuple[str, list[GalleryCheck], dict]


def _check(checks: list[GalleryCheck], name: str, cond: bool, detail: str = "") -> None:
    checks.append(GalleryCheck(name=name, passed=bool(cond), detail=detail))


# ---------------------------------------------------------------------------
# channel builders
# ---------------------------------------------------------------------------


def _unit(d: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def diagonal_pinching_channel() -> Channel:
    """X -> diag(x11, x22) on M2; the simplest C*-extreme EB channel."""
    return kraus_channel((_unit(2, 0, 0), _unit(2, 1, 1)), label="diagonal-pinching")


def swapped_pinching_channel() -> Channel:
    """X -> diag(x22, x11) on M2."""
    return kraus_channel((_unit(2, 1, 0), _unit(2, 0, 1)), label="swapped-pinching")


def two_block_pinching_channel() -> Channel:
    """X -> diag(x11, x11, x33) on M3; C*-extreme with a rank-2 block."""
    e11 = _unit(3, 0, 0)
    e33 = _unit(3, 2, 2)
    p12 = e11 + _unit(3, 1, 1)
    return holevo_channel(((e11, p12), (e33, e33)), label="two-block-pinching")


def tetrahedral_channel() -> Channel:
    """Uniform mix over the four tetrahedral pure states on C^3.

    The states are (+-1, +-1, +-1)/sqrt(3) with an even number of minus
    signs; the channel is sum_i (3/4) <v_i, X v_i> |v_i><v_i|. Its measure
    has pairwise distinct states but non-projection effects, and the
    channel is unital and EB yet not C*-extreme.
    """
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    terms = []
    for s in signs:
        v = np.array(s, dtype=complex) / np.sqrt(3.0)
        proj = np.outer(v, v.conj())
        terms.append((proj, 0.75 * proj))
    return holevo_channel(tuple(terms), label="tetrahedral")


def depolarizing_channel(d: int) -> Channel:
    """X -> tr(X) I / d, maximal Choi rank at every dimension."""
    return holevo_channel(
        ((np.eye(d, dtype=complex), np.eye(d, dtype=complex) / d),),
        label=f"depolarizing-{d}",
    )


def partial_averaging_channel() -> Channel:
    """X -> (tr(X) I + offdiag(X)) / 4 on M2, dominated by averaging."""

    def fn(x: np.ndarray) -> np.ndarray:
        t = np.trace(x)
        return np.array(
            [[t / 4, x[0, 1] / 4], [x[1, 0] / 4, t / 4]], dtype=complex
        )

    return channel_from_map(fn, 2, 2, label="partial-averaging")


def inflation_channel() -> Channel:
    """X -> (tr(X) I + X) / 3 on M2, unital and trace preserving."""

    def fn(x: np.ndarray) -> np.ndarray:
        return (np.trace(x) * np.eye(2) + x) / 3.0

    return channel_from_map(fn, 2, 2, label="inflation")


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _case_averaged_state_domination(tol: Tolerance) -> _CaseResult:
    """Averaging dominates a partial-averaging map, but since averaging is
    not C*-extreme the dominated map admits no commuting derivative."""
    phi = depolarizing_channel(2)
    psi = partial_averaging_channel()
    checks: list[GalleryCheck] = []
    p = predicates(phi, tol)
    _check(checks, "averaging is unital and CP", p.is_cp and p.is_unital)
    _check(checks, "averaging is EB", eb_verdict(phi, tol).is_eb == "yes")
    _check(checks, "partial averaging is CP", predicates(psi, tol).is_cp)
    _check(checks, "CP domination holds", dominates_cp(phi, psi, tol))
    _check(checks, "EB domination holds", dominates_eb(phi, psi, tol).is_eb == "yes")
    rank = svd_rank(to_choi(phi).matrix, tol)
    _check(checks, "Choi rank is 4, not 2", rank == 4, f"rank={rank}")
    try:
        extract_canonical(phi, tol)
        _check(checks, "canonical extraction refuses", False, "extraction succeeded")
    except NotExtreme as exc:
        _check(checks, "canonical extraction refuses", True, str(exc))
    return (
        "domination without a canonical form",
        checks,
        {"phi": phi, "psi": psi},
    )


def _case_cp_not_eb_difference(tol: Tolerance) -> _CaseResult:
    """A CP-order domination whose difference fails PPT, so the pair is not
    ordered in the EB sense: the two orders genuinely differ."""
    phi = inflation_channel()
    psi = holevo_channel(
        ((np.eye(2, dtype=complex), np.eye(2, dtype=complex) / 3.0),),
        label="uniform-floor",
    )
    checks: list[GalleryCheck] = []
    p = predicates(phi, tol)
    _check(checks, "inflation is unital and TP", p.is_unital and p.is_tp)
    _check(checks, "CP domination holds", dominates_cp(phi, psi, tol))
    verdict = dominates_eb(phi, psi, tol)
    _check(
        checks,
        "difference is not EB",
        verdict.is_eb == "no" and verdict.conclusive,
        f"ppt={verdict.ppt}",
    )
    _check(checks, "difference fails PPT", not verdict.ppt)
    return (
        "CP order is strictly weaker than EB order",
        checks,
        {"phi": phi, "psi": psi},
    )


def _case_two_block_pinching(tol: Tolerance) -> _CaseResult:
    """Canonical form with a rank-2 block, a dominated map built from a
    contraction, its commuting derivative, and the conjugation witness."""
    phi = two_block_pinching_channel()
    checks: list[GalleryCheck] = []
    report = is_cstar_extreme(phi, tol)
    _check(checks, "channel is C*-extreme", report.is_cstar_extreme)
    _check(checks, "Choi rank equals 3", report.choi_rank == 3)
    form = report.canonical
    ok_blocks = form is not None and sorted(form.block_ranks()) == [1, 2]
    _check(checks, "blocks have ranks {1, 2}", ok_blocks)

    # dominated map: contract the rank-2 block by B, the rank-1 block by t
    b = np.array([[0.5, 0.2], [0.2, 0.4]], dtype=complex)
    t = 0.7

    def fn(x: np.ndarray) -> np.ndarray:
        out = np.zeros((3, 3), dtype=complex)
        out[:2, :2] = x[0, 0] * b
        out[2, 2] = t * x[2, 2]
        return out

    psi = channel_from_map(fn, 3, 3, label="contracted-pinching")
    _check(checks, "contracted map is dominated", dominates_cp(phi, psi, tol))
    if form is not None:
        deriv = rn_derivative(form, psi, tol)
        r_expect = np.zeros((3, 3), dtype=complex)
        r_expect[:2, :2] = b
        r_expect[2, 2] = t
        _check(
            checks,
            "derivative equals the planted contraction",
            max_abs(deriv.R - r_expect) <= 1e-9,
            f"residual={deriv.residual:.2e}",
        )
        z = extremality_witness(form, psi, tol)
        dev = _choi_deviation(psi, phi, z, z)
        _check(checks, "conjugation witness reproduces psi", dev <= 1e-8, f"dev={dev:.2e}")
    return (
        "rank-2 block canonical form and its derivatives",
        checks,
        {"phi": phi, "psi": psi},
    )


def _case_impure_inflation(tol: Tolerance) -> _CaseResult:
    """A proper C*-convex combination of two C*-extreme channels that is
    not itself C*-extreme: extremity is lost under operator mixing."""
    left = diagonal_pinching_channel()
    right = swapped_pinching_channel()
    checks: list[GalleryCheck] = []
    _check(checks, "left factor is C*-extreme", is_cstar_extreme(left, tol).is_cstar_extreme)
    _check(checks, "right factor is C*-extreme", is_cstar_extreme(right, tol).is_cstar_extreme)
    half = np.eye(2, dtype=complex) / np.sqrt(2.0)
    comb = CStarCombination(2, 2, ((half, left), (half, right)))
    _check(checks, "combination is proper", is_proper(comb, tol))
    mixed = evaluate(comb, tol)
    target = depolarizing_channel(2)
    dev = _choi_deviation(mixed, target)
    _check(checks, "mix equals full averaging", dev <= 1e-12, f"dev={dev:.2e}")
    _check(
        checks,
        "mix is not C*-extreme",
        not is_cstar_extreme(mixed, tol).is_cstar_extreme,
    )
    return (
        "proper mixing of extreme points loses extremity",
        checks,
        {"left": left, "right": right, "mixed": mixed},
    )


def _case_tetrahedral(tol: Tolerance) -> _CaseResult:
    """Distinct pure states alone do not give extremity: the tetrahedral
    mix has pairwise distinct states but non-projection effects."""
    phi = tetrahedral_channel()
    checks: list[GalleryCheck] = []
    p = predicates(phi, tol)
    _check(checks, "channel is unital and TP", p.is_unital and p.is_tp)
    _check(checks, "channel is EB", eb_verdict(phi, tol).is_eb == "yes")
    report = is_cstar_extreme(phi, tol)
    _check(checks, "Choi rank is 4", report.choi_rank == 4, f"rank={report.choi_rank}")
    _check(checks, "channel is not C*-extreme", not report.is_cstar_extreme)
    # exact action: Phi(X) = (tr(X) I + offdiag(X + X^T)) / 3
    x = np.array([[1, 2j, 0], [1, 0, -1], [0.5, 0, 2]], dtype=complex)
    expected = (np.trace(x) * np.eye(3) + (x + x.T) - np.diag(np.diag(x + x.T))) / 3.0
    _check(
        checks,
        "closed form of the action",
        max_abs(apply(phi, x) - expected) <= 1e-12,
    )
    return (
        "distinct states with non-projection effects",
        checks,
        {"phi": phi},
    )


def _case_diagonal_pinching(tol: Tolerance) -> _CaseResult:
    """The pinching is C*-extreme with orthogonal block states, hence not
    linearly extreme among unital CP maps; it is the midpoint of the
    identity and a unitary conjugation, neither of which is EB."""
    phi = diagonal_pinching_channel()
    checks: list[GalleryCheck] = []
    report = is_cstar_extreme(phi, tol)
    _check(checks, "channel is C*-extreme", report.is_cstar_extreme)
    form = report.canonical
    _check(
        checks,
        "two rank-one blocks",
        form is not None and form.n_blocks == 2 and form.block_ranks() == (1, 1),
    )
    if form is not None:
        flags = cq_remark_flags(form, tol)
        _check(
            checks,
            "orthogonal states, so not linearly extreme in UCP",
            not flags.all_overlaps_nonzero and report.is_cq_linear_extreme_in_ucp is False,
        )
    ident = identity_channel(2)
    # midpoint of id and Ad_diag(1,-1): Kraus {I/sqrt2, diag(1,-1)/sqrt2}
    mid = kraus_channel(
        (
            np.eye(2, dtype=complex) / np.sqrt(2.0),
            np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0),
        ),
        label="unitary-midpoint",
    )
    dev = _choi_deviation(mid, phi)
    _check(checks, "midpoint of two unitary conjugations", dev <= 1e-12)
    _check(
        checks,
        "identity factor is not EB",
        eb_verdict(ident, tol).is_eb == "no",
    )
    return (
        "an EB extreme point that is a mix of non-EB channels",
        checks,
        {"phi": phi, "midpoint": mid},
    )


def _case_depolarizing(tol: Tolerance) -> _CaseResult:
    """Full averaging has maximal Choi rank d^2 and needs d^2 Kraus
    operators even as an EB channel; it is never C*-extreme for d > 1."""
    checks: list[GalleryCheck] = []
    for d in (2, 3):
        phi = depolarizing_channel(d)
        report = is_cstar_extreme(phi, tol)
        _check(
            checks,
            f"d={d}: Choi rank is {d * d}",
            report.choi_rank == d * d,
            f"rank={report.choi_rank}",
        )
        _check(checks, f"d={d}: not C*-extreme", not report.is_cstar_extreme)
        bounds = rank_bounds(phi, tol)
        _check(
            checks,
            f"d={d}: EB Kraus count is pinned at {d * d}",
            bounds.eb_rank_lower == d * d and bounds.eb_rank_upper == d * d,
            f"bounds=({bounds.eb_rank_lower}, {bounds.eb_rank_upper})",
        )
    return (
        "maximal Choi rank and pinned EB Kraus count",
        checks,
        {"phi2": depolarizing_channel(2), "phi3": depolarizing_channel(3)},
    )


def _case_km_reconstruction(tol: Tolerance) -> _CaseResult:
    """Generic unital EB channels decompose into C*-extreme factors with
    rank-one coefficients; the decomposition reconstructs the channel but
    is never proper for d2 > 1."""
    phi = random_unital_eb(SeededRng(11), 2, 2, n_terms=3, tol=tol)
    comb = km_decompose(phi, tol)
    check_result = verify_decomposition(comb, phi, tol)
    checks: list[GalleryCheck] = []
    _check(
        checks,
        "reconstruction is exact",
        check_result.reconstruction_error <= 1e-8,
        f"err={check_result.reconstruction_error:.2e}",
    )
    _check(
        checks,
        "every factor is C*-extreme",
        check_result.all_factors_extreme,
        "; ".join(check_result.factor_diagnostics),
    )
    _check(checks, "rank-one coefficients, so not proper", not check_result.proper)
    form = extract_canonical(comb.terms[0][1], tol)
    eq = unitary_equivalent(form, form, tol)
    _check(checks, "a canonical form is equivalent to itself", eq.equivalent)
    return (
        "decomposition into extreme factors",
        checks,
        {"phi": phi},
    )


_CASES: dict[str, Callable[[Tolerance], _CaseResult]] = {
    "averaged_state_domination": _case_averaged_state_domination,
    "cp_not_eb_difference": _case_cp_not_eb_difference,
    "two_block_pinching": _case_two_block_pinching,
    "impure_inflation": _case_impure_inflation,
    "tetrahedral": _case_tetrahedral,
    "diagonal_pinching": _case_diagonal_pinching,
    "depolarizing": _case_depolarizing,
    "km_reconstruction": _case_km_reconstruction,
}

CASE_NAMES: tuple[str, ...] = tuple(_CASES)


def run_case(name: str, tol: Tolerance = DEFAULT_TOL) -> GalleryOutcome:
    if name not in _CASES:
        raise KeyError(f"unknown gallery case {name!r}; known: {', '.join(CASE_NAMES)}")
    summary, checks, channels = _CASES[name](tol)
    return GalleryOutcome(name, summary, all(c.passed for c in checks), tuple(checks), channels)


def run_all(tol: Tolerance = DEFAULT_TOL) -> list[GalleryOutcome]:
    return [run_case(name, tol) for name in _CASES]
