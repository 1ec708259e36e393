"""C*-convex combinations of channels and Krein-Milman decomposition.

A C*-convex combination sum_i T_i^* Phi_i(X) T_i generalizes scalar convex
mixing by letting the weights be operator coefficients with
sum_i T_i^* T_i = I. Every unital entanglement-breaking channel with a
known Holevo ensemble decomposes this way into C*-extreme points; the
construction here refines the ensemble spectrally, producing rank-one
coefficients paired with the simplest extreme channels <u, X u> I. It keeps
exactly the eigen-pieces ``holevo_to_kraus`` keeps and refuses the ensembles
it refuses, such as one with a term that is not psd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    HolevoEnsemble,
    KrausSet,
    _choi_deviation,
    _is_unital,
    _kraus_ops,
    _rank_one_pieces,
    compose_ad,
    predicates,
)
from .errors import (
    CoefficientsNotNormalized,
    DimensionMismatch,
    EbxError,
    NoCertificate,
    NotCP,
    NotUnital,
)
from .extremality import CanonicalEBForm, is_cstar_extreme, reconstruct
from .linalg import DEFAULT_TOL, Tolerance, max_abs, psd_sqrt, svd_rank

__all__ = [
    "CStarCombination",
    "DecompositionCheck",
    "evaluate",
    "is_proper",
    "km_decompose",
    "verify_decomposition",
]


@dataclass(frozen=True, eq=False)
class CStarCombination:
    """Terms (T_i, Phi_i) of the combination X -> sum_i T_i^* Phi_i(X) T_i."""

    d1: int
    d2: int
    terms: tuple[tuple[np.ndarray, Channel], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise DimensionMismatch("a combination needs at least one term")
        for t, ch in self.terms:
            if t.shape != (self.d2, self.d2):
                raise DimensionMismatch(
                    f"coefficient shape {t.shape} does not match d2={self.d2}"
                )
            if (ch.d1, ch.d2) != (self.d1, self.d2):
                raise DimensionMismatch(
                    "factor channel dimensions do not match the combination"
                )

    @property
    def n_terms(self) -> int:
        return len(self.terms)


@dataclass(frozen=True, eq=False)
class DecompositionCheck:
    reconstruction_error: float
    all_factors_extreme: bool
    proper: bool
    factor_diagnostics: tuple[str, ...]


def evaluate(comb: CStarCombination, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """Assemble the combination into a single channel.

    Coefficients must be normalized (sum T_i^* T_i = I) and every factor
    unital, so the result is again unital. Each term is ``compose_ad(T, Phi)``;
    when every factor is a Holevo ensemble the result concatenates their
    terms (F, T^* R T), preserving the entanglement-breaking certificate
    through the mix, and otherwise their Kraus operators V T.
    """
    gram = sum(t.conj().T @ t for t, _ in comb.terms)
    if max_abs(gram - np.eye(comb.d2)) > 100 * tol.eq_abs:
        raise CoefficientsNotNormalized(
            f"sum of T_i^* T_i deviates from the identity by "
            f"{max_abs(gram - np.eye(comb.d2)):.3e}"
        )
    for _, ch in comb.terms:
        if not _is_unital(ch, tol):
            raise NotUnital("every factor in a combination must be unital")

    composed = [compose_ad(t, ch) for t, ch in comb.terms]
    if all(isinstance(c.representation, HolevoEnsemble) for c in composed):
        rep: HolevoEnsemble | KrausSet = HolevoEnsemble(
            comb.d1, comb.d2, tuple(ft for c in composed for ft in c.representation.terms)
        )
    else:
        rep = KrausSet(
            comb.d1, comb.d2, tuple(op for c in composed for op in _kraus_ops(c, tol))
        )
    return Channel(comb.d1, comb.d2, rep, label="cstar-combination")


def is_proper(comb: CStarCombination, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether every coefficient is invertible (full numerical rank)."""
    return all(svd_rank(t, tol) == comb.d2 for t, _ in comb.terms)


def km_decompose(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> CStarCombination:
    """Decompose a unital EB channel into a C*-convex combination of
    C*-extreme channels, from its Holevo ensemble.

    Each ensemble term (F, R) is refined spectrally as ``holevo_to_kraus``
    refines it: F = sum mu |psi><psi| and R = sum nu |chi><chi|, over the
    eigenvalues above ``tol.rank_rel`` times the member's largest and above
    zero, give weights lambda = mu nu with state psi and direction chi. The
    factors <psi, X psi> I are C*-extreme (one block, full projection) and
    the coefficients sqrt(lambda) |chi><chi| are rank one, so the
    decomposition is never proper for d2 > 1. The first ensemble member, in
    the order F_1, R_1, F_2, ..., that is not finite, not hermitian within
    ``tol.eq_abs`` or not psd raises ValueError, NotHermitian or NotPSD. A
    normalization defect above ``tol.eq_abs`` that the dropped eigenvalues
    leave is folded into the largest coefficient.
    """
    p = predicates(ch, tol)
    if not p.is_cp:
        raise NotCP("decomposition needs a completely positive channel")
    if not p.is_unital:
        raise NotUnital("decomposition needs a unital channel")
    ensemble = ch.holevo_certificate
    if ensemble is None:
        raise NoCertificate(
            "decomposition needs a Holevo ensemble (representation or certificate)"
        )

    d1, d2 = ch.d1, ch.d2
    terms: list[tuple[np.ndarray, Channel]] = []
    for mu, u, nu, v in _rank_one_pieces(ensemble, tol):
        coeff = np.sqrt(mu * nu) * np.outer(v, v.conj())
        factor = reconstruct(
            CanonicalEBForm(d1, d2, ((u, np.eye(d2)),)), label="pure-state-inflation"
        )
        terms.append((coeff, factor))
    if not terms:
        raise NoCertificate("ensemble refinement produced no usable weight")

    # dropped weights leave sum T^*T slightly short of I; absorb the defect
    # into the heaviest coefficient so normalization is exact
    gram = sum(t.conj().T @ t for t, _ in terms)
    defect = np.eye(d2) - gram
    if max_abs(defect) > tol.eq_abs:
        heaviest = max(range(len(terms)), key=lambda k: max_abs(terms[k][0]))
        t, factor = terms[heaviest]
        terms[heaviest] = (psd_sqrt(t.conj().T @ t + defect, tol), factor)

    return CStarCombination(d1, d2, tuple(terms))


def verify_decomposition(
    comb: CStarCombination, target: Channel, tol: Tolerance = DEFAULT_TOL
) -> DecompositionCheck:
    """Check a combination against its target channel.

    Reports the worst reconstruction deviation over matrix units, whether
    every factor is C*-extreme (with per-factor diagnostics when not), and
    whether the combination is proper.
    """
    if (comb.d1, comb.d2) != (target.d1, target.d2):
        raise DimensionMismatch("combination and target dimensions differ")
    err = _choi_deviation(target, evaluate(comb, tol))

    all_extreme = True
    diagnostics: list[str] = []
    for k, (_, factor) in enumerate(comb.terms):
        try:
            report = is_cstar_extreme(factor, tol)
            if not report.is_cstar_extreme:
                all_extreme = False
                diagnostics.append(
                    f"factor {k}: not C*-extreme (choi rank {report.choi_rank})"
                )
        except EbxError as exc:
            all_extreme = False
            diagnostics.append(f"factor {k}: {type(exc).__name__}: {exc}")

    return DecompositionCheck(
        reconstruction_error=err,
        all_factors_extreme=all_extreme,
        proper=is_proper(comb, tol),
        factor_diagnostics=tuple(diagnostics),
    )
