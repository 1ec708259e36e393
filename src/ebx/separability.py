"""Entanglement-breaking tests, rank bounds, and the random unital EB generator.

A channel is entanglement breaking exactly when its Choi matrix is separable,
which is equivalent to admitting a Holevo (measure-and-prepare) form. Since
separability itself is hard in general, the verdict here is three valued:

* a failed positive-partial-transpose test is a definitive "no", even when
  a Holevo ensemble is attached: a separable Choi matrix is PPT, so every
  EB map is PPT (Horodecki, Shor and Ruskai, Rev. Math. Phys. 15, 629), and
  an ensemble on a map that fails PPT has a term that is not psd,
* PPT channels carrying a Holevo certificate are "yes"; the ensemble is
  taken as given, unchecked for psd terms or for realizing the map
  (ROADMAP item 1), so a hermitian but non-psd ensemble of a PPT entangled
  map gets a wrong "yes",
* otherwise a passed PPT test is definitive ("yes") only when d1*d2 <= 6,
  and "unknown" beyond that window.

One private core decides the verdict and names the branch that decided it,
in the note that ``ebx analyze`` prints; ``eb_verdict`` returns its verdict.
The generator of C*-extreme maps lives with their canonical form, in
``extremality``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    HolevoEnsemble,
    _check_dims,
    _is_unital,
    _psd_spectra,
    to_choi,
)
from .errors import DegenerateDraw, NotCP, NotEB, NotHermitian
from .linalg import DEFAULT_TOL, Tolerance, _sym, herm_eig, is_psd, svd_rank
from .rng import SeededRng

__all__ = [
    "EBVerdict",
    "RankBounds",
    "PPT_CONCLUSIVE_LIMIT",
    "partial_transpose_choi",
    "is_ppt",
    "eb_verdict",
    "rank_bounds",
    "random_unital_eb",
]

# PPT decides separability exactly up to this product of dimensions
PPT_CONCLUSIVE_LIMIT = 6


@dataclass(frozen=True, eq=False)
class EBVerdict:
    """Outcome of the entanglement-breaking test.

    ``is_eb`` is "yes", "no" or "unknown"; ``conclusive`` marks definite
    verdicts. A "no" always comes with ``ppt`` false and no certificate; a
    "yes" always has ``ppt`` true and either a certificate attached or
    d1*d2 within the PPT-conclusive window.
    """

    ppt: bool
    conclusive: bool
    is_eb: str
    certificate: HolevoEnsemble | None


@dataclass(frozen=True)
class RankBounds:
    choi_rank: int
    eb_rank_lower: int
    eb_rank_upper: int


def partial_transpose_choi(choi: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Transpose every d2 x d2 block of the Choi matrix."""
    blocks = choi.reshape(d1, d2, d1, d2)
    return blocks.transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)


def is_ppt(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether both the Choi matrix and its partial transpose are psd:
    ``eb_verdict(ch, tol).ppt``, or False where ``eb_verdict`` raises NotCP."""
    try:
        return eb_verdict(ch, tol).ppt
    except NotCP:
        return False


def eb_verdict(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> EBVerdict:
    """Three-valued entanglement-breaking decision for a CP channel.

    One psd check of the Choi matrix (NotCP when it fails) and one of its
    partial transpose, whose entries are a permutation of the Choi matrix's:
    the toolkit's one CP/PPT decision, read by ``is_ppt`` and ``dominates_eb``.
    It is the verdict of ``_eb_verdict``, whose note names the deciding branch.
    """
    return _eb_verdict(ch, tol)[0]


# every EB map is PPT, so failing PPT is a conclusive "no"
_NOT_EB = EBVerdict(ppt=False, conclusive=True, is_eb="no", certificate=None)


def _eb_verdict(ch: Channel, tol: Tolerance) -> tuple[EBVerdict, str]:
    """``eb_verdict``, and the ``ebx analyze`` note naming the branch that decided it."""
    choi = to_choi(ch).matrix
    try:
        cp = is_psd(choi, tol)
    except NotHermitian as exc:
        raise NotCP(f"Choi matrix is not hermitian: {exc}") from exc
    if not cp:
        raise NotCP("channel is not completely positive")
    if not is_psd(partial_transpose_choi(choi, ch.d1, ch.d2), tol):
        # this overrides any attached ensemble
        return _NOT_EB, "fails PPT, which every EB channel must satisfy"
    cert = ch.holevo_certificate
    if cert is not None:
        note = "EB certified by an attached measure-and-prepare ensemble"
    elif not np.any(choi):
        # the zero map prepares nothing; certify it with a zero ensemble
        zeros = (np.zeros((ch.d1, ch.d1), dtype=complex), np.zeros((ch.d2, ch.d2), dtype=complex))
        cert = HolevoEnsemble(ch.d1, ch.d2, (zeros,))
        note = "the zero map is EB: it prepares nothing"
    elif ch.d1 * ch.d2 <= PPT_CONCLUSIVE_LIMIT:
        note = f"PPT conclusive: d1*d2 = {ch.d1 * ch.d2} <= {PPT_CONCLUSIVE_LIMIT}"
    else:
        return EBVerdict(ppt=True, conclusive=False, is_eb="unknown", certificate=None), (
            "EB verdict inconclusive: PPT holds but the dimension is outside "
            "the window where PPT implies separability and no ensemble "
            "certificate is attached"
        )
    return EBVerdict(ppt=True, conclusive=True, is_eb="yes", certificate=cert), note


def rank_bounds(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> RankBounds:
    """Bounds on the minimal number of rank-one Kraus operators.

    The Choi rank is always a lower bound. The upper bound is the size of
    the rank-one refinement of the attached certificate when one exists,
    counted, not built: term t gives k(F_t) k(R_t) operators, k counting
    the eigenvalues above ``tol.rank_rel`` times the member's largest and
    above zero, and a bad member raises what ``holevo_to_kraus`` raises.
    Otherwise it is the generic (d1*d2)^2 cap. For a unital channel whose
    Choi rank equals d2 the two bounds are d2, decided before the
    certificate is read: a PPT state of rank d2, the rank of its marginal,
    is separable, so such a channel is C*-extreme with d2 rank-one Kraus
    operators.
    """
    verdict = eb_verdict(ch, tol)
    if verdict.is_eb != "yes":
        raise NotEB(
            f"rank bounds need a certified or conclusive EB channel "
            f"(verdict: {verdict.is_eb})"
        )
    choi_rank = svd_rank(to_choi(ch).matrix, tol)
    if choi_rank == ch.d2 and _is_unital(ch, tol):
        # C*-extreme: d2 rank-one Kraus operators, whatever the certificate
        upper = ch.d2
    elif verdict.certificate is not None:
        (_, _, f_keep), (_, _, r_keep) = _psd_spectra(*zip(*verdict.certificate.terms), tol=tol)
        upper = max(int(np.count_nonzero(f_keep, axis=1) @ np.count_nonzero(r_keep, axis=1)), 1)
    else:
        upper = (ch.d1 * ch.d2) ** 2
    return RankBounds(
        choi_rank=choi_rank, eb_rank_lower=choi_rank, eb_rank_upper=max(upper, choi_rank)
    )


def random_unital_eb(
    rng: SeededRng, d1: int, d2: int, n_terms: int, tol: Tolerance = DEFAULT_TOL
) -> Channel:
    """A random unital entanglement-breaking channel in Holevo form.

    Effects are rank-one projections onto random unit vectors, and outputs
    form a random POVM obtained by symmetric normalization of random psd
    matrices: R_i = S^{-1/2} A_i S^{-1/2} with S the sum of the A_i. This
    makes sum_i R_i = I, hence the channel unital. Draws whose normalizer S
    is numerically singular are retried a few times before DegenerateDraw.
    """
    _check_dims(d1, d2)
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    for _ in range(10):
        raw = [rng.psd(d2) for _ in range(n_terms)]
        total = np.sum(raw, axis=0)
        vals, vecs = herm_eig(total, tol)
        if vals[-1] <= tol.psd_floor * max(vals[0], 1.0):
            continue
        inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        outputs = [inv_root @ a @ inv_root for a in raw]
        outputs = [_sym(r) for r in outputs]
        states = [rng.unit_vector(d1) for _ in range(n_terms)]
        terms = tuple(
            (np.outer(u, u.conj()), r) for u, r in zip(states, outputs)
        )
        return Channel(
            d1,
            d2,
            HolevoEnsemble(d1, d2, terms),
            label=f"random-unital-eb(d1={d1}, d2={d2}, terms={n_terms})",
        )
    raise DegenerateDraw("POVM normalizer stayed numerically singular after 10 draws")
