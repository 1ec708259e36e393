"""Entanglement-breaking tests, rank bounds, and random channel generators.

A channel is entanglement breaking exactly when its Choi matrix is separable,
which is equivalent to admitting a Holevo (measure-and-prepare) form. Since
separability itself is hard in general, the verdict here is three valued:

* channels carrying a Holevo certificate are "yes" by construction,
* a failed positive-partial-transpose test is a definitive "no",
* a passed PPT test is definitive ("yes") only when d1*d2 <= 6, and
  "unknown" beyond that window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    HolevoEnsemble,
    _is_unital,
    _rank_one_count,
    to_choi,
)
from .errors import DegenerateDraw, NotCP, NotEB, NotHermitian
from .linalg import DEFAULT_TOL, Tolerance, _sym, herm_eig, is_psd, svd_rank
from .rng import SeededRng

__all__ = [
    "EBVerdict",
    "RankBounds",
    "PPT_CONCLUSIVE_LIMIT",
    "DISTINCT_STATE_MARGIN",
    "partial_transpose_choi",
    "is_ppt",
    "eb_verdict",
    "rank_bounds",
    "random_unital_eb",
    "random_cstar_extreme",
]

# PPT decides separability exactly up to this product of dimensions
PPT_CONCLUSIVE_LIMIT = 6

# pure states are treated as distinct when |<u, v>| stays below 1 minus this
DISTINCT_STATE_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class EBVerdict:
    """Outcome of the entanglement-breaking test.

    ``is_eb`` is "yes", "no" or "unknown"; ``conclusive`` marks definite
    verdicts. A "no" always comes with ``ppt`` false; a "yes" always has a
    certificate attached or holds within the PPT-conclusive window.
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
    """Whether both the Choi matrix and its partial transpose are psd."""
    choi = to_choi(ch).matrix
    try:
        if not is_psd(choi, tol):
            return False
        return bool(is_psd(partial_transpose_choi(choi, ch.d1, ch.d2), tol))
    except NotHermitian:
        return False


def eb_verdict(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> EBVerdict:
    """Three-valued entanglement-breaking decision for a CP channel.

    One psd check of the Choi matrix (NotCP when it fails) and one of its
    partial transpose, whose entries are a permutation of the Choi matrix's.
    """
    choi = to_choi(ch).matrix
    try:
        cp = is_psd(choi, tol)
    except NotHermitian as exc:
        raise NotCP(f"Choi matrix is not hermitian: {exc}") from exc
    if not cp:
        raise NotCP("channel is not completely positive")
    ppt = is_psd(partial_transpose_choi(choi, ch.d1, ch.d2), tol)
    cert = ch.holevo_certificate
    if cert is not None:
        return EBVerdict(ppt=ppt, conclusive=True, is_eb="yes", certificate=cert)
    if not np.any(choi):
        # the zero map prepares nothing; certify it with a zero ensemble
        zero = HolevoEnsemble(
            ch.d1,
            ch.d2,
            ((np.zeros((ch.d1, ch.d1), dtype=complex), np.zeros((ch.d2, ch.d2), dtype=complex)),),
        )
        return EBVerdict(ppt=True, conclusive=True, is_eb="yes", certificate=zero)
    if not ppt:
        return EBVerdict(ppt=False, conclusive=True, is_eb="no", certificate=None)
    if ch.d1 * ch.d2 <= PPT_CONCLUSIVE_LIMIT:
        return EBVerdict(ppt=True, conclusive=True, is_eb="yes", certificate=None)
    return EBVerdict(ppt=True, conclusive=False, is_eb="unknown", certificate=None)


def rank_bounds(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> RankBounds:
    """Bounds on the minimal number of rank-one Kraus operators.

    The Choi rank is always a lower bound. The upper bound is the size of
    the rank-one refinement of the attached certificate when one exists,
    counted from the spectra of its effects and outputs without building
    the operators (``holevo_to_kraus`` would return that many), and the
    generic (d1*d2)^2 cap otherwise. For a unital channel whose
    Choi rank equals d2 the two bounds collapse to d2 exactly.
    """
    verdict = eb_verdict(ch, tol)
    if verdict.is_eb != "yes":
        raise NotEB(
            f"rank bounds need a certified or conclusive EB channel "
            f"(verdict: {verdict.is_eb})"
        )
    choi_rank = svd_rank(to_choi(ch).matrix, tol)
    lower = choi_rank
    if verdict.certificate is not None:
        upper = _rank_one_count(verdict.certificate, tol)
    else:
        upper = (ch.d1 * ch.d2) ** 2
    if choi_rank == ch.d2 and _is_unital(ch, tol):
        lower = upper = ch.d2
    return RankBounds(
        choi_rank=choi_rank, eb_rank_lower=lower, eb_rank_upper=max(upper, lower)
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


def random_cstar_extreme(
    rng: SeededRng,
    d1: int,
    d2: int,
    n_blocks: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> Channel:
    """A random channel of the form X -> sum_i <u_i, X u_i> P_i.

    The P_i are orthogonal projections summing to the identity, built from a
    Haar-random orthonormal basis partitioned into n_blocks groups, and the
    u_i are pairwise-distinct random pure states. Channels of this shape are
    exactly the C*-extreme points of the unital entanglement-breaking maps,
    so this generator produces certified positives for extremality tests.
    """
    if n_blocks is None:
        n_blocks = d2
    if not (1 <= n_blocks <= d2):
        raise ValueError(f"n_blocks must lie in [1, {d2}], got {n_blocks}")
    frame = rng.unitary(d2)
    groups = np.array_split(np.arange(d2), n_blocks)
    projections = [frame[:, g] @ frame[:, g].conj().T for g in groups]
    states: list[np.ndarray] = []
    for _ in range(n_blocks):
        for _attempt in range(20):
            u = rng.unit_vector(d1)
            if all(
                abs(np.vdot(u, v)) <= 1.0 - DISTINCT_STATE_MARGIN for v in states
            ):
                states.append(u)
                break
        else:
            raise DegenerateDraw(
                f"could not draw {n_blocks} pairwise-distinct pure states in C^{d1}"
            )
    terms = tuple(
        (np.outer(u, u.conj()), _sym(p))
        for u, p in zip(states, projections)
    )
    return Channel(
        d1,
        d2,
        HolevoEnsemble(d1, d2, terms),
        label=f"random-cstar-extreme(d1={d1}, d2={d2}, blocks={n_blocks})",
    )
