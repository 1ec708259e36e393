"""C*-extreme point analysis for unital entanglement-breaking channels.

The C*-extreme points of the unital entanglement-breaking channels
M_d1 -> M_d2 are exactly the maps

    Phi(X) = sum_i <u_i, X u_i> P_i

with pairwise-distinct pure states u_i and orthogonal projections P_i
summing to the identity; equivalently, the unital EB channels whose Choi
rank is exactly d2. This module extracts that canonical block form when it
exists, decides extremality by the rank criterion (cross-validated against
the extraction), and computes the derivative-type objects attached to a
dominated channel: the commuting operator R with Psi = Phi(.)R, the
coefficient matrix of a CP domination in a fixed Kraus frame, and the
conjugation witness Ad_Z for dominated channels with invertible barycenter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    HolevoEnsemble,
    _apply_stack,
    _choi_deviation,
    _is_unital,
    _kraus_ops,
    adjoint,
    apply,
    choi_channel,
    commutant_dimension,
    hermitian_basis,
    predicates,
    to_choi,
)
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotCP,
    NotDominated,
    NotEB,
    NotExtreme,
    NotHermitian,
    NotInvertible,
    NotUnital,
    PreconditionDomination,
    StructureViolation,
    VerificationFailed,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _fix_phases,
    _sym,
    herm_eig,
    is_psd,
    max_abs,
    pinv,
    psd_sqrt,
    svd_rank,
)
from .rng import SeededRng
from .separability import EBVerdict, eb_verdict

__all__ = [
    "CanonicalEBForm",
    "ExtremalityReport",
    "CqFlags",
    "RNDerivative",
    "ArvesonDerivative",
    "LocatedPiece",
    "EquivalenceCheck",
    "extract_canonical",
    "reconstruct",
    "is_cstar_extreme",
    "cq_remark_flags",
    "dominates_cp",
    "dominates_eb",
    "rn_derivative",
    "locate_dominated_rank_one",
    "arveson_derivative",
    "extremality_witness",
    "unitary_equivalent",
]

# states u, u' are considered the same block when |<u, u'>| >= 1 - this
_STATE_MATCH = 1e-9

# fixed seed for the generic separating combination in extract_canonical,
# so extraction is deterministic unless the caller supplies a stream
_EXTRACTION_SEED = 1729


@dataclass(frozen=True, eq=False)
class CanonicalEBForm:
    """Block data (u_i, P_i) for Phi(X) = sum_i <u_i, X u_i> P_i.

    States are unit vectors in C^d1, pairwise distinct as pure states;
    projections are mutually orthogonal and sum to the d2 x d2 identity.
    """

    d1: int
    d2: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def states(self) -> tuple[np.ndarray, ...]:
        return tuple(u for u, _ in self.blocks)

    @property
    def projections(self) -> tuple[np.ndarray, ...]:
        return tuple(p for _, p in self.blocks)

    def block_ranks(self) -> tuple[int, ...]:
        return tuple(int(round(float(np.trace(p).real))) for _, p in self.blocks)


@dataclass(frozen=True, eq=False)
class ExtremalityReport:
    choi_rank: int
    is_cstar_extreme: bool
    canonical: CanonicalEBForm | None
    is_cq_linear_extreme_in_ucp: bool | None
    is_irreducible: bool


@dataclass(frozen=True)
class CqFlags:
    """Overlap diagnostics of the rank-one refinement of a canonical form."""

    all_overlaps_nonzero: bool
    min_overlap: float


@dataclass(frozen=True, eq=False)
class RNDerivative:
    """Dominated-channel data Psi = Phi(.) R with R in the range commutant."""

    R: np.ndarray
    per_block: tuple[np.ndarray, ...]
    residual: float


@dataclass(frozen=True, eq=False)
class ArvesonDerivative:
    """Coefficient matrix T with Psi(X) = sum_ij T_ij V_i^* X V_j."""

    T: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class LocatedPiece:
    block_index: int
    R: np.ndarray


@dataclass(frozen=True, eq=False)
class EquivalenceCheck:
    equivalent: bool
    witness_unitary: np.ndarray | None


# ---------------------------------------------------------------------------
# canonical form extraction
# ---------------------------------------------------------------------------


def _joint_eigenspaces(
    mats: np.ndarray, gen: np.random.Generator, tol: Tolerance
) -> list[np.ndarray]:
    """Common eigenspace bases (orthonormal column blocks) of a commuting
    (n, d, d) stack of hermitian matrices, by generic random combinations
    with recursive refinement of degenerate clusters."""
    d = mats.shape[1]
    if d == 1:
        return [np.eye(1, dtype=complex)]
    scalars = (np.trace(mats, axis1=1, axis2=2) / d)[:, None, None] * np.eye(d)
    dev = np.abs(mats - scalars).max(axis=(1, 2))
    if np.all(dev <= tol.eq_abs * np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))):
        # every member acts as a scalar here; the whole space is one block
        return [np.eye(d, dtype=complex)]
    for _attempt in range(8):
        coeffs = gen.standard_normal(len(mats))
        combo = _sym(sum(c * m for c, m in zip(coeffs, mats)))
        vals, vecs = np.linalg.eigh(combo)
        scale = max(1.0, float(np.max(np.abs(vals))))
        gap = 1e-7 * scale
        # cluster adjacent eigenvalues; each cluster spans an invariant subspace
        edges = [0]
        for k in range(1, d):
            if vals[k] - vals[k - 1] > gap:
                edges.append(k)
        edges.append(d)
        if len(edges) <= 2:
            continue  # combination failed to separate anything; retry
        out: list[np.ndarray] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            q = vecs[:, lo:hi]
            if hi - lo == 1:
                out.append(q)
                continue
            restricted = _sym(q.conj().T @ mats @ q)
            out.extend(q @ sub for sub in _joint_eigenspaces(restricted, gen, tol))
        return out
    raise NotExtreme(
        "failed to split the commuting range into joint eigenspaces; "
        "generic combinations stayed degenerate"
    )


def _check_commutative(images: np.ndarray, tol: Tolerance) -> None:
    """Raise NotExtreme unless a stack of n hermitian images commutes.

    Pair i < j fails when max_abs(A_i A_j - A_j A_i) exceeds
    ``tol.eq_abs * max(1, max_abs(A_i) * max_abs(A_j))``. Row i takes its
    commutators with A_{i+1}, ..., A_{n-1} in one batched product, so there
    are n - 1 rows of numpy work instead of n(n-1)/2 pairs, and never more
    than one row of commutators in memory. The first failing pair in (i, j)
    order is the one reported.
    """
    scales = np.abs(images).max(axis=(1, 2))
    for i in range(len(images) - 1):
        a, rest = images[i], images[i + 1:]
        dev = np.abs(a @ rest - rest @ a).max(axis=(1, 2))
        bound = tol.eq_abs * np.maximum(1.0, scales[i] * scales[i + 1:])
        failing = np.flatnonzero(dev > bound)
        if failing.size:
            raise NotExtreme(
                f"range is not commutative (commutator deviation {dev[failing[0]]:.3e})"
            )


def extract_canonical(
    ch: Channel, tol: Tolerance = DEFAULT_TOL, rng: SeededRng | None = None
) -> CanonicalEBForm:
    """Extract the block form (u_i, P_i) of a C*-extreme channel.

    Steps: form the d1^2 images of a hermitian basis with one
    ``_apply_stack``; check the range is commutative, each image's
    commutators with the later ones taken in one batched product
    (``_check_commutative``); jointly diagonalize the image stack; pull all
    joint eigenvectors v back through the adjoint at once, to the states
    D = Phi^*(|v><v|), each of which must be a rank-one density matrix (one
    batched SVD; rank, then trace, checked eigenvector by eigenvector); take
    each state's top eigenvector from one batched ``eigh``; group
    eigenvectors whose states coincide into blocks; verify the resulting
    form reproduces the channel.

    Raises NotExtreme at whichever step fails; for channels that are not
    C*-extreme this is the expected outcome, not an error condition. The
    preconditions come first, each checked once: ``eb_verdict`` raises
    NotCP, then NotUnital, then NotEB for a verdict of "no".
    """
    verdict = eb_verdict(ch, tol)
    if not _is_unital(ch, tol):
        raise NotUnital("canonical extraction needs a unital channel")
    if verdict.is_eb == "no":
        raise NotEB("channel is certified not entanglement breaking")
    gen = (rng or SeededRng(_EXTRACTION_SEED)).generator

    images = _sym(_apply_stack(ch, np.array(hermitian_basis(ch.d1))))
    _check_commutative(images, tol)

    eigenspaces = _joint_eigenspaces(images, gen, tol)
    vs = np.concatenate(eigenspaces, axis=1).T  # joint eigenvectors as rows
    densities = _sym(_apply_stack(adjoint(ch), vs[:, :, None] * vs.conj()[:, None, :]))
    sigma = np.linalg.svd(densities, compute_uv=False)
    for density, s in zip(densities, sigma):
        if np.count_nonzero(s > tol.rank_rel * s[0]) != 1:
            raise NotExtreme("an induced state is not pure (rank > 1)")
        if abs(np.trace(density) - 1.0) > tol.eq_abs:
            raise NotExtreme("an induced state is not normalized")
    # each state u is the top eigenvector, phase-fixed as herm_eig fixes it
    states = _fix_phases(np.linalg.eigh(densities)[1][:, :, -1].T.copy()).T

    groups: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for u, v in zip(states, vs):
        for gu, members in groups:
            if abs(np.vdot(gu, u)) >= 1.0 - _STATE_MATCH:
                members.append(v)
                break
        else:
            groups.append((u, [v]))
    blocks = tuple(
        (gu, sum(np.outer(v, v.conj()) for v in members))
        for gu, members in groups
    )
    form = CanonicalEBForm(ch.d1, ch.d2, blocks)
    _verify_canonical_against(form, ch, tol)
    return form


def _verify_canonical_against(
    form: CanonicalEBForm, ch: Channel, tol: Tolerance
) -> None:
    _check_form_invariants(form, tol, failure=NotExtreme)
    dev = _choi_deviation(ch, reconstruct(form))
    if dev > 10 * tol.eq_abs:
        raise NotExtreme(f"canonical form does not reproduce the channel (dev {dev:.3e})")


def _check_form_invariants(form: CanonicalEBForm, tol: Tolerance, failure=StructureViolation) -> None:
    for u, p in form.blocks:
        if abs(np.linalg.norm(u) - 1.0) > 10 * tol.eq_abs:
            raise failure("block state is not a unit vector")
        if max_abs(p - p.conj().T) > 10 * tol.eq_abs:
            raise failure("block projection is not hermitian")
        if max_abs(p @ p - p) > 100 * tol.eq_abs:
            raise failure("block projection is not idempotent")
    for i in range(form.n_blocks):
        for j in range(i + 1, form.n_blocks):
            if abs(np.vdot(form.states[i], form.states[j])) >= 1.0 - _STATE_MATCH:
                raise failure("two blocks carry the same pure state")
            if max_abs(form.projections[i] @ form.projections[j]) > 100 * tol.eq_abs:
                raise failure("block projections are not orthogonal")
    total = sum(form.projections)
    if max_abs(total - np.eye(form.d2)) > 100 * tol.eq_abs:
        raise failure("block projections do not sum to the identity")


def reconstruct(form: CanonicalEBForm, label: str | None = None) -> Channel:
    """The channel sum_i <u_i, . u_i> P_i as a certified Holevo ensemble."""
    terms = tuple((np.outer(u, u.conj()), p.astype(complex)) for u, p in form.blocks)
    return Channel(
        form.d1,
        form.d2,
        HolevoEnsemble(form.d1, form.d2, terms),
        label=label,
    )


# ---------------------------------------------------------------------------
# extremality decision and structure flags
# ---------------------------------------------------------------------------


def is_cstar_extreme(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> ExtremalityReport:
    """Decide C*-extremality of a unital EB channel.

    The primary criterion is Choi rank equal to d2; canonical extraction is
    run as an independent cross-check and must agree (success exactly when
    the rank criterion holds), otherwise InternalInconsistency is raised.
    The preconditions are checked once, by ``extract_canonical``, which runs
    first: NotCP, NotUnital and NotEB come from there.
    """
    form: CanonicalEBForm | None
    try:
        form = extract_canonical(ch, tol)
        extraction_note = None
    except NotExtreme as exc:
        form = None
        extraction_note = str(exc)
    choi_rank = svd_rank(to_choi(ch).matrix, tol)
    rank_extreme = choi_rank == ch.d2
    if (form is not None) != rank_extreme:
        raise InternalInconsistency(
            f"rank criterion (choi_rank={choi_rank}, d2={ch.d2}) and canonical "
            f"extraction ({'succeeded' if form is not None else extraction_note}) disagree"
        )
    cq_flag = cq_remark_flags(form, tol).all_overlaps_nonzero if form else None
    commutant = commutant_dimension(ch, tol)
    return ExtremalityReport(
        choi_rank=choi_rank,
        is_cstar_extreme=rank_extreme,
        canonical=form,
        is_cq_linear_extreme_in_ucp=cq_flag,
        is_irreducible=commutant.is_irreducible,
    )


def cq_remark_flags(form: CanonicalEBForm, tol: Tolerance = DEFAULT_TOL) -> CqFlags:
    """Overlap test on the rank-one refinement of a canonical form.

    Refining each block projection into rank-one pieces (duplicating the
    block state per piece) gives the channel as sum_j <u_j, X u_j> |v_j><v_j|
    over an orthonormal basis {v_j}. The channel is additionally an extreme
    point of the unital CP maps in the linear sense exactly when every
    pairwise overlap <u_j, u_k> is nonzero.
    """
    refined: list[np.ndarray] = []
    for (u, p), r in zip(form.blocks, form.block_ranks()):
        refined.extend([u] * r)
    min_overlap = 1.0
    for i in range(len(refined)):
        for j in range(i + 1, len(refined)):
            min_overlap = min(min_overlap, abs(np.vdot(refined[i], refined[j])))
    return CqFlags(
        all_overlaps_nonzero=bool(min_overlap > tol.eq_abs),
        min_overlap=float(min_overlap),
    )


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------


def _check_same_dims(big: Channel, small: Channel) -> None:
    if (big.d1, big.d2) != (small.d1, small.d2):
        raise DimensionMismatch(
            f"channels have different dimensions: {(big.d1, big.d2)} vs "
            f"{(small.d1, small.d2)}"
        )


def dominates_cp(big: Channel, small: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether big - small is completely positive (Choi difference psd)."""
    _check_same_dims(big, small)
    diff = to_choi(big).matrix - to_choi(small).matrix
    try:
        return bool(is_psd(diff, tol))
    except NotHermitian:
        return False


def dominates_eb(big: Channel, small: Channel, tol: Tolerance = DEFAULT_TOL) -> EBVerdict:
    """Three-valued verdict on whether big - small is entanglement breaking."""
    _check_same_dims(big, small)
    diff = to_choi(big).matrix - to_choi(small).matrix
    not_cp = False
    try:
        if not is_psd(diff, tol):
            not_cp = True
    except NotHermitian:
        not_cp = True
    if not_cp:
        # not CP, so certainly not EB (and in particular not PPT)
        return EBVerdict(ppt=False, conclusive=True, is_eb="no", certificate=None)
    return eb_verdict(choi_channel(diff, big.d1, big.d2), tol)


# ---------------------------------------------------------------------------
# derivatives of dominated channels
# ---------------------------------------------------------------------------


def rn_derivative(
    canonical: CanonicalEBForm, psi: Channel, tol: Tolerance = DEFAULT_TOL
) -> RNDerivative:
    """The operator R with Psi = Phi(.) R for Psi dominated by canonical Phi.

    For a canonical Phi, any CP map Psi it dominates has the form
    Psi(X) = sum_i <u_i, X u_i> R_i with R_i = P_i R P_i and R = Psi(I) a
    positive contraction commuting with the range of Phi. All of this is
    verified; violations raise VerificationFailed.
    """
    _check_form_invariants(canonical, tol)
    if (psi.d1, psi.d2) != (canonical.d1, canonical.d2):
        raise DimensionMismatch("dominated channel dimensions do not match the form")
    if not predicates(psi, tol).is_cp:
        raise NotCP("dominated map must be completely positive")
    phi = reconstruct(canonical)
    if not dominates_cp(phi, psi, tol):
        raise PreconditionDomination(
            "the canonical channel does not dominate psi in the CP order"
        )
    r = _sym(apply(psi, np.eye(canonical.d1)))

    vals, _ = herm_eig(r, tol)
    floor = tol.psd_floor * max(1.0, float(np.max(np.abs(vals))))
    if vals[-1] < -floor or vals[0] > 1.0 + floor:
        raise VerificationFailed(
            f"barycenter Psi(I) is not a positive contraction "
            f"(eigenvalues in [{vals[-1]:.3e}, {vals[0]:.3e}])"
        )

    projections = canonical.projections
    per_block = tuple(p @ r @ p for p in projections)
    for i, pi in enumerate(projections):
        for j, pj in enumerate(projections):
            if i != j and max_abs(pi @ r @ pj) > 100 * tol.eq_abs:
                raise VerificationFailed(
                    "Psi(I) has cross terms between canonical blocks"
                )

    residual = _choi_deviation(psi, phi, right=r)
    if residual > 100 * tol.eq_abs:
        raise VerificationFailed(
            f"Psi does not factor as Phi(.) R (residual {residual:.3e})"
        )

    for p in projections:
        img_comm = max_abs(r @ p - p @ r)
        if img_comm > 100 * tol.eq_abs:
            raise VerificationFailed("Psi(I) does not commute with the range of Phi")

    return RNDerivative(R=r, per_block=per_block, residual=float(residual))


def locate_dominated_rank_one(
    canonical: CanonicalEBForm,
    x,
    y,
    tol: Tolerance = DEFAULT_TOL,
) -> LocatedPiece:
    """Locate the block absorbing a dominated rank-one map <x, . x> |y><y|.

    When E(X) = <x, X x>|y><y| is dominated by the canonical channel, x must
    be parallel to one block state u_j and y must lie in the range of that
    block's projection; the piece it contributes is R_j = <x, x> |y><y|.
    """
    _check_form_invariants(canonical, tol)
    xv = np.asarray(x, dtype=complex).reshape(-1)
    yv = np.asarray(y, dtype=complex).reshape(-1)
    if xv.shape != (canonical.d1,) or yv.shape != (canonical.d2,):
        raise DimensionMismatch("vector dimensions do not match the canonical form")
    if np.linalg.norm(xv) < tol.eq_abs or np.linalg.norm(yv) < tol.eq_abs:
        raise ValueError("x and y must be nonzero")
    rank_one = Channel(
        canonical.d1,
        canonical.d2,
        HolevoEnsemble(
            canonical.d1,
            canonical.d2,
            ((np.outer(xv, xv.conj()), np.outer(yv, yv.conj())),),
        ),
    )
    phi = reconstruct(canonical)
    if not dominates_cp(phi, rank_one, tol):
        raise NotDominated("the rank-one map is not dominated by the canonical channel")
    x_hat = xv / np.linalg.norm(xv)
    y_norm = float(np.linalg.norm(yv))
    matches = []
    for j, (u, p) in enumerate(canonical.blocks):
        state_match = abs(np.vdot(x_hat, u)) >= 1.0 - _STATE_MATCH
        range_match = (
            float(np.linalg.norm(yv - p @ yv)) <= 100 * tol.eq_abs * y_norm
        )
        if state_match and range_match:
            matches.append(j)
    if len(matches) != 1:
        raise StructureViolation(
            f"domination holds but {len(matches)} blocks match (expected exactly 1); "
            "tolerances may be miscalibrated"
        )
    j = matches[0]
    piece = float(np.vdot(xv, xv).real) * np.outer(yv, yv.conj())
    scale = max(1.0, max_abs(piece))
    for k, p in enumerate(canonical.projections):
        expected = piece if k == j else np.zeros_like(piece)
        if max_abs(p @ piece - expected) > 100 * tol.eq_abs * scale:
            raise StructureViolation("located piece is not supported in its block")
    return LocatedPiece(block_index=j, R=piece)


def arveson_derivative(
    phi: Channel, psi: Channel, tol: Tolerance = DEFAULT_TOL
) -> ArvesonDerivative:
    """Coefficient matrix of a CP domination in the frame of phi's Kraus set.

    Writing phi with Kraus operators V_1..V_n, any dominated Psi is
    Psi(X) = sum_ij T_ij V_i^* X V_j for a positive contraction T. T is
    recovered by unregularized least squares on the Choi identity
    C_Psi = W T W^* (W the frame matrix), then symmetrized; eigenvalues are
    clamped to [0, 1] when within the psd floor, and anything worse raises
    VerificationFailed. When phi's Kraus operators are linearly dependent
    the least-squares solution is one valid representative.
    """
    _check_same_dims(phi, psi)
    ops = _kraus_ops(phi, tol)
    if not dominates_cp(phi, psi, tol):
        raise PreconditionDomination("phi does not dominate psi in the CP order")
    # frame vector of V is the conjugated row-major flattening, so that
    # C_Phi = W W^* reproduces to_choi exactly
    w = np.stack([op.conj().reshape(-1) for op in ops], axis=1)
    c_psi = to_choi(psi).matrix
    w_pinv = pinv(w, tol)
    t = _sym(w_pinv @ c_psi @ w_pinv.conj().T)
    residual = max_abs(w @ t @ w.conj().T - c_psi)
    if residual > 1e-8 * (1.0 + max_abs(c_psi)):
        raise VerificationFailed(
            f"Psi is not expressible in phi's Kraus frame (residual {residual:.3e}); "
            "its Kraus span may exceed phi's"
        )
    vals, vecs = herm_eig(t, tol)
    floor = tol.psd_floor * max(1.0, float(np.max(np.abs(vals))))
    if vals[-1] < -floor or vals[0] > 1.0 + floor:
        raise VerificationFailed(
            f"coefficient matrix is not a positive contraction "
            f"(eigenvalues in [{vals[-1]:.3e}, {vals[0]:.3e}])"
        )
    clamped = np.clip(vals, 0.0, 1.0)
    t = _sym((vecs * clamped) @ vecs.conj().T)
    return ArvesonDerivative(T=t, residual=float(residual))


def extremality_witness(
    canonical: CanonicalEBForm, psi: Channel, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """The invertible Z with Psi = Ad_Z Phi, for dominated Psi with
    invertible barycenter Psi(I).

    This is the defining property of C*-extreme points: every dominated EB
    channel with invertible barycenter arises from Phi by conjugation. For
    canonical Phi the witness is simply the positive square root of Psi(I).
    """
    _check_form_invariants(canonical, tol)
    if (psi.d1, psi.d2) != (canonical.d1, canonical.d2):
        raise DimensionMismatch("dominated channel dimensions do not match the form")
    phi = reconstruct(canonical)
    if not dominates_cp(phi, psi, tol):
        raise PreconditionDomination(
            "the canonical channel does not dominate psi in the CP order"
        )
    barycenter = _sym(apply(psi, np.eye(canonical.d1)))
    if svd_rank(barycenter, tol) < canonical.d2:
        raise NotInvertible("Psi(I) is numerically singular")
    z = psd_sqrt(barycenter, tol)
    dev = _choi_deviation(psi, phi, z, z)
    if dev > 100 * tol.eq_abs:
        raise VerificationFailed(
            f"Ad_Z composed with the canonical channel does not equal Psi "
            f"(deviation {dev:.3e})"
        )
    return z


# ---------------------------------------------------------------------------
# unitary equivalence of canonical forms
# ---------------------------------------------------------------------------


def _range_basis(p: np.ndarray, rank: int, tol: Tolerance) -> np.ndarray:
    _, vecs = herm_eig(p, tol)
    return vecs[:, :rank]


def unitary_equivalent(
    a: CanonicalEBForm, b: CanonicalEBForm, tol: Tolerance = DEFAULT_TOL
) -> EquivalenceCheck:
    """Whether two canonical forms differ by a unitary: b = Ad_U a.

    Equivalence requires a bijection between blocks matching pure states and
    projection ranks; the witness U is assembled block by block from range
    bases and verified against both channels before being returned.
    """
    if (a.d1, a.d2) != (b.d1, b.d2):
        raise DimensionMismatch("canonical forms have different dimensions")
    _check_form_invariants(a, tol)
    _check_form_invariants(b, tol)
    if a.n_blocks != b.n_blocks:
        return EquivalenceCheck(equivalent=False, witness_unitary=None)
    ranks_a = a.block_ranks()
    ranks_b = b.block_ranks()
    matched: list[tuple[int, int]] = []
    used = set()
    for i, (ua, _) in enumerate(a.blocks):
        found = None
        for j, (ub, _) in enumerate(b.blocks):
            if j in used:
                continue
            if abs(np.vdot(ua, ub)) >= 1.0 - _STATE_MATCH and ranks_a[i] == ranks_b[j]:
                found = j
                break
        if found is None:
            return EquivalenceCheck(equivalent=False, witness_unitary=None)
        used.add(found)
        matched.append((i, found))
    u = np.zeros((a.d2, a.d2), dtype=complex)
    for i, j in matched:
        qa = _range_basis(a.projections[i], ranks_a[i], tol)
        qb = _range_basis(b.projections[j], ranks_b[j], tol)
        u += qa @ qb.conj().T
    dev = _choi_deviation(reconstruct(b), reconstruct(a), u.conj().T, u)
    if dev > 100 * tol.eq_abs:
        return EquivalenceCheck(equivalent=False, witness_unitary=None)
    return EquivalenceCheck(equivalent=True, witness_unitary=u)
