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
``random_cstar_extreme`` draws channels of that form through ``reconstruct``.

One rule decides whether two unit vectors u, v are the same pure state:
their distance ||u - e^{i phi} v|| at the best phase phi is at most
``10 * tol.eq_abs``, the bound that extraction checks its form against,
since merging two states moves the map by about that distance. Extraction
groups states into blocks by it, ``_check_form_invariants`` refuses a form
whose blocks share a state by it, and ``unitary_equivalent`` matches blocks
by it. ``_check_form_invariants`` checks the forms that callers pass in
(to ``rn_derivative``, ``extremality_witness`` and ``unitary_equivalent``);
extraction's own form holds its invariants by construction and is proved by
reconstructing the channel. The joint diagonalization splits eigenvalue
clusters at a gap of ``tol.eq_abs`` times the spectrum's scale, below that
bound, so states it splits too finely are merged again. The generator
draws its states with 1 - |<u, v>| at least ``DISTINCT_STATE_MARGIN``
(1e-6), a distance of at least 1.4e-3, so its blocks never merge while
``tol.eq_abs`` is below 1.4e-4. ``DISTINCT_STATE_MARGIN`` is importable from
this module but is not part of the public API, which is the union of the
modules' ``__all__`` lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    HolevoEnsemble,
    _apply_stack,
    _channel_range_basis,
    _check_dims,
    _choi_deviation,
    _commutant_report,
    _is_unital,
    _kraus_ops,
    adjoint,
    apply,
    choi_channel,
    hermitian_basis,
    holevo_channel,
    predicates,
    to_choi,
)
from .errors import (
    DegenerateDraw,
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
    _rank_count,
    _sym,
    herm_eig,
    is_psd,
    max_abs,
    pinv,
    psd_sqrt,
    svd_rank,
)
from .rng import SeededRng
from .separability import _NOT_EB, EBVerdict, eb_verdict

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
    "random_cstar_extreme",
]

# random_cstar_extreme draws states with |<u, v>| <= 1 - this
DISTINCT_STATE_MARGIN = 1e-6

# seed of the generic separating combinations in extract_canonical, so the
# form depends only on the channel and the tolerance
_EXTRACTION_SEED = 1729


def _same_state(u: np.ndarray, v: np.ndarray, tol: Tolerance) -> bool:
    """Whether unit vectors u and v are one pure state: ||u - e^{i phi} v|| at
    the best phase is at most ``10 * tol.eq_abs``. The distance is formed from
    the vectors, not from 1 - |<u, v>|, which loses it to rounding below 1e-8."""
    phase = np.exp(1j * np.angle(np.vdot(v, u)))
    return bool(np.linalg.norm(u - phase * v) <= 10 * tol.eq_abs)


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
        gap = tol.eq_abs * scale
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


def extract_canonical(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> CanonicalEBForm:
    """Extract the block form (u_i, P_i) of a C*-extreme channel.

    Steps: check the preconditions once each (``eb_verdict`` raises NotCP,
    then NotUnital, then NotEB for a verdict of "no"); check the range is
    commutative on its orthonormal basis, one ``_channel_range_basis`` per
    call (a range commutes exactly when its basis does), each element's
    commutators with the later ones in one batched product
    (``_check_commutative``), so a C*-extreme channel checks as many
    elements as it has blocks, at most d2, not d1^2 images;
    form the d1^2 images of a hermitian basis with one ``_apply_stack`` and
    jointly diagonalize that stack, which fixes the form's bits; pull all
    joint eigenvectors v back through the adjoint at once, to the states
    D = Phi^*(|v><v|), decomposed by one batched ``eigh``: each must have
    rank one, read off those eigenvalues, and its state is its top
    eigenvector; group eigenvectors whose states coincide into blocks;
    verify the resulting form reproduces the channel. That reconstruction is
    the only check of the form: its states are unit eigenvectors, its
    projections sum the outer products of one orthonormal basis, and its
    groups are split by ``_same_state``, so the form's invariants hold by
    construction. The trace of D is not checked: it is <v, Phi(I) v>, and
    the unital precondition bounds only the entries of Phi(I) - I by
    ``tol.eq_abs``, so the trace may miss 1 by up to d2 times that; the
    reconstruction bounds what such a map may differ from its form. The
    joint diagonalization draws its combinations from a fixed seed, so the
    form depends only on ``ch`` and ``tol``.

    Raises NotExtreme at whichever step fails; for channels that are not
    C*-extreme this is the expected outcome, not an error condition.
    """
    return _extract_canonical(ch, _checked_range_basis(ch, tol), tol)


def _checked_range_basis(ch: Channel, tol: Tolerance) -> np.ndarray:
    """The range basis, after the extraction preconditions."""
    verdict = eb_verdict(ch, tol)
    if not _is_unital(ch, tol):
        raise NotUnital("canonical extraction needs a unital channel")
    if verdict.is_eb == "no":
        raise NotEB("channel is certified not entanglement breaking")
    return _channel_range_basis(ch, tol)


def _extract_canonical(ch: Channel, basis: np.ndarray, tol: Tolerance) -> CanonicalEBForm:
    """``extract_canonical`` from the commutativity check on, on ``basis``."""
    _check_commutative(basis, tol)
    images = _sym(_apply_stack(ch, np.array(hermitian_basis(ch.d1))))
    eigenspaces = _joint_eigenspaces(images, SeededRng(_EXTRACTION_SEED).generator, tol)
    vs = np.concatenate(eigenspaces, axis=1).T  # joint eigenvectors as rows
    densities = _sym(_apply_stack(adjoint(ch), vs[:, :, None] * vs.conj()[:, None, :]))
    vals, vecs = np.linalg.eigh(densities)
    ranks = _rank_count(np.abs(vals[:, ::-1]), tol)
    if np.any(ranks != 1):
        raise NotExtreme("an induced state is not pure (rank > 1)")
    # each state u is the top eigenvector, phase-fixed as herm_eig fixes it
    states = _fix_phases(vecs[:, :, -1].T.copy()).T

    groups: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for u, v in zip(states, vs):
        for gu, members in groups:
            if _same_state(gu, u, tol):
                members.append(v)
                break
        else:
            groups.append((u, [v]))
    blocks = tuple(
        (gu, sum(np.outer(v, v.conj()) for v in members))
        for gu, members in groups
    )
    form = CanonicalEBForm(ch.d1, ch.d2, blocks)
    dev = _choi_deviation(ch, reconstruct(form))
    if dev > 10 * tol.eq_abs:
        raise NotExtreme(f"canonical form does not reproduce the channel (dev {dev:.3e})")
    return form


def _check_form_invariants(form: CanonicalEBForm, tol: Tolerance) -> None:
    for u, p in form.blocks:
        if abs(np.linalg.norm(u) - 1.0) > 10 * tol.eq_abs:
            raise StructureViolation("block state is not a unit vector")
        if max_abs(p - p.conj().T) > 10 * tol.eq_abs:
            raise StructureViolation("block projection is not hermitian")
        if max_abs(p @ p - p) > 100 * tol.eq_abs:
            raise StructureViolation("block projection is not idempotent")
    for i in range(form.n_blocks):
        for j in range(i + 1, form.n_blocks):
            if _same_state(form.states[i], form.states[j], tol):
                raise StructureViolation("two blocks carry the same pure state")
            if max_abs(form.projections[i] @ form.projections[j]) > 100 * tol.eq_abs:
                raise StructureViolation("block projections are not orthogonal")
    total = sum(form.projections)
    if max_abs(total - np.eye(form.d2)) > 100 * tol.eq_abs:
        raise StructureViolation("block projections do not sum to the identity")


def reconstruct(form: CanonicalEBForm, label: str | None = None) -> Channel:
    """The channel sum_i <u_i, . u_i> P_i as a certified Holevo ensemble."""
    terms = tuple((np.outer(u, u.conj()), p.astype(complex)) for u, p in form.blocks)
    return Channel(
        form.d1,
        form.d2,
        HolevoEnsemble(form.d1, form.d2, terms),
        label=label,
    )


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
    ``tol`` is never read: states count as distinct by the fixed
    ``DISTINCT_STATE_MARGIN``. The parameter stays for signature
    compatibility.
    """
    _check_dims(d1, d2)
    if n_blocks is None:
        n_blocks = d2
    if not (1 <= n_blocks <= d2):
        raise ValueError(f"n_blocks must lie in [1, {d2}], got {n_blocks}")
    frame = rng.unitary(d2)
    groups = np.array_split(np.arange(d2), n_blocks)
    projections = [_sym(frame[:, g] @ frame[:, g].conj().T) for g in groups]
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
    return reconstruct(
        CanonicalEBForm(d1, d2, tuple(zip(states, projections))),
        label=f"random-cstar-extreme(d1={d1}, d2={d2}, blocks={n_blocks})",
    )


# ---------------------------------------------------------------------------
# extremality decision and structure flags
# ---------------------------------------------------------------------------


def is_cstar_extreme(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> ExtremalityReport:
    """Decide C*-extremality of a unital EB channel.

    The primary criterion is Choi rank equal to d2; canonical extraction is
    run as an independent cross-check and must agree (success exactly when
    the rank criterion holds), otherwise InternalInconsistency is raised.
    The preconditions come first, checked once as ``extract_canonical``
    checks them: NotCP, NotUnital, NotEB.

    One range basis per call serves the extraction's commutativity check
    and, only when extraction fails, the commutant (``_commutant_report``).
    Irreducibility is read off a successful extraction: the range then lies
    in the span of the orthogonal projections P_i, of ranks r_i, so its
    commutant contains the block algebra of the M_{r_i}, of dimension
    sum r_i^2 >= d2, and is the scalars exactly when d2 == 1.
    """
    basis = _checked_range_basis(ch, tol)
    form: CanonicalEBForm | None
    try:
        form = _extract_canonical(ch, basis, tol)
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
    if form is not None:
        cq_flag = cq_remark_flags(form, tol).all_overlaps_nonzero
        irreducible = ch.d2 == 1
    else:
        cq_flag = None
        irreducible = _commutant_report(basis, tol).is_irreducible
    return ExtremalityReport(
        choi_rank=choi_rank,
        is_cstar_extreme=rank_extreme,
        canonical=form,
        is_cq_linear_extreme_in_ucp=cq_flag,
        is_irreducible=irreducible,
    )


def cq_remark_flags(form: CanonicalEBForm, tol: Tolerance = DEFAULT_TOL) -> CqFlags:
    """Overlap test on the rank-one refinement of a canonical form.

    Refining each block projection into rank-one pieces gives the channel as
    sum_j <u_j, X u_j> |v_j><v_j| over an orthonormal basis {v_j}. The
    channel is additionally an extreme point of the unital CP maps in the
    linear sense exactly when every pairwise overlap <u_j, u_k> is nonzero.
    The minimum runs over pairs of block states (a block's pieces overlap 1).
    """
    states = form.states
    min_overlap = min(
        (abs(np.vdot(u, v)) for i, u in enumerate(states) for v in states[i + 1:]),
        default=1.0,
    )
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
    try:
        return eb_verdict(choi_channel(diff, big.d1, big.d2), tol)
    except NotCP:
        # not CP, so certainly not EB (and in particular not PPT)
        return _NOT_EB


# ---------------------------------------------------------------------------
# derivatives of dominated channels
# ---------------------------------------------------------------------------


def _dominated_barycenter(
    canonical: CanonicalEBForm, psi: Channel, tol: Tolerance
) -> tuple[Channel, np.ndarray]:
    """Check the form, the dims, then domination of psi; return Phi and Psi(I)."""
    _check_form_invariants(canonical, tol)
    if (psi.d1, psi.d2) != (canonical.d1, canonical.d2):
        raise DimensionMismatch("dominated channel dimensions do not match the form")
    phi = reconstruct(canonical)
    if not dominates_cp(phi, psi, tol):
        raise PreconditionDomination(
            "the canonical channel does not dominate psi in the CP order"
        )
    return phi, _sym(apply(psi, np.eye(canonical.d1)))


def _positive_contraction_eig(
    m: np.ndarray, subject: str, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """``herm_eig(m)``, after checking its spectrum is in [0, 1] up to the psd floor."""
    vals, vecs = herm_eig(m, tol)
    floor = tol.psd_floor * max(1.0, float(np.max(np.abs(vals))))
    if vals[-1] < -floor or vals[0] > 1.0 + floor:
        raise VerificationFailed(
            f"{subject} is not a positive contraction "
            f"(eigenvalues in [{vals[-1]:.3e}, {vals[0]:.3e}])"
        )
    return vals, vecs


def rn_derivative(
    canonical: CanonicalEBForm, psi: Channel, tol: Tolerance = DEFAULT_TOL
) -> RNDerivative:
    """The operator R with Psi = Phi(.) R for Psi dominated by canonical Phi.

    For a canonical Phi, any CP map Psi it dominates has the form
    Psi(X) = sum_i <u_i, X u_i> R_i with R_i = P_i R P_i and R = Psi(I) a
    positive contraction commuting with the range of Phi. Verified in this
    order: psi is CP (NotCP); the form's invariants (StructureViolation);
    the dims (DimensionMismatch); Phi dominates psi (PreconditionDomination);
    R is a positive contraction; R commutes with every P_i, which also rules
    out cross terms, since P_i R P_j = P_i [R, P_j] for i != j; and
    Psi = Phi(.) R entrywise on the Choi matrix. The last three raise
    VerificationFailed; the contraction check allows the psd floor, the
    other two ``100 * tol.eq_abs``.
    """
    if not predicates(psi, tol).is_cp:
        raise NotCP("dominated map must be completely positive")
    phi, r = _dominated_barycenter(canonical, psi, tol)
    _positive_contraction_eig(r, "barycenter Psi(I)", tol)

    for p in canonical.projections:
        if max_abs(r @ p - p @ r) > 100 * tol.eq_abs:
            raise VerificationFailed("Psi(I) does not commute with the range of Phi")

    residual = _choi_deviation(psi, phi, right=r)
    if residual > 100 * tol.eq_abs:
        raise VerificationFailed(
            f"Psi does not factor as Phi(.) R (residual {residual:.3e})"
        )
    per_block = tuple(p @ r @ p for p in canonical.projections)
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
    Checked here: the vectors, and that R = <x, x><y, y> R_unit is a
    contraction. ``rn_derivative`` on the map of the unit vectors checks the
    rest, with tolerances relative to |x| and |y|; j is its nonzero piece.
    """
    xv = np.asarray(x, dtype=complex).reshape(-1)
    yv = np.asarray(y, dtype=complex).reshape(-1)
    if xv.shape != (canonical.d1,) or yv.shape != (canonical.d2,):
        raise DimensionMismatch("vector dimensions do not match the canonical form")
    x_norm, y_norm = np.linalg.norm(xv), np.linalg.norm(yv)
    if x_norm < tol.eq_abs or y_norm < tol.eq_abs:
        raise ValueError("x and y must be nonzero")
    xv, yv, scale = xv / x_norm, yv / y_norm, float(x_norm * y_norm) ** 2
    refused = "the rank-one map is not dominated by the canonical channel"
    if scale > 1.0 + tol.psd_floor * scale:  # R_unit has norm 1
        raise NotDominated(refused)
    unit_map = holevo_channel([(np.outer(xv, xv.conj()), np.outer(yv, yv.conj()))])
    try:
        deriv = rn_derivative(canonical, unit_map, tol)
    except PreconditionDomination as exc:
        raise NotDominated(refused) from exc
    j = int(np.argmax([max_abs(piece) for piece in deriv.per_block]))
    return LocatedPiece(block_index=j, R=scale * deriv.R)


def arveson_derivative(
    phi: Channel, psi: Channel, tol: Tolerance = DEFAULT_TOL
) -> ArvesonDerivative:
    """Coefficient matrix of a CP domination in the frame of phi's Kraus set.

    Writing phi with Kraus operators V_1..V_n, any dominated Psi is
    Psi(X) = sum_ij T_ij V_i^* X V_j for a positive contraction T. T is
    recovered by unregularized least squares on the Choi identity
    C_Psi = W T W^* (W the frame matrix), then symmetrized; the identity must
    hold to ``10 * tol.eq_abs * (1 + max_abs(C_Psi))``, eigenvalues are
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
    if residual > 10 * tol.eq_abs * (1.0 + max_abs(c_psi)):
        raise VerificationFailed(
            f"Psi is not expressible in phi's Kraus frame (residual {residual:.3e}); "
            "its Kraus span may exceed phi's"
        )
    vals, vecs = _positive_contraction_eig(t, "coefficient matrix", tol)
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
    phi, barycenter = _dominated_barycenter(canonical, psi, tol)
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
            if _same_state(ua, ub, tol) and ranks_a[i] == ranks_b[j]:
                found = j
                break
        if found is None:
            return EquivalenceCheck(equivalent=False, witness_unitary=None)
        used.add(found)
        matched.append((i, found))
    u = np.zeros((a.d2, a.d2), dtype=complex)
    for i, j in matched:
        # the leading eigenvectors of a projection span its range
        qa = herm_eig(a.projections[i], tol)[1][:, :ranks_a[i]]
        qb = herm_eig(b.projections[j], tol)[1][:, :ranks_b[j]]
        u += qa @ qb.conj().T
    dev = _choi_deviation(reconstruct(b), reconstruct(a), u.conj().T, u)
    if dev > 100 * tol.eq_abs:
        return EquivalenceCheck(equivalent=False, witness_unitary=None)
    return EquivalenceCheck(equivalent=True, witness_unitary=u)
