"""Linear maps between matrix algebras in Kraus, Choi and Holevo form.

A channel here is a linear map from d1 x d1 to d2 x d2 complex matrices,
held in one of three interchangeable representations:

* ``KrausSet``: operators ``V_i`` of shape (d1, d2) acting by conjugation,
  ``X -> sum_i V_i^* X V_i``. Note the operators multiply on the outside
  with the adjoint on the left, so each V_i maps column vectors of length
  d2 into length d1.
* ``ChoiMatrix``: the (d1*d2) x (d1*d2) block matrix whose (i, j) block of
  size d2 x d2 is the image of the matrix unit E_ij.
* ``HolevoEnsemble``: measure-and-prepare data, pairs ``(F_i, R_i)`` of a
  d1 x d1 effect and a d2 x d2 output operator, acting by
  ``X -> sum_i tr(X F_i) R_i``.

Conversions between representations are exact for completely positive maps
up to floating point, and ``apply`` agrees across representations of the
same map. A channel whose representation is a ``HolevoEnsemble``, or that
carries one in its ``certificate`` field, is certified entanglement
breaking by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotCP,
    NotHermitian,
    NotPSD,
    NotUnitalTP,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _psd_values,
    _sym,
    as_matrix,
    herm_eig,
    is_psd,
    max_abs,
)

__all__ = [
    "KrausSet",
    "ChoiMatrix",
    "HolevoEnsemble",
    "Channel",
    "StinespringTriple",
    "ChannelPredicates",
    "FixedPointCheck",
    "CommutantReport",
    "kraus_channel",
    "choi_channel",
    "holevo_channel",
    "channel_from_map",
    "identity_channel",
    "matrix_units",
    "hermitian_basis",
    "apply",
    "to_choi",
    "choi_to_kraus",
    "holevo_to_kraus",
    "adjoint",
    "predicates",
    "stinespring",
    "fixed_point_check",
    "commutant_dimension",
    "compose_ad",
]


# ---------------------------------------------------------------------------
# representation types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A nonempty family of d1 x d2 operators acting as X -> sum V_i^* X V_i."""

    d1: int
    d2: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        _check_dims(self.d1, self.d2)
        if len(self.operators) == 0:
            raise ValueError("KrausSet requires at least one operator")
        for op in self.operators:
            if op.shape != (self.d1, self.d2):
                raise DimensionMismatch(
                    f"Kraus operator of shape {op.shape}, expected {(self.d1, self.d2)}"
                )


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Block matrix [Phi(E_ij)]_{ij}; shape (d1*d2, d1*d2)."""

    d1: int
    d2: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_dims(self.d1, self.d2)
        n = self.d1 * self.d2
        if self.matrix.shape != (n, n):
            raise DimensionMismatch(
                f"Choi matrix of shape {self.matrix.shape}, expected {(n, n)}"
            )


@dataclass(frozen=True, eq=False)
class HolevoEnsemble:
    """Pairs (F_i, R_i) acting as X -> sum_i tr(X F_i) R_i."""

    d1: int
    d2: int
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        _check_dims(self.d1, self.d2)
        if len(self.terms) == 0:
            raise ValueError("HolevoEnsemble requires at least one term")
        for f, r in self.terms:
            if f.shape != (self.d1, self.d1):
                raise DimensionMismatch(
                    f"Holevo effect of shape {f.shape}, expected {(self.d1, self.d1)}"
                )
            if r.shape != (self.d2, self.d2):
                raise DimensionMismatch(
                    f"Holevo output of shape {r.shape}, expected {(self.d2, self.d2)}"
                )


Representation = Union[KrausSet, ChoiMatrix, HolevoEnsemble]


@dataclass(frozen=True, eq=False)
class Channel:
    """A linear map M_d1 -> M_d2 with one concrete representation.

    ``certificate`` optionally carries a Holevo ensemble realizing the same
    map, which certifies the channel entanglement breaking even when the
    working representation is Kraus or Choi.
    """

    d1: int
    d2: int
    representation: Representation
    label: str | None = None
    certificate: HolevoEnsemble | None = None

    def __post_init__(self) -> None:
        rep = self.representation
        if (rep.d1, rep.d2) != (self.d1, self.d2):
            raise DimensionMismatch(
                f"representation dims {(rep.d1, rep.d2)} do not match channel "
                f"dims {(self.d1, self.d2)}"
            )
        cert = self.certificate
        if cert is not None and (cert.d1, cert.d2) != (self.d1, self.d2):
            raise DimensionMismatch("certificate dims do not match channel dims")

    @property
    def holevo_certificate(self) -> HolevoEnsemble | None:
        if isinstance(self.representation, HolevoEnsemble):
            return self.representation
        return self.certificate


@dataclass(frozen=True, eq=False)
class StinespringTriple:
    """Dilation data: Phi(X) = isometry^* (X tensor I_r) isometry.

    ``isometry`` has shape (d1*dilation_dim, d2); row index is (a, i) with a
    the system index and i the dilation index, matching numpy's kron order.
    The dilation dimension equals the number of Kraus operators used; no
    minimality is claimed or enforced.
    """

    d1: int
    d2: int
    dilation_dim: int
    isometry: np.ndarray


@dataclass(frozen=True)
class ChannelPredicates:
    is_cp: bool
    is_unital: bool
    is_tp: bool
    is_hermiticity_preserving: bool


@dataclass(frozen=True)
class FixedPointCheck:
    is_fixed: bool
    commutes_with_all_kraus: bool


@dataclass(frozen=True)
class CommutantReport:
    dim: int
    is_irreducible: bool


# ---------------------------------------------------------------------------
# constructors and small helpers
# ---------------------------------------------------------------------------


def _check_dims(d1: int, d2: int) -> None:
    if not (isinstance(d1, int) and isinstance(d2, int) and d1 >= 1 and d2 >= 1):
        raise DimensionMismatch(f"dimensions must be positive integers, got {d1!r}, {d2!r}")


def kraus_channel(
    operators,
    label: str | None = None,
    certificate: HolevoEnsemble | None = None,
) -> Channel:
    ops = tuple(as_matrix(op) for op in operators)
    if not ops:
        raise ValueError("need at least one Kraus operator")
    d1, d2 = ops[0].shape
    return Channel(d1, d2, KrausSet(d1, d2, ops), label=label, certificate=certificate)


def choi_channel(
    matrix,
    d1: int,
    d2: int,
    label: str | None = None,
    certificate: HolevoEnsemble | None = None,
) -> Channel:
    m = as_matrix(matrix)
    return Channel(d1, d2, ChoiMatrix(d1, d2, m), label=label, certificate=certificate)


def holevo_channel(terms, label: str | None = None) -> Channel:
    clean = tuple((as_matrix(f), as_matrix(r)) for f, r in terms)
    if not clean:
        raise ValueError("need at least one Holevo term")
    d1 = clean[0][0].shape[0]
    d2 = clean[0][1].shape[0]
    return Channel(d1, d2, HolevoEnsemble(d1, d2, clean), label=label)


def matrix_units(d: int) -> list[np.ndarray]:
    """All d*d matrix units E_ij in row-major order."""
    units = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return units


def hermitian_basis(d: int) -> list[np.ndarray]:
    """An orthonormal hermitian basis of M_d (Hilbert-Schmidt inner product)."""
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[i, j] = s[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[i, j] = 1j / np.sqrt(2.0)
            a[j, i] = -1j / np.sqrt(2.0)
            basis.append(a)
    return basis


def channel_from_map(
    fn: Callable[[np.ndarray], np.ndarray],
    d1: int,
    d2: int,
    label: str | None = None,
) -> Channel:
    """Build a Choi-represented channel from a matrix-to-matrix callable."""
    _check_dims(d1, d2)
    n = d1 * d2
    choi = np.zeros((n, n), dtype=complex)
    blocks = choi.reshape(d1, d2, d1, d2)
    for i in range(d1):
        for j in range(d1):
            e = np.zeros((d1, d1), dtype=complex)
            e[i, j] = 1.0
            image = as_matrix(fn(e))
            if image.shape != (d2, d2):
                raise DimensionMismatch(
                    f"map produced shape {image.shape}, expected {(d2, d2)}"
                )
            blocks[i, :, j, :] = image
    return Channel(d1, d2, ChoiMatrix(d1, d2, choi), label=label)


def identity_channel(d: int) -> Channel:
    return kraus_channel([np.eye(d, dtype=complex)], label=f"identity-m{d}")


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def apply(ch: Channel, x) -> np.ndarray:
    """Apply the channel to a d1 x d1 matrix: ``_apply_stack`` on a stack of one.

    Raises DimensionMismatch for a wrong shape and ValueError for a
    non-finite entry.
    """
    xm = as_matrix(x)
    if xm.shape != (ch.d1, ch.d1):
        raise DimensionMismatch(
            f"input of shape {xm.shape}, channel expects {(ch.d1, ch.d1)}"
        )
    return _apply_stack(ch, xm[None])[0]


def _apply_stack(ch: Channel, xs: np.ndarray) -> np.ndarray:
    """Apply the channel to each matrix of an (n, d1, d1) stack at once.

    The one implementation per representation: Kraus sums V^* X V over the
    operators, Holevo sums tr(X F) R over the terms, in their stored order,
    and Choi contracts X with the blocks. Entry for entry the products and
    sums are those of one matrix at a time, so ``out[k]`` equals
    ``apply(ch, xs[k])`` bit for bit. The input is not validated.
    """
    rep = ch.representation
    if isinstance(rep, ChoiMatrix):
        blocks = rep.matrix.reshape(ch.d1, ch.d2, ch.d1, ch.d2)
        return np.einsum("nij,ikjl->nkl", xs, blocks)
    out = np.zeros((len(xs), ch.d2, ch.d2), dtype=complex)
    if isinstance(rep, KrausSet):
        for op in rep.operators:
            out += op.conj().T @ xs @ op
    else:
        for f, r in rep.terms:
            out += np.trace(xs @ f, axis1=1, axis2=2)[:, None, None] * r
    return out


def to_choi(ch: Channel) -> ChoiMatrix:
    """The block matrix of matrix-unit images, in this toolkit's convention."""
    rep = ch.representation
    if isinstance(rep, ChoiMatrix):
        return rep
    if isinstance(rep, KrausSet):
        # stack row-major flattenings; each operator contributes the rank-one
        # block pattern conj(w) w^T, summed via a single gram product
        w = np.stack([op.reshape(-1) for op in rep.operators])
        return ChoiMatrix(ch.d1, ch.d2, w.conj().T @ w)
    # sum_t kron(F_t^T, R_t): block (i, j) is sum_t F_t[j, i] R_t
    effects = np.array([f for f, _ in rep.terms], dtype=complex)
    outputs = np.array([r for _, r in rep.terms], dtype=complex)
    n = ch.d1 * ch.d2
    choi = np.einsum("tji,tkl->ikjl", effects, outputs).reshape(n, n)
    return ChoiMatrix(ch.d1, ch.d2, choi)


def _choi_deviation(
    b: Channel, a: Channel, left: np.ndarray | None = None, right: np.ndarray | None = None
) -> float:
    """max_abs(C_b - (I (x) L) C_a (I (x) R)): the largest entry of
    Psi_b(E_ij) - L Phi_a(E_ij) R over all matrix units, since block (i, j)
    of a Choi matrix is the image of E_ij. L and R default to the identity."""
    d1, d2 = a.d1, a.d2
    images = to_choi(a).matrix.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3)
    if left is not None:
        images = left @ images
    if right is not None:
        images = images @ right
    return max_abs(to_choi(b).matrix - images.transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2))


def choi_to_kraus(c: ChoiMatrix, tol: Tolerance = DEFAULT_TOL) -> KrausSet:
    """Spectral Kraus extraction from a psd Choi matrix.

    Produces exactly svd_rank-many operators; the zero map is represented by
    a single zero operator. Raises NotCP when the Choi matrix fails the psd
    check (complete positivity and the existence of a Kraus form coincide).
    """
    try:
        vecs = _psd_rank_one_split(c.matrix, tol)
    except NotHermitian as exc:
        raise NotCP(f"Choi matrix is not hermitian: {exc}") from exc
    except NotPSD as exc:
        raise NotCP("Choi matrix has an eigenvalue below the psd floor") from exc
    if not vecs:
        return KrausSet(c.d1, c.d2, (np.zeros((c.d1, c.d2), dtype=complex),))
    # a scaled eigenvector w of the Choi matrix corresponds to the operator
    # with entries V[i, m] = conj(w[i*d2 + m]); this orientation is what
    # makes to_choi a left inverse (frozen by golden round-trip tests)
    return KrausSet(c.d1, c.d2, tuple(w.conj().reshape(c.d1, c.d2) for w in vecs))


def holevo_to_kraus(h: HolevoEnsemble, tol: Tolerance = DEFAULT_TOL) -> KrausSet:
    """Rank-one Kraus refinement of a Holevo ensemble.

    Each term is split spectrally, F = sum |x_k><x_k| and R = sum |y_l><y_l|
    with eigenvalue weights folded into the vectors, giving the rank-one
    operators |x_k><y_l|. Raises NotPSD if any effect or output fails the
    psd check. Zero terms are dropped; an all-zero ensemble yields the
    single zero operator.
    """
    ops: list[np.ndarray] = []
    for f, r in h.terms:
        xs = _psd_rank_one_split(f, tol)
        ys = _psd_rank_one_split(r, tol)
        for x in xs:
            for y in ys:
                ops.append(np.outer(x, y.conj()))
    if not ops:
        return KrausSet(h.d1, h.d2, (np.zeros((h.d1, h.d2), dtype=complex),))
    return KrausSet(h.d1, h.d2, tuple(ops))


def _psd_rank_one_split(m: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """Vectors v_k with m = sum |v_k><v_k|; empty for the zero matrix."""
    vals, vecs = herm_eig(m, tol)
    if not _psd_values(vals, tol):
        raise NotPSD("ensemble member has an eigenvalue below the psd floor")
    keep = _rank_one_keep(vals, tol)
    return [np.sqrt(v) * vecs[:, k] for k, v in enumerate(vals) if keep[k]]


def _rank_one_keep(vals: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Which eigenvalues of a psd matrix give a rank-one term: those above
    ``tol.rank_rel`` times the largest magnitude and above zero (none for
    the zero matrix). Decided along the last axis, so it takes a stack."""
    scale = np.abs(vals).max(axis=-1, keepdims=True)
    return (vals > tol.rank_rel * scale) & (vals > 0)


def _rank_one_count(h: HolevoEnsemble, tol: Tolerance) -> int:
    """``len(holevo_to_kraus(h, tol).operators)``, counted, not built.

    Term t refines into k(F_t) k(R_t) operators, where k counts the
    eigenvalues ``_rank_one_keep`` keeps; the effects and the outputs are
    each checked for hermiticity and diagonalized as one stack. If any
    member is non-finite, not hermitian or not psd, the refinement is built
    after all, so the first bad member in the order F_1, R_1, F_2, ...
    raises exactly what ``holevo_to_kraus`` raises.
    """
    effects = np.array([f for f, _ in h.terms], dtype=complex)
    outputs = np.array([r for _, r in h.terms], dtype=complex)
    if np.isfinite(effects).all() and np.isfinite(outputs).all():
        counts = []
        for stack in (effects, outputs):
            dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
            vals = np.linalg.eigh(_sym(stack))[0]
            if (dev > tol.eq_abs).any() or not _psd_values(vals, tol).all():
                break
            counts.append(np.count_nonzero(_rank_one_keep(vals, tol), axis=1))
        else:
            return max(int(counts[0] @ counts[1]), 1)
    return len(holevo_to_kraus(h, tol).operators)


def adjoint(ch: Channel) -> Channel:
    """The Hilbert-Schmidt adjoint, a channel from M_d2 to M_d1."""
    rep = ch.representation
    label = f"{ch.label}*" if ch.label else None
    if isinstance(rep, KrausSet):
        ops = tuple(op.conj().T for op in rep.operators)
        return Channel(ch.d2, ch.d1, KrausSet(ch.d2, ch.d1, ops), label=label)
    if isinstance(rep, HolevoEnsemble):
        terms = tuple((r, f) for f, r in rep.terms)
        return Channel(ch.d2, ch.d1, HolevoEnsemble(ch.d2, ch.d1, terms), label=label)
    blocks = rep.matrix.reshape(ch.d1, ch.d2, ch.d1, ch.d2)
    adj = blocks.transpose(1, 0, 3, 2).conj().reshape(ch.d2 * ch.d1, ch.d2 * ch.d1)
    return Channel(ch.d2, ch.d1, ChoiMatrix(ch.d2, ch.d1, adj), label=label)


def _is_unital(ch: Channel, tol: Tolerance) -> bool:
    """Phi(I) = I within eq_abs; for callers that need no other predicate."""
    return max_abs(apply(ch, np.eye(ch.d1)) - np.eye(ch.d2)) <= tol.eq_abs


def predicates(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> ChannelPredicates:
    """Complete positivity, unitality, trace preservation, hermiticity preservation."""
    choi = to_choi(ch).matrix
    hp = max_abs(choi - choi.conj().T) <= tol.eq_abs
    cp = bool(hp and is_psd(choi, tol))
    unital = _is_unital(ch, tol)
    blocks = choi.reshape(ch.d1, ch.d2, ch.d1, ch.d2)
    block_traces = np.einsum("ikjk->ij", blocks)
    tp = max_abs(block_traces - np.eye(ch.d1)) <= tol.eq_abs
    return ChannelPredicates(
        is_cp=cp,
        is_unital=bool(unital),
        is_tp=bool(tp),
        is_hermiticity_preserving=bool(hp),
    )


def _kraus_ops(ch: Channel, tol: Tolerance) -> tuple[np.ndarray, ...]:
    rep = ch.representation
    if isinstance(rep, KrausSet):
        return rep.operators
    return choi_to_kraus(to_choi(ch), tol).operators


def stinespring(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> StinespringTriple:
    """Dilation from a Kraus family: isometry z -> sum_i (V_i z) tensor e_i.

    The dilation dimension is the number of Kraus operators; before
    returning, the triple is verified against the channel's Choi blocks:
    block (a, b) of the dilation's Choi matrix is v^* (E_ab (x) I_r) v.
    """
    ops = _kraus_ops(ch, tol)
    r = len(ops)
    d1, d2 = ch.d1, ch.d2
    # rows[a, i] is row a of V_i, which is row (a, i) of v
    rows = np.stack(ops, axis=1).astype(complex)
    v = rows.reshape(d1 * r, d2)
    gram_dev = max_abs(v.conj().T @ v - apply(ch, np.eye(d1)))
    dilated = np.einsum("aik,bil->akbl", rows.conj(), rows).reshape(d1 * d2, d1 * d2)
    rep_dev = max_abs(dilated - to_choi(ch).matrix)
    if gram_dev > tol.eq_abs or rep_dev > tol.eq_abs:
        raise InternalInconsistency(
            f"Stinespring verification failed (gram dev {gram_dev:.3e}, "
            f"representation dev {rep_dev:.3e})"
        )
    return StinespringTriple(d1, d2, r, v)


def fixed_point_check(ch: Channel, a, tol: Tolerance = DEFAULT_TOL) -> FixedPointCheck:
    """For a unital trace-preserving channel, test Phi(a) = a two ways.

    Fixed points of a unital TP channel are exactly the matrices commuting
    with every Kraus operator, so the direct check and the commutation check
    must agree; disagreement raises InternalInconsistency.
    """
    if ch.d1 != ch.d2:
        raise NotUnitalTP("fixed-point analysis needs a square channel (d1 == d2)")
    p = predicates(ch, tol)
    if not (p.is_unital and p.is_tp):
        raise NotUnitalTP(
            f"channel must be unital and trace preserving (unital={p.is_unital}, "
            f"tp={p.is_tp})"
        )
    am = as_matrix(a)
    if am.shape != (ch.d1, ch.d1):
        raise DimensionMismatch(f"operand of shape {am.shape}, expected {(ch.d1, ch.d1)}")
    ops = _kraus_ops(ch, tol)
    is_fixed = max_abs(apply(ch, am) - am) <= tol.eq_abs
    commutes = all(max_abs(am @ op - op @ am) <= tol.eq_abs for op in ops)
    if is_fixed != commutes:
        raise InternalInconsistency(
            f"fixed-point check disagreement: is_fixed={is_fixed}, "
            f"commutes_with_all_kraus={commutes}"
        )
    return FixedPointCheck(is_fixed=bool(is_fixed), commutes_with_all_kraus=bool(commutes))


def _commutator_system(basis: np.ndarray) -> np.ndarray:
    """The stacked blocks I (x) B_k^T - B_k (x) I of an (r, d, d) stack.

    Written in place into one (r, d, d, d, d) array, whose entry
    (k, a, p, c, q) is I[a, c] B_k[q, p] - B_k[a, c] I[p, q]: every
    I (x) B_k^T in one broadcast product, then B_k (x) I subtracted one
    d-slab at a time. Each entry is formed by the same complex products and
    subtraction as in ``np.kron``, so the (r d^2, d^2) result equals the
    per-block kron stack bit for bit, signed zeros included.
    """
    r, d, _ = basis.shape
    eye = np.eye(d, dtype=complex)
    system = np.empty((r, d, d, d, d), dtype=complex)
    np.multiply(eye[:, None, :, None], basis.transpose(0, 2, 1)[:, None, :, None, :], out=system)
    for p in range(d):
        system[:, :, p] -= basis[:, :, :, None] * eye[p]
    return system.reshape(r * d * d, d * d)


def commutant_dimension(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> CommutantReport:
    """Dimension of the commutant of the channel's range.

    The images Phi(E_ij) of the matrix units are the Choi blocks; a thin SVD
    of their row-major flattenings gives a Hilbert-Schmidt orthonormal basis
    B_1..B_r of the range (r <= min(d1^2, d2^2)), keeping the right singular
    vectors above ``tol.rank_rel`` times the largest singular value. The
    commutant is then the kernel of the system A B_k = B_k A in vec(A): r
    blocks I (x) B_k^T - B_k (x) I instead of d1^2, filled in place into one
    preallocated array (``_commutator_system``) rather than built by a kron
    pair per block. Its dimension is d2^2 minus the system's numerical rank.
    That rank counts singular values above
    ``tol.rank_rel * max(sigma_max, 1)``: the floor at 1 is the scale of the
    unit-norm generators (each block has operator norm <= 2), so when the
    range is the scalars the system is rounding noise, has rank 0, and the
    dimension is d2^2. The range is irreducible exactly when only scalars
    commute with it.
    """
    d1, d2 = ch.d1, ch.d2
    blocks = to_choi(ch).matrix.reshape(d1, d2, d1, d2)
    images = blocks.transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    _, sigma, vh = np.linalg.svd(images, full_matrices=False)
    r = int(np.count_nonzero(sigma > tol.rank_rel * sigma[0]))
    rank = 0
    if r:
        system = _commutator_system(vh[:r].reshape(r, d2, d2))
        s = np.linalg.svd(system, compute_uv=False)
        rank = int(np.count_nonzero(s > tol.rank_rel * max(float(s[0]), 1.0)))
    dim = d2 * d2 - rank
    return CommutantReport(dim=dim, is_irreducible=(dim == 1))


def compose_ad(t, ch: Channel, label: str | None = None) -> Channel:
    """The map X -> t^* Phi(X) t, preserving representation structure.

    Kraus families compose as V_i -> V_i t, Holevo terms as
    (F_i, R_i) -> (F_i, t^* R_i t); an attached certificate is transformed
    the same way, so certified entanglement breaking survives composition.
    """
    tm = as_matrix(t)
    if tm.shape != (ch.d2, ch.d2):
        raise DimensionMismatch(
            f"conjugating operator of shape {tm.shape}, expected {(ch.d2, ch.d2)}"
        )
    rep = ch.representation
    if isinstance(rep, KrausSet):
        new_rep: Representation = KrausSet(
            ch.d1, ch.d2, tuple(op @ tm for op in rep.operators)
        )
    elif isinstance(rep, HolevoEnsemble):
        new_rep = HolevoEnsemble(
            ch.d1, ch.d2, tuple((f, tm.conj().T @ r @ tm) for f, r in rep.terms)
        )
    else:
        blocks = rep.matrix.reshape(ch.d1, ch.d2, ch.d1, ch.d2)
        new_blocks = np.einsum("ka,ikjl,lb->iajb", tm.conj(), blocks, tm)
        new_rep = ChoiMatrix(
            ch.d1, ch.d2, new_blocks.reshape(ch.d1 * ch.d2, ch.d1 * ch.d2)
        )
    cert = None
    if not isinstance(new_rep, HolevoEnsemble) and ch.holevo_certificate is not None:
        base = ch.holevo_certificate
        cert = HolevoEnsemble(
            ch.d1, ch.d2, tuple((f, tm.conj().T @ r @ tm) for f, r in base.terms)
        )
    return Channel(ch.d1, ch.d2, new_rep, label=label, certificate=cert)
