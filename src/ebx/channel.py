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
carries one in its ``certificate`` field, is taken as entanglement breaking:
the ensemble is trusted as given, and nothing checks that its terms are psd
or that a certificate realizes the map (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    _fix_phases,
    _psd_values,
    _rank_count,
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


Representation = KrausSet | ChoiMatrix | HolevoEnsemble  # typing.Union's cache pins old imports


@dataclass(frozen=True, eq=False)
class Channel:
    """A linear map M_d1 -> M_d2 with one concrete representation.

    ``certificate`` optionally carries a Holevo ensemble meant to realize the
    same map, which marks the channel entanglement breaking even when the
    working representation is Kraus or Choi. Only its dimensions are
    checked: the ensemble is trusted, not verified (ROADMAP item 1).
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
    # type(), not isinstance: bool is an int subclass, and True is no dimension
    if not (type(d1) is int and type(d2) is int and d1 >= 1 and d2 >= 1):
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
    for k, e in enumerate(matrix_units(d1)):
        image = as_matrix(fn(e))
        if image.shape != (d2, d2):
            raise DimensionMismatch(f"map produced shape {image.shape}, expected {(d2, d2)}")
        blocks[k // d1, :, k % d1, :] = image
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
        ((vals, vecs, keep),) = _psd_spectra([c.matrix], tol=tol)
    except NotHermitian as exc:
        raise NotCP(f"Choi matrix is not hermitian: {exc}") from exc
    except NotPSD as exc:
        raise NotCP("Choi matrix has an eigenvalue below the psd floor") from exc
    if not keep.any():
        return KrausSet(c.d1, c.d2, (np.zeros((c.d1, c.d2), dtype=complex),))
    ws = np.sqrt(vals[0, keep[0]]) * _fix_phases(vecs[0][:, keep[0]])
    # a scaled eigenvector w of the Choi matrix corresponds to the operator
    # with entries V[i, m] = conj(w[i*d2 + m]); this orientation is what
    # makes to_choi a left inverse (frozen by golden round-trip tests)
    return KrausSet(c.d1, c.d2, tuple(w.conj().reshape(c.d1, c.d2) for w in ws.T))


def holevo_to_kraus(h: HolevoEnsemble, tol: Tolerance = DEFAULT_TOL) -> KrausSet:
    """Rank-one Kraus refinement of a Holevo ensemble.

    Each term is split spectrally (``_rank_one_pieces``), F = sum mu |u><u|
    and R = sum nu |v><v| over the eigenvalues above ``tol.rank_rel`` times
    the member's largest and above zero, giving the rank-one operators
    sqrt(mu nu) |u><v|. The first member, in the order F_1, R_1, F_2, ...,
    that is not finite, hermitian or psd raises ValueError, NotHermitian or
    NotPSD. Zero terms are dropped; an all-zero ensemble yields the single
    zero operator.
    """
    ops = [
        np.outer(np.sqrt(mu) * u, (np.sqrt(nu) * v).conj())
        for mu, u, nu, v in _rank_one_pieces(h, tol)
    ]
    if not ops:
        return KrausSet(h.d1, h.d2, (np.zeros((h.d1, h.d2), dtype=complex),))
    return KrausSet(h.d1, h.d2, tuple(ops))


def _psd_spectra(*families, tol: Tolerance) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The spectra of psd matrices, one (values, vectors, keep) per family.

    Each family is a sequence of n square matrices of one size, decomposed
    as one (n, d, d) stack: values (n, d) and vectors (n, d, d) in
    ``herm_eig``'s descending order, phases not fixed, and keep (n, d)
    marking the eigenvalues above ``tol.rank_rel`` times the member's
    largest magnitude and above zero (none for a zero member). Members are
    checked in the order families[0][0], families[1][0], families[0][1], ...
    and the first that is non-finite, not hermitian or not psd raises what
    ``herm_eig`` or the psd check would raise on it alone.
    """
    spectra, good = [], []
    for family in families:
        stack = np.array(family, dtype=complex)
        finite = np.isfinite(stack).all(axis=(1, 2))
        stack = np.where(finite[:, None, None], stack, 0)
        dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
        vals, vecs = np.linalg.eigh(_sym(stack))
        vals, vecs = vals[:, ::-1], vecs[:, :, ::-1]
        good.append(finite & (dev <= tol.eq_abs) & _psd_values(vals, tol))
        scale = np.abs(vals).max(axis=1, keepdims=True)
        spectra.append((vals, vecs, (vals > tol.rank_rel * scale) & (vals > 0)))
    bad = ~np.stack(good, axis=1).ravel()
    if bad.any():
        k, f = divmod(int(bad.argmax()), len(families))
        herm_eig(families[f][k], tol)  # raises for a non-finite or non-hermitian member
        raise NotPSD("ensemble member has an eigenvalue below the psd floor")
    return spectra


def _rank_one_pieces(h: HolevoEnsemble, tol: Tolerance):
    """The kept eigenpairs (mu, u, nu, v) of each term's F and R
    (``_psd_spectra``), term by term, with the phases ``herm_eig`` fixes:
    term (F, R) refines into the products mu nu tr(X |u><u|) |v><v|."""
    (f_vals, f_vecs, f_keep), (r_vals, r_vecs, r_keep) = _psd_spectra(*zip(*h.terms), tol=tol)
    for t in range(len(h.terms)):
        us = _fix_phases(f_vecs[t][:, f_keep[t]])
        vs = _fix_phases(r_vecs[t][:, r_keep[t]])
        for mu, u in zip(f_vals[t, f_keep[t]], us.T):
            for nu, v in zip(r_vals[t, r_keep[t]], vs.T):
                yield mu, u, nu, v


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
    dilated = np.einsum("aik,bil->akbl", rows.conj(), rows).reshape(d1 * d2, d1 * d2)
    rep_dev = max_abs(dilated - to_choi(ch).matrix)
    if rep_dev > tol.eq_abs:
        raise InternalInconsistency(
            f"Stinespring verification failed (representation dev {rep_dev:.3e})"
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


def _channel_range_basis(ch: Channel, tol: Tolerance) -> np.ndarray:
    """A Hilbert-Schmidt orthonormal basis B_1..B_r of the channel's range,
    as an (r, d2, d2) stack.

    The images Phi(E_ij) of the matrix units are the Choi blocks; the basis
    is the right singular vectors of their row-major flattenings from one
    thin SVD, kept above ``tol.rank_rel`` times the largest singular value,
    so r <= min(d1^2, d2^2).
    """
    d1, d2 = ch.d1, ch.d2
    blocks = to_choi(ch).matrix.reshape(d1, d2, d1, d2)
    images = blocks.transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    _, sigma, vh = np.linalg.svd(images, full_matrices=False)
    r = int(_rank_count(sigma, tol))
    return vh[:r].reshape(r, d2, d2)


def commutant_dimension(ch: Channel, tol: Tolerance = DEFAULT_TOL) -> CommutantReport:
    """Dimension of the commutant of the channel's range: ``_commutant_report``
    on one range basis per call (``_channel_range_basis``), at the cost of one
    d2^2 x d2^2 ``eigh`` of a gram matrix G and one SVD on its near-kernel W."""
    return _commutant_report(_channel_range_basis(ch, tol), tol)


# the gram eigenvalues ``_commutant_report`` re-reads, relative to max(sigma_max, 1)^2
_GRAM_SPLIT = 1e-3


def _commutant_report(basis: np.ndarray, tol: Tolerance) -> CommutantReport:
    """The commutant of a range with orthonormal basis B_1..B_r, an (r, d2, d2)
    stack: the kernel of the system S of blocks I (x) B_k^T - B_k (x) I, which
    maps row-major vec(X) to vec(X B_k - B_k X). Its dimension is d2^2 minus
    the number of singular values of S above
    ``tol.rank_rel * max(sigma_max, 1)``: the floor at 1 is the scale of the
    unit-norm generators (each block has operator norm <= 2), so when the
    range is the scalars S is rounding noise, has rank 0, and the dimension
    is d2^2. The range is irreducible exactly when only scalars commute with
    it. ``is_cstar_extreme`` shares its range basis with the extraction and
    calls this only when canonical extraction fails.

    S is never formed. Its gram matrix G = S^* S = I (x) Q + P (x) I - K - K^*,
    with P = sum B_k^* B_k, Q = conj(sum B_k B_k^*) and
    K = sum B_k (x) conj(B_k), comes from one product of the flattened basis.
    Its eigenvalues, the squared singular values, cannot resolve the cutoff,
    so the singular values are read from S W instead: the commutators of the
    eigenvectors W with eigenvalue at most (_GRAM_SPLIT * max(sigma_max, 1))^2.
    The split decides nothing: every other direction has a singular value six
    orders above the cutoff and counts as rank. Nothing assumes the range
    closed under adjoints.
    """
    r, d2, _ = basis.shape
    n = d2 * d2
    flat = basis.reshape(r, n)
    # m[a, c, p, q] = sum_k B_k[a, c] conj(B_k[p, q]); P, Q conjugate its partial traces
    m = (flat.T @ flat.conj()).reshape(d2, d2, d2, d2)
    p = np.trace(m, axis1=0, axis2=2).conj()
    q = np.trace(m, axis1=1, axis2=3).conj()
    eye = np.eye(d2)
    kron_sum = eye[:, None, :, None] * q[:, None, :] + p[:, None, :, None] * eye[:, None, :]
    # K is m with axes (0, 2, 1, 3); G is the hermitian part of I (x) Q + P (x) I - 2 K
    lam, vecs = np.linalg.eigh(_sym((kron_sum - 2.0 * m.transpose(0, 2, 1, 3)).reshape(n, n)))
    scale = float(np.sqrt(max(lam[-1], 1.0)))
    xs = vecs[:, lam <= (_GRAM_SPLIT * scale) ** 2].T.reshape(-1, 1, d2, d2)
    s = np.linalg.svd((xs @ basis - basis @ xs).reshape(len(xs), -1), compute_uv=False)
    dim = len(xs) - int(np.count_nonzero(s > tol.rank_rel * scale))
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
    ens = ch.holevo_certificate
    if ens is not None:
        ens = HolevoEnsemble(
            ch.d1, ch.d2, tuple((f, tm.conj().T @ r @ tm) for f, r in ens.terms)
        )
    rep = ch.representation
    if isinstance(rep, HolevoEnsemble):
        return Channel(ch.d1, ch.d2, ens, label=label)
    if isinstance(rep, KrausSet):
        new_rep: Representation = KrausSet(
            ch.d1, ch.d2, tuple(op @ tm for op in rep.operators)
        )
    else:
        blocks = rep.matrix.reshape(ch.d1, ch.d2, ch.d1, ch.d2)
        new_blocks = np.einsum("ka,ikjl,lb->iajb", tm.conj(), blocks, tm)
        new_rep = ChoiMatrix(
            ch.d1, ch.d2, new_blocks.reshape(ch.d1 * ch.d2, ch.d1 * ch.d2)
        )
    return Channel(ch.d1, ch.d2, new_rep, label=label, certificate=ens)
