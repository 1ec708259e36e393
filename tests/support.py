"""Shared builders for the test suite.

Everything here is deterministic given a SeededRng, so tests can pin a
seed and stay reproducible across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from ebx import (
    DEFAULT_TOL,
    CanonicalEBForm,
    Channel,
    HolevoEnsemble,
    KrausSet,
    NotExtreme,
    SeededRng,
    adjoint,
    apply,
    herm_eig,
    hermitian_basis,
    kraus_channel,
    matrix_units,
    nullspace,
    svd_rank,
    to_choi,
)


def unit(d: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def random_invertible_contraction(rng: SeededRng, d: int,
                                  lo: float = 0.1, hi: float = 0.95) -> np.ndarray:
    """Positive definite matrix with spectrum in [lo, hi] (so 0 < R < I)."""
    q = rng.unitary(d)
    vals = lo + (hi - lo) * rng.generator.random(d)
    return (q * vals) @ q.conj().T


def random_canonical_form(rng: SeededRng, d1: int, d2: int,
                          block_sizes: list[int] | None = None) -> CanonicalEBForm:
    """Canonical form built directly from its definition.

    Projections come from a Haar unitary's column groups; states are
    redrawn until pairwise distinct so the form is genuinely canonical.
    """
    if block_sizes is None:
        block_sizes = [1] * d2
    if sum(block_sizes) != d2:
        raise ValueError("block sizes must partition d2")
    q = rng.unitary(d2)
    projections = []
    start = 0
    for size in block_sizes:
        cols = q[:, start:start + size]
        projections.append(cols @ cols.conj().T)
        start += size
    while True:
        states = [rng.unit_vector(d1) for _ in block_sizes]
        overlaps = [abs(np.vdot(states[a], states[b]))
                    for a in range(len(states)) for b in range(a)]
        if all(o < 0.99 for o in overlaps):
            break
    blocks = tuple((u, p) for u, p in zip(states, projections))
    return CanonicalEBForm(d1=d1, d2=d2, blocks=blocks)


def block_adapted_contraction(rng: SeededRng, form: CanonicalEBForm,
                              lo: float = 0.1, hi: float = 0.95) -> np.ndarray:
    """Invertible positive contraction commuting with every block projection."""
    r = np.zeros((form.d2, form.d2), dtype=np.complex128)
    for _, proj in form.blocks:
        rank = int(round(np.trace(proj).real))
        vals, vecs = herm_eig(proj)
        basis = vecs[:, :rank]
        piece = random_invertible_contraction(rng, rank, lo, hi)
        r += basis @ piece @ basis.conj().T
    return r


def mixed_unitary_channel(rng: SeededRng, d: int, n_terms: int,
                          planted_split: int | None = None):
    """Random mixed-unitary channel; always unital and trace preserving.

    With planted_split = k, every unitary is block diagonal in a common
    frame with block sizes (k, d - k), so the frame's block scalars give
    matrices commuting with all Kraus operators. Returns (channel, fixed)
    where fixed is such a planted fixed point (None when no split).
    """
    probs = rng.generator.random(n_terms) + 0.1
    probs /= probs.sum()
    frame = rng.unitary(d) if planted_split is not None else None
    ops = []
    for p in probs:
        if planted_split is None:
            u = rng.unitary(d)
        else:
            k = planted_split
            u = np.zeros((d, d), dtype=np.complex128)
            u[:k, :k] = rng.unitary(k)
            u[k:, k:] = rng.unitary(d - k)
            u = frame @ u @ frame.conj().T
        ops.append(np.sqrt(p) * u)
    ch = kraus_channel(ops, label="mixed-unitary")
    fixed = None
    if planted_split is not None:
        k = planted_split
        alpha, beta = 0.3, 1.7
        diag = np.diag(np.concatenate([np.full(k, alpha), np.full(d - k, beta)]))
        fixed = frame @ diag.astype(np.complex128) @ frame.conj().T
    return ch, fixed


def channel_distance(a: Channel, b: Channel) -> float:
    return float(np.max(np.abs(to_choi(a).matrix - to_choi(b).matrix)))


def reference_choi_deviation(b: Channel, a: Channel, left=None, right=None) -> float:
    """max over matrix units E of |Psi_b(E) - L Phi_a(E) R|, one apply per
    unit; the loop that ``ebx.channel._choi_deviation`` replaced."""
    eye = np.eye(a.d2, dtype=complex)
    left = eye if left is None else left
    right = eye if right is None else right
    return max(
        float(np.max(np.abs(apply(b, e) - left @ apply(a, e) @ right)))
        for e in matrix_units(a.d1)
    )


def reference_herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """``herm_eig`` with its phase fixed one column at a time.

    The library finds the pivots of all columns at once; the result must
    match this loop bit for bit, since the eigenvectors reach JSON output.
    """
    h = np.asarray(m, dtype=complex)
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[0]]
            vecs[:, j] = col * (abs(pivot) / pivot)
    return vals, vecs


def reference_commutant_dimension(ch: Channel) -> int:
    """The commutant dimension from the full stacked system.

    One Kronecker block I (x) B^T - B (x) I per matrix-unit image B, all
    d1^2 of them, and the kernel from ``nullspace``. Only a relative rank
    cutoff applies, so when the range is the scalars the system is pure
    rounding noise and the result is unreliable; compare elsewhere only.
    """
    eye = np.eye(ch.d2, dtype=complex)
    rows = []
    for e in matrix_units(ch.d1):
        b = apply(ch, e)
        rows.append(np.kron(eye, b.T) - np.kron(b, eye))
    return int(nullspace(np.vstack(rows)).shape[1])


def range_is_scalar(ch: Channel, tol: float = 1e-9) -> bool:
    """Every matrix-unit image is a multiple of the identity."""
    eye = np.eye(ch.d2)
    for e in matrix_units(ch.d1):
        b = apply(ch, e)
        scalar = np.trace(b) / ch.d2
        if np.max(np.abs(b - scalar * eye)) > tol * max(1.0, float(np.max(np.abs(b)))):
            return False
    return True


def reference_first_noncommuting(images, eq_abs: float = 1e-9):
    """The pairwise commutativity loop ``extract_canonical`` once ran.

    Returns (i, j, deviation) for the first pair in (i, j) order whose
    commutator exceeds eq_abs * max(1, max_abs(A_i) * max_abs(A_j)), or
    None when every pair commutes. The batched check must agree.
    """

    def size(m) -> float:
        return float(np.max(np.abs(m)))

    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            dev = size(images[i] @ images[j] - images[j] @ images[i])
            if dev > eq_abs * max(1.0, size(images[i]) * size(images[j])):
                return i, j, dev
    return None


def reference_commutator_system(basis) -> np.ndarray:
    """The stacked kron blocks I (x) B^T - B (x) I, one pair per B."""
    eye = np.eye(basis.shape[1], dtype=complex)
    return np.vstack([np.kron(eye, b.T) - np.kron(b, eye) for b in basis])


def reference_apply(ch: Channel, x) -> np.ndarray:
    """The channel applied to one matrix by the per-representation loop
    that ``ebx.channel._apply_stack`` replaced; the stacked version must
    match it bit for bit."""
    xm = np.asarray(x, dtype=complex)
    rep = ch.representation
    if isinstance(rep, KrausSet):
        out = np.zeros((ch.d2, ch.d2), dtype=complex)
        for op in rep.operators:
            out += op.conj().T @ xm @ op
        return out
    if isinstance(rep, HolevoEnsemble):
        out = np.zeros((ch.d2, ch.d2), dtype=complex)
        for f, r in rep.terms:
            out += np.trace(xm @ f) * r
        return out
    blocks = rep.matrix.reshape(ch.d1, ch.d2, ch.d1, ch.d2)
    return np.einsum("ij,ikjl->kl", xm, blocks)


def _sym(m):
    return (m + m.conj().T) / 2.0


def _reference_joint_eigenspaces(mats, gen, eq_abs):
    # the list-based joint diagonalisation, one matrix at a time
    d = mats[0].shape[0]
    if d == 1:
        return [np.eye(1, dtype=complex)]

    def size(m) -> float:
        return float(np.max(np.abs(m)))

    if all(
        size(m - (np.trace(m) / d) * np.eye(d)) <= eq_abs * max(1.0, size(m))
        for m in mats
    ):
        return [np.eye(d, dtype=complex)]
    for _attempt in range(8):
        coeffs = gen.standard_normal(len(mats))
        combo = _sym(sum(c * m for c, m in zip(coeffs, mats)))
        vals, vecs = np.linalg.eigh(combo)
        gap = 1e-7 * max(1.0, float(np.max(np.abs(vals))))
        edges = [0] + [k for k in range(1, d) if vals[k] - vals[k - 1] > gap] + [d]
        if len(edges) <= 2:
            continue
        out = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            q = vecs[:, lo:hi]
            if hi - lo == 1:
                out.append(q)
                continue
            restricted = [_sym(q.conj().T @ m @ q) for m in mats]
            out.extend(q @ sub for sub in _reference_joint_eigenspaces(restricted, gen, eq_abs))
        return out
    raise NotExtreme("generic combinations stayed degenerate")


def reference_extract_blocks(ch: Channel, tol=DEFAULT_TOL, seed: int = 1729):
    """The (state, projection) blocks of ``extract_canonical`` as the
    per-element loops computed them: one ``apply`` per hermitian-basis
    image, a list-based joint diagonalisation, and one pullback,
    ``svd_rank`` and ``herm_eig`` per joint eigenvector. The seed is the
    library's fixed extraction seed. The commutativity check and the final
    verification are left out; use this on channels that pass them."""
    images = [_sym(reference_apply(ch, h)) for h in hermitian_basis(ch.d1)]
    gen = SeededRng(seed).generator
    adj = adjoint(ch)
    pieces = []
    for q in _reference_joint_eigenspaces(images, gen, tol.eq_abs):
        for k in range(q.shape[1]):
            v = q[:, k]
            density = _sym(reference_apply(adj, np.outer(v, v.conj())))
            if svd_rank(density, tol) != 1:
                raise NotExtreme("an induced state is not pure (rank > 1)")
            if abs(np.trace(density) - 1.0) > tol.eq_abs:
                raise NotExtreme("an induced state is not normalized")
            _, vecs = herm_eig(density, tol)
            pieces.append((vecs[:, 0], v))
    groups = []
    for u, v in pieces:
        for gu, members in groups:
            if abs(np.vdot(gu, u)) >= 1.0 - 1e-9:
                members.append(v)
                break
        else:
            groups.append((u, [v]))
    return [(gu, sum(np.outer(v, v.conj()) for v in members)) for gu, members in groups]
