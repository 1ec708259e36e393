"""Tolerance-aware dense linear algebra primitives.

Thin wrappers around ``numpy.linalg`` that pin down the conventions the rest
of the toolkit relies on: descending eigenvalue order, deterministic
eigenvector phases, explicit rank cutoffs, and hermiticity/positivity checks
that fail loudly instead of silently proceeding on bad input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "max_abs",
    "herm_eig",
    "svd_rank",
    "is_psd",
    "psd_sqrt",
    "pinv",
    "nullspace",
]

_TOL_FIELDS = ("rank_rel", "psd_floor", "eq_abs")


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the toolkit.

    rank_rel: relative singular-value cutoff for rank decisions.
    psd_floor: relative slack allowed below zero in positivity checks.
    eq_abs: absolute entrywise threshold for equality of matrices.
    """

    rank_rel: float = 1e-9
    psd_floor: float = 1e-9
    eq_abs: float = 1e-9

    def __post_init__(self) -> None:
        for name in _TOL_FIELDS:
            value = getattr(self, name)
            if not (0.0 < value <= 1e-3):
                raise ValueError(
                    f"Tolerance.{name} must lie in (0, 1e-3], got {value!r}"
                )


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite complex 2-d array (copies only when needed)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def max_abs(m) -> float:
    """Largest entry magnitude; the entrywise norm used for equality checks."""
    a = np.asarray(m)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def _sym(m: np.ndarray) -> np.ndarray:
    """The hermitian part of a matrix, or of each matrix of a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _require_hermitian(m: np.ndarray, tol: Tolerance) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise NotHermitian(f"matrix of shape {m.shape} is not square")
    dev = max_abs(m - m.conj().T)
    if dev > tol.eq_abs:
        raise NotHermitian(
            f"matrix deviates from hermitian by {dev:.3e} (eq_abs={tol.eq_abs:.1e})"
        )
    # symmetrize only after the check passes, so genuine asymmetry is an error
    return _sym(m)


def herm_eig(m, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix.

    Returns (values, vectors) with real eigenvalues in descending order and
    eigenvectors as columns. Each eigenvector's phase is fixed by making its
    first component of non-negligible magnitude real and positive, so repeat
    calls on identical input are bit-identical.
    """
    h = _require_hermitian(as_matrix(m), tol)
    vals, vecs = np.linalg.eigh(h)
    return vals[::-1].copy(), _fix_phases(vecs[:, ::-1].copy())


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """``herm_eig``'s phase convention, applied in place to the columns."""
    if not vecs.size:
        return vecs
    mask = np.abs(vecs) > 1e-12
    cols = np.flatnonzero(mask.any(axis=0))
    pivots = vecs[mask.argmax(axis=0)[cols], cols]
    # scalar division per pivot: the ufunc rounds differently in the last bit
    vecs[:, cols] *= np.array([abs(p) / p for p in pivots], dtype=complex)
    return vecs


def svd_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: number of singular values above rank_rel * sigma_max."""
    return int(_rank_count(np.linalg.svd(as_matrix(m), compute_uv=False), tol))


def _rank_count(sigma: np.ndarray, tol: Tolerance) -> int | np.ndarray:
    """How many of a descending spectrum's values exceed ``tol.rank_rel`` times
    its first; one count per row of a stack, 0 for an empty spectrum."""
    above = sigma > tol.rank_rel * sigma[..., :1]
    return np.count_nonzero(above, axis=-1 if above.ndim > 1 else None)  # no axis: numpy's fast path


def is_psd(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness up to a relative floor.

    True when the smallest eigenvalue is >= -psd_floor * max(|eigenvalues|, 1).
    Raises NotHermitian for input that is not hermitian within eq_abs.

    A Cholesky factorisation of h + tau I, with
    tau = psd_floor * max(1, max_i |h_ii|), certifies a "yes" first: for a
    hermitian h the largest |eigenvalue| is at least the largest |h_ii|, so
    tau never exceeds the floor above, and success proves the smallest
    eigenvalue exceeds -tau. When the factorisation fails the decision comes
    from the eigenvalues alone (no eigenvectors, no phase fix), so every
    "no" is read off the spectrum.
    """
    h = _require_hermitian(as_matrix(m), tol)
    tau = tol.psd_floor * max(1.0, float(np.abs(np.diagonal(h)).max(initial=0.0)))
    try:
        np.linalg.cholesky(h + tau * np.eye(len(h)))
        return True
    except np.linalg.LinAlgError:
        return bool(_psd_values(np.linalg.eigvalsh(h), tol))


def _psd_values(vals: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The is_psd decision from a hermitian matrix's eigenvalues, or one
    decision per matrix from the (n, d) eigenvalues of a stack."""
    scale = np.maximum(np.abs(vals).max(axis=-1, initial=0.0), 1.0)
    return vals.min(axis=-1, initial=0.0) >= -tol.psd_floor * scale


def psd_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a psd matrix.

    Eigenvalues within the psd floor below zero are clamped to zero before
    rooting; anything more negative raises NotPSD.
    """
    vals, vecs = herm_eig(m, tol)
    if not _psd_values(vals, tol):
        raise NotPSD("matrix has an eigenvalue below the psd floor")
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return _sym(root)


def pinv(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the toolkit's rank cutoff."""
    return np.linalg.pinv(as_matrix(m), rcond=tol.rank_rel)


def nullspace(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the (right) kernel, as columns.

    The kernel dimension is (columns - svd_rank), using the same singular
    value cutoff as svd_rank. Returns a (cols, dim) array; dim may be zero.
    """
    _, sigma, vh = np.linalg.svd(as_matrix(m), full_matrices=True)
    return vh[_rank_count(sigma, tol):].conj().T
