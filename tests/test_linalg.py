"""Contracts of the dense linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebx import (
    DEFAULT_TOL,
    NotHermitian,
    NotPSD,
    SeededRng,
    Tolerance,
    as_matrix,
    herm_eig,
    is_psd,
    max_abs,
    nullspace,
    pinv,
    psd_sqrt,
    svd_rank,
)

from ebx.linalg import _psd_values, _rank_count

from support import reference_herm_eig

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_tolerance_defaults():
    assert DEFAULT_TOL.rank_rel == 1e-9
    assert DEFAULT_TOL.psd_floor == 1e-9
    assert DEFAULT_TOL.eq_abs == 1e-9


@pytest.mark.parametrize("field", ["rank_rel", "psd_floor", "eq_abs"])
@pytest.mark.parametrize("bad", [0.0, -1e-9, 2e-3, 1.0])
def test_tolerance_rejects_out_of_range(field, bad):
    with pytest.raises(ValueError):
        Tolerance(**{field: bad})


def test_tolerance_accepts_boundary():
    Tolerance(rank_rel=1e-3, psd_floor=1e-3, eq_abs=1e-3)
    Tolerance(rank_rel=1e-15)


def test_as_matrix_rejects_non_2d_and_non_finite():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))
    # 1j * inf is (nan + inf j); complex(0, inf) leaves the real part finite
    for bad in (np.inf, np.nan, 1j * np.inf, complex(0, np.inf), complex(0, np.nan)):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_matrix([[bad, 0], [0, 1]])


def test_max_abs():
    assert max_abs(np.array([[1, -3j], [2, 0]])) == 3.0
    assert max_abs(np.zeros((0, 2))) == 0.0


def test_herm_eig_descending_and_reconstructs():
    m = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    vals, vecs = herm_eig(m)
    assert vals[0] >= vals[1]
    assert np.allclose(vals, [np.sqrt(5), -np.sqrt(5)])
    recon = (vecs * vals) @ vecs.conj().T
    assert max_abs(recon - m) <= 1e-12 * max_abs(m)


def test_herm_eig_phase_is_deterministic():
    rng = SeededRng(3)
    m = rng.hermitian(5)
    vals1, vecs1 = herm_eig(m)
    vals2, vecs2 = herm_eig(m.copy())
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)
    # phase convention: first non-negligible entry of each column is real > 0
    for j in range(5):
        col = vecs1[:, j]
        pivot = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(pivot.imag) <= 1e-14
        assert pivot.real > 0


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        herm_eig(np.zeros((2, 3)))


def _herm_eig_inputs():
    """Seeded hermitian, real diagonal (with repeats) and projection inputs,
    d = 1..9; projections put exact zeros and ties into the eigenvectors."""
    rng = SeededRng(2024)
    for d in range(1, 10):
        for k in range(60):
            yield rng.hermitian(d)
            yield np.diag(rng.generator.integers(-2, 3, d).astype(float))
            q = rng.unitary(d)[:, : 1 + k % d]
            yield q @ q.conj().T


def test_herm_eig_matches_per_column_reference_bit_for_bit():
    for m in _herm_eig_inputs():
        vals, vecs = herm_eig(m)
        ref_vals, ref_vecs = reference_herm_eig(m)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_herm_eig_reconstruction_property(seed):
    m = SeededRng(seed).hermitian(4)
    vals, vecs = herm_eig(m)
    assert np.all(np.diff(vals) <= 1e-12)
    assert max_abs((vecs * vals) @ vecs.conj().T - m) <= 1e-12 * max(1.0, max_abs(m))
    assert max_abs(vecs.conj().T @ vecs - np.eye(4)) <= 1e-12


def test_svd_rank_known_cases():
    assert svd_rank(np.zeros((3, 3))) == 0
    assert svd_rank(np.eye(3)) == 3
    assert svd_rank(np.array([[1, 2], [2, 4]], dtype=float)) == 1
    # rank decision is relative to the largest singular value
    assert svd_rank(np.diag([1.0, 1e-12])) == 1
    assert svd_rank(np.diag([1e-12, 1e-12 * (1 - 1e-12)])) == 2


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_svd_rank_of_product_bounded(seed):
    rng = SeededRng(seed)
    a = rng.complex_normal((4, 3))
    b = rng.complex_normal((3, 5))
    assert svd_rank(a @ b) <= min(svd_rank(a), svd_rank(b))


def _rank_stacks():
    """(n, rows, cols) stacks: every planted rank of each shape (rank 0 is a
    zero matrix), a graded spectrum across both cutoffs, and empty shapes."""
    rng = SeededRng(31)
    for rows, cols in ((3, 3), (4, 2), (2, 5), (1, 1)):
        yield np.array([
            rng.complex_normal((rows, k)) @ rng.complex_normal((k, cols))
            for k in range(min(rows, cols) + 1)
        ])
    yield np.diag(np.geomspace(1.0, 1e-12, 7)).astype(complex)[None]
    yield np.zeros((0, 3, 3), dtype=complex)
    yield np.zeros((3, 0, 0), dtype=complex)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(rank_rel=1e-4)])
def test_rank_count_equals_svd_rank_row_by_row(tol):
    for stack in _rank_stacks():
        sigma = np.linalg.svd(stack, compute_uv=False)
        counts = _rank_count(sigma, tol)
        assert counts.shape == (len(stack),)
        assert counts.tolist() == [svd_rank(m, tol) for m in stack]
        # the cutoff written out per row: rank_rel times the largest value
        assert counts.tolist() == [
            int(np.count_nonzero(s > tol.rank_rel * s.max())) if s.size else 0 for s in sigma
        ]


def test_rank_count_of_one_spectrum():
    assert _rank_count(np.array([2.0, 1.0, 1e-10, 0.0]), DEFAULT_TOL) == 2
    assert _rank_count(np.zeros(3), DEFAULT_TOL) == 0
    assert _rank_count(np.zeros(0), DEFAULT_TOL) == 0
    assert svd_rank(np.zeros((0, 0))) == 0
    assert nullspace(np.zeros((0, 2))).shape == (2, 2)


def test_is_psd():
    assert is_psd(np.eye(2))
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -1.0]))
    # relative floor: tiny negative eigenvalue on a large matrix passes
    assert is_psd(np.diag([1.0, -1e-10]))
    assert not is_psd(np.diag([1.0, -1e-6]))
    with pytest.raises(NotHermitian):
        is_psd(np.array([[0, 1], [0, 0]], dtype=float))


def _fourier(d: int) -> np.ndarray:
    """The unitary DFT matrix: q diag(s) q^* has every diagonal entry mean(s),
    so its largest |diagonal entry| is below its largest |eigenvalue|."""
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(psd_floor=1e-6)])
@pytest.mark.parametrize("top", [0.5, 1.0, 40.0])
@pytest.mark.parametrize("factor", [0.5, -0.5, 2.0, -2.0])
def test_is_psd_near_its_threshold(tol, top, factor):
    """Smallest eigenvalue at +-0.5x and +-2x the floor psd_floor * scale,
    in a random frame and in the Fourier frame: the check decides as the
    eigenvector-based one did."""
    rng = SeededRng(31)
    for d in (2, 3, 5, 8):
        scale = max(top, 1.0)
        spectrum = np.linspace(top, top / 4, d)
        spectrum[-1] = factor * tol.psd_floor * scale
        for q in (rng.unitary(d), _fourier(d)):
            m = (q * spectrum) @ q.conj().T
            ref_vals, _ = reference_herm_eig(m)
            expected = ref_vals[-1] >= -tol.psd_floor * max(np.max(np.abs(ref_vals)), 1.0)
            assert is_psd(m, tol) == expected == (factor > -1.0)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(psd_floor=1e-6)])
@pytest.mark.parametrize("factor", [-0.5, -2.0])
def test_is_psd_near_its_threshold_on_a_zero_diagonal(tol, factor):
    # a traceless spectrum in the Fourier frame: every h_ii is zero, so the
    # Cholesky shift is the floor at scale 1 while the eigenvalues are not
    for d in (2, 3, 5, 8):
        low = factor * tol.psd_floor
        spectrum = np.append(np.full(d - 1, -low / (d - 1)), low)
        q = _fourier(d)
        m = (q * spectrum) @ q.conj().T
        assert max_abs(np.diagonal(m)) < 1e-6 * abs(low)
        assert is_psd(m, tol) == (factor > -1.0)


def _psd_rule(m, tol=DEFAULT_TOL) -> bool:
    """The documented decision, read off the full spectrum."""
    return bool(_psd_values(np.linalg.eigvalsh((m + m.conj().T) / 2.0), tol))


def _psd_test_matrices(rng: SeededRng, d: int):
    """A psd, a rank-deficient psd (zero at d = 1) and an indefinite d x d matrix."""
    g = rng.complex_normal((d, d))
    half = g[:, : d // 2]
    spectrum = rng.generator.standard_normal(d)
    spectrum[-1] = -abs(spectrum[-1]) - 0.1
    q = rng.unitary(d)
    mats = (g @ g.conj().T, half @ half.conj().T, (q * spectrum) @ q.conj().T)
    return tuple((m + m.conj().T) / 2.0 for m in mats)


@pytest.mark.parametrize("d", range(1, 10))
def test_is_psd_matches_the_spectral_rule(d):
    rng = SeededRng(4100 + d)
    for _ in range(4):
        psd, deficient, indefinite = _psd_test_matrices(rng, d)
        for m in (psd, deficient, 1e6 * psd, 1e-6 * deficient, indefinite, 1e6 * indefinite):
            assert is_psd(m) == _psd_rule(m)
        assert is_psd(psd) and is_psd(deficient) and not is_psd(indefinite)


def test_is_psd_certifies_psd_input_without_eigenvalues(monkeypatch):
    rng = SeededRng(4200)
    inputs = [m for d in range(1, 10) for m in _psd_test_matrices(rng, d)[:2]]

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called on a psd input")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    assert all(is_psd(m) for m in inputs)


def test_is_psd_still_rejects_non_hermitian_input():
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    m[0, 2] = 1e-6
    with pytest.raises(NotHermitian):
        is_psd(m)
    with pytest.raises(NotHermitian):
        is_psd(np.zeros((2, 3)))


def test_psd_sqrt_squares_back_and_commutes():
    rng = SeededRng(7)
    m = rng.psd(4)
    root = psd_sqrt(m)
    assert max_abs(root - root.conj().T) <= 1e-12
    assert max_abs(root @ root - m) <= 1e-12 * max(1.0, max_abs(m))
    assert max_abs(root @ m - m @ root) <= 1e-10 * max(1.0, max_abs(m))


def test_psd_sqrt_clamps_floor_noise_but_rejects_genuine_negativity():
    root = psd_sqrt(np.diag([1.0, -1e-10]))
    assert is_psd(root @ root)
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1e-3]))


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_pinv_penrose_identities(seed):
    a = SeededRng(seed).complex_normal((4, 3))
    p = pinv(a)
    scale = max(1.0, max_abs(a))
    assert max_abs(a @ p @ a - a) <= 1e-10 * scale
    assert max_abs(p @ a @ p - p) <= 1e-10 * scale
    assert max_abs((a @ p).conj().T - a @ p) <= 1e-10
    assert max_abs((p @ a).conj().T - p @ a) <= 1e-10


def test_pinv_of_rank_deficient():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert max_abs(pinv(a) - a) <= 1e-14


def test_nullspace():
    a = np.array([[1.0, 1.0, 0.0]])
    n = nullspace(a)
    assert n.shape == (3, 2)
    assert max_abs(a @ n) <= 1e-12
    assert max_abs(n.conj().T @ n - np.eye(2)) <= 1e-12
    assert nullspace(np.eye(3)).shape == (3, 0)
    assert nullspace(np.zeros((2, 4))).shape == (4, 4)


@pytest.mark.parametrize(
    "fn, check",
    [
        (as_matrix, lambda r: r.shape == (0, 0)),
        (max_abs, lambda r: r == 0.0),
        (herm_eig, lambda r: r[0].shape == (0,) and r[1].shape == (0, 0)),
        (svd_rank, lambda r: r == 0),
        (is_psd, lambda r: r is True),
        (psd_sqrt, lambda r: r.shape == (0, 0)),
        (pinv, lambda r: r.shape == (0, 0)),
        (nullspace, lambda r: r.shape == (0, 0)),
    ],
    ids=["as_matrix", "max_abs", "herm_eig", "svd_rank", "is_psd", "psd_sqrt", "pinv", "nullspace"],
)
def test_public_functions_accept_the_empty_matrix(fn, check):
    assert check(fn(np.zeros((0, 0))))
