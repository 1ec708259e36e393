"""Determinism and distribution sanity for the seeded generator."""

import numpy as np
import pytest

from ebx import SeededRng
from ebx.linalg import max_abs


def test_same_seed_same_stream():
    a = SeededRng(42)
    b = SeededRng(42)
    assert np.array_equal(a.complex_normal((3, 3)), b.complex_normal((3, 3)))
    assert np.array_equal(a.unitary(4), b.unitary(4))
    assert np.array_equal(a.psd(3), b.psd(3))


def test_different_seeds_differ():
    a = SeededRng(1).complex_normal((4, 4))
    b = SeededRng(2).complex_normal((4, 4))
    assert max_abs(a - b) > 1e-3


def test_seed_validation():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(2**64)
    with pytest.raises(ValueError):
        SeededRng(1.5)
    SeededRng(0)
    SeededRng(2**64 - 1)


def test_unit_vector_normalized():
    v = SeededRng(5).unit_vector(6)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


@pytest.mark.parametrize("d", [0, -1])
def test_unit_vector_rejects_empty_dimension(d):
    # a zero-length draw has norm 0 and would be redrawn forever
    with pytest.raises(ValueError):
        SeededRng(5).unit_vector(d)


def test_hermitian_is_hermitian():
    m = SeededRng(5).hermitian(4)
    assert max_abs(m - m.conj().T) == 0.0


def test_psd_is_psd():
    m = SeededRng(5).psd(4)
    vals = np.linalg.eigvalsh(m)
    assert vals.min() >= -1e-12


def test_unitary_is_unitary():
    u = SeededRng(5).unitary(5)
    assert max_abs(u.conj().T @ u - np.eye(5)) <= 1e-12
    assert max_abs(u @ u.conj().T - np.eye(5)) <= 1e-12
