"""Deterministic random number generation for sampling channels and states.

All randomized operations in the toolkit take an explicit :class:`SeededRng`
rather than touching global state; the same seed always yields the same
stream. The generator object is advanced in place as it is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SeededRng"]

_MAX_SEED = 2**64


@dataclass
class SeededRng:
    """A PCG64 stream fixed by one 64-bit seed, with complex-matrix draws."""

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not (0 <= self.seed < _MAX_SEED):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def complex_normal(self, shape) -> np.ndarray:
        """Standard complex gaussian entries (unit total variance per entry)."""
        g = self._gen
        return (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)

    def unit_vector(self, d: int) -> np.ndarray:
        if d < 1:
            raise ValueError(f"a unit vector needs dimension at least 1, got {d!r}")
        while True:
            v = self.complex_normal((d,))
            norm = float(np.linalg.norm(v))
            if norm > 1e-6:
                return v / norm

    def hermitian(self, d: int) -> np.ndarray:
        g = self.complex_normal((d, d))
        return (g + g.conj().T) / 2.0

    def psd(self, d: int) -> np.ndarray:
        g = self.complex_normal((d, d))
        return g @ g.conj().T

    def unitary(self, d: int) -> np.ndarray:
        """Haar-distributed unitary via phase-fixed QR."""
        q, r = np.linalg.qr(self.complex_normal((d, d)))
        diag = np.diagonal(r).copy()
        diag = diag / np.abs(diag)
        return q * diag
