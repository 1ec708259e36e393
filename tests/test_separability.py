"""Entanglement-breaking verdicts, PPT tests, and random channel generators."""

import numpy as np
import pytest

from ebx import (
    DEFAULT_TOL,
    HolevoEnsemble,
    NotCP,
    NotEB,
    NotHermitian,
    NotPSD,
    PPT_CONCLUSIVE_LIMIT,
    SeededRng,
    apply,
    channel_from_map,
    choi_channel,
    compose_ad,
    eb_verdict,
    hermitian_basis,
    holevo_channel,
    holevo_to_kraus,
    identity_channel,
    is_ppt,
    kraus_channel,
    partial_transpose_choi,
    predicates,
    random_cstar_extreme,
    random_unital_eb,
    rank_bounds,
    to_choi,
)
from ebx.channel import _rank_one_count
from ebx.gallery import depolarizing_channel, diagonal_pinching_channel
from ebx.linalg import max_abs, svd_rank


def strip_certificate(ch):
    """Same map, Choi representation, no attached ensemble."""
    return choi_channel(to_choi(ch).matrix, ch.d1, ch.d2)


def test_ppt_conclusive_limit_value():
    assert PPT_CONCLUSIVE_LIMIT == 6


# --- partial transpose ---


def test_partial_transpose_is_involution():
    rng = SeededRng(20)
    m = rng.hermitian(6)
    pt = partial_transpose_choi(m, 2, 3)
    assert max_abs(partial_transpose_choi(pt, 2, 3) - m) == 0.0


def test_partial_transpose_of_product():
    rng = SeededRng(21)
    f, r = rng.psd(2), rng.psd(3)
    pt = partial_transpose_choi(np.kron(f, r), 2, 3)
    assert max_abs(pt - np.kron(f, r.T)) <= 1e-14


def test_identity_channel_fails_ppt():
    assert not is_ppt(identity_channel(2))


def test_pinching_passes_ppt():
    assert is_ppt(diagonal_pinching_channel())


# --- verdicts ---


def test_certified_channel_is_yes():
    ch = random_unital_eb(SeededRng(22), 3, 3, 4)
    v = eb_verdict(ch)
    assert v.is_eb == "yes" and v.conclusive and v.ppt
    assert v.certificate is not None
    # the certificate realizes the same map
    for b in hermitian_basis(3):
        expected = sum(np.trace(b @ f) * r for f, r in v.certificate.terms)
        assert max_abs(apply(ch, b) - expected) <= 1e-10


def test_small_dims_ppt_is_conclusive_yes():
    ch = strip_certificate(diagonal_pinching_channel())
    v = eb_verdict(ch)
    assert ch.d1 * ch.d2 <= PPT_CONCLUSIVE_LIMIT
    assert v.is_eb == "yes" and v.conclusive and v.ppt
    assert v.certificate is None


def test_ppt_failure_is_conclusive_no():
    v = eb_verdict(identity_channel(2))
    assert v.is_eb == "no" and v.conclusive and not v.ppt


def test_large_dims_without_certificate_is_unknown():
    ch = strip_certificate(random_unital_eb(SeededRng(23), 3, 3, 4))
    assert ch.d1 * ch.d2 > PPT_CONCLUSIVE_LIMIT
    v = eb_verdict(ch)
    assert v.is_eb == "unknown" and not v.conclusive and v.ppt


def test_zero_map_is_certified_yes():
    v = eb_verdict(kraus_channel([np.zeros((2, 2))]))
    assert v.is_eb == "yes" and v.conclusive
    assert v.certificate is not None
    # as Kraus and as Choi, the certificate is the single zero term
    zero = kraus_channel([np.zeros((2, 3))])
    for ch in (zero, strip_certificate(zero)):
        v = eb_verdict(ch)
        assert (v.is_eb, v.conclusive, v.ppt) == ("yes", True, True)
        ((f, r),) = v.certificate.terms
        assert f.shape == (2, 2) and r.shape == (3, 3)
        assert not np.any(f) and not np.any(r)


def test_tiny_nonzero_choi_takes_the_ppt_path():
    # the zero-map shortcut is for exact zeros only; a Choi matrix scaled
    # by 1e-300 is decided by PPT like any other, without a certificate
    for ch, verdict in (
        (diagonal_pinching_channel(), "yes"),
        (random_unital_eb(SeededRng(31), 3, 3, 4), "unknown"),
    ):
        tiny = choi_channel(1e-300 * to_choi(ch).matrix, ch.d1, ch.d2)
        v = eb_verdict(tiny)
        assert v.is_eb == verdict and v.certificate is None


def test_verdict_rejects_non_cp():
    with pytest.raises(NotCP):
        eb_verdict(channel_from_map(lambda x: x.T, 2, 2))


def test_verdict_never_pairs_no_with_ppt():
    # sweep certified, stripped, and conjugated channels across small dims
    for seed in range(40):
        rng = SeededRng(seed)
        d1, d2 = 2 + seed % 2, 2 + (seed // 2) % 2
        ch = random_unital_eb(rng, d1, d2, 1 + seed % 4)
        if seed % 3 == 1:
            ch = strip_certificate(ch)
        if seed % 3 == 2:
            ch = compose_ad(rng.complex_normal((d2, d2)), ch)
        v = eb_verdict(ch)
        assert not (v.is_eb == "no" and v.ppt)
        if v.is_eb == "no":
            assert v.conclusive
        if v.is_eb == "unknown":
            assert not v.conclusive and d1 * d2 > PPT_CONCLUSIVE_LIMIT


# --- rank bounds ---


def test_rank_bounds_collapse_for_extreme_shape():
    b = rank_bounds(diagonal_pinching_channel())
    assert b.choi_rank == 2
    assert b.eb_rank_lower == b.eb_rank_upper == 2


@pytest.mark.parametrize("d", [2, 3])
def test_rank_bounds_depolarizing_pinned(d):
    b = rank_bounds(depolarizing_channel(d))
    assert b.choi_rank == d * d
    assert b.eb_rank_lower == d * d
    assert b.eb_rank_upper == d * d


def test_rank_bounds_ordering_invariant():
    for seed in range(25):
        rng = SeededRng(100 + seed)
        d1, d2 = 2 + seed % 2, 2 + (seed // 2) % 2
        ch = random_unital_eb(rng, d1, d2, 1 + seed % 5)
        b = rank_bounds(ch)
        assert d2 <= b.choi_rank <= b.eb_rank_lower <= b.eb_rank_upper
        assert b.eb_rank_upper <= (d1 * d2) ** 2


def _rank_deficient_psd(rng: SeededRng, d: int, rank: int) -> np.ndarray:
    g = rng.complex_normal((d, rank))
    return g @ g.conj().T


def _counted_ensembles():
    for seed in range(12):
        rng = SeededRng(9600 + seed)
        d1, d2 = 2 + seed % 3, 2 + (seed // 3) % 3
        terms = [
            (_rank_deficient_psd(rng, d1, 1 + (seed + t) % d1),
             _rank_deficient_psd(rng, d2, 1 + (seed * t) % d2))
            for t in range(1 + seed % 4)
        ]
        yield holevo_channel(terms)
        zero_f = np.zeros((d1, d1), dtype=complex)
        yield holevo_channel(terms + [(zero_f, rng.psd(d2))])
    yield holevo_channel([(np.zeros((2, 2)), np.zeros((3, 3)))] * 2)


def test_rank_bounds_counts_the_rank_one_refinement():
    for ch in _counted_ensembles():
        n_ops = len(holevo_to_kraus(ch.representation).operators)
        assert _rank_one_count(ch.representation, DEFAULT_TOL) == n_ops
        b = rank_bounds(ch)
        if not (b.choi_rank == ch.d2 and predicates(ch).is_unital):
            assert b.eb_rank_upper == max(n_ops, b.eb_rank_lower)
    zero = rank_bounds(holevo_channel([(np.zeros((2, 2)), np.zeros((3, 3)))]))
    assert (zero.choi_rank, zero.eb_rank_upper) == (0, 1)


@pytest.mark.parametrize(
    "bad, error",
    [
        ({(0, 1): "not psd", (1, 0): "not hermitian"}, NotPSD),
        ({(0, 0): "not hermitian", (0, 1): "not psd"}, NotHermitian),
        ({(1, 1): "not psd"}, NotPSD),
        ({(1, 0): "non-finite", (1, 1): "not psd"}, ValueError),
    ],
)
def test_rank_bounds_raises_for_the_first_bad_member(bad, error):
    # a Kraus channel carrying a malformed certificate: the count must raise
    # what building the refinement raises, for the first bad member in the
    # order F_1, R_1, F_2, R_2
    rng = SeededRng(9700)
    d = 2
    terms = [[rng.psd(d) / 4, rng.psd(d) / 4] for _ in range(2)]
    for (t, k), kind in bad.items():
        if kind == "not psd":
            terms[t][k] = -terms[t][k]
        elif kind == "non-finite":
            terms[t][k] = np.full((d, d), np.inf)
        else:
            terms[t][k] = terms[t][k] + np.array([[0, 1], [0, 0]])
    cert = HolevoEnsemble(d, d, tuple((f, r) for f, r in terms))
    ch = kraus_channel([np.eye(d) / np.sqrt(2)] * 2, certificate=cert)
    with pytest.raises(error) as built:
        holevo_to_kraus(cert)
    with pytest.raises(error) as counted:
        rank_bounds(ch)
    assert str(counted.value) == str(built.value)
    if error is NotPSD:
        assert str(counted.value) == "ensemble member has an eigenvalue below the psd floor"


def test_rank_bounds_refuses_non_eb():
    with pytest.raises(NotEB):
        rank_bounds(identity_channel(2))


# --- generators ---


def test_random_unital_eb_properties():
    for seed in range(10):
        rng = SeededRng(200 + seed)
        d1, d2 = 2 + seed % 2, 2 + (seed // 2) % 2
        ch = random_unital_eb(rng, d1, d2, 1 + seed % 4)
        p = predicates(ch)
        assert p.is_cp and p.is_unital
        assert is_ppt(ch)
        assert svd_rank(to_choi(ch).matrix) >= d2


def test_random_unital_eb_rejects_bad_terms():
    with pytest.raises(ValueError):
        random_unital_eb(SeededRng(0), 2, 2, 0)


def test_random_cstar_extreme_shape():
    ch = random_cstar_extreme(SeededRng(24), 2, 3)
    p = predicates(ch)
    assert p.is_cp and p.is_unital
    assert svd_rank(to_choi(ch).matrix) == 3
    v = eb_verdict(ch)
    assert v.is_eb == "yes"


def test_random_cstar_extreme_block_count_validation():
    with pytest.raises(ValueError):
        random_cstar_extreme(SeededRng(0), 2, 3, n_blocks=4)
    with pytest.raises(ValueError):
        random_cstar_extreme(SeededRng(0), 2, 3, n_blocks=0)


def test_ppt_survives_conjugation():
    # entanglement breaking is stable under X -> T* Phi(X) T on the output
    for seed in range(10):
        rng = SeededRng(300 + seed)
        ch = random_unital_eb(rng, 2, 3, 3)
        t = rng.complex_normal((3, 3))
        assert is_ppt(compose_ad(t, ch))
