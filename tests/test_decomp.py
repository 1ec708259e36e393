"""C*-convex combinations and the extreme-point decomposition."""

import numpy as np
import pytest

from ebx import (
    CoefficientsNotNormalized,
    CStarCombination,
    DimensionMismatch,
    DEFAULT_TOL,
    HolevoEnsemble,
    NoCertificate,
    NotCP,
    NotHermitian,
    NotPSD,
    NotUnital,
    SeededRng,
    apply,
    channel_from_map,
    choi_channel,
    eb_verdict,
    evaluate,
    hermitian_basis,
    holevo_channel,
    holevo_to_kraus,
    identity_channel,
    is_cstar_extreme,
    is_proper,
    km_decompose,
    kraus_channel,
    predicates,
    random_cstar_extreme,
    random_unital_eb,
    rank_bounds,
    to_choi,
    verify_decomposition,
)
from ebx.gallery import (
    depolarizing_channel,
    diagonal_pinching_channel,
    partial_averaging_channel,
)
from ebx.linalg import max_abs, svd_rank

from support import (
    channel_distance,
    negated_term_channel,
    pauli_identity_channel,
    reference_choi_deviation,
    unit,
)

E2 = np.eye(2, dtype=complex)


def ucp_midpoint() -> CStarCombination:
    """(id + Ad_diag(1,-1)) / 2 as a two-term combination of unital CP maps."""
    v = np.diag([1.0, -1.0]).astype(complex)
    half = E2 / np.sqrt(2)
    return CStarCombination(
        2, 2, ((half, identity_channel(2)), (half, kraus_channel([v])))
    )


# --- construction ---


def test_combination_validates_terms():
    with pytest.raises(DimensionMismatch):
        CStarCombination(2, 2, ())
    with pytest.raises(DimensionMismatch):
        CStarCombination(2, 2, ((np.eye(3, dtype=complex), identity_channel(2)),))
    with pytest.raises(DimensionMismatch):
        CStarCombination(2, 2, ((E2, identity_channel(3)),))


# --- evaluation ---


def test_midpoint_evaluates_to_the_pinching():
    mixed = evaluate(ucp_midpoint())
    assert channel_distance(mixed, diagonal_pinching_channel()) <= 1e-12


def test_evaluate_rejects_unnormalized_coefficients():
    comb = ucp_midpoint()
    t0, ch0 = comb.terms[0]
    bumped = CStarCombination(2, 2, ((1.01 * t0, ch0), comb.terms[1]))
    with pytest.raises(CoefficientsNotNormalized):
        evaluate(bumped)


def test_evaluate_rejects_nonunital_factor():
    comb = CStarCombination(2, 2, ((E2, partial_averaging_channel()),))
    with pytest.raises(NotUnital):
        evaluate(comb)


def test_evaluate_keeps_holevo_certificate():
    rng = SeededRng(30)
    factors = [random_unital_eb(rng, 2, 2, 2) for _ in range(2)]
    half = E2 / np.sqrt(2)
    comb = CStarCombination(2, 2, tuple((half, f) for f in factors))
    mixed = evaluate(comb)
    assert mixed.holevo_certificate is not None
    assert eb_verdict(mixed).is_eb == "yes"


def test_evaluate_conjugates_each_factor_once():
    # Holevo-only and Kraus-only combinations keep the bits of (F, T^* R T)
    # and V T; a mixed one (Kraus, Choi, Holevo) is the sum of T^* Phi(X) T
    rng = SeededRng(31)
    ts = [rng.unitary(2) / np.sqrt(3) for _ in range(3)]
    holevo = [random_unital_eb(rng, 2, 2, 2) for _ in ts]
    kraus = [kraus_channel([rng.unitary(2)]) for _ in ts]
    mixed = evaluate(CStarCombination(2, 2, tuple(zip(ts, holevo))))
    want = [
        (f, t.conj().T @ r @ t) for t, ch in zip(ts, holevo) for f, r in ch.representation.terms
    ]
    assert len(mixed.representation.terms) == len(want)
    for (f, r), (wf, wr) in zip(mixed.representation.terms, want):
        assert np.array_equal(f, wf) and np.array_equal(r, wr)
    mixed = evaluate(CStarCombination(2, 2, tuple(zip(ts, kraus))))
    want = [op @ t for t, ch in zip(ts, kraus) for op in ch.representation.operators]
    assert all(np.array_equal(a, b) for a, b in zip(mixed.representation.operators, want))
    choi = choi_channel(to_choi(holevo[1]).matrix, 2, 2)
    factors = (kraus[0], choi, holevo[2])
    mixed = evaluate(CStarCombination(2, 2, tuple(zip(ts, factors))))
    for x in hermitian_basis(2):
        expected = sum(t.conj().T @ apply(ch, x) @ t for t, ch in zip(ts, factors))
        assert max_abs(apply(mixed, x) - expected) <= 1e-12


def test_is_proper():
    assert is_proper(ucp_midpoint())  # I/sqrt(2) coefficients are invertible
    rank_one = CStarCombination(
        2,
        2,
        (
            (unit(2, 0, 0), holevo_channel([(unit(2, 0, 0), E2)])),
            (unit(2, 1, 1), holevo_channel([(unit(2, 1, 1), E2)])),
        ),
    )
    assert not is_proper(rank_one)


# --- decomposition ---


def test_km_golden_pinching():
    ch = holevo_channel([(unit(2, 0, 0), unit(2, 0, 0)), (unit(2, 1, 1), unit(2, 1, 1))])
    comb = km_decompose(ch)
    assert comb.n_terms == 2
    coeffs = sorted(
        (t for t, _ in comb.terms), key=lambda t: abs(t[0, 0]), reverse=True
    )
    assert max_abs(coeffs[0] - unit(2, 0, 0)) <= 1e-12
    assert max_abs(coeffs[1] - unit(2, 1, 1)) <= 1e-12
    for t, factor in comb.terms:
        ((f, r),) = factor.representation.terms
        assert svd_rank(f) == 1  # pure-state effect
        assert max_abs(r - E2) <= 1e-12  # full inflation
    check = verify_decomposition(comb, ch)
    assert check.reconstruction_error <= 1e-12
    assert check.all_factors_extreme
    assert not check.proper


def test_km_reconstructs_random_channels():
    for seed in range(6):
        rng = SeededRng(1100 + seed)
        d1, d2 = 2 + seed % 2, 2 + (seed // 2) % 2
        ch = random_unital_eb(rng, d1, d2, d2 + 1)
        comb = km_decompose(ch)
        gram = sum(t.conj().T @ t for t, _ in comb.terms)
        assert max_abs(gram - np.eye(d2)) <= 1e-10
        check = verify_decomposition(comb, ch)
        assert check.reconstruction_error <= 1e-9
        assert check.all_factors_extreme
        assert not check.proper  # rank-one coefficients for d2 > 1


def test_reconstruction_error_matches_matrix_unit_loop():
    rng = SeededRng(1150)
    for d1, d2 in [(2, 2), (2, 3), (3, 2), (3, 4)]:
        for ch in (random_unital_eb(rng, d1, d2, d2 + 1), random_cstar_extreme(rng, d1, d2)):
            comb = km_decompose(ch)
            err = verify_decomposition(comb, ch).reconstruction_error
            assert abs(err - reference_choi_deviation(ch, evaluate(comb))) <= 1e-13
    # a different target of the same dims: the error compares the rebuilt
    # map with the target, not with itself
    other = random_unital_eb(rng, d1, d2, d2 + 1)
    err = verify_decomposition(comb, other).reconstruction_error
    assert err > 1e-3
    assert abs(err - reference_choi_deviation(other, evaluate(comb))) <= 1e-13


def test_km_scalar_output_is_proper():
    ch = holevo_channel([(E2 / 2.0, np.eye(1, dtype=complex))])
    comb = km_decompose(ch)
    assert is_proper(comb)
    check = verify_decomposition(comb, ch)
    assert check.reconstruction_error <= 1e-12
    assert check.all_factors_extreme
    assert check.proper


def test_km_preconditions():
    with pytest.raises(NotCP):
        km_decompose(channel_from_map(lambda x: x.T, 2, 2))
    with pytest.raises(NotUnital):
        km_decompose(partial_averaging_channel())
    with pytest.raises(NoCertificate):
        km_decompose(diagonal_pinching_channel())  # Kraus built, no ensemble


def test_km_refuses_an_ensemble_with_no_usable_weight():
    # the identity is CP and unital, but the attached ensemble is zero; the
    # message is not pinned
    zero = HolevoEnsemble(2, 2, ((np.zeros((2, 2)), np.zeros((2, 2))),))
    with pytest.raises(NoCertificate):
        km_decompose(kraus_channel([E2], certificate=zero))


def test_km_folds_the_defect_the_dropped_eigenvalues_leave():
    # R_t = c (P_t + eps (I - P_t)): each eps*c eigenvalue falls under rank_rel
    # and is dropped, which leaves sum T^*T = I / (1 + 2 eps), a defect of
    # 1.8e-9 above eq_abs; the fold absorbs it into one coefficient
    eps = 9e-10
    c = 1.0 / (2.0 * (1.0 + 2.0 * eps))
    projections = [np.diag(row).astype(complex) for row in np.eye(3)]
    ch = holevo_channel([(E2, c * (p + eps * (np.eye(3) - p))) for p in projections])
    assert predicates(ch).is_unital
    comb = km_decompose(ch)
    assert comb.n_terms == 6
    gram = sum(t.conj().T @ t for t, _ in comb.terms)
    assert max_abs(gram - np.eye(3)) <= 1e-15
    check = verify_decomposition(comb, ch)
    assert 8e-10 <= check.reconstruction_error <= 1e-9
    assert check.all_factors_extreme


@pytest.mark.parametrize("build", [negated_term_channel, pauli_identity_channel])
def test_km_refuses_an_ensemble_with_a_non_psd_term(build):
    ch = build()
    p = predicates(ch)
    assert p.is_cp and p.is_unital  # the map itself meets km's preconditions
    with pytest.raises(NotPSD, match="^ensemble member has an eigenvalue below the psd floor$"):
        km_decompose(ch)


def test_km_refuses_a_non_hermitian_term():
    # (E11 + N) and (E11 - N) against the same output cancel: the map is
    # X -> tr(X)/2 I, CP and unital, but two effects are not hermitian
    n = unit(2, 0, 1)
    e11, e22 = unit(2, 0, 0), unit(2, 1, 1)
    ch = holevo_channel([(e11 + n, E2 / 4), (e11 - n, E2 / 4), (e22, E2 / 2)])
    assert max_abs(to_choi(ch).matrix - np.kron(E2, E2) / 2) == 0.0
    with pytest.raises(NotHermitian):
        km_decompose(ch)


def test_km_keeps_the_pieces_holevo_to_kraus_keeps():
    # the eigenvalue 1e-10 of the first output is below rank_rel times its
    # largest, so all three drop it; its weight is left out of the
    # reconstruction, within eq_abs
    e11, e22 = unit(2, 0, 0), unit(2, 1, 1)
    ch = holevo_channel([(e11, np.diag([1.0, 1e-10])), (e22, np.diag([0.0, 1.0 - 1e-10]))])
    comb = km_decompose(ch)
    n_ops = len(holevo_to_kraus(ch.representation).operators)
    assert comb.n_terms == n_ops == rank_bounds(ch).eb_rank_upper == 2
    assert verify_decomposition(comb, ch).reconstruction_error <= DEFAULT_TOL.eq_abs


def test_km_factors_are_certified():
    ch = random_unital_eb(SeededRng(31), 2, 2, 3)
    comb = km_decompose(ch)
    for _, factor in comb.terms:
        assert factor.holevo_certificate is not None
        assert is_cstar_extreme(factor).is_cstar_extreme


# --- verification report ---


def test_verify_flags_non_extreme_factors():
    comb = ucp_midpoint()
    check = verify_decomposition(comb, diagonal_pinching_channel())
    assert check.reconstruction_error <= 1e-12
    assert not check.all_factors_extreme
    assert check.proper
    assert len(check.factor_diagnostics) == 2
    assert "factor 0" in check.factor_diagnostics[0]
    assert "NotEB" in check.factor_diagnostics[0]  # the identity is not EB


def test_verify_names_the_choi_rank_of_a_non_extreme_factor():
    # the depolarizing channel is unital EB, so only the rank criterion fails
    phi = depolarizing_channel(2)
    check = verify_decomposition(CStarCombination(2, 2, ((E2, phi),)), phi)
    assert check.factor_diagnostics == ("factor 0: not C*-extreme (choi rank 4)",)
    assert not check.all_factors_extreme


def test_verify_propagates_normalization_failure():
    comb = ucp_midpoint()
    t0, ch0 = comb.terms[0]
    bumped = CStarCombination(2, 2, ((1.01 * t0, ch0), comb.terms[1]))
    with pytest.raises(CoefficientsNotNormalized):
        verify_decomposition(bumped, diagonal_pinching_channel())


def test_verify_dimension_check():
    with pytest.raises(DimensionMismatch):
        verify_decomposition(ucp_midpoint(), identity_channel(3))
