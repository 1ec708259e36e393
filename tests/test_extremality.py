"""Canonical forms, the extremality decision, and dominated-channel calculus."""

import numpy as np
import pytest

from ebx import (
    CanonicalEBForm,
    DimensionMismatch,
    NotCP,
    NotDominated,
    NotEB,
    NotExtreme,
    NotInvertible,
    NotUnital,
    PreconditionDomination,
    SeededRng,
    StructureViolation,
    Tolerance,
    VerificationFailed,
    apply,
    arveson_derivative,
    channel_from_map,
    choi_channel,
    commutant_dimension,
    compose_ad,
    cq_remark_flags,
    holevo_to_kraus,
    dominates_cp,
    dominates_eb,
    extract_canonical,
    extremality_witness,
    hermitian_basis,
    holevo_channel,
    identity_channel,
    is_cstar_extreme,
    kraus_channel,
    locate_dominated_rank_one,
    matrix_units,
    random_cstar_extreme,
    random_unital_eb,
    reconstruct,
    rn_derivative,
    to_choi,
    unitary_equivalent,
)
from ebx.gallery import (
    depolarizing_channel,
    diagonal_pinching_channel,
    partial_averaging_channel,
    tetrahedral_channel,
    two_block_pinching_channel,
)
from ebx.channel import _choi_deviation
from ebx.extremality import _check_commutative
from ebx.linalg import _sym, max_abs, psd_sqrt

from support import (
    block_adapted_contraction,
    channel_distance,
    random_canonical_form,
    random_invertible_contraction,
    reference_choi_deviation,
    reference_extract_blocks,
    reference_first_noncommuting,
    unit,
)

E2 = np.eye(2, dtype=complex)
E3 = np.eye(3, dtype=complex)


def pinching_form() -> CanonicalEBForm:
    return CanonicalEBForm(
        2, 2, ((E2[:, 0], unit(2, 0, 0)), (E2[:, 1], unit(2, 1, 1)))
    )


def two_block_form() -> CanonicalEBForm:
    p12 = unit(3, 0, 0) + unit(3, 1, 1)
    return CanonicalEBForm(3, 3, ((E3[:, 0], p12), (E3[:, 2], unit(3, 2, 2))))


def match_blocks(form: CanonicalEBForm, expected):
    """Assert the form's blocks equal the expected (state, projection) pairs
    up to ordering and state phase."""
    assert form.n_blocks == len(expected)
    remaining = list(expected)
    for u, p in form.blocks:
        hit = None
        for k, (eu, ep) in enumerate(remaining):
            if abs(np.vdot(u, eu)) >= 1.0 - 1e-9 and max_abs(p - ep) <= 1e-9:
                hit = k
                break
        assert hit is not None, "no expected block matches"
        remaining.pop(hit)


# --- canonical extraction ---


def test_extract_diagonal_pinching_golden():
    form = extract_canonical(diagonal_pinching_channel())
    match_blocks(
        form,
        [(E2[:, 0], unit(2, 0, 0)), (E2[:, 1], unit(2, 1, 1))],
    )


def test_extract_two_block_golden():
    form = extract_canonical(two_block_pinching_channel())
    match_blocks(
        form,
        [
            (E3[:, 0], unit(3, 0, 0) + unit(3, 1, 1)),
            (E3[:, 2], unit(3, 2, 2)),
        ],
    )


def test_extract_midpoint_mixture_is_the_pinching():
    # (id + Ad_diag(1,-1)) / 2 acts as the diagonal pinching
    v = np.diag([1.0, -1.0]).astype(complex)
    mid = kraus_channel([E2 / np.sqrt(2), v / np.sqrt(2)])
    form = extract_canonical(mid)
    match_blocks(
        form,
        [(E2[:, 0], unit(2, 0, 0)), (E2[:, 1], unit(2, 1, 1))],
    )


def test_extract_preconditions():
    with pytest.raises(NotCP):
        extract_canonical(channel_from_map(lambda x: x.T, 2, 2))
    with pytest.raises(NotUnital):
        extract_canonical(kraus_channel([np.diag([1.0, 0.5])]))
    with pytest.raises(NotEB):
        extract_canonical(identity_channel(2))


def test_extract_refuses_impure_states():
    with pytest.raises(NotExtreme):
        extract_canonical(depolarizing_channel(2))


def test_extract_not_pure_message_matches_reference():
    message = "an induced state is not pure (rank > 1)"
    for extract in (extract_canonical, reference_extract_blocks):
        with pytest.raises(NotExtreme) as info:
            extract(depolarizing_channel(2))
        assert str(info.value) == message


@pytest.mark.parametrize(
    "d1, d2", [(5, 5), (6, 6), (4, 8), (8, 4), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
)
def test_extraction_matches_per_element_reference(d1, d2):
    # the stacked images, joint diagonalisation and pullbacks must give the
    # per-element loop's states and projections bit for bit, in each form
    for seed in range(3):
        rng = SeededRng(9500 + 100 * d1 + 10 * d2 + seed)
        extreme = random_cstar_extreme(rng, d1, d2, n_blocks=1 + seed * (d2 - 1) // 2)
        choi = to_choi(extreme).matrix
        for ch in (
            extreme,
            kraus_channel(holevo_to_kraus(extreme.representation).operators),
            choi_channel(choi, d1, d2),
        ):
            form = extract_canonical(ch)
            expected = reference_extract_blocks(ch)
            assert form.n_blocks == len(expected)
            for (u, p), (eu, ep) in zip(form.blocks, expected):
                assert np.array_equal(u, eu) and np.array_equal(p, ep)


def test_extract_rejects_nonunital_dominated_piece():
    # the partial-averaging map is a dominated piece, not a unital channel
    with pytest.raises(NotUnital):
        extract_canonical(partial_averaging_channel())


def test_extract_refuses_noncommutative_range():
    with pytest.raises(NotExtreme):
        extract_canonical(tetrahedral_channel())


def _range_images(ch) -> np.ndarray:
    # the symmetrised hermitian-basis images extract_canonical checks
    return np.array([_sym(apply(ch, h)) for h in hermitian_basis(ch.d1)])


def _assert_commutativity_matches_loop(images, tol=Tolerance()):
    first = reference_first_noncommuting(images, tol.eq_abs)
    if first is None:
        _check_commutative(images, tol)
        return None
    with pytest.raises(NotExtreme) as info:
        _check_commutative(images, tol)
    assert str(info.value) == f"range is not commutative (commutator deviation {first[2]:.3e})"
    return first


def test_commutativity_check_matches_pairwise_loop_on_random_ranges():
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (5, 5), (6, 4)]
    for k, (d1, d2) in enumerate(shapes):
        for seed in range(3):
            rng = SeededRng(8100 + 10 * k + seed)
            extreme = random_cstar_extreme(rng, d1, d2, n_blocks=1 + seed % d2)
            assert _assert_commutativity_matches_loop(_range_images(extreme)) is None
            # two terms R and I - R would commute; three or more generically do not
            generic = random_unital_eb(rng, d1, d2, n_terms=3 + seed)
            assert _assert_commutativity_matches_loop(_range_images(generic)) is not None


def _planted_images(rng, ratio, eq_abs, n=7, d2=4, scale=4.0):
    """n hermitian images in which only the last pair in loop order,
    (n-2, n-1), fails to commute, its commutator at ``ratio`` times that
    pair's bound eq_abs * max(1, max_abs(A) * max_abs(B))."""
    frame = rng.unitary(d2)

    def lift(block, diag):
        m = np.zeros((d2, d2), dtype=complex)
        m[:2, :2] = block
        m[2:, 2:] = np.diag(diag)
        return frame @ m @ frame.conj().T

    gen = rng.generator
    images = [
        lift(scale * gen.standard_normal() * E2, scale * gen.standard_normal(d2 - 2))
        for _ in range(n - 2)
    ]
    x, z = rng.hermitian(2), rng.hermitian(2)
    diag_a, diag_b = scale * gen.standard_normal(d2 - 2), scale * gen.standard_normal(d2 - 2)
    a = lift(scale * x, diag_a)
    # [a, lift(scale x + t z, .)] = scale t lift([x, z], 0)
    unit_dev = scale * max_abs(lift(x @ z - z @ x, np.zeros(d2 - 2)))
    t = 0.0
    for _ in range(4):
        b = lift(scale * x + t * z, diag_b)
        t = ratio * eq_abs * max(1.0, max_abs(a) * max_abs(b)) / unit_dev
    return np.array(images + [a, lift(scale * x + t * z, diag_b)])


@pytest.mark.parametrize("eq_abs", [1e-9, 1e-6])
@pytest.mark.parametrize("seed", range(4))
def test_commutativity_check_at_planted_margins(seed, eq_abs):
    tol = Tolerance(eq_abs=eq_abs)
    inside = _planted_images(SeededRng(8300 + seed), 0.5, eq_abs)
    assert _assert_commutativity_matches_loop(inside, tol) is None
    outside = _planted_images(SeededRng(8300 + seed), 2.0, eq_abs)
    i, j, dev = _assert_commutativity_matches_loop(outside, tol)
    n = len(outside)
    assert (i, j) == (n - 2, n - 1)
    bound = eq_abs * max(1.0, max_abs(outside[i]) * max_abs(outside[j]))
    assert abs(dev / bound - 2.0) <= 0.01


def test_extract_reconstruct_round_trip():
    for seed in range(8):
        rng = SeededRng(400 + seed)
        d1, d2 = 2 + seed % 2, 2 + (seed // 2) % 2
        ch = random_cstar_extreme(rng, d1, d2)
        form = extract_canonical(ch)
        assert channel_distance(reconstruct(form), ch) <= 1e-9


def test_reconstruct_is_certified_eb():
    ch = reconstruct(pinching_form())
    assert ch.holevo_certificate is not None


def test_structure_violations_are_caught():
    # rn_derivative runs the form invariants before anything else
    bad_state = CanonicalEBForm(
        2, 2, ((2.0 * E2[:, 0], unit(2, 0, 0)), (E2[:, 1], unit(2, 1, 1)))
    )
    psi = reconstruct(pinching_form())
    with pytest.raises(StructureViolation):
        rn_derivative(bad_state, psi)
    not_projection = CanonicalEBForm(2, 2, ((E2[:, 0], 0.5 * np.eye(2, dtype=complex)),))
    with pytest.raises(StructureViolation):
        rn_derivative(not_projection, psi)
    repeated_state = CanonicalEBForm(
        2, 2, ((E2[:, 0], unit(2, 0, 0)), (E2[:, 0], unit(2, 1, 1)))
    )
    with pytest.raises(StructureViolation):
        rn_derivative(repeated_state, psi)
    incomplete = CanonicalEBForm(2, 2, ((E2[:, 0], unit(2, 0, 0)),))
    with pytest.raises(StructureViolation):
        rn_derivative(incomplete, psi)


# --- the extremality decision ---


def test_pinching_report():
    report = is_cstar_extreme(diagonal_pinching_channel())
    assert report.is_cstar_extreme
    assert report.choi_rank == 2
    assert report.canonical is not None
    assert report.is_cq_linear_extreme_in_ucp is False
    assert not report.is_irreducible  # diagonals commute with the range


def test_depolarizing_report():
    for d in (2, 3):
        report = is_cstar_extreme(depolarizing_channel(d))
        assert not report.is_cstar_extreme
        assert report.choi_rank == d * d
        assert report.canonical is None
        assert report.is_cq_linear_extreme_in_ucp is None


def test_tetrahedral_report():
    report = is_cstar_extreme(tetrahedral_channel())
    assert not report.is_cstar_extreme
    assert report.choi_rank == 4


def test_extremality_rejects_non_eb():
    with pytest.raises(NotEB):
        is_cstar_extreme(identity_channel(2))


def test_rank_criterion_matches_extraction_on_random_draws():
    # is_cstar_extreme itself raises InternalInconsistency if the Choi-rank
    # criterion and canonical extraction ever disagree
    for seed in range(12):
        rng = SeededRng(500 + seed)
        d1, d2 = 2 + seed % 2, 2 + (seed // 2) % 2
        if seed % 2 == 0:
            ch = random_cstar_extreme(rng, d1, d2)
            assert is_cstar_extreme(ch).is_cstar_extreme
        else:
            ch = random_unital_eb(rng, d1, d2, d2 + 2)
            report = is_cstar_extreme(ch)
            assert report.is_cstar_extreme == (report.choi_rank == d2)


def test_cq_flags():
    flags = cq_remark_flags(pinching_form())
    assert not flags.all_overlaps_nonzero
    assert flags.min_overlap <= 1e-12

    tilted = CanonicalEBForm(
        2,
        2,
        (
            (E2[:, 0], unit(2, 0, 0)),
            ((E2[:, 0] + E2[:, 1]) / np.sqrt(2), unit(2, 1, 1)),
        ),
    )
    flags = cq_remark_flags(tilted)
    assert flags.all_overlaps_nonzero
    assert abs(flags.min_overlap - 1 / np.sqrt(2)) <= 1e-12

    # a rank-2 block duplicates its state in the refinement: overlap 1
    single = CanonicalEBForm(2, 2, ((E2[:, 0], np.eye(2, dtype=complex)),))
    flags = cq_remark_flags(single)
    assert flags.all_overlaps_nonzero
    assert flags.min_overlap == 1.0


# --- domination ---


def test_dominates_cp_scaled():
    phi = diagonal_pinching_channel()
    half = compose_ad(np.sqrt(0.5) * E2, phi)
    assert dominates_cp(phi, half)
    assert not dominates_cp(half, phi)


def test_dominates_eb_yes_within_conclusive_window():
    phi = diagonal_pinching_channel()
    half = compose_ad(np.sqrt(0.5) * E2, phi)
    v = dominates_eb(phi, half)
    assert v.is_eb == "yes" and v.conclusive


def test_dominates_eb_no_for_entangling_difference():
    # inflation dominates the uniform floor, but the difference is a
    # multiple of the identity map and fails PPT
    phi = channel_from_map(lambda x: (np.trace(x) * np.eye(2) + x) / 3.0, 2, 2)
    psi = holevo_channel([(E2, E2 / 3.0)])
    assert dominates_cp(phi, psi)
    v = dominates_eb(phi, psi)
    assert v.is_eb == "no" and v.conclusive and not v.ppt


def test_dominates_eb_not_cp_is_no():
    phi = diagonal_pinching_channel()
    doubled = compose_ad(np.sqrt(2.0) * E2, phi)
    v = dominates_eb(phi, doubled)
    assert v.is_eb == "no" and v.conclusive and not v.ppt


def test_domination_dimension_check():
    with pytest.raises(DimensionMismatch):
        dominates_cp(diagonal_pinching_channel(), identity_channel(3))


# --- commuting derivative of a dominated map ---


def test_rn_derivative_of_whole_channel_is_identity():
    form = two_block_form()
    rn = rn_derivative(form, reconstruct(form))
    assert max_abs(rn.R - E3) <= 1e-12
    assert rn.residual <= 1e-12


def test_rn_derivative_recovers_planted_contraction():
    for seed in range(6):
        rng = SeededRng(600 + seed)
        form = random_canonical_form(rng, 2, 3, [2, 1])
        r0 = block_adapted_contraction(rng, form)
        psi = compose_ad(psd_sqrt(r0), reconstruct(form))
        rn = rn_derivative(form, psi)
        assert max_abs(rn.R - r0) <= 1e-9
        for (u, p), piece in zip(form.blocks, rn.per_block):
            assert max_abs(piece - p @ r0 @ p) <= 1e-9


def test_rn_derivative_per_block_structure():
    form = two_block_form()
    r0 = np.diag([0.6, 0.6, 0.3]).astype(complex)  # scalar on the rank-2 block
    psi = compose_ad(psd_sqrt(r0), reconstruct(form))
    rn = rn_derivative(form, psi)
    assert max_abs(rn.R - r0) <= 1e-12
    assert max_abs(rn.per_block[0] - np.diag([0.6, 0.6, 0.0])) <= 1e-12
    assert max_abs(rn.per_block[1] - np.diag([0.0, 0.0, 0.3])) <= 1e-12


def test_rn_derivative_preconditions():
    form = pinching_form()
    phi = reconstruct(form)
    with pytest.raises(PreconditionDomination):
        rn_derivative(form, compose_ad(np.sqrt(1.5) * E2, phi))
    with pytest.raises(NotCP):
        rn_derivative(form, channel_from_map(lambda x: x.T, 2, 2))
    with pytest.raises(DimensionMismatch):
        rn_derivative(form, identity_channel(3))


def test_domination_factor_chain():
    # Psi = Ad_sqrt(R0) Phi gives Phi - Psi = Ad_sqrt(I - R0) Phi, certifying
    # that both halves of the split stay entanglement breaking
    for seed in range(4):
        rng = SeededRng(700 + seed)
        form = random_canonical_form(rng, 2, 3, [2, 1])
        phi = reconstruct(form)
        r0 = block_adapted_contraction(rng, form, lo=0.15, hi=0.85)
        psi = compose_ad(psd_sqrt(r0), phi)
        assert dominates_cp(phi, psi)
        rn = rn_derivative(form, psi)
        assert max_abs(rn.R - r0) <= 1e-9
        diff = choi_channel(
            to_choi(phi).matrix - to_choi(psi).matrix, 2, 3
        )
        complement = compose_ad(psd_sqrt(np.eye(3) - r0), phi)
        assert channel_distance(diff, complement) <= 1e-9
        verdict = dominates_eb(phi, psi)
        assert verdict.is_eb == "yes" and verdict.conclusive


# --- locating dominated rank-one maps ---


def test_locate_golden_cases():
    form = two_block_form()
    piece = locate_dominated_rank_one(form, E3[:, 2], E3[:, 2])
    assert max_abs(form.states[piece.block_index] - E3[:, 2]) <= 1e-12
    assert max_abs(piece.R - unit(3, 2, 2)) <= 1e-12

    piece = locate_dominated_rank_one(form, E3[:, 0], E3[:, 1])
    assert max_abs(form.states[piece.block_index] - E3[:, 0]) <= 1e-12
    assert max_abs(piece.R - unit(3, 1, 1)) <= 1e-12


def test_locate_scales_with_the_vectors():
    form = two_block_form()
    piece = locate_dominated_rank_one(form, 2.0 * E3[:, 0], 0.5 * E3[:, 1])
    assert max_abs(piece.R - unit(3, 1, 1)) <= 1e-12


def test_locate_refuses_superposed_state():
    form = two_block_form()
    x = (E3[:, 0] + E3[:, 2]) / np.sqrt(2)
    with pytest.raises(NotDominated):
        locate_dominated_rank_one(form, x, E3[:, 0])


def test_locate_refuses_cross_block_target():
    # x matches the first block but y lives in the other block's range
    form = two_block_form()
    with pytest.raises(NotDominated):
        locate_dominated_rank_one(form, E3[:, 0], E3[:, 2])


def test_locate_rejects_zero_vectors():
    form = two_block_form()
    with pytest.raises(ValueError):
        locate_dominated_rank_one(form, np.zeros(3), E3[:, 0])
    with pytest.raises(ValueError):
        locate_dominated_rank_one(form, E3[:, 0], np.zeros(3))


# --- coefficient matrices in a Kraus frame ---


def test_arveson_half_is_half_identity():
    phi = diagonal_pinching_channel()
    psi = compose_ad(np.sqrt(0.5) * E2, phi)
    der = arveson_derivative(phi, psi)
    assert max_abs(der.T - 0.5 * np.eye(2)) <= 1e-12
    assert der.residual <= 1e-12


def test_arveson_block_selector():
    phi = diagonal_pinching_channel()  # Kraus order (E11, E22)
    psi = holevo_channel([(unit(2, 0, 0), unit(2, 0, 0))])
    der = arveson_derivative(phi, psi)
    assert max_abs(der.T - np.diag([1.0, 0.0])) <= 1e-12


def test_arveson_round_trip_on_independent_frame():
    for seed in range(6):
        rng = SeededRng(800 + seed)
        ops = [rng.complex_normal((2, 3)) for _ in range(3)]
        phi = kraus_channel(ops)
        t0 = random_invertible_contraction(rng, 3, lo=0.05, hi=0.9)
        w = np.stack([op.conj().reshape(-1) for op in ops], axis=1)
        psi = choi_channel(w @ t0 @ w.conj().T, 2, 3)
        der = arveson_derivative(phi, psi)
        assert max_abs(der.T - t0) <= 1e-8


def test_arveson_requires_domination():
    phi = diagonal_pinching_channel()
    with pytest.raises(PreconditionDomination):
        arveson_derivative(phi, compose_ad(np.sqrt(2.0) * E2, phi))
    with pytest.raises(PreconditionDomination):
        arveson_derivative(phi, identity_channel(2))


# --- conjugation witness ---


def test_witness_is_root_of_barycenter():
    for seed in range(4):
        rng = SeededRng(900 + seed)
        form = random_canonical_form(rng, 2, 2)
        r0 = block_adapted_contraction(rng, form)
        psi = compose_ad(psd_sqrt(r0), reconstruct(form))
        z = extremality_witness(form, psi)
        assert max_abs(z - psd_sqrt(r0)) <= 1e-9
        phi = reconstruct(form)
        for u in matrix_units(2):
            assert max_abs(apply(psi, u) - z @ apply(phi, u) @ z) <= 1e-9


def test_witness_refuses_singular_barycenter():
    form = two_block_form()
    p = form.projections[0]  # rank-2 projection; Ad_P Phi has singular Psi(I)
    psi = compose_ad(p, reconstruct(form))
    with pytest.raises(NotInvertible):
        extremality_witness(form, psi)


def test_witness_requires_domination():
    form = pinching_form()
    with pytest.raises(PreconditionDomination):
        extremality_witness(form, compose_ad(np.sqrt(2.0) * E2, reconstruct(form)))


# --- unitary equivalence ---


def test_equivalence_of_swapped_pinchings():
    a = pinching_form()
    b = CanonicalEBForm(
        2, 2, ((E2[:, 0], unit(2, 1, 1)), (E2[:, 1], unit(2, 0, 0)))
    )
    check = unitary_equivalent(a, b)
    assert check.equivalent
    assert max_abs(check.witness_unitary - np.array([[0, 1], [1, 0]])) <= 1e-12


def test_equivalence_is_reflexive_with_identity_witness():
    form = two_block_form()
    check = unitary_equivalent(form, form)
    assert check.equivalent
    assert max_abs(check.witness_unitary - E3) <= 1e-12


def test_equivalence_survives_block_permutation():
    form = two_block_form()
    flipped = CanonicalEBForm(3, 3, form.blocks[::-1])
    check = unitary_equivalent(form, flipped)
    assert check.equivalent


def test_equivalence_under_conjugated_projections():
    rng = SeededRng(42)
    ch = random_cstar_extreme(rng, 2, 3)
    a = extract_canonical(ch)
    u = rng.unitary(3)
    b = extract_canonical(compose_ad(u, ch))
    fwd = unitary_equivalent(a, b)
    assert fwd.equivalent
    bwd = unitary_equivalent(b, a)
    assert bwd.equivalent


def test_equivalence_rejects_different_states():
    a = pinching_form()
    b = CanonicalEBForm(
        2,
        2,
        (
            (E2[:, 0], unit(2, 0, 0)),
            ((E2[:, 0] + E2[:, 1]) / np.sqrt(2), unit(2, 1, 1)),
        ),
    )
    check = unitary_equivalent(a, b)
    assert not check.equivalent
    assert check.witness_unitary is None


def test_equivalence_rejects_different_block_ranks():
    a = CanonicalEBForm(
        2, 3, ((E2[:, 0], unit(3, 0, 0) + unit(3, 1, 1)), (E2[:, 1], unit(3, 2, 2)))
    )
    b = CanonicalEBForm(
        2, 3, ((E2[:, 0], unit(3, 0, 0)), (E2[:, 1], unit(3, 1, 1) + unit(3, 2, 2)))
    )
    assert not unitary_equivalent(a, b).equivalent


def test_equivalence_rejects_different_block_counts():
    a = pinching_form()
    b = CanonicalEBForm(2, 2, ((E2[:, 0], np.eye(2, dtype=complex)),))
    assert not unitary_equivalent(a, b).equivalent


def test_equivalence_dimension_check():
    with pytest.raises(DimensionMismatch):
        unitary_equivalent(pinching_form(), two_block_form())


# --- commutant growth with the number of blocks ---


def test_multiblock_forms_have_nontrivial_commutant():
    # each block projection commutes with the range, so two or more blocks
    # force a commutant of dimension at least the block count
    for seed in range(5):
        rng = SeededRng(1000 + seed)
        ch = random_cstar_extreme(rng, 2, 3)
        form = extract_canonical(ch)
        report = commutant_dimension(ch)
        assert report.dim >= form.n_blocks
        if form.n_blocks >= 2:
            assert not report.is_irreducible


def test_single_output_dimension_is_irreducible():
    ch = holevo_channel([(E2 / 2.0, np.eye(1, dtype=complex))])
    assert commutant_dimension(ch).is_irreducible


# --- the Choi-block map comparison ---


def _random_channels(rng: SeededRng, d1: int, d2: int):
    """One random map per representation: Kraus, Choi and Holevo."""
    kraus = kraus_channel([rng.complex_normal((d1, d2)) for _ in range(3)])
    choi = choi_channel(rng.complex_normal((d1 * d2, d1 * d2)), d1, d2)
    holevo = holevo_channel([(rng.psd(d1), rng.hermitian(d2)) for _ in range(2)])
    return [kraus, choi, holevo]


@pytest.mark.parametrize("d1, d2", [(1, 3), (2, 2), (3, 2), (2, 4)])
def test_choi_deviation_matches_matrix_unit_loop(d1, d2):
    rng = SeededRng(70 + 10 * d1 + d2)
    for a in _random_channels(rng, d1, d2):
        for b in _random_channels(rng, d1, d2):
            left = rng.complex_normal((d2, d2))
            right = rng.complex_normal((d2, d2))
            for lr in [(None, None), (left, None), (None, right), (left, right)]:
                got = _choi_deviation(b, a, *lr)
                assert abs(got - reference_choi_deviation(b, a, *lr)) <= 1e-13


def test_choi_deviation_is_zero_on_a_conjugated_copy():
    rng = SeededRng(77)
    for a in _random_channels(rng, 2, 3):
        t = rng.complex_normal((3, 3))
        b = compose_ad(t, a)
        assert _choi_deviation(b, a, t.conj().T, t) <= 1e-12
        assert _choi_deviation(b, a) > 1e-3


def _entangled_dominated_psi():
    """A CP map under the two-block canonical channel that is not Phi(.) R.

    Its Choi matrix is |w><w| / 2 on w = e0 (x) e0 + e2 (x) e2 plus
    |e0 (x) e1><e0 (x) e1| / 2, below the canonical Choi matrix (the
    identity on that support), with Psi(I) = I / 2 but Psi(E_02) = E_02 / 2
    while Phi(E_02) = 0.
    """
    w = np.zeros(9, dtype=complex)
    w[0] = w[8] = 1.0
    c = np.outer(w, w) / 2.0
    c[1, 1] = 0.5
    return choi_channel(c, 3, 3)


def test_rn_derivative_rejects_a_dominated_map_that_does_not_factor():
    form = two_block_form()
    psi = _entangled_dominated_psi()
    assert dominates_cp(reconstruct(form), psi)
    with pytest.raises(VerificationFailed, match="does not factor"):
        rn_derivative(form, psi)


def test_witness_rejects_a_dominated_map_that_is_not_a_conjugate():
    form = two_block_form()
    with pytest.raises(VerificationFailed, match="does not equal Psi"):
        extremality_witness(form, _entangled_dominated_psi())


def test_equivalence_rejects_a_slightly_rotated_state():
    # the states still match within the state tolerance (1 - |<u, u'>| is
    # about 5e-11), but the channels differ by about 1e-5, so the assembled
    # witness must fail the verification on the Choi blocks
    a = pinching_form()
    eps = 1e-5
    tilted = np.array([np.cos(eps), np.sin(eps)], dtype=complex)
    b = CanonicalEBForm(2, 2, ((tilted, unit(2, 0, 0)), (E2[:, 1], unit(2, 1, 1))))
    check = unitary_equivalent(a, b)
    assert not check.equivalent
    assert check.witness_unitary is None
