"""Canonical forms, the extremality decision, and dominated-channel calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebx import (
    CanonicalEBForm,
    DimensionMismatch,
    InternalInconsistency,
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
    eb_verdict,
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
from ebx.channel import _channel_range_basis, _choi_deviation
from ebx import channel, extremality, linalg, separability
from ebx.extremality import (
    _check_commutative,
    _check_form_invariants,
    _extract_canonical,
    _joint_eigenspaces,
    _positive_contraction_eig,
    _same_state,
)
from ebx.linalg import _sym, max_abs, psd_sqrt

from golden.regenerate import close_states_channel
from support import (
    block_adapted_contraction,
    channel_distance,
    random_canonical_form,
    random_invertible_contraction,
    reference_choi_deviation,
    reference_extract_blocks,
    reference_first_noncommuting,
    reference_rn_deviations,
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


def _three_representations(ch):
    """A Holevo channel as itself, as its rank-one Kraus family and as its bare Choi matrix."""
    return (
        ch,
        kraus_channel(holevo_to_kraus(ch.representation).operators),
        choi_channel(to_choi(ch).matrix, ch.d1, ch.d2),
    )


def _assert_extraction_matches_reference(ch):
    form = extract_canonical(ch)
    expected = reference_extract_blocks(ch)
    assert form.n_blocks == len(expected)
    for (u, p), (eu, ep) in zip(form.blocks, expected):
        assert np.array_equal(u, eu) and np.array_equal(p, ep)


@pytest.mark.parametrize(
    "d1, d2", [(5, 5), (6, 6), (4, 8), (8, 4), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
)
def test_extraction_matches_per_element_reference(d1, d2):
    # the stacked images, joint diagonalisation and pullbacks must give the
    # per-element loop's states and projections bit for bit, in each form
    for seed in range(3):
        rng = SeededRng(9500 + 100 * d1 + 10 * d2 + seed)
        extreme = random_cstar_extreme(rng, d1, d2, n_blocks=1 + seed * (d2 - 1) // 2)
        for ch in _three_representations(extreme):
            _assert_extraction_matches_reference(ch)


def _extreme_and_generic_draws():
    """(channel, is_extreme) over seeded C*-extreme draws, with one block
    and with d2 blocks, and three- and four-term unital EB draws, each in
    all three representations."""
    for k, (d1, d2) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4)]):
        for seed in range(2):
            rng = SeededRng(8700 + 10 * k + seed)
            extreme = random_cstar_extreme(rng, d1, d2, n_blocks=1 + seed * (d2 - 1))
            generic = random_unital_eb(rng, d1, d2, n_terms=3 + seed)
            for kind, ch in ((True, extreme), (False, generic)):
                for rep in _three_representations(ch):
                    yield rep, kind


def test_extraction_decides_commutativity_as_the_pairwise_image_loop():
    # the range-basis check must fail exactly when some pair of the d1^2
    # hermitian images fails to commute, and a passing extraction must still
    # give the per-element loop's blocks bit for bit
    for ch, extreme in _extreme_and_generic_draws():
        first = reference_first_noncommuting(_range_images(ch))
        assert (first is None) == extreme
        if first is not None:
            with pytest.raises(NotExtreme, match=r"^range is not commutative \(commutator deviation "):
                extract_canonical(ch)
        else:
            _assert_extraction_matches_reference(ch)


def test_irreducibility_is_read_off_a_successful_extraction(monkeypatch):
    # one range basis per decision: the extraction's commutativity check and,
    # only when extraction fails, the commutant both use it
    calls, bases = [], []
    counted, built = extremality._commutant_report, extremality._channel_range_basis
    monkeypatch.setattr(
        extremality, "_commutant_report", lambda b, tol: calls.append(b) or counted(b, tol)
    )
    for module in (channel, extremality):
        monkeypatch.setattr(
            module, "_channel_range_basis", lambda ch, tol: bases.append(ch) or built(ch, tol)
        )
    one_dimensional = [
        (random_cstar_extreme(SeededRng(8800), 3, 1), True),
        (random_unital_eb(SeededRng(8801), 3, 1, n_terms=3), False),
    ]
    for ch, extreme in [*_extreme_and_generic_draws(), *one_dimensional]:
        calls.clear()
        bases.clear()
        report = is_cstar_extreme(ch)
        assert (len(bases), len(calls)) == (1, 0 if extreme else 1)
        assert report.is_cstar_extreme == extreme
        assert report.is_irreducible == (commutant_dimension(ch).dim == 1)
    assert is_cstar_extreme(one_dimensional[0][0]).is_irreducible


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


def test_form_shapes_are_checked_at_construction():
    # a 3-entry state in an M2 -> M2 form, alone or as the second block, and a
    # 3 x 3 projection: each is refused as the form is built
    long_state = np.array([1.0, 0.0, 0.0], dtype=complex)
    malformed = [
        ((long_state, unit(2, 0, 0)), (E2[:, 1], unit(2, 1, 1))),
        ((E2[:, 0], unit(2, 0, 0)), (long_state, unit(2, 1, 1))),
        ((E2[:, 0], E3),),
    ]
    for blocks in malformed:
        with pytest.raises(DimensionMismatch, match="^block shapes do not match d1=2, d2=2$"):
            CanonicalEBForm(2, 2, blocks)
    with pytest.raises(DimensionMismatch):
        CanonicalEBForm(0, 2, ())
    # a column-vector state has d1 entries and is kept
    column = CanonicalEBForm(2, 2, ((E2[:, :1], unit(2, 0, 0)), (E2[:, 1:], unit(2, 1, 1))))
    assert _choi_deviation(reconstruct(column), reconstruct(pinching_form())) == 0.0
    assert unitary_equivalent(column, column).equivalent


class _ZeroFirstDraws:
    """A generator whose first ``n_zero`` standard_normal draws are all zeros."""

    def __init__(self, n_zero: int):
        self.n_zero, self.gen = n_zero, np.random.default_rng(0)

    def standard_normal(self, n: int) -> np.ndarray:
        if self.n_zero:
            self.n_zero -= 1
            return np.zeros(n)
        return self.gen.standard_normal(n)


def test_joint_eigenspaces_retry_a_combination_that_separates_nothing():
    # a zero combination has one eigenvalue, so it splits nothing and is redrawn
    mats = np.array([unit(2, 0, 0), unit(2, 1, 1)])
    spaces = _joint_eigenspaces(mats, _ZeroFirstDraws(7), Tolerance())
    assert sorted(np.abs(q[:, 0]).argmax() for q in spaces) == [0, 1]
    with pytest.raises(NotExtreme, match="generic combinations stayed degenerate"):
        _joint_eigenspaces(mats, _ZeroFirstDraws(8), Tolerance())


def test_extraction_core_refuses_a_non_unital_map_by_reconstruction():
    # X -> 2 <e0, X e0> I pulls every state back to 2 |e0><e0|, which the
    # unital precondition refuses first; past it, the core builds the unit
    # state e0, so the form <e0, . e0> I misses the map by the factor 2
    ch = holevo_channel([(2 * unit(2, 0, 0), E2)])
    with pytest.raises(NotUnital, match="needs a unital channel"):
        extract_canonical(ch)
    with pytest.raises(
        NotExtreme, match=r"^canonical form does not reproduce the channel \(dev 1\.000e\+00\)$"
    ):
        _extract_canonical(ch, _channel_range_basis(ch, Tolerance()), Tolerance())


@pytest.mark.parametrize("eps, accepted", [(1.5e-9, True), (1.9e-9, True), (2.5e-9, False)])
def test_extraction_decides_unitality_by_its_precondition_alone(eps, accepted):
    # Phi(I) = I + eps |w><w| for w = (e0 + e1) / sqrt 2 in the rank-2 block:
    # the entries of Phi(I) - I are eps / 2, while the state induced by w has
    # trace 1 + eps. Up to eps = 2 eq_abs the map passes the unital
    # precondition and its form reproduces it within 10 eq_abs, so it is
    # accepted with the form of Phi; the trace of an induced state
    # is no second test of unitality
    form = CanonicalEBForm(2, 3, ((E2[:, 0], np.diag([1.0, 1, 0])), (E2[:, 1], np.diag([0.0, 0, 1]))))
    w = (np.eye(3)[:, 0] + np.eye(3)[:, 1]) / np.sqrt(2)
    a = np.eye(3) + (np.sqrt(1 + eps) - 1) * np.outer(w, w)
    ch = compose_ad(a, reconstruct(form))
    assert max_abs(apply(ch, np.eye(2)) - np.eye(3)) == pytest.approx(eps / 2)
    if not accepted:
        with pytest.raises(NotUnital, match="needs a unital channel"):
            extract_canonical(ch)
        return
    got = extract_canonical(ch)
    assert got.n_blocks == 2
    assert _choi_deviation(reconstruct(got), reconstruct(form)) < 1e-12
    assert _choi_deviation(ch, reconstruct(got)) == pytest.approx(eps / 2, rel=1e-3)


def test_extraction_refuses_a_form_that_does_not_reproduce_the_channel(monkeypatch):
    # grouping every joint eigenvector into one block gives <u, . u> I, not the pinching
    monkeypatch.setattr(extremality, "_same_state", lambda u, v, tol: True)
    with pytest.raises(NotExtreme, match="canonical form does not reproduce the channel"):
        extract_canonical(diagonal_pinching_channel())


def test_extracted_forms_satisfy_the_form_invariants():
    # extraction builds its form from one orthonormal eigenbasis and checks
    # only that the form reproduces the channel; the invariants that
    # follow from that construction hold on every representation
    shapes = [(2, 2), (3, 3), (2, 4), (4, 2), (3, 4), (1, 1), (4, 1)]
    for seed in range(1, 22):
        d1, d2 = shapes[seed % len(shapes)]
        ch = random_cstar_extreme(SeededRng(seed), d1, d2)
        bare = choi_channel(to_choi(ch).matrix, d1, d2)
        kraus = kraus_channel(holevo_to_kraus(ch.representation).operators)
        for rep in (ch, bare, kraus):
            form = extract_canonical(rep)
            _check_form_invariants(form, Tolerance())
            assert form.n_blocks == d2 and channel_distance(reconstruct(form), ch) <= 1e-12


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


def test_rank_criterion_and_extraction_disagreeing_is_internal_inconsistency(monkeypatch):
    def fails(ch, basis, tol):
        raise NotExtreme("planted failure")

    monkeypatch.setattr(extremality, "_extract_canonical", fails)
    with pytest.raises(InternalInconsistency, match=r"\(planted failure\) disagree"):
        is_cstar_extreme(diagonal_pinching_channel())
    monkeypatch.setattr(extremality, "_extract_canonical", lambda ch, basis, tol: pinching_form())
    with pytest.raises(InternalInconsistency, match=r"choi_rank=4, d2=2.*\(succeeded\) disagree"):
        is_cstar_extreme(depolarizing_channel(2))


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

    # one block has no pair of distinct states: overlap exactly 1, although
    # this state's overlap with itself rounds to 1 - 2.2e-16
    tilted_state = (E2[:, 0] + E2[:, 1]) / np.sqrt(2)
    single = CanonicalEBForm(2, 2, ((tilted_state, np.eye(2, dtype=complex)),))
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


def test_dominates_eb_no_for_non_hermitian_difference():
    phi = diagonal_pinching_channel()
    skew = to_choi(phi).matrix.copy()
    skew[0, 1] += 1e-3
    v = dominates_eb(phi, choi_channel(skew, 2, 2))
    assert (v.is_eb, v.conclusive, v.ppt, v.certificate) == ("no", True, False, None)


def test_dominates_eb_makes_two_psd_checks(monkeypatch):
    calls = []

    def counted(m, tol=linalg.DEFAULT_TOL):
        calls.append(m)
        return linalg.is_psd(m, tol)

    for module in (channel, extremality, separability):
        monkeypatch.setattr(module, "is_psd", counted)
    phi = diagonal_pinching_channel()
    v = dominates_eb(phi, compose_ad(np.sqrt(0.5) * E2, phi))
    assert v.is_eb == "yes"
    assert len(calls) == 2


def test_dominates_cp_is_false_for_a_non_hermitian_difference():
    # the Choi difference of id and X -> iX is (1 - i) times a psd matrix
    assert not dominates_cp(identity_channel(2), channel_from_map(lambda x: 1j * x, 2, 2))


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


def test_rn_derivative_refuses_cross_terms_between_blocks():
    # Psi(X) = (Phi(X) R + R Phi(X)) / 2 with R off-diagonal by 1e-4: at
    # equal tolerances Psi is not CP (the Radon-Nikodym theorem makes a
    # dominated CP map factor through a commuting R); a loose psd floor lets
    # it reach the commutation check, which refuses the cross terms
    # P_i R P_j = P_i [R, P_j] before the factorization is tried
    phi = diagonal_pinching_channel()
    r = np.array([[0.5, 1e-4], [1e-4, 0.5]])
    psi = channel_from_map(lambda x: (apply(phi, x) @ r + r @ apply(phi, x)) / 2, 2, 2)
    form = extract_canonical(phi)
    with pytest.raises(NotCP):
        rn_derivative(form, psi)
    with pytest.raises(
        VerificationFailed, match="^Psi\\(I\\) does not commute with the range of Phi$"
    ):
        rn_derivative(form, psi, Tolerance(psd_floor=1e-3))


def test_rn_derivative_refuses_a_barycenter_that_does_not_commute_with_the_range():
    # blocks |+><+| and |-><-|; Psi's first output leaks c into the other
    # block. Each cross term P_i R P_j has entries c / 2, the commutator
    # [R, P_1] = i c Y entries c, so for 1e-7 < c <= 2e-7 only the last
    # check, on the commutator, sees the leak; below 1e-7 none does
    plus, minus = np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)
    form = CanonicalEBForm(
        2, 2, ((E2[:, 0], np.outer(plus, plus)), (E2[:, 1], np.outer(minus, minus)))
    )

    def leaking(c: float):
        w = np.sqrt(0.5) * plus + c / np.sqrt(0.5) * minus
        return holevo_channel(
            [(unit(2, 0, 0), np.outer(w, w)), (unit(2, 1, 1), 0.5 * np.outer(minus, minus))]
        )

    assert rn_derivative(form, leaking(0.5e-7)).residual <= 1e-7
    with pytest.raises(VerificationFailed, match="^Psi\\(I\\) does not commute with the range"):
        rn_derivative(form, leaking(1.5e-7))


def test_rn_derivative_decides_one_commutation_fact():
    # Psi = Ad_{Z + leak H} Phi for Z = sum c_i P_i, a generic contraction
    # or I / 2. Past its preconditions, rn_derivative refuses exactly when the
    # commutator or the residual exceeds 100 eq_abs. The two-check rule also
    # bounded each cross term P_i R P_j = P_i [R, P_j], whose entries are at
    # most sqrt(d2) times the commutator's. On these 1,680 calls the rules
    # decide alike but for one input, pinned here: seed 39 (4 x 2), Z
    # commuting, leak 3e-7 at eq_abs 1e-9, whose largest cross-term entry
    # (1.06e-7) exceeds the bound of 1e-7 and whose commutator (9.16e-8) does
    # not, so the two-check rule refused what rn_derivative accepts
    shapes = [(2, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3)]
    tols = [Tolerance(), Tolerance(1e-12, 1e-12, 1e-12)]
    seen = {True: 0, False: 0}
    differ = set()
    for seed in range(1, 41):
        d1, d2 = shapes[seed % 6]
        rng = SeededRng(seed)
        form = extract_canonical(random_cstar_extreme(rng, d1, d2))
        phi = reconstruct(form)
        c = 0.3 + 0.6 * rng.generator.random(form.n_blocks)
        commuting = sum(ci * p for ci, p in zip(c, form.projections))
        g = rng.complex_normal((d2, d2))
        h = _sym(rng.complex_normal((d2, d2)))
        h /= max_abs(h)
        for zi, z in enumerate((commuting, 0.9 * g / np.linalg.norm(g, 2), np.eye(d2) / 2)):
            for leak in (0, 1e-10, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6):
                psi = compose_ad(z + leak * h, phi)
                cross, comm, residual = reference_rn_deviations(form, psi)
                assert cross <= np.sqrt(d2) * comm + 1e-14  # rounding of the products
                for ti, tol in enumerate(tols):
                    bound = 100 * tol.eq_abs
                    try:
                        rn_derivative(form, psi, tol)
                        accepted = True
                    except PreconditionDomination:
                        continue
                    except VerificationFailed as exc:
                        if "positive contraction" in str(exc):
                            continue
                        accepted = False
                    assert accepted == (comm <= bound and residual <= bound), (seed, leak)
                    if accepted != (max(cross, comm, residual) <= bound):
                        assert comm <= bound < cross, (seed, leak)
                        differ.add((seed, zi, leak, ti))
                    seen[accepted] += 1
    assert seen[True] > 100 and seen[False] > 100
    assert differ == {(39, 0, 3e-7, 0)}


def test_rn_derivative_checks_cp_before_the_form_and_dims():
    bad_form = CanonicalEBForm(2, 2, ((E2[:, 0], unit(2, 0, 0)), (E2[:, 0], unit(2, 1, 1))))
    transpose3 = channel_from_map(lambda x: x.T, 3, 3)
    with pytest.raises(NotCP):
        rn_derivative(bad_form, transpose3)
    with pytest.raises(NotCP):
        rn_derivative(pinching_form(), transpose3)


@pytest.mark.parametrize("derivative", [rn_derivative, extremality_witness])
def test_dominated_map_prologue_order(derivative):
    # the form's invariants, then the dims, then domination
    bad_form = CanonicalEBForm(2, 2, ((E2[:, 0], unit(2, 0, 0)), (E2[:, 0], unit(2, 1, 1))))
    with pytest.raises(StructureViolation, match="same pure state"):
        derivative(bad_form, identity_channel(3))
    with pytest.raises(DimensionMismatch, match="do not match the form"):
        derivative(pinching_form(), identity_channel(3))
    doubled = compose_ad(np.sqrt(2.0) * E2, reconstruct(pinching_form()))
    with pytest.raises(PreconditionDomination, match="does not dominate psi"):
        derivative(pinching_form(), doubled)


@pytest.mark.parametrize("subject", ["barycenter Psi(I)", "coefficient matrix"])
@pytest.mark.parametrize("vals", [(1.5, 0.25), (0.5, -0.125), (2.0, -1.0)])
def test_positive_contraction_message(subject, vals):
    hi, lo = vals
    with pytest.raises(VerificationFailed) as info:
        _positive_contraction_eig(np.diag([lo, hi]).astype(complex), subject, Tolerance())
    assert str(info.value) == (
        f"{subject} is not a positive contraction "
        f"(eigenvalues in [{lo:.3e}, {hi:.3e}])"
    )


def test_positive_contraction_bounds_and_callers(monkeypatch):
    tol = Tolerance()
    vals, vecs = _positive_contraction_eig(np.diag([1.0, 0.0]).astype(complex), "m", tol)
    assert vals.tolist() == [1.0, 0.0]
    for inside in (1.0 + 0.5e-9, -0.5e-9):
        _positive_contraction_eig(np.diag([inside, 0.5]).astype(complex), "m", tol)
    for outside in (1.0 + 2e-9, -2e-9):
        with pytest.raises(VerificationFailed):
            _positive_contraction_eig(np.diag([outside, 0.5]).astype(complex), "m", tol)
    subjects = []

    def recorded(m, subject, tol):
        subjects.append(subject)
        return _positive_contraction_eig(m, subject, tol)

    monkeypatch.setattr(extremality, "_positive_contraction_eig", recorded)
    form = two_block_form()
    rn_derivative(form, reconstruct(form))
    phi = diagonal_pinching_channel()
    arveson_derivative(phi, compose_ad(np.sqrt(0.5) * E2, phi))
    assert subjects == ["barycenter Psi(I)", "coefficient matrix"]


def _pair_at_distance(distance: float):
    """Unit vectors u, v in C^2 with ||u - e^{i phi} v|| = distance at the best
    phase, v carrying a phase that the rule must ignore."""
    theta = 2.0 * np.arcsin(distance / 2.0)
    return E2[:, 0], np.exp(0.7j) * np.array([np.cos(theta), np.sin(theta)], dtype=complex)


@pytest.mark.parametrize("eq_abs", [1e-9, 1e-6])
def test_same_state_flips_at_ten_eq_abs(eq_abs):
    tol = Tolerance(eq_abs=eq_abs)
    for distance, same in ((5 * eq_abs, True), (20 * eq_abs, False)):
        u, v = _pair_at_distance(distance)
        assert _same_state(u, v, tol) is same
        # through a caller: two blocks of one form are the same state or not
        form = CanonicalEBForm(2, 2, ((u, unit(2, 0, 0)), (v, unit(2, 1, 1))))
        if same:
            with pytest.raises(StructureViolation, match="same pure state"):
                _check_form_invariants(form, tol)
        else:
            _check_form_invariants(form, tol)


def test_close_states_split_exactly_above_the_same_state_bound():
    # delta = 1 - |<u1, u2>| over half decades from 1e-4 to 1e-18, where the
    # distance of the two states runs from 1.4e-2 down to 1.4e-9
    for k in range(8, 37):
        for d1, d2 in ((2, 2), (3, 3), (2, 4)):
            ch, distance = close_states_channel(d1, d2, 10.0 ** (-k / 2))
            for form in (ch, choi_channel(to_choi(ch).matrix, d1, d2)):
                report = is_cstar_extreme(form)
                assert report.is_cstar_extreme
                assert report.canonical.n_blocks == (2 if distance > 10 * Tolerance().eq_abs else 1)
                _assert_extraction_matches_reference(form)


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
    # the same directions with <x, x><y, y> = 4: R is not a contraction
    with pytest.raises(NotDominated):
        locate_dominated_rank_one(form, 2.0 * E3[:, 0], E3[:, 1])


def test_locate_refuses_superposed_state():
    form = two_block_form()
    x = (E3[:, 0] + E3[:, 2]) / np.sqrt(2)
    with pytest.raises(NotDominated):
        locate_dominated_rank_one(form, x, E3[:, 0])
    # at this scale Phi - E fails psd by only about 5e-13 and the residual of
    # Phi(.) R is about 1e-12: the directions must be judged at unit scale
    with pytest.raises(NotDominated):
        locate_dominated_rank_one(form, 1e-3 * x, 1e-3 * E3[:, 0])


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


def test_locate_is_read_off_rn_derivative():
    form = two_block_form()
    x, y = 0.9 * E3[:, 0], 0.7 * (E3[:, 0] - 1j * E3[:, 1]) / np.sqrt(2)
    piece = locate_dominated_rank_one(form, x, y)
    xn, yn = np.linalg.norm(x), np.linalg.norm(y)
    xu, yu = x / xn, y / yn
    unit_map = holevo_channel([(np.outer(xu, xu.conj()), np.outer(yu, yu.conj()))])
    assert np.array_equal(piece.R, (xn * yn) ** 2 * rn_derivative(form, unit_map).R)
    assert max_abs(piece.R - np.outer(y, y.conj()) * 0.81) <= 1e-15
    with pytest.raises(NotDominated) as refused:
        locate_dominated_rank_one(form, E3[:, 0], E3[:, 2])
    assert isinstance(refused.value.__cause__, PreconditionDomination)
    # the vectors are checked before the form
    broken = CanonicalEBForm(3, 3, ((E3[:, 0], unit(3, 0, 0)),))
    with pytest.raises(DimensionMismatch):
        locate_dominated_rank_one(broken, E2[:, 0], E3[:, 0])
    with pytest.raises(StructureViolation):
        locate_dominated_rank_one(broken, E3[:, 0], E3[:, 0])


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


def test_arveson_refuses_a_dominated_map_outside_the_kraus_span():
    # at equal tolerances the domination check already refuses psi (its
    # Choi difference has an eigenvalue -1e-5), because domination implies
    # the frame identity; a loose psd floor lets psi through to that check
    e11, e22 = unit(2, 0, 0), unit(2, 1, 1)
    phi = kraus_channel([e11])
    psi = kraus_channel([np.sqrt(0.5) * e11, np.sqrt(1e-5) * e22])
    with pytest.raises(PreconditionDomination):
        arveson_derivative(phi, psi)
    with pytest.raises(
        VerificationFailed,
        match=r"not expressible in phi's Kraus frame \(residual 1\.000e-05\)",
    ):
        arveson_derivative(phi, psi, Tolerance(psd_floor=1e-3))


def test_arveson_residual_bound_follows_eq_abs():
    # psi = phi / 2 + 1e-6 Ad(E01) leaves phi's Kraus span by a residual of
    # about 1e-6; the loose psd floor lets it past the domination check, and
    # the frame bound 10 eq_abs (1 + max_abs(C_psi)) decides
    e11, e22, e01 = unit(2, 0, 0), unit(2, 1, 1), unit(2, 0, 1)
    phi = kraus_channel([e11, e22])
    psi = kraus_channel([np.sqrt(0.5) * e11, np.sqrt(0.5) * e22, 1e-3 * e01])
    with pytest.raises(VerificationFailed, match="not expressible in phi's Kraus frame"):
        arveson_derivative(phi, psi, Tolerance(psd_floor=1e-3, eq_abs=1e-9))
    der = arveson_derivative(phi, psi, Tolerance(psd_floor=1e-3, eq_abs=1e-4))
    assert 1e-7 < der.residual <= 1e-5
    assert max_abs(der.T - 0.5 * np.eye(2)) <= 1e-5


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
    # a's first state is within the same-state bound (1e-8) of both of b's
    # states, a's second only of b's first: when a's first takes b's first
    # block, a's second is stranded until a's first moves on to b's second
    def e(t):
        return np.array([np.cos(t), np.sin(t)], dtype=complex)

    a = CanonicalEBForm(2, 2, ((e(0.0), unit(2, 0, 0)), (e(1.2e-8), unit(2, 1, 1))))
    b = ((e(0.6e-8), unit(2, 1, 1)), (e(-0.9e-8), unit(2, 0, 0)))
    checks = [unitary_equivalent(a, CanonicalEBForm(2, 2, blocks)) for blocks in (b, b[::-1])]
    assert all(c.equivalent for c in checks)
    assert np.array_equal(checks[0].witness_unitary, checks[1].witness_unitary)
    assert max_abs(checks[0].witness_unitary - E2) <= 1e-12


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


def test_equivalence_refuses_a_witness_that_does_not_conjugate(monkeypatch):
    # with every pair of states matched, the one-block forms (e0, I) and
    # (e1, I) pass the block matching; the witness U = I then fails to carry
    # <e0, . e0> I onto <e1, . e1> I, by a deviation of 1
    deviations = []

    def recorded(*args):
        deviations.append(_choi_deviation(*args))
        return deviations[-1]

    monkeypatch.setattr(extremality, "_same_state", lambda u, v, tol: True)
    monkeypatch.setattr(extremality, "_choi_deviation", recorded)
    a = CanonicalEBForm(2, 2, ((E2[:, 0], E2),))
    b = CanonicalEBForm(2, 2, ((E2[:, 1], E2),))
    check = unitary_equivalent(a, b)
    assert not check.equivalent and check.witness_unitary is None
    assert deviations == [1.0]


def test_equivalence_dimension_check():
    with pytest.raises(DimensionMismatch):
        unitary_equivalent(pinching_form(), two_block_form())


@pytest.mark.parametrize(
    "blocks, message",
    [
        (((E2[:, 0], np.array([[1.0, 1.0], [0.0, 0.0]])),), "block projection is not hermitian"),
        (
            ((E2[:, 0], unit(2, 1, 1)), (E2[:, 1], unit(2, 1, 1))),
            "block projections are not orthogonal",
        ),
    ],
)
def test_equivalence_checks_the_form_invariants(blocks, message):
    form = CanonicalEBForm(2, 2, blocks)
    with pytest.raises(StructureViolation, match=f"^{message}$"):
        unitary_equivalent(form, form)


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


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
)
def test_extremality_facts_are_local_unitary_invariant(seed, d1, d2, extreme):
    rng = SeededRng(seed)
    if extreme:
        drawn = random_cstar_extreme(rng, d1, d2)
    else:
        drawn = random_unital_eb(rng, d1, d2, n_terms=d1 * d2)
    u, v = rng.unitary(d1), rng.unitary(d2)

    def rotated(left, right):
        # Ad_right o Phi o Ad_left, as a bare Choi channel
        return channel_from_map(
            lambda x: right.conj().T @ apply(drawn, left @ x @ left.conj().T) @ right, d1, d2
        )

    phi, psi = rotated(np.eye(d1), np.eye(d2)), rotated(u, v)
    va, vb = eb_verdict(phi), eb_verdict(psi)
    assert (va.is_eb, va.conclusive, va.ppt) == (vb.is_eb, vb.conclusive, vb.ppt)
    ra, rb = is_cstar_extreme(phi), is_cstar_extreme(psi)
    assert (ra.is_cstar_extreme, ra.choi_rank, ra.is_irreducible) == (
        rb.is_cstar_extreme, rb.choi_rank, rb.is_irreducible
    )
    assert ra.is_cstar_extreme == extreme
    assert commutant_dimension(phi).dim == commutant_dimension(psi).dim
    if extreme:
        assert sorted(ra.canonical.block_ranks()) == sorted(rb.canonical.block_ranks())
        output_only = extract_canonical(rotated(np.eye(d1), v))
        assert unitary_equivalent(ra.canonical, output_only).equivalent


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
