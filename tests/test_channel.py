"""Representations, conversions, and structural operations on channels."""

import re
import tracemalloc
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebx import (
    DEFAULT_TOL,
    Channel,
    ChoiMatrix,
    DimensionMismatch,
    HolevoEnsemble,
    InternalInconsistency,
    KrausSet,
    NotCP,
    NotPSD,
    NotUnitalTP,
    SeededRng,
    adjoint,
    apply,
    channel_from_map,
    choi_channel,
    choi_to_kraus,
    commutant_dimension,
    compose_ad,
    fixed_point_check,
    hermitian_basis,
    holevo_channel,
    holevo_to_kraus,
    identity_channel,
    is_cstar_extreme,
    kraus_channel,
    matrix_units,
    predicates,
    random_cstar_extreme,
    random_unital_eb,
    stinespring,
    to_choi,
)
from ebx import gallery
from ebx.channel import Representation, _apply_stack, _channel_range_basis, _commutant_report
from ebx.linalg import _sym, max_abs, svd_rank

from support import (
    range_is_scalar,
    reference_apply,
    reference_commutant_dimension,
    reference_commutator_system,
    unit,
)


def random_kraus_channel(rng: SeededRng, d1: int, d2: int, n: int):
    return kraus_channel([rng.complex_normal((d1, d2)) for _ in range(n)])


# --- construction and validation ---


def test_kraus_channel_infers_dims():
    ch = kraus_channel([np.ones((2, 3))])
    assert (ch.d1, ch.d2) == (2, 3)


def test_kraus_channel_rejects_mixed_shapes():
    with pytest.raises(DimensionMismatch):
        kraus_channel([np.eye(2), np.ones((2, 3))])


def test_kraus_channel_rejects_empty():
    with pytest.raises(ValueError):
        kraus_channel([])


def test_choi_channel_shape_check():
    with pytest.raises(DimensionMismatch):
        choi_channel(np.eye(5), 2, 2)


@pytest.mark.parametrize("dims", [(True, True), (True, 1), (1, False)])
def test_boolean_dims_are_rejected(dims):
    with pytest.raises(DimensionMismatch, match="positive integers"):
        choi_channel([[1]], *dims)


def test_holevo_channel_shape_check():
    with pytest.raises(DimensionMismatch):
        holevo_channel([(np.eye(2), np.eye(3)), (np.eye(3), np.eye(3))])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KrausSet(2, 2, ()), "KrausSet requires at least one operator"),
        (lambda: HolevoEnsemble(2, 2, ()), "HolevoEnsemble requires at least one term"),
        (lambda: holevo_channel([]), "need at least one Holevo term"),
    ],
)
def test_empty_representations_are_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: HolevoEnsemble(2, 2, ((np.eye(2), np.eye(3)),)),
            "Holevo output of shape (3, 3), expected (2, 2)",
        ),
        (
            lambda: Channel(2, 2, KrausSet(2, 3, (np.zeros((2, 3)),))),
            "representation dims (2, 3) do not match channel dims (2, 2)",
        ),
        (
            lambda: kraus_channel(
                [np.eye(2)], certificate=HolevoEnsemble(3, 3, ((np.eye(3), np.eye(3)),))
            ),
            "certificate dims do not match channel dims",
        ),
        (
            lambda: channel_from_map(lambda x: np.zeros((3, 3)), 2, 2),
            "map produced shape (3, 3), expected (2, 2)",
        ),
        (
            lambda: fixed_point_check(identity_channel(2), np.eye(3)),
            "operand of shape (3, 3), expected (2, 2)",
        ),
    ],
)
def test_mismatched_dims_are_rejected(build, message):
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        build()


def test_representation_is_the_union_of_the_three_forms():
    assert typing.get_args(Representation) == (KrausSet, ChoiMatrix, HolevoEnsemble)
    channels = (
        kraus_channel([np.eye(2)]),
        choi_channel(to_choi(identity_channel(2)).matrix, 2, 2),
        holevo_channel([(np.eye(2), np.eye(2) / 2)]),
    )
    for ch, form in zip(channels, typing.get_args(Representation)):
        assert type(ch.representation) is form
        assert isinstance(ch.representation, Representation)


def test_matrix_units_and_hermitian_basis():
    units = matrix_units(3)
    assert len(units) == 9
    assert max_abs(units[1] - unit(3, 0, 1)) == 0.0
    basis = hermitian_basis(3)
    assert len(basis) == 9
    gram = np.array(
        [[np.trace(a.conj().T @ b) for b in basis] for a in basis]
    )
    assert max_abs(gram - np.eye(9)) <= 1e-12


# --- Choi matrix conventions ---


def test_identity_choi_is_rank_one_pattern():
    c = to_choi(identity_channel(2))
    expected = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 1.0
    assert max_abs(c.matrix - expected) == 0.0
    assert svd_rank(c.matrix) == 1


def test_choi_blocks_are_matrix_unit_images():
    rng = SeededRng(10)
    ch = random_kraus_channel(rng, 2, 3, 2)
    blocks = to_choi(ch).matrix.reshape(2, 3, 2, 3)
    for i in range(2):
        for j in range(2):
            assert max_abs(blocks[i, :, j, :] - apply(ch, unit(2, i, j))) <= 1e-12


def test_holevo_choi_is_sum_of_krons():
    f = SeededRng(1).psd(2)
    r = SeededRng(2).psd(3)
    ch = holevo_channel([(f, r)])
    assert max_abs(to_choi(ch).matrix - np.kron(f.T, r)) <= 1e-14


# --- representation round trips ---


def test_choi_to_kraus_round_trip():
    rng = SeededRng(11)
    for d1, d2 in [(2, 2), (2, 3), (3, 2)]:
        ch = random_kraus_channel(rng, d1, d2, d1 * d2)
        c = to_choi(ch)
        back = to_choi(kraus_channel(choi_to_kraus(c).operators))
        assert max_abs(back.matrix - c.matrix) <= 1e-10 * max(1.0, max_abs(c.matrix))


def test_choi_to_kraus_operator_count_matches_rank():
    ch = identity_channel(3)
    ops = choi_to_kraus(to_choi(ch)).operators
    assert len(ops) == 1
    assert max_abs(ops[0] @ ops[0].conj().T - np.eye(3)) <= 1e-12


def test_choi_to_kraus_zero_map():
    ops = choi_to_kraus(to_choi(kraus_channel([np.zeros((2, 2))]))).operators
    assert len(ops) == 1
    assert max_abs(ops[0]) == 0.0


def test_choi_to_kraus_rejects_non_cp():
    cases = [
        # the transpose map: hermitian Choi matrix (the swap), eigenvalue -1
        (to_choi(channel_from_map(lambda x: x.T, 2, 2)),
         "Choi matrix has an eigenvalue below the psd floor"),
        (ChoiMatrix(1, 2, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)),
         "Choi matrix is not hermitian: matrix deviates from hermitian by 1.000e+00 "
         "(eq_abs=1.0e-09)"),
    ]
    for choi, message in cases:
        with pytest.raises(NotCP) as excinfo:
            choi_to_kraus(choi)
        assert not isinstance(excinfo.value, NotPSD)
        assert str(excinfo.value) == message


def test_holevo_to_kraus_matches_action():
    rng = SeededRng(12)
    terms = [(rng.psd(2), rng.psd(2)) for _ in range(2)]
    ch = holevo_channel(terms)
    back = kraus_channel(holevo_to_kraus(ch.representation).operators)
    for b in hermitian_basis(2):
        assert max_abs(apply(back, b) - apply(ch, b)) <= 1e-10


def test_apply_agrees_across_representations():
    rng = SeededRng(13)
    ch = random_kraus_channel(rng, 3, 2, 3)
    as_choi = choi_channel(to_choi(ch).matrix, 3, 2)
    x = rng.hermitian(3)
    assert max_abs(apply(ch, x) - apply(as_choi, x)) <= 1e-12 * max(1.0, max_abs(x))


def test_apply_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        apply(identity_channel(2), np.eye(3))


def test_apply_rejects_non_finite_entry():
    x = np.eye(2, dtype=complex)
    x[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        apply(identity_channel(2), x)


def _stack_inputs(rng: SeededRng, d: int):
    """(n, d, d) stacks: the hermitian basis, the matrix units with their
    exact zeros, rank-one v v^*, and unstructured complex matrices."""
    yield np.array(hermitian_basis(d))
    yield np.array(matrix_units(d))
    vs = rng.complex_normal((4, d))
    yield vs[:, :, None] * vs.conj()[:, None, :]
    yield rng.complex_normal((5, d, d))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("d1", range(1, 10))
def test_apply_stack_equals_per_matrix_loop_bitwise(d1):
    # int64 views compare bit patterns: the stacked products and sums must
    # be those of the one-matrix loop, so extraction output cannot move
    for d2 in range(1, 10):
        rng = SeededRng(9300 + 10 * d1 + d2)
        kraus = random_kraus_channel(rng, d1, d2, 3)
        channels = (
            kraus,
            holevo_channel([(rng.psd(d1), rng.psd(d2)) for _ in range(3)]),
            choi_channel(to_choi(kraus).matrix, d1, d2),
        )
        for xs in _stack_inputs(rng, d1):
            for ch in channels:
                out = _apply_stack(ch, xs)
                assert out.shape == (len(xs), d2, d2)
                expected = np.array([reference_apply(ch, x) for x in xs])
                assert np.array_equal(_bits(out), _bits(expected))
                assert np.array_equal(_bits(apply(ch, xs[-1])), _bits(expected[-1]))


@pytest.mark.parametrize("d", range(1, 10))
def test_sym_on_a_stack_equals_per_matrix_bitwise(d):
    rng = SeededRng(9400 + d)
    for xs in _stack_inputs(rng, d):
        stacked = _sym(xs)
        for k, x in enumerate(xs):
            assert np.array_equal(_bits(stacked[k]), _bits(_sym(x)))


def test_channel_from_map_reproduces_callable():
    rng = SeededRng(14)

    def fn(x):
        return np.trace(x) * np.eye(2) / 2.0

    ch = channel_from_map(fn, 2, 2)
    x = rng.hermitian(2)
    assert max_abs(apply(ch, x) - fn(x)) <= 1e-12


# --- adjoint ---


def test_adjoint_swaps_holevo_pairs():
    f, r = SeededRng(1).psd(2), SeededRng(2).psd(3)
    adj = adjoint(holevo_channel([(f, r)]))
    assert (adj.d1, adj.d2) == (3, 2)
    g, s = adj.representation.terms[0]
    assert max_abs(g - r) == 0.0
    assert max_abs(s - f) == 0.0


@pytest.mark.parametrize("builder", ["kraus", "choi", "holevo"])
def test_adjoint_duality_and_involution(builder):
    rng = SeededRng(15)
    base = random_kraus_channel(rng, 2, 3, 2)
    if builder == "kraus":
        ch = base
    elif builder == "choi":
        ch = choi_channel(to_choi(base).matrix, 2, 3)
    else:
        ch = holevo_channel([(rng.psd(2), rng.psd(3)) for _ in range(2)])
    adj = adjoint(ch)
    x = rng.hermitian(2)
    y = rng.hermitian(3)
    # <Phi(x), y> = <x, Phi^*(y)> in the trace pairing
    lhs = np.trace(apply(ch, x).conj().T @ y)
    rhs = np.trace(x.conj().T @ apply(adj, y))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    twice = adjoint(adj)
    assert max_abs(to_choi(twice).matrix - to_choi(ch).matrix) <= 1e-10


def test_adjoint_exchanges_unital_and_tp():
    # compression onto the (1,1) entry: unital but not trace preserving
    ch = kraus_channel([np.array([[1.0], [0.0]])])
    p = predicates(ch)
    assert p.is_unital and not p.is_tp
    q = predicates(adjoint(ch))
    assert q.is_tp and not q.is_unital


# --- predicates ---


def test_predicates_identity():
    p = predicates(identity_channel(3))
    assert p.is_cp and p.is_unital and p.is_tp and p.is_hermiticity_preserving


def test_predicates_transpose_map_not_cp():
    p = predicates(channel_from_map(lambda x: x.T, 2, 2))
    assert not p.is_cp
    assert p.is_unital and p.is_tp and p.is_hermiticity_preserving


def test_predicates_non_unital():
    ch = kraus_channel([np.array([[1.0, 0.0], [0.0, 0.5]])])
    p = predicates(ch)
    assert p.is_cp and not p.is_unital


def test_predicates_non_hermiticity_preserving():
    ch = choi_channel(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 2)
    p = predicates(ch)
    assert not p.is_hermiticity_preserving and not p.is_cp


# --- Stinespring dilation ---


def test_stinespring_reproduces_channel():
    rng = SeededRng(16)
    ch = random_kraus_channel(rng, 2, 3, 2)
    tri = stinespring(ch)
    assert tri.dilation_dim == 2
    assert tri.isometry.shape == (2 * 2, 3)
    x = rng.hermitian(2)
    lifted = np.kron(x, np.eye(tri.dilation_dim))
    out = tri.isometry.conj().T @ lifted @ tri.isometry
    assert max_abs(out - apply(ch, x)) <= 1e-10


def test_stinespring_rows_are_indexed_system_then_dilation():
    ch = random_kraus_channel(SeededRng(18), 3, 2, 4)
    tri = stinespring(ch)
    rows = tri.isometry.reshape(3, tri.dilation_dim, 2)
    for i, op in enumerate(ch.representation.operators):
        assert np.array_equal(rows[:, i, :], op)


def test_stinespring_rejects_a_dilation_of_another_map(monkeypatch):
    # V_i -> U V_i keeps sum V_i^* V_i = Phi(I) but changes the map, so only
    # the Choi-block comparison can catch it
    rng = SeededRng(19)
    ch = random_kraus_channel(rng, 2, 3, 2)
    u = rng.unitary(2)
    monkeypatch.setattr(
        "ebx.channel._kraus_ops",
        lambda c, tol: tuple(u @ op for op in c.representation.operators),
    )
    with pytest.raises(InternalInconsistency) as excinfo:
        stinespring(ch)
    (rep_dev,) = map(float, re.findall(r"representation dev ([^)]+)\)$", str(excinfo.value)))
    assert rep_dev > 1e-3
    # the wrong family keeps the gram V^* V = Phi(I), which therefore
    # could not have caught it
    ops = [u @ op for op in ch.representation.operators]
    v = np.stack(ops, axis=1).reshape(-1, 3)
    assert max_abs(v.conj().T @ v - apply(ch, np.eye(2))) <= 1e-12


def test_stinespring_isometry_iff_unital():
    u = SeededRng(17).unitary(2)
    half = np.sqrt(0.5)
    ch = kraus_channel([half * np.eye(2), half * u])
    tri = stinespring(ch)
    v = tri.isometry
    assert max_abs(v.conj().T @ v - np.eye(2)) <= 1e-12


# --- fixed points ---


def pinching_mid():
    v = np.diag([1.0, -1.0]).astype(complex)
    return kraus_channel([np.eye(2) / np.sqrt(2), v / np.sqrt(2)])


def test_fixed_point_examples():
    ch = pinching_mid()
    r = fixed_point_check(ch, unit(2, 0, 0))
    assert r.is_fixed and r.commutes_with_all_kraus
    r = fixed_point_check(ch, unit(2, 0, 1))
    assert not r.is_fixed and not r.commutes_with_all_kraus
    r = fixed_point_check(ch, np.eye(2))
    assert r.is_fixed and r.commutes_with_all_kraus



def test_fixed_point_disagreement_is_internal_inconsistency(monkeypatch):
    # a Kraus set that is not the channel's: e_00 is fixed by the map but
    # does not commute with the swapped operators
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr("ebx.channel._kraus_ops", lambda c, tol: (swap,))
    with pytest.raises(
        InternalInconsistency,
        match="^fixed-point check disagreement: is_fixed=True, commutes_with_all_kraus=False$",
    ):
        fixed_point_check(pinching_mid(), unit(2, 0, 0))

def test_fixed_point_requires_unital_tp_square():
    with pytest.raises(NotUnitalTP):
        fixed_point_check(kraus_channel([np.ones((2, 3)) / 2]), np.eye(2))
    nonunital = kraus_channel([np.diag([1.0, 0.5])])
    with pytest.raises(NotUnitalTP):
        fixed_point_check(nonunital, np.eye(2))


# --- commutant of the range ---


def test_commutant_of_pinching_is_diagonals():
    rep = commutant_dimension(pinching_mid())
    assert rep.dim == 2
    assert not rep.is_irreducible


def test_commutant_of_trace_channel_is_everything():
    ch = holevo_channel([(np.eye(2) / 2.0, np.eye(2))])
    rep = commutant_dimension(ch)
    assert rep.dim == 4
    assert not rep.is_irreducible


def test_commutant_of_scalar_output_is_trivial():
    ch = holevo_channel([(np.eye(2) / 2.0, np.eye(1))])
    rep = commutant_dimension(ch)
    assert rep.dim == 1
    assert rep.is_irreducible


def test_commutant_of_identity_channel():
    # the range is all of M_3, so only scalars commute with it
    rep = commutant_dimension(identity_channel(3))
    assert rep.dim == 1
    assert rep.is_irreducible


def as_kraus(ch):
    return kraus_channel(choi_to_kraus(to_choi(ch)).operators)


def test_commutant_of_scalar_range_is_everything():
    # one block with P = I: every image is a multiple of I, so the whole of
    # M_3 commutes with the range, in Holevo form and after a Kraus round trip
    ch = random_cstar_extreme(SeededRng(3), 3, 3, n_blocks=1)
    for form in (ch, as_kraus(ch)):
        rep = commutant_dimension(form)
        assert rep.dim == 9
        assert not rep.is_irreducible


def test_commutant_of_large_scalar_range_is_everything():
    ch = random_cstar_extreme(SeededRng(3), 8, 8, n_blocks=1)
    assert commutant_dimension(ch).dim == 64
    assert not is_cstar_extreme(ch).is_irreducible


def _reference_draws():
    """500 seeded unital EB draws with d1, d2 in {2, 3, 4}, alternating
    C*-extreme channels over every block count and random EB channels over
    1..2*d2 terms."""
    draws = []
    for i in range(500):
        rng = SeededRng(7000 + i)
        d1, d2 = 2 + i % 3, 2 + (i // 3) % 3
        k = i // 9
        if i % 2 == 0:
            draws.append(random_cstar_extreme(rng, d1, d2, n_blocks=1 + k % d2))
        else:
            draws.append(random_unital_eb(rng, d1, d2, n_terms=1 + k % (2 * d2)))
    return draws


def _gallery_channels():
    channels = [
        gallery.diagonal_pinching_channel(),
        gallery.swapped_pinching_channel(),
        gallery.two_block_pinching_channel(),
        gallery.tetrahedral_channel(),
        gallery.partial_averaging_channel(),
        gallery.inflation_channel(),
    ] + [gallery.depolarizing_channel(d) for d in (2, 3, 4)]
    for outcome in gallery.run_all():
        channels.extend(outcome.channels.values())
    return channels


def test_commutant_matches_full_stacked_system():
    # the range-basis reduction agrees with the d1^2-block system wherever
    # the range is not the scalars, and gives all of M_d2 where it is
    cases = [form for ch in _reference_draws() for form in (ch, as_kraus(ch))]
    cases += _gallery_channels()
    scalar = 0
    for ch in cases:
        dim = commutant_dimension(ch).dim
        if range_is_scalar(ch):
            scalar += 1
            assert dim == ch.d2 ** 2, ch.label
        else:
            assert dim == reference_commutant_dimension(ch), ch.label
    assert 0 < scalar < len(cases)


def _mixture(phi, psi, t):
    """The Holevo channel of the terms of (1 - t) phi and t psi."""
    terms = [(f, (1.0 - t) * r) for f, r in phi.representation.terms]
    terms += [(f, t * r) for f, r in psi.representation.terms]
    return holevo_channel(terms)


def _stacked_commutant_dimension(basis, tol) -> int:
    """The cutoff rule of ``_commutant_report`` on the SVD of the full stack."""
    s = np.linalg.svd(reference_commutator_system(basis), compute_uv=False)
    return basis.shape[1] ** 2 - int(np.count_nonzero(s > tol.rank_rel * max(float(s[0]), 1.0)))


def test_commutant_agrees_with_stack_near_the_cutoff():
    # mixtures of a C*-extreme map and a random EB map whose small singular
    # values cross rank_rel as t grows: the gram-matrix split must count
    # exactly the singular values that the full stack's SVD counts
    shapes = [(2, 2), (3, 3), (2, 4), (4, 2), (3, 4)]
    dims = set()
    for seed in range(1, 41):
        d1, d2 = shapes[(seed - 1) % len(shapes)]
        rng = SeededRng(seed)
        phi = random_cstar_extreme(rng, d1, d2)
        psi = random_unital_eb(rng, d1, d2, n_terms=3)
        for t in np.logspace(-11, -8, 25):
            basis = _channel_range_basis(_mixture(phi, psi, t), DEFAULT_TOL)
            dim = _commutant_report(basis, DEFAULT_TOL).dim
            assert dim == _stacked_commutant_dimension(basis, DEFAULT_TOL), (seed, t)
            dims.add((d2, dim))
    # the scan crosses the cutoff: blocks survive, then only scalars remain,
    # with partial merges in between
    assert {(2, 2), (2, 1), (4, 4), (4, 3), (4, 2), (4, 1)} <= dims


def _commutant_bases(rng: SeededRng, d: int):
    """(r, d, d) stacks for r in {1, 2, d, d^2}: orthonormal rows of a thin
    SVD, as commutant_dimension uses, and sparse ones whose exact and signed
    zeros and -1 entries make exact zero products in the commutators."""
    for r in sorted({1, min(2, d * d), d, d * d}):
        raw = rng.complex_normal((r, d * d))
        yield np.linalg.svd(raw, full_matrices=False)[2].reshape(r, d, d)
        sparse = rng.complex_normal((r, d, d))
        gen = rng.generator
        sparse[gen.random(sparse.shape) < 0.4] = 0.0
        sparse.real[gen.random(sparse.shape) < 0.3] = -0.0
        sparse.imag[gen.random(sparse.shape) < 0.3] = -0.0
        sparse[gen.random(sparse.shape) < 0.1] = -1.0
        yield sparse


@pytest.mark.parametrize("d", range(1, 10))
def test_commutant_report_equals_kron_stack_rule(d):
    # the gram route must count exactly what the SVD of the formed stack counts
    rng = SeededRng(9100 + d)
    for basis in _commutant_bases(rng, d):
        report = _commutant_report(basis, DEFAULT_TOL)
        expected = _stacked_commutant_dimension(basis, DEFAULT_TOL)
        assert report.dim == expected, (len(basis), d)
        assert report.is_irreducible == (expected == 1)
        # the identity always commutes, and a single generator commutes with itself
        assert 1 <= report.dim <= d * d
        if len(basis) == 1:
            assert report.dim >= min(2, d * d)


def test_commutant_of_large_full_range_stays_small():
    ch = random_unital_eb(SeededRng(1), 12, 12, n_terms=144)
    tracemalloc.start()
    try:
        dim = commutant_dimension(ch).dim
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 1
    assert peak < 16e6
    # the floor at 1 keeps a scalar range at all of M_16
    assert commutant_dimension(random_cstar_extreme(SeededRng(3), 16, 16, n_blocks=1)).dim == 256


def test_commutant_of_range_not_closed_under_adjoints():
    # neither range is closed under adjoints: X -> x11 I + x12 E12 has the
    # commutant span{I, E12}, which no eigenbasis of a hermitian part
    # (B + B^*) / 2 of its elements block-diagonalizes
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    a = np.array([[1, 2], [0, 1j]])
    upper = channel_from_map(lambda x: x[0, 0] * np.eye(2) + x[0, 1] * e12, 2, 2)
    left = channel_from_map(lambda x: a @ x, 2, 2)
    for ch, expected in ((upper, 2), (left, 1)):
        assert commutant_dimension(ch).dim == expected
        assert reference_commutant_dimension(ch) == expected


channel_kinds = st.sampled_from(["extreme", "eb"])
representations = st.sampled_from(["holevo", "kraus", "choi"])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=4),
    channel_kinds,
    representations,
)
def test_commutant_invariant_under_output_unitary(seed, d1, d2, kind, rep):
    rng = SeededRng(seed)
    size = 1 + int(rng.generator.integers(d2 if kind == "extreme" else 2 * d2))
    if kind == "extreme":
        ch = random_cstar_extreme(rng, d1, d2, n_blocks=size)
    else:
        ch = random_unital_eb(rng, d1, d2, n_terms=size)
    if rep == "kraus":
        ch = as_kraus(ch)
    elif rep == "choi":
        ch = choi_channel(to_choi(ch).matrix, d1, d2)
    rotated = compose_ad(rng.unitary(d2), ch)
    assert commutant_dimension(rotated) == commutant_dimension(ch)
    assert is_cstar_extreme(rotated).is_irreducible == is_cstar_extreme(ch).is_irreducible


# --- composition with a conjugation ---


def test_compose_ad_matches_action():
    rng = SeededRng(18)
    ch = random_kraus_channel(rng, 2, 3, 2)
    t = rng.complex_normal((3, 3))
    comp = compose_ad(t, ch)
    x = rng.hermitian(2)
    expected = t.conj().T @ apply(ch, x) @ t
    assert max_abs(apply(comp, x) - expected) <= 1e-10 * max(1.0, max_abs(expected))


def test_compose_ad_on_holevo_keeps_certificate_semantics():
    rng = SeededRng(19)
    ch = holevo_channel([(rng.psd(2), rng.psd(2)) for _ in range(2)])
    t = rng.complex_normal((2, 2))
    comp = compose_ad(t, ch)
    assert comp.holevo_certificate is not None
    x = rng.hermitian(2)
    expected = t.conj().T @ apply(ch, x) @ t
    assert max_abs(apply(comp, x) - expected) <= 1e-10 * max(1.0, max_abs(expected))


def test_compose_ad_shape_check():
    with pytest.raises(DimensionMismatch):
        compose_ad(np.eye(3), identity_channel(2))
