"""Channel file round trips and parse failure modes."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebx import (
    Channel,
    ChoiMatrix,
    EquivalenceCheck,
    ExtremalityReport,
    KrausSet,
    ParseError,
    SeededRng,
    channel_from_json,
    channel_to_json,
    holevo_to_kraus,
    kraus_channel,
    load_channel,
    random_unital_eb,
    save_channel,
    to_choi,
)
from ebx.gallery import (
    diagonal_pinching_channel,
    tetrahedral_channel,
    two_block_pinching_channel,
)
from ebx.linalg import max_abs
from ebx.serialize import _to_json

from support import channel_distance


@pytest.mark.parametrize(
    "build",
    [diagonal_pinching_channel, two_block_pinching_channel, tetrahedral_channel],
)
def test_gallery_round_trip_bit_for_bit(build):
    # rational-entry channels survive JSON exactly
    ch = build()
    back = channel_from_json(channel_to_json(ch))
    assert type(back.representation) is type(ch.representation)
    assert (back.d1, back.d2, back.label) == (ch.d1, ch.d2, ch.label)
    assert channel_distance(back, ch) == 0.0


def test_generated_round_trip_close():
    ch = random_unital_eb(SeededRng(40), 2, 3, 3)
    back = channel_from_json(channel_to_json(ch))
    assert channel_distance(back, ch) <= 1e-15


def test_round_trip_through_file(tmp_path):
    ch = random_unital_eb(SeededRng(41), 3, 2, 4)
    path = tmp_path / "channel.json"
    save_channel(ch, path)
    back = load_channel(path)
    assert channel_distance(back, ch) <= 1e-15
    # file is plain JSON with the documented top-level shape
    doc = json.loads(path.read_text())
    assert set(doc) == {"d1", "d2", "label", "representation"}
    assert doc["representation"]["type"] == "holevo"


def test_complex_entries_encode_as_pairs():
    op = np.array([[1.0, 1j], [0.0, 2.0 - 3.0j]])
    doc = channel_to_json(kraus_channel([op]))
    rows = doc["representation"]["operators"][0]
    assert rows[0][0] == 1.0  # real entries stay plain numbers
    assert rows[0][1] == [0.0, 1.0]
    assert rows[1][1] == [2.0, -3.0]
    back = channel_from_json(doc)
    assert max_abs(back.representation.operators[0] - op) == 0.0


@pytest.mark.parametrize(
    "dtype, entry, written",
    [(int, 2, "2.0"), (bool, True, "1.0"), (np.float32, 0.1, "0.10000000149011612")],
)
def test_real_and_integer_arrays_encode_as_floats(dtype, entry, written):
    # an entry is written as the complex number it stands for: never as an
    # int or a bool, and a float32 entry as its exact double
    m = np.array([[entry, 0], [0, entry]], dtype=dtype)
    text = f"[[{written}, 0.0], [0.0, {written}]]"
    choi = channel_to_json(Channel(1, 2, ChoiMatrix(1, 2, m)))
    assert json.dumps(choi) == (
        '{"d1": 1, "d2": 2, "representation": {"type": "choi", "matrix": %s}}' % text
    )
    kraus = channel_to_json(Channel(2, 2, KrausSet(2, 2, (m,))))
    assert json.dumps(kraus["representation"]) == '{"type": "kraus", "operators": [%s]}' % text


def test_results_encode_without_none_fields_and_with_json_booleans():
    report = ExtremalityReport(
        choi_rank=4,
        is_cstar_extreme=False,
        canonical=None,
        is_cq_linear_extreme_in_ucp=None,
        is_irreducible=True,
    )
    assert json.dumps(_to_json(report)) == (
        '{"choi_rank": 4, "is_cstar_extreme": false, "is_irreducible": true}'
    )
    check = EquivalenceCheck(equivalent=True, witness_unitary=np.array([[0, 1j], [1j, 0]]))
    assert _to_json(check) == {
        "equivalent": True,
        "witness_unitary": [[0.0, [0.0, 1.0]], [[0.0, 1.0], 0.0]],
    }
    assert _to_json(EquivalenceCheck(equivalent=False, witness_unitary=None)) == {"equivalent": False}
    # numpy scalars are numbers; Python ints, bools and strings pass through
    mixed = (np.float64(0.5), np.int64(3), 3, True, "x")
    assert json.dumps(_to_json(mixed)) == '[0.5, 3.0, 3, true, "x"]'


def test_unknown_representation_is_refused():
    ch = Channel(2, 2, SimpleNamespace(d1=2, d2=2))
    with pytest.raises(ParseError, match="^unknown representation type SimpleNamespace$"):
        channel_to_json(ch)


def test_label_is_optional():
    ch = kraus_channel([np.eye(2)])
    doc = channel_to_json(ch)
    assert "label" not in doc
    assert channel_from_json(doc).label is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("d1"),
        lambda d: d.pop("representation"),
        lambda d: d.update(d1=0),
        lambda d: d.update(d1=2.5),
        lambda d: d.update(d1=True),
        lambda d: d.update(label=7),
        lambda d: d["representation"].pop("type"),
        lambda d: d["representation"].update(type="bloch"),
        lambda d: d["representation"].update(operators=[]),
        lambda d: d["representation"]["operators"][0].pop(),
        lambda d: d["representation"]["operators"][0][0].__setitem__(0, "x"),
        lambda d: d["representation"]["operators"][0][0].__setitem__(0, [1, 2, 3]),
        lambda d: d["representation"]["operators"][0][0].__setitem__(0, True),
        lambda d: d["representation"]["operators"][0][0].__setitem__(0, float("nan")),
        lambda d: d.update(representation={"type": "holevo", "terms": []}),
    ],
)
def test_malformed_documents_raise_parse_error(mutate):
    doc = channel_to_json(diagonal_pinching_channel())
    mutate(doc)
    with pytest.raises(ParseError):
        channel_from_json(doc)


@pytest.mark.parametrize("dims", [(True, True), (True, 1), (1, False)])
def test_boolean_dims_raise_parse_error(dims):
    doc = {"d1": 1, "d2": 1, "representation": {"type": "choi", "matrix": [[1]]}}
    assert channel_from_json(doc).d1 == 1
    doc["d1"], doc["d2"] = dims
    with pytest.raises(ParseError, match="^d1 and d2 must be positive integers$"):
        channel_from_json(doc)


def test_choi_representation_needs_its_matrix():
    doc = {"d1": 1, "d2": 1, "representation": {"type": "choi"}}
    with pytest.raises(ParseError, match="^choi representation needs a 'matrix' field$"):
        channel_from_json(doc)


def test_non_object_document_raises():
    with pytest.raises(ParseError):
        channel_from_json([1, 2, 3])


def test_holevo_term_validation():
    doc = channel_to_json(tetrahedral_channel())
    doc["representation"]["terms"][0].pop("R")
    with pytest.raises(ParseError):
        channel_from_json(doc)


def test_wrong_matrix_shape_raises():
    doc = channel_to_json(diagonal_pinching_channel())
    doc["representation"]["operators"][0] = [[1.0, 0.0]]  # 1x2, expected 2x2
    with pytest.raises(ParseError):
        channel_from_json(doc)


def test_empty_file_raises_parse_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ParseError):
        load_channel(path)


def test_truncated_json_raises_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"d1": 2, "d2"')
    with pytest.raises(ParseError):
        load_channel(path)


def _fuzz_seeds() -> list[str]:
    """Valid documents of each representation type at d1, d2 in {1, 2}, as
    JSON text, so that each example mutates a fresh copy."""
    docs = []
    for d1 in (1, 2):
        for d2 in (1, 2):
            ch = random_unital_eb(SeededRng(42), d1, d2, 2)
            h = ch.representation
            for rep in (h, holevo_to_kraus(h), ChoiMatrix(d1, d2, to_choi(ch).matrix)):
                docs.append(json.dumps(channel_to_json(Channel(d1, d2, rep, label="seed"))))
    return docs


_FUZZ_SEEDS = _fuzz_seeds()

# wrong types, NaN and infinities, booleans, small and negative integers, and
# representation tags that are unknown or belong to another representation
_JUNK = st.one_of(
    st.sampled_from([None, True, False, math.nan, math.inf, -math.inf]),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(["kraus", "choi", "holevo", "bloch", ""]),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(), st.booleans()), max_size=3),
    st.dictionaries(st.sampled_from(["type", "F", "R", "matrix"]), st.integers(0, 2), max_size=2),
)


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, (*path, key))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_malformed_documents_raise_only_parse_error(data):
    doc = json.loads(data.draw(st.sampled_from(_FUZZ_SEEDS)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        action = data.draw(st.sampled_from(["replace", "delete", "append"]))
        if not path:
            doc = data.draw(_JUNK)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if action == "delete":
            del parent[path[-1]]  # a ragged row, a short matrix, a missing field
        elif action == "append" and isinstance(node, list):
            node.append(data.draw(_JUNK))
        else:
            parent[path[-1]] = data.draw(_JUNK)
    try:
        channel_from_json(doc)
    except ParseError:
        pass
