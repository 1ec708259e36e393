"""The CLI against checked-in golden outputs (tests/golden/).

Each input file under ``tests/golden/inputs`` has a record of the stdout,
stderr and exit code of ``ebx analyze --json`` and ``ebx km --json``. Exit
codes, stderr, JSON keys and their order, ints, bools, strings and nulls must
match exactly; floats may differ by 1e-12 absolute, because another numpy or
LAPACK build can round the last bits differently. Regenerate the records
with ``tests/golden/regenerate.py`` when an output change is intended.
"""

from __future__ import annotations

import json

import pytest

from golden.regenerate import COMMANDS, INPUTS, OUTPUTS, record

FLOAT_ABS = 1e-12

NAMES = sorted(p.name for p in INPUTS.glob("*.json"))


def assert_matches(got, want, where: str = "$") -> None:
    """Structural equality with floats compared within FLOAT_ABS."""
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        assert type(got) is float, f"{where}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_ABS, f"{where}: {got!r} != {want!r}"
        return
    assert type(got) is type(want), f"{where}: {got!r} is not like {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def assert_record_matches(got: dict, want: dict) -> None:
    assert got["exit_code"] == want["exit_code"]
    assert got["stderr"] == want["stderr"]
    if want["stdout"]:
        assert_matches(json.loads(got["stdout"]), json.loads(want["stdout"]))
    else:
        assert got["stdout"] == ""


def test_golden_inputs_cover_gallery_and_random_files():
    assert len(NAMES) == 26
    assert sorted(p.name for p in OUTPUTS.glob("*.json")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_cli_matches_golden_record(name):
    with open(OUTPUTS / name, encoding="utf-8") as fh:
        want = json.load(fh)
    got = record(name)
    assert list(got) == [f"{c} --json" for c in COMMANDS] == list(want)
    for key in want:
        assert_record_matches(got[key], want[key])


@pytest.mark.parametrize(
    "got, want, ok",
    [
        (1.0 + 0.5e-12, 1.0, True),
        (1.0 + 2e-12, 1.0, False),
        (1, 1.0, False),
        (True, 1, False),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}, False),
        ([1, 2], [1, 2, 3], False),
        ("yes", "no", False),
        (None, None, True),
    ],
)
def test_assert_matches_is_exact_except_for_floats(got, want, ok):
    if ok:
        assert_matches(got, want)
    else:
        with pytest.raises(AssertionError):
            assert_matches(got, want)
