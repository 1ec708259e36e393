"""The CLI against checked-in golden outputs (tests/golden/).

Each input file under ``tests/golden/inputs`` has a record of the stdout,
stderr and exit code of ``ebx analyze --json`` and ``ebx km --json``;
``tests/golden/commands.json`` records ``rn``, ``arveson``, ``equiv`` and
``gallery --all`` on those inputs, and the random input files are the
records of ``ebx random``. Exit codes, stderr, JSON keys and their order,
ints, bools, strings and nulls must match exactly; floats may differ by 1e-12
absolute, because another numpy or LAPACK build can round the last bits
differently. For the same reason each number inside a gallery check's
``detail`` string is compared as a float. Regenerate the records with
``tests/golden/regenerate.py`` when an output change is intended.
"""

from __future__ import annotations

import json
import re

import pytest

from golden.regenerate import (
    COMMANDS,
    COMMANDS_RECORD,
    INPUTS,
    OTHER_COMMANDS,
    OUTPUTS,
    RANDOM_KINDS,
    RANDOM_SEED,
    RANDOM_SHAPES,
    record,
    record_command,
    run_cli,
)

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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split_details(doc):
    """A gallery document with each check's ``detail`` split into its text,
    numbers replaced by ``#``, and the list of those numbers as floats."""
    for case in doc:
        for check in case["checks"]:
            detail = check["detail"]
            check["detail"] = [
                _NUMBER.sub("#", detail),
                [float(x) for x in _NUMBER.findall(detail)],
            ]
    return doc


def assert_record_matches(got: dict, want: dict, gallery: bool = False) -> None:
    assert got["exit_code"] == want["exit_code"]
    assert got["stderr"] == want["stderr"]
    if want["stdout"]:
        got_doc, want_doc = json.loads(got["stdout"]), json.loads(want["stdout"])
        if gallery:
            got_doc, want_doc = _split_details(got_doc), _split_details(want_doc)
        assert_matches(got_doc, want_doc)
    else:
        assert got["stdout"] == ""


def test_golden_inputs_cover_gallery_and_random_files():
    assert len(NAMES) == 30
    assert sorted(p.name for p in OUTPUTS.glob("*.json")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_cli_matches_golden_record(name):
    with open(OUTPUTS / name, encoding="utf-8") as fh:
        want = json.load(fh)
    got = record(name)
    assert list(got) == [f"{c} --json" for c in COMMANDS] == list(want)
    for key in want:
        assert_record_matches(got[key], want[key])


with open(COMMANDS_RECORD, encoding="utf-8") as _fh:
    COMMAND_RECORDS = json.load(_fh)


def test_commands_record_covers_every_other_command():
    assert list(COMMAND_RECORDS) == [" ".join((*argv, "--json")) for argv in OTHER_COMMANDS]
    assert {c.split()[0] for c in COMMAND_RECORDS} == {"rn", "arveson", "equiv", "gallery"}
    assert {r["exit_code"] for r in COMMAND_RECORDS.values()} == {0, 2}


@pytest.mark.parametrize("command", list(COMMAND_RECORDS))
def test_other_command_matches_golden_record(command):
    gallery = command.startswith("gallery")
    assert_record_matches(record_command(command), COMMAND_RECORDS[command], gallery)


@pytest.mark.parametrize("kind", RANDOM_KINDS)
@pytest.mark.parametrize("d1, d2", RANDOM_SHAPES)
def test_random_reproduces_golden_input(kind, d1, d2):
    got = run_cli([
        "random", "--kind", kind, "--d1", str(d1), "--d2", str(d2), "--seed", str(RANDOM_SEED),
    ])
    assert (got["exit_code"], got["stderr"]) == (0, "")
    path = INPUTS / f"random.{kind}.{d1}x{d2}.seed{RANDOM_SEED}.json"
    assert_matches(json.loads(got["stdout"]), json.loads(path.read_text(encoding="utf-8")))


def test_detail_numbers_compare_as_floats():
    doc = [{"checks": [{"detail": "dev=2.22e-16, rank=4"}]}]
    assert _split_details(doc)[0]["checks"][0]["detail"] == ["dev=#, rank=#", [2.22e-16, 4.0]]
    want = {"exit_code": 0, "stderr": "", "stdout": '[{"checks": [{"detail": "dev=0"}]}]'}
    near = dict(want, stdout='[{"checks": [{"detail": "dev=5e-13"}]}]')
    assert_record_matches(near, want, gallery=True)
    for far in ("dev=2e-12", "err=0"):
        far_record = dict(want, stdout=json.dumps([{"checks": [{"detail": far}]}]))
        with pytest.raises(AssertionError):
            assert_record_matches(far_record, want, gallery=True)


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
