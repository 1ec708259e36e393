"""End-to-end command line behavior, driven through main(argv)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ebx import (
    CStarCombination,
    SeededRng,
    choi_channel,
    compose_ad,
    holevo_to_kraus,
    is_ppt,
    kraus_channel,
    random_cstar_extreme,
    random_unital_eb,
    save_channel,
    to_choi,
)
from ebx.channel import channel_from_map, identity_channel
from ebx.cli import _build_report, _emit, _tolerance, main
from ebx.extremality import EquivalenceCheck
from ebx.gallery import (
    CASE_NAMES,
    diagonal_pinching_channel,
    run_all,
    swapped_pinching_channel,
    two_block_pinching_channel,
)
from ebx.linalg import max_abs, psd_sqrt

from support import negated_term_channel, pauli_identity_channel


def write_channel(tmp_path, ch, name):
    path = tmp_path / name
    save_channel(ch, path)
    return str(path)


@pytest.fixture()
def pinching_file(tmp_path):
    return write_channel(tmp_path, diagonal_pinching_channel(), "pinching.json")


def decode(rows):
    return np.array(
        [[complex(*v) if isinstance(v, list) else complex(v) for v in row] for row in rows]
    )


# --- analyze ---


def test_analyze_json_report(pinching_file, capsys):
    assert main(["analyze", pinching_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d1"] == 2 and report["d2"] == 2
    assert report["choi_rank"] == 2
    assert report["predicates"]["is_cp"] and report["predicates"]["is_unital"]
    assert report["ppt"] is True
    assert report["eb"]["is_eb"] == "yes"
    assert report["eb_kraus_rank"] == {"lower": 2, "upper": 2}
    ext = report["extremality"]
    assert ext["is_cstar_extreme"] is True
    assert ext["canonical"]["n_blocks"] == 2
    assert ext["canonical"]["block_ranks"] == [1, 1]
    assert ext["is_cq_linear_extreme_in_ucp"] is False
    assert report["commutant_dimension"] == 2
    assert report["tolerance"] == {
        "rank_rel": 1e-9,
        "psd_floor": 1e-9,
        "eq_abs": 1e-9,
    }


def test_analyze_non_eb_channel(tmp_path, capsys):
    # the identity as Kraus, and as Holevo terms (s/sqrt2, s/sqrt2) over the Paulis
    for ch in (identity_channel(2), pauli_identity_channel()):
        path = write_channel(tmp_path, ch, "id.json")
        assert main(["analyze", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eb"]["is_eb"] == "no"
        assert report["eb"]["has_certificate"] is False
        assert "extremality" not in report
        assert any("fails PPT" in note for note in report["notes"])


def test_analyze_non_cp_channel(tmp_path, capsys):
    path = write_channel(tmp_path, channel_from_map(lambda x: x.T, 2, 2), "transpose.json")
    assert main(["analyze", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["predicates"]["is_cp"] is False
    assert "eb" not in report
    assert any("not completely positive" in note for note in report["notes"])


def test_analyze_inconclusive_verdict(tmp_path, capsys):
    ch = random_unital_eb(SeededRng(50), 3, 3, 4)
    stripped = choi_channel(to_choi(ch).matrix, 3, 3)
    path = write_channel(tmp_path, stripped, "stripped.json")
    assert main(["analyze", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["eb"]["is_eb"] == "unknown"
    assert any("inconclusive" in note for note in report["notes"])


REPORT_KEYS = [
    "version", "tolerance", "label", "d1", "d2", "predicates", "choi_rank",
    "notes", "ppt", "eb", "eb_kraus_rank", "extremality", "commutant_dimension",
]


def _certified_kraus_channel():
    ensemble = random_cstar_extreme(SeededRng(51), 3, 3).representation
    return kraus_channel(holevo_to_kraus(ensemble).operators, certificate=ensemble)


@pytest.mark.parametrize(
    "ch, keys",
    [
        (channel_from_map(lambda x: x.T, 2, 2), REPORT_KEYS[:9]),
        (identity_channel(2), REPORT_KEYS[:10] + ["commutant_dimension"]),
        (_certified_kraus_channel(), REPORT_KEYS),
        (kraus_channel([np.zeros((2, 3))]), REPORT_KEYS[:11] + ["commutant_dimension"]),
    ],
    ids=["transpose", "identity", "certified-kraus", "zero"],
)
def test_analyze_ppt_key_and_key_order(ch, keys):
    # the report analyze --json prints, built in memory so that the
    # certificate of the Kraus channel is kept
    report = _build_report(ch, _tolerance(1e-9))
    assert report["ppt"] == is_ppt(ch)
    assert list(report) == keys


def test_analyze_ppt_key_on_gallery_channels():
    channels = [ch for outcome in run_all() for ch in outcome.channels.values()]
    for ch in channels:
        report = _build_report(ch, _tolerance(1e-9))
        assert report["ppt"] == is_ppt(ch), ch.label
        assert list(report) == [k for k in REPORT_KEYS if k in report], ch.label


INCONCLUSIVE_NOTE = (
    "EB verdict inconclusive: PPT holds but the dimension is outside the window where "
    "PPT implies separability and no ensemble certificate is attached"
)


@pytest.mark.parametrize(
    "ch, notes",
    [
        (
            two_block_pinching_channel(),
            ["EB certified by an attached measure-and-prepare ensemble"],
        ),
        (kraus_channel([np.zeros((2, 3))]), ["the zero map is EB: it prepares nothing"]),
        (diagonal_pinching_channel(), ["PPT conclusive: d1*d2 = 4 <= 6"]),
        (identity_channel(2), ["fails PPT, which every EB channel must satisfy"]),
        (
            choi_channel(to_choi(random_unital_eb(SeededRng(50), 3, 3, 4)).matrix, 3, 3),
            [INCONCLUSIVE_NOTE],
        ),
        (
            choi_channel(to_choi(random_cstar_extreme(SeededRng(1), 3, 3)).matrix, 3, 3),
            [
                INCONCLUSIVE_NOTE,
                "Choi rank equals the output dimension, so the channel is "
                "C*-extreme provided it is entanglement breaking",
            ],
        ),
        (channel_from_map(lambda x: x.T, 2, 2), ["not completely positive; EB analysis skipped"]),
    ],
    ids=["attached", "zero", "ppt-window", "fails-ppt", "inconclusive", "inconclusive-extreme",
         "not-cp"],
)
def test_analyze_notes_name_the_deciding_branch(ch, notes):
    assert _build_report(ch, _tolerance(1e-9))["notes"] == notes


# --- exit codes ---


def test_missing_file_is_exit_1(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "km"])
def test_boolean_dims_file_is_exit_1(tmp_path, capsys, command):
    path = tmp_path / "bool_dims.json"
    path.write_text(
        '{"d1": true, "d2": true, "representation": {"type": "choi", "matrix": [[1]]}}'
    )
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ebx: error: d1 and d2 must be positive integers\n"


def test_empty_file_is_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert main(["analyze", str(path)]) == 1


# finite entries whose Choi matrix overflows, once through the Kraus gram
# product and once through the Holevo einsum, and a finite Choi matrix whose
# entries (1e308) would overflow in the first sum of two of them
OVERFLOW_FILES = {
    "kraus_overflow.json": (
        b'{"d1": 2, "d2": 2, "representation": {"type": "kraus", '
        b'"operators": [[[1e200, 0], [0, 1e200]]]}}'
    ),
    "holevo_overflow.json": (
        b'{"d1": 2, "d2": 2, "representation": {"type": "holevo", '
        b'"terms": [{"F": [[1e200, 0], [0, 0]], "R": [[1e200, 0], [0, 0]]}]}}'
    ),
    "holevo_near_limit.json": (
        b'{"d1": 2, "d2": 2, "representation": {"type": "holevo", '
        b'"terms": [{"F": [[1e154, 0], [0, 1e154]], "R": [[1e154, 0], [0, 1e154]]}]}}'
    ),
}

# Python's json reads NaN and Infinity, so the parse check must refuse them
NON_FINITE_FILES = {
    "kraus_nan.json": (
        b'{"d1": 2, "d2": 2, "representation": {"type": "kraus", '
        b'"operators": [[[NaN, 0], [0, 1]]]}}'
    ),
    "holevo_infinity.json": (
        b'{"d1": 2, "d2": 2, "representation": {"type": "holevo", '
        b'"terms": [{"F": [[Infinity, 0], [0, 1]], "R": [[1, 0], [0, 1]]}]}}'
    ),
}

MALFORMED_FILES = {
    "deep.json": ("[" * 100_000 + "]" * 100_000).encode(),
    "not_utf8.json": b"\xff\xfe",
    "kraus_nan.json": NON_FINITE_FILES["kraus_nan.json"],
    **OVERFLOW_FILES,
}


def run_ebx_subprocess(*argv, python_flags=(), stdout=subprocess.PIPE):
    """``python -m ebx.cli argv`` in a child process, importing ``src/``."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "ebx.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


def test_deeply_nested_file_is_exit_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_bytes(MALFORMED_FILES["deep.json"])
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ebx: error: JSON nested too deeply to parse\n"


def test_non_utf8_file_is_exit_1(tmp_path, capsys):
    path = tmp_path / "not_utf8.json"
    path.write_bytes(MALFORMED_FILES["not_utf8.json"])
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ebx: error: not UTF-8 text: ")
    assert "can't decode byte 0xff in position 0" in captured.err


@pytest.mark.parametrize("name", sorted(OVERFLOW_FILES))
@pytest.mark.parametrize("command", ["analyze", "km"])
def test_overflowing_choi_matrix_is_exit_1(tmp_path, capsys, command, name):
    path = tmp_path / name
    path.write_bytes(OVERFLOW_FILES[name])
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ebx: error: the channel's Choi matrix overflows: entries too large\n"


# under -W error a stray numpy warning would end in a traceback
@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_file_is_exit_1_in_a_subprocess(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(MALFORMED_FILES[name])
    done = run_ebx_subprocess("analyze", str(path), python_flags=("-W", "error"))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("ebx: error: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "command, name", [("analyze", "kraus_nan.json"), ("km", "holevo_infinity.json")]
)
def test_non_finite_entry_is_exit_1_in_a_subprocess(tmp_path, command, name):
    path = tmp_path / name
    path.write_bytes(NON_FINITE_FILES[name])
    done = run_ebx_subprocess(command, str(path), python_flags=("-W", "error"))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "ebx: error: invalid channel data: matrix entries must be finite\n"


def test_domain_error_is_exit_2(pinching_file, capsys):
    # the pinching file has no Holevo ensemble, so km has nothing to refine
    assert main(["km", pinching_file]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["rn", "file.json"])  # missing required --dominating
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_bad_tolerance_is_exit_2(pinching_file):
    assert main(["analyze", pinching_file, "--tol", "0.5"]) == 2
    assert main(["analyze", pinching_file, "--tol", "-1"]) == 2


def test_tol_env_var(pinching_file, monkeypatch, capsys):
    monkeypatch.setenv("EBX_TOL", "1e-8")
    assert main(["analyze", pinching_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tolerance"]["eq_abs"] == 1e-8


def test_tol_env_var_invalid_is_exit_2(pinching_file, monkeypatch):
    monkeypatch.setenv("EBX_TOL", "bogus")
    assert main(["analyze", pinching_file]) == 2


def test_explicit_tol_overrides_env(pinching_file, monkeypatch):
    monkeypatch.setenv("EBX_TOL", "bogus")
    assert main(["analyze", pinching_file, "--tol", "1e-9"]) == 0


# --- km ---


def test_km_json_and_emit(tmp_path, capsys):
    ch = random_unital_eb(SeededRng(51), 2, 2, 3)
    path = write_channel(tmp_path, ch, "random.json")
    emit = tmp_path / "terms.json"
    assert main(["km", path, "--json", "--emit", str(emit)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reconstruction_error"] <= 1e-9
    assert doc["all_factors_extreme"] is True
    assert doc["proper"] is False
    assert doc["emitted"] == str(emit)
    payload = json.loads(emit.read_text())
    assert payload["d1"] == 2 and payload["d2"] == 2
    assert len(payload["terms"]) == doc["n_terms"]
    gram = sum(
        (t := decode(term["coefficient"])).conj().T @ t for term in payload["terms"]
    )
    assert max_abs(gram - np.eye(2)) <= 1e-10


@pytest.mark.parametrize("build", [negated_term_channel, pauli_identity_channel])
def test_km_refuses_an_ensemble_with_a_non_psd_term(tmp_path, capsys, build):
    path = write_channel(tmp_path, build(), "ensemble.json")
    assert main(["km", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ebx: error: ensemble member has an eigenvalue below the psd floor\n"


# --- rn / arveson ---


def test_rn_recovers_block_contraction(tmp_path, capsys):
    phi = two_block_pinching_channel()
    r0 = np.array([[0.5, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.7]], dtype=complex)
    psi = compose_ad(psd_sqrt(r0), phi)
    phi_path = write_channel(tmp_path, phi, "phi.json")
    psi_path = write_channel(tmp_path, psi, "psi.json")
    assert main(["rn", psi_path, "--dominating", phi_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert max_abs(decode(doc["R"]) - r0) <= 1e-9
    assert doc["residual"] <= 1e-9
    assert len(doc["per_block"]) == 2


def test_rn_without_domination_is_exit_2(tmp_path, capsys):
    phi = two_block_pinching_channel()
    doubled = compose_ad(np.sqrt(2.0) * np.eye(3), phi)
    phi_path = write_channel(tmp_path, phi, "phi.json")
    psi_path = write_channel(tmp_path, doubled, "doubled.json")
    assert main(["rn", psi_path, "--dominating", phi_path]) == 2


def test_arveson_half_identity(tmp_path, capsys):
    phi = diagonal_pinching_channel()
    psi = compose_ad(np.sqrt(0.5) * np.eye(2), phi)
    phi_path = write_channel(tmp_path, phi, "phi.json")
    psi_path = write_channel(tmp_path, psi, "psi.json")
    assert main(["arveson", psi_path, "--dominating", phi_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert max_abs(decode(doc["T"]) - 0.5 * np.eye(2)) <= 1e-12
    assert np.allclose(doc["eigenvalues"], [0.5, 0.5], atol=1e-12)


# --- equiv ---


def test_equiv_swapped_pinchings(tmp_path, capsys):
    a = write_channel(tmp_path, diagonal_pinching_channel(), "a.json")
    b = write_channel(tmp_path, swapped_pinching_channel(), "b.json")
    assert main(["equiv", a, b, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equivalent"] is True
    assert max_abs(decode(doc["witness_unitary"]) - np.array([[0, 1], [1, 0]])) <= 1e-12


def test_equiv_needs_extreme_inputs(tmp_path, capsys):
    from ebx.gallery import depolarizing_channel

    a = write_channel(tmp_path, diagonal_pinching_channel(), "a.json")
    c = write_channel(tmp_path, depolarizing_channel(2), "c.json")
    assert main(["equiv", a, c]) == 2
    assert "C*-extreme" in capsys.readouterr().err


# --- text mode ---


def test_text_mode_rendering_rules(capsys):
    doc = {
        "count": 3,
        "ratio": 0.25,
        "flag": True,
        "absent": None,
        "check": EquivalenceCheck(equivalent=False, witness_unitary=None),
        "notes": ["first", "second: with a colon"],
        "records": [{"name": "a", "ok": False, "shape": (1, 2)}, {"name": "b", "ok": True}],
        "matrix": np.array([[1.0, 0.5j], [1e-9, 1 / 3]]),
        "vector": np.array([0.5, 2.0]),
    }
    _emit(doc, as_json=False)
    assert capsys.readouterr().out == (
        "count: 3\n"
        "ratio: 0.25\n"
        "flag: yes\n"
        "check:\n"
        "  equivalent: no\n"
        "notes:\n"
        "  - first\n"
        "  - second: with a colon\n"
        "records:\n"
        "  - name: a\n"
        "    ok: no\n"
        "    shape:\n"
        "      - 1\n"
        "      - 2\n"
        "  - name: b\n"
        "    ok: yes\n"
        "matrix: [[1.      +0.j  0.      +0.5j]\n"
        "         [0.      +0.j  0.333333+0.j ]]\n"
        "vector: [0.5 2. ]\n"
    )
    _emit(doc, as_json=True)
    assert json.loads(capsys.readouterr().out)["check"] == {"equivalent": False}


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _numbers(lines) -> list[float]:
    return [float(x) for line in lines for x in _NUMBER.findall(line)]


def _entries(rows, ndim: int) -> list[float]:
    """A JSON array of ``ndim`` dimensions as it prints: real and imaginary
    part of each entry."""
    if ndim == 0:
        z = complex(*rows) if isinstance(rows, list) else complex(rows)
        return [z.real, z.imag]
    return [x for row in rows for x in _entries(row, ndim - 1)]


def assert_close(got, want):
    assert len(got) == len(want)
    assert max((abs(g - w) for g, w in zip(got, want)), default=0.0) <= 1e-6


def _is_array(value) -> bool:
    # the encoder writes every array entry as a float or an [re, im] pair
    return isinstance(value, list) and bool(value) and all(
        isinstance(x, (float, list)) for x in value
    )


def _json_leaves(doc) -> list[tuple]:
    """(key, value) in the order text mode prints a --json document: key
    None for a list item, value None for a record or list under its key;
    null fields print nothing."""
    items = doc.items() if isinstance(doc, dict) else ((None, x) for x in doc)
    leaves = []
    for key, value in items:
        if isinstance(value, (dict, list)) and not _is_array(value):
            if key is not None:
                leaves.append((key, None))
            leaves.extend(_json_leaves(value))
        elif value is not None:
            leaves.append((key, value))
    return leaves


def _text_leaves(lines) -> list[tuple]:
    """(key, text) of each line text mode prints, as ``_json_leaves``: an
    array's continuation lines joined to its first."""
    leaves = []
    for line in lines:
        body = re.sub(r"^ *(- )*", "", line)
        last = leaves[-1][1] if leaves else None
        if last is not None and last.count("[") > last.count("]"):
            leaves[-1] = (leaves[-1][0], f"{last} {body}")
        elif re.fullmatch(r"\w+:", body):
            leaves.append((body[:-1], None))
        elif re.match(r"\w+: ", body):
            key, text = body.split(": ", 1)
            leaves.append((key, text))
        else:
            leaves.append((None, body))
    return leaves


def text_and_json(capsys, *argv):
    """The text output lines of ``ebx argv`` on golden inputs and its --json document."""
    argv = [str(GOLDEN_INPUTS / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    text = capsys.readouterr().out.splitlines()
    assert main([*argv, "--json"]) == 0
    return text, json.loads(capsys.readouterr().out)


def assert_text_is_the_document(text, doc) -> None:
    got, want = _text_leaves(text), _json_leaves(doc)
    assert [key for key, _ in got] == [key for key, _ in want]
    for (key, shown), (_, value) in zip(got, want):
        if value is None or isinstance(value, str):
            assert shown == value, key
        elif isinstance(value, bool):
            assert shown == ("yes" if value else "no"), key
        elif isinstance(value, list):
            entries = _entries(value, len(shown) - len(shown.lstrip("[")))
            # numpy prints a real array without imaginary parts
            assert_close(_numbers([shown]), entries if "j" in shown else entries[::2])
        else:
            assert_close(_numbers([shown]), [value])


@pytest.mark.parametrize(
    "argv",
    [
        *((command, path.name) for path in sorted(GOLDEN_INPUTS.glob("*.json"))
          for command in ("analyze", "km")),
        ("arveson", "averaged_state_domination.psi.json",
         "--dominating", "impure_inflation.mixed.json"),
        ("equiv", "diagonal_pinching.phi.json", "diagonal_pinching.midpoint.json"),
        ("gallery", "--all", "-v"),
    ],
    ids=" ".join,
)
def test_text_mode_prints_every_leaf_of_the_json_document(capsys, argv):
    # km refuses (exit 2, no output) the inputs without a psd ensemble
    argv = [str(GOLDEN_INPUTS / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    text = capsys.readouterr().out
    assert main([*argv, "--json"]) == code
    out = capsys.readouterr().out
    if code != 0:
        assert (code, text, out) == (2, "", "")
    else:
        assert_text_is_the_document(text.splitlines(), json.loads(out))


def test_rn_text_mode_prints_each_block_piece_as_a_list_item(capsys):
    # a list of matrices encodes like a 3-d array, so the leaf walk above
    # cannot tell per_block's items apart
    text, doc = text_and_json(
        capsys, "rn", "two_block_pinching.psi.json", "--dominating", "two_block_pinching.phi.json"
    )
    assert [line.split(":")[0] for line in text if line[0] != " "] == ["R", "per_block", "residual"]
    assert sum(line.startswith("  - [[") for line in text) == len(doc["per_block"]) == 2
    want = [x for m in (doc["R"], *doc["per_block"]) for x in _entries(m, 2)]
    assert_close(_numbers(text), [*want, doc["residual"]])


def test_equiv_without_witness_prints_one_line(capsys):
    text, doc = text_and_json(
        capsys, "equiv", "diagonal_pinching.phi.json", "random.cstar-extreme.2x2.seed1.json"
    )
    assert (text, doc) == (["equivalent: no"], {"equivalent": False})


def test_km_emit_writes_the_same_file_in_text_and_json_mode(tmp_path, capsys):
    source = str(GOLDEN_INPUTS / "random.povm-ensemble.2x2.seed1.json")
    emit_text, emit_json = tmp_path / "text.json", tmp_path / "json.json"
    assert main(["km", source, "--emit", str(emit_text)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"emitted: {emit_text}"
    assert main(["km", source, "--json", "--emit", str(emit_json)]) == 0
    assert json.loads(capsys.readouterr().out)["emitted"] == str(emit_json)
    assert emit_text.read_bytes() == emit_json.read_bytes()


def test_km_text_mode_prints_each_factor_diagnostic_on_its_own_line(monkeypatch, capsys):
    # km's own factors are C*-extreme; the pinching's two-term unitary mix
    # (id + Ad_Z) / 2 has factors that are not, one diagnostic each
    half = np.eye(2) / np.sqrt(2)
    mix = CStarCombination(
        2, 2, ((half, identity_channel(2)), (half, kraus_channel([np.diag([1.0, -1.0])])))
    )
    monkeypatch.setattr("ebx.cli.km_decompose", lambda ch, tol: mix)
    text, doc = text_and_json(capsys, "km", "diagonal_pinching.phi.json")
    assert len(doc["factor_diagnostics"]) == 2
    assert text[2:] == [
        "all_factors_extreme: no",
        "proper: yes",
        "factor_diagnostics:",
        *(f"  - {line}" for line in doc["factor_diagnostics"]),
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("gallery", "-v"),
        ("analyze", "--json", str(GOLDEN_INPUTS / "diagonal_pinching.phi.json")),
    ],
)
def test_closed_stdout_exits_1_quietly_in_a_subprocess(argv):
    # the pipe's read end is closed before the child writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_ebx_subprocess(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


# --- random ---


def test_random_is_deterministic(capsys):
    argv = ["random", "--kind", "povm-ensemble", "--d1", "2", "--d2", "2", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert len(doc["representation"]["terms"]) == 4  # defaults to d1*d2 terms


def test_random_out_file_feeds_analyze(tmp_path, capsys):
    out = tmp_path / "extreme.json"
    argv = [
        "random", "--kind", "cstar-extreme", "--d1", "2", "--d2", "3",
        "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    assert main(["analyze", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extremality"]["is_cstar_extreme"] is True
    assert report["choi_rank"] == 3


def test_random_rejects_bad_dims(capsys):
    argv = ["random", "--kind", "cstar-extreme", "--d1", "2", "--d2", "3",
            "--terms", "9", "--seed", "1"]
    assert main(argv) == 2  # more blocks than d2 is a domain error


def test_random_degenerate_draw_is_exit_2(capsys):
    # C^1 holds one pure state, so two blocks cannot have distinct states
    argv = ["random", "--kind", "cstar-extreme", "--d1", "1", "--d2", "2", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ebx: error: could not draw 2 pairwise-distinct pure states in C^1\n"
    )


@pytest.mark.parametrize("kind", ["povm-ensemble", "cstar-extreme"])
@pytest.mark.parametrize("d1, d2", [(0, 2), (2, 0), (-1, 2), (2, -1)])
def test_random_nonpositive_dims_is_exit_2_in_a_subprocess(kind, d1, d2):
    # a zero input dimension once made the unit-vector draw loop forever
    done = run_ebx_subprocess(
        "random", "--kind", kind, "--d1", str(d1), "--d2", str(d2), "--terms", "1",
        "--seed", "1",
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        f"ebx: error: dimensions must be positive integers, got {d1}, {d2}\n"
    )


# --- gallery ---


def test_gallery_all_passes(capsys):
    assert main(["gallery", "--all", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == len(CASE_NAMES)
    assert all(case["passed"] for case in doc)


def test_gallery_text_mode_shows_checks_with_verbose(capsys):
    assert main(["gallery", "--case", "two_block_pinching"]) == 0
    text = capsys.readouterr().out.splitlines()
    assert text[0] == "- name: two_block_pinching"
    assert text[2:] == ["  passed: yes"]
    assert main(["gallery", "--case", "two_block_pinching", "-v"]) == 0
    text = capsys.readouterr().out.splitlines()
    assert text[3:5] == ["  checks:", "    - name: channel is C*-extreme"]


def test_gallery_failed_check_exits_2(monkeypatch, capsys):
    # an extraction that succeeds on the averaging map fails the case's last
    # check; a failed gallery check is exit code 2, and text mode shows the
    # checks of a failed case without -v
    monkeypatch.setattr("ebx.gallery.extract_canonical", lambda ch, tol: None)
    assert main(["gallery", "--case", "averaged_state_domination"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("- name: averaged_state_domination\n")
    assert "  passed: no\n  checks:\n" in out
    assert out.endswith(
        "    - name: canonical extraction refuses\n"
        "      passed: no\n"
        "      detail: extraction succeeded\n"
    )


def test_gallery_case_and_all_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gallery", "--case", "tetrahedral", "--all"])
    assert exc.value.code == 1


def test_gallery_unknown_case_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gallery", "--case", "not_a_case"])
    assert exc.value.code == 1


def test_gallery_emit_writes_channel_files(tmp_path, capsys):
    emit = tmp_path / "chans"
    assert main(["gallery", "--case", "diagonal_pinching", "--emit", str(emit)]) == 0
    files = sorted(p.name for p in emit.iterdir())
    assert files  # at least one channel written
    assert all(name.startswith("diagonal_pinching.") for name in files)
    assert main(["analyze", str(emit / files[0])]) == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ebx" in capsys.readouterr().out
