"""Regenerate the golden CLI fixtures under tests/golden/.

Writes the input channel files (``ebx gallery --all --emit``, seeded
``ebx random`` draws, four channels that are not EB or whose EB verdict is
open, the zero map, a C*-extreme map with two nearly equal block states,
and the diagonal pinching written with a negated Holevo term) to
``inputs/`` and, for each one, the stdout, stderr
and exit code of ``ebx analyze --json`` and ``ebx km --json`` to
``outputs/<input stem>.json``. The records of ``rn``, ``arveson``, ``equiv``
and ``gallery --all`` on those inputs go to ``commands.json``, keyed by
their command line. ``tests/test_golden.py`` compares the CLI against these
records, and ``ebx random`` against the random input files.

Run from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden/regenerate.py

Regenerate only when an output change is intended, and say why in the
commit that carries the new fixtures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

from ebx import (
    SeededRng,
    channel_from_map,
    choi_channel,
    holevo_channel,
    identity_channel,
    random_cstar_extreme,
    random_unital_eb,
    save_channel,
    to_choi,
)
from ebx.cli import main

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"
OUTPUTS = GOLDEN / "outputs"
COMMANDS_RECORD = GOLDEN / "commands.json"

RANDOM_KINDS = ("povm-ensemble", "cstar-extreme")
RANDOM_SHAPES = ((2, 2), (3, 3), (2, 4), (4, 2))
RANDOM_SEED = 1


def _non_eb_inputs() -> dict:
    """Inputs that reach the analyze notes the gallery never writes: a map
    that is not CP, one that fails PPT, one whose PPT test cannot decide, a
    C*-extreme one whose PPT test cannot decide, and the zero map, whose EB
    certificate is built by the verdict and not attached to the file."""
    eb = random_unital_eb(SeededRng(1), 3, 3, n_terms=3)
    extreme = random_cstar_extreme(SeededRng(1), 3, 3)
    return {
        "transpose.m2.json": channel_from_map(lambda x: x.T, 2, 2, label="transpose-m2"),
        "identity.m2.json": identity_channel(2),
        "bare_choi.unital-eb.3x3.seed1.json": choi_channel(to_choi(eb).matrix, 3, 3),
        "bare_choi.cstar-extreme.3x3.seed1.json": choi_channel(to_choi(extreme).matrix, 3, 3),
        "bare_choi.zero.3x3.json": choi_channel(np.zeros((9, 9)), 3, 3),
    }


def close_states_channel(d1: int, d2: int, delta: float):
    """<u1, . u1> E11 + <u2, . u2> (I - E11) with u1 = e0 and
    u2 = cos(t) e0 + sin(t) e1, where delta = 1 - |<u1, u2>| = 2 sin(t/2)^2.
    Returns the channel and the distance ||u1 - u2|| of its two states."""
    theta = 2.0 * np.arcsin(np.sqrt(delta / 2.0))
    basis = np.eye(d1, dtype=complex)
    u1, u2 = basis[0], np.cos(theta) * basis[0] + np.sin(theta) * basis[1]
    p1 = np.zeros((d2, d2), dtype=complex)
    p1[0, 0] = 1.0
    ch = holevo_channel(
        ((np.outer(u1, u1.conj()), p1), (np.outer(u2, u2.conj()), np.eye(d2) - p1)),
        label=f"close-states(d1={d1}, d2={d2}, delta={delta:g})",
    )
    return ch, float(np.linalg.norm(u1 - u2))


# two block states 1.4e-6 apart, far above the same-state bound, though
# 1 - |<u1, u2>| is only 1e-12
CLOSE_STATES_INPUT = "close_states.2x2.delta1e-12.json"


def negated_term_pinching_channel():
    """The diagonal pinching as the Holevo terms (-E11, -E11), (E22, E22): a
    C*-extreme map, from an ensemble that is not psd. analyze bounds its EB
    Kraus count without reading the ensemble; km refuses it (exit 2)."""
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return holevo_channel(((-e11, -e11), (e22, e22)), label="negated-term-pinching")


NEGATED_TERM_INPUT = "negated_term_pinching.2x2.json"


# the subcommands recorded for every input, each run as `ebx <command> <file> --json`
COMMANDS = ("analyze", "km")

# C*-extreme inputs whose canonical blocks are all rank one, the M2 -> M2 ones
# first: equiv builds its witness from a range basis of each block, which
# LAPACK picks for a larger block
_RANK_ONE_EXTREME = (
    "diagonal_pinching.phi.json",
    "diagonal_pinching.midpoint.json",
    "impure_inflation.left.json",
    "impure_inflation.right.json",
    *(f"random.cstar-extreme.{d1}x{d2}.seed{RANDOM_SEED}.json" for d1, d2 in RANDOM_SHAPES),
)

# the other subcommands, each run as `ebx <argv> --json` on inputs that
# determine the output. Every arveson dominating file is in Kraus form: the
# Kraus frame of a Choi or Holevo file with a degenerate Choi spectrum is
# LAPACK's choice. The last rn and arveson calls are refusals.
OTHER_COMMANDS = (
    *(
        ("rn", psi, "--dominating", phi)
        for psi, phi in (
            ("diagonal_pinching.phi.json", "diagonal_pinching.midpoint.json"),
            ("impure_inflation.left.json", "diagonal_pinching.phi.json"),
            ("diagonal_pinching.midpoint.json", "impure_inflation.left.json"),
            ("impure_inflation.right.json", "impure_inflation.right.json"),
            ("two_block_pinching.psi.json", "two_block_pinching.phi.json"),
            *((name, name) for name in _RANK_ONE_EXTREME[4:]),
            ("averaged_state_domination.psi.json", "averaged_state_domination.phi.json"),
            ("impure_inflation.right.json", "diagonal_pinching.phi.json"),
        )
    ),
    *(
        ("arveson", psi, "--dominating", phi)
        for psi, phi in (
            ("diagonal_pinching.phi.json", "diagonal_pinching.midpoint.json"),
            ("diagonal_pinching.midpoint.json", "diagonal_pinching.phi.json"),
            ("impure_inflation.left.json", "impure_inflation.left.json"),
            ("identity.m2.json", "identity.m2.json"),
            ("averaged_state_domination.phi.json", "impure_inflation.mixed.json"),
            ("averaged_state_domination.psi.json", "impure_inflation.mixed.json"),
            ("cp_not_eb_difference.psi.json", "impure_inflation.mixed.json"),
            ("impure_inflation.mixed.json", "impure_inflation.mixed.json"),
            ("transpose.m2.json", "impure_inflation.mixed.json"),
        )
    ),
    *(("equiv", a, b) for a in _RANK_ONE_EXTREME[:5] for b in _RANK_ONE_EXTREME[:5]),
    *(("equiv", name, name) for name in _RANK_ONE_EXTREME[5:]),
    ("equiv", _RANK_ONE_EXTREME[6], _RANK_ONE_EXTREME[7]),
    ("equiv", "averaged_state_domination.phi.json", "diagonal_pinching.phi.json"),
    ("gallery", "--all"),
)


def run_cli(argv: list[str]) -> dict:
    """stdout, stderr and exit code of one in-process ``ebx`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_inputs() -> None:
    for directory in (INPUTS, OUTPUTS):
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
    gallery = run_cli(["gallery", "--all", "--emit", str(INPUTS)])
    if gallery["exit_code"] != 0:
        raise SystemExit(f"gallery failed:\n{gallery['stdout']}{gallery['stderr']}")
    for kind in RANDOM_KINDS:
        for d1, d2 in RANDOM_SHAPES:
            out = INPUTS / f"random.{kind}.{d1}x{d2}.seed{RANDOM_SEED}.json"
            result = run_cli([
                "random", "--kind", kind, "--d1", str(d1), "--d2", str(d2),
                "--seed", str(RANDOM_SEED), "--out", str(out),
            ])
            if result["exit_code"] != 0:
                raise SystemExit(f"random failed: {result['stderr']}")
    for name, ch in _non_eb_inputs().items():
        save_channel(ch, INPUTS / name)
    save_channel(close_states_channel(2, 2, 1e-12)[0], INPUTS / CLOSE_STATES_INPUT)
    save_channel(negated_term_pinching_channel(), INPUTS / NEGATED_TERM_INPUT)


def _in_inputs(argvs: list[list[str]]) -> list[dict]:
    """The records of several ``ebx`` calls, run from inside ``inputs/`` so
    that no message can carry an absolute path."""
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        return [run_cli(argv) for argv in argvs]
    finally:
        os.chdir(cwd)


def record(name: str) -> dict:
    """The golden records of one input file."""
    records = _in_inputs([[command, name, "--json"] for command in COMMANDS])
    return {f"{command} --json": r for command, r in zip(COMMANDS, records)}


def record_command(command: str) -> dict:
    """The golden record of one ``commands.json`` key."""
    return _in_inputs([command.split()])[0]


def main_regenerate() -> None:
    _write_inputs()
    for path in sorted(INPUTS.glob("*.json")):
        records = record(path.name)
        with open(OUTPUTS / path.name, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
    commands = [" ".join((*argv, "--json")) for argv in OTHER_COMMANDS]
    with open(COMMANDS_RECORD, "w", encoding="utf-8") as fh:
        json.dump({c: record_command(c) for c in commands}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(list(OUTPUTS.glob('*.json')))} golden records to {OUTPUTS}")
    print(f"wrote {len(commands)} golden records to {COMMANDS_RECORD}")


if __name__ == "__main__":
    main_regenerate()
