"""Regenerate the golden CLI fixtures under tests/golden/.

Writes the input channel files (``ebx gallery --all --emit``, seeded
``ebx random`` draws, and three channels that are not EB or whose EB verdict
is open) to ``inputs/`` and, for each one, the stdout, stderr
and exit code of ``ebx analyze --json`` and ``ebx km --json`` to
``outputs/<input stem>.json``. ``tests/test_golden.py`` compares the CLI
against these records.

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

from ebx import (
    SeededRng,
    channel_from_map,
    choi_channel,
    identity_channel,
    random_unital_eb,
    save_channel,
    to_choi,
)
from ebx.cli import main

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"
OUTPUTS = GOLDEN / "outputs"

RANDOM_KINDS = ("povm-ensemble", "cstar-extreme")
RANDOM_SHAPES = ((2, 2), (3, 3), (2, 4), (4, 2))
RANDOM_SEED = 1


def _non_eb_inputs() -> dict:
    """Inputs that reach the analyze notes the gallery never writes: a map
    that is not CP, one that fails PPT, and one whose PPT test cannot decide."""
    eb = random_unital_eb(SeededRng(1), 3, 3, n_terms=3)
    return {
        "transpose.m2.json": channel_from_map(lambda x: x.T, 2, 2, label="transpose-m2"),
        "identity.m2.json": identity_channel(2),
        "bare_choi.unital-eb.3x3.seed1.json": choi_channel(to_choi(eb).matrix, 3, 3),
    }


# the subcommands recorded for every input, each run as `ebx <command> <file> --json`
COMMANDS = ("analyze", "km")


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


def record(name: str) -> dict:
    """The golden records of one input file, run from inside ``inputs/`` so
    that no message can carry an absolute path."""
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        return {f"{command} --json": run_cli([command, name, "--json"]) for command in COMMANDS}
    finally:
        os.chdir(cwd)


def main_regenerate() -> None:
    _write_inputs()
    for path in sorted(INPUTS.glob("*.json")):
        records = record(path.name)
        with open(OUTPUTS / path.name, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
    print(f"wrote {len(list(OUTPUTS.glob('*.json')))} golden records to {OUTPUTS}")


if __name__ == "__main__":
    main_regenerate()
