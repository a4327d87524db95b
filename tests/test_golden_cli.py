"""Golden outputs of the command line on the bundled documents.

Each entry of ``golden_cli.json`` freezes the exit code and the exact stdout
of one in-process ``cli.main`` call.  Every output is canonical (rref bases,
unique minimal polynomials, seeded searches), so a change to the linear
algebra underneath must reproduce them byte for byte.  The data file is
written from the current code by

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from splitfields import cli

DATA = Path(cli.__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

VERDICTS = ("validate", "radical", "simples", "split-check", "split-find")


def commands():
    """validate/radical/simples/split-check/split-find on every bundled
    algebra, the base-change harnesses on the F_2 algebras, oracle-compare."""
    algebras, over_f2 = [], []
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc["kind"] != "algebra":
            continue
        algebras.append(path.name)
        field = doc["payload"]["field"]
        if field["characteristic"] == 2 and field["modulus"] is None:
            over_f2.append(path.name)
    out = [[cmd, name] for name in algebras for cmd in VERDICTS]
    for name in over_f2:
        out.append(["extend", name, "--field", "field_F4.json"])
        out.append(["radical-extend-verify", name, "--field", "field_F4.json"])
        out.append(["chain-verify", name, "--mid", "field_F4.json",
                    "--top", "field_F16.json"])
    out.append(["oracle-compare", "--count", "3", "--seed", "0"])
    return out


def run(argv):
    """(exit code, stdout) of ``cli.main``; document names resolve in DATA."""
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


@pytest.fixture(scope="module")
def golden():
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(e["argv"]): e for e in entries}


@pytest.mark.parametrize("argv", commands(), ids=",".join)
def test_cli_output_is_unchanged(argv, golden):
    entry = golden[tuple(argv)]
    code, out = run(argv)
    assert code == entry["exit"]
    assert out == entry["stdout"]


if __name__ == "__main__":
    entries = []
    for argv in commands():
        code, out = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
