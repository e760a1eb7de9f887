"""Golden outputs: the CLI must reproduce the files under tests/golden/ byte
for byte.  Determinism between two runs of the same code (criterion 11)
cannot catch a refactor that changes the numbers; these files can.

The directory is the case list: each config `golden/NAME.json` is a case,
run by the subcommand of its `mode` with its expected output `golden/NAME.csv`
(`golden/NAME.txt` for `generate`, which writes text); the audit cases also
pin their summary text, `golden/NAME.summary.txt`.  Among them, one
montecarlo case has T * n over a block, so each trial draws its mask in two
chunks, and one audit case is a many-run repeat source with sandwich pairs.
To add a case, drop in its files; to record one again after an intended
change of output:

    python -m deltrace.cli COMMAND --config tests/golden/NAME.json > tests/golden/NAME.csv

Run as a script, this module prints one line per case: the subcommand, the
config and the expected output, then for an audit the expected summary.
"""

import json
from pathlib import Path

import pytest

from deltrace.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"


def _cases():
    """(command, name) of every config under golden/, sorted."""
    command_of = {mode: command for command, (mode, _) in _COMMANDS.items()}
    return sorted((command_of[json.loads(path.read_text())["mode"]], path.stem) for path in GOLDEN.glob("*.json"))


CASES = [(command, name) for command, name in _cases() if command != "audit"]
AUDITS = [name for command, name in _cases() if command == "audit"]


def _expected(command, name):
    return GOLDEN / f"{name}.{'txt' if command == 'generate' else 'csv'}"


@pytest.mark.parametrize("command,name", CASES)
def test_csv_matches_golden(command, name, tmp_path):
    out = tmp_path / f"{name}.out"
    assert main([command, "--config", str(GOLDEN / f"{name}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == _expected(command, name).read_bytes()


@pytest.mark.parametrize("name", AUDITS)
def test_audit_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(["audit", "--config", str(GOLDEN / f"{name}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.summary.txt").read_text()


def test_every_subcommand_is_pinned():
    pinned = {command for command, _ in _cases()}
    assert set(_COMMANDS) <= pinned, f"no golden case for {sorted(set(_COMMANDS) - pinned)}"


if __name__ == "__main__":
    for command, name in CASES:
        print(command, GOLDEN / f"{name}.json", _expected(command, name))
    for name in AUDITS:
        print("audit", GOLDEN / f"{name}.json", GOLDEN / f"{name}.csv", GOLDEN / f"{name}.summary.txt")
