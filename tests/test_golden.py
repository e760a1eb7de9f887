"""Golden outputs: the CLI must reproduce the files under tests/golden/ byte
for byte.  Determinism between two runs of the same code (criterion 11)
cannot catch a refactor that changes the numbers; these files can.

Each case is a config `golden/NAME.json` with its expected output
`golden/NAME.csv` (`golden/NAME.txt` for `generate`, which writes text); the
audit cases also pin their summary text.  To record a case again after an
intended change of output:

    python -m deltrace.cli COMMAND --config tests/golden/NAME.json > tests/golden/NAME.csv
"""

from pathlib import Path

import pytest

from deltrace.cli import _COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("montecarlo", "mc-runs"),
    ("montecarlo", "mc-repeat"),
    ("montecarlo", "mc-repeat-short"),
    ("montecarlo", "mc-small"),
    ("montecarlo", "mc-bits"),
    ("montecarlo", "mc-wide"),
    ("montecarlo", "mc-oracle"),
    ("montecarlo", "mc-chunked"),  # T * n over a block: each trial draws in two chunks
    ("exact", "exact"),
    ("exact", "exact-schedule"),
    ("exact", "exact-repeat"),
    ("exact", "exact-bits"),
    ("asympt", "asympt-repeat"),
    ("asympt", "asympt-runs"),
    ("sweep", "sweep"),
    ("sweep", "sweep-runs"),
    ("generate", "generate-repeat"),
    ("generate", "generate-runs"),
    ("generate", "generate-bits"),
]


def _expected(command, name):
    return GOLDEN / f"{name}.{'txt' if command == 'generate' else 'csv'}"


@pytest.mark.parametrize("command,name", CASES)
def test_csv_matches_golden(command, name, tmp_path):
    out = tmp_path / f"{name}.out"
    assert main([command, "--config", str(GOLDEN / f"{name}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == _expected(command, name).read_bytes()


# audit-repeat is a many-run repeat source with sandwich pairs
@pytest.mark.parametrize("name", ["audit", "audit-repeat"])
def test_audit_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(["audit", "--config", str(GOLDEN / f"{name}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.summary.txt").read_text()


def test_every_subcommand_is_pinned():
    pinned = {command for command, _ in CASES} | {"audit"}
    assert set(_COMMANDS) <= pinned, f"no golden case for {sorted(set(_COMMANDS) - pinned)}"
