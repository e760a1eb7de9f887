import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltrace import cli, harness, kernel
from test_golden import CASES, GOLDEN, _cases

CLI = [sys.executable, "-m", "deltrace.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def runs_config(tmp_path):
    return write_config(tmp_path, {
        "mode": "montecarlo",
        "source": {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.4, 0.3], "n": 10},
        "p": 0.3,
        "traces": 4,
        "trials": 60,
        "seed": 5,
    })


def test_help_lists_subcommands():
    for args in (["--help"], ["sweep", "--help"]):
        proc = run_cli(*args)
        assert proc.returncode == 0 and proc.stderr == ""
        for name in ("exact", "asympt", "montecarlo", "audit", "sweep", "generate"):
            assert name in proc.stdout


@pytest.mark.parametrize("args,message", [
    ([], "expected a subcommand, one of exact, asympt, montecarlo, audit, sweep, generate; got nothing"),
    (["simulate", "--config", "c.json"], "expected a subcommand, one of exact, asympt, montecarlo, audit, sweep, "
                                         "generate; got simulate"),
    (["exact"], "--config PATH is required"),
    (["exact", "--config", "c.json", "--seed", "abc"], "--seed needs an integer, got 'abc'"),
    (["exact", "--config", "c.json", "--verbose"], "unknown argument '--verbose'"),
    (["exact", "--conf", "c.json"], "unknown argument '--conf'"),
    (["exact", "--config", "c.json", "--out"], "--out needs a value"),
], ids=["no-arguments", "unknown-subcommand", "missing-config", "seed-not-integer", "unknown-flag",
        "abbreviated-flag", "flag-without-value"])
def test_usage_error_exit_2(capsys, args, message):
    assert cli.main(args) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_flag_values_after_equals_and_repeated(capsys, runs_config):
    assert cli.main(["montecarlo", "--config", runs_config, "--seed", "99"]) == 0
    spaced = capsys.readouterr()
    assert cli.main(["montecarlo", "--seed=1", f"--config={runs_config}", "--seed=99"]) == 0
    assert capsys.readouterr() == spaced


def test_cli_loads_only_the_modules_it_runs():
    # module names, not timings: the CLI loads the kernel but not the object API
    # (channel, events, reconstruct), and parses its command line without argparse
    code = "import json, sys, deltrace.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [name for name in loaded if name.split(".")[0] == "deltrace"] == [
        "deltrace", "deltrace.analytics", "deltrace.bits", "deltrace.cli", "deltrace.harness", "deltrace.kernel",
        "deltrace.logspace"]
    assert "argparse" not in loaded


def test_generate(tmp_path):
    path = write_config(tmp_path, {
        "mode": "generate",
        "source": {"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 8},
    })
    proc = run_cli("generate", "--config", path)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "01010101"


def test_exact_stdout_csv(tmp_path):
    path = write_config(tmp_path, {
        "mode": "exact",
        "source": {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": 12},
        "p": 0.4,
        "traces": 6,
    })
    proc = run_cli("exact", "--config", path)
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0].startswith("estimator,n,p,")
    assert all(len(line.split(",")) == 12 for line in lines)


def test_asympt_subcommand(tmp_path):
    path = write_config(tmp_path, {
        "mode": "asymptotic",
        "source": {"kind": "runs", "first_bit": 0, "fractions": [0.25, 0.5, 0.25]},
        "p": 0.25,
        "traces": {"c": 0.4},
    })
    # asymptotic evaluation does not need a concrete n for the formula, but
    # the runs source requires one to exist; supply it and rerun
    proc = run_cli("asympt", "--config", path)
    assert proc.returncode == 2

    path = write_config(tmp_path, {
        "mode": "asymptotic",
        "source": {"kind": "runs", "first_bit": 0, "fractions": [0.25, 0.5, 0.25], "n": 200},
        "p": 0.25,
        "traces": {"c": 0.4},
    }, name="cfg2.json")
    proc = run_cli("asympt", "--config", path)
    assert proc.returncode == 0
    assert "asymptotic" in proc.stdout


def test_montecarlo_with_out(tmp_path, runs_config):
    out = tmp_path / "rows.csv"
    proc = run_cli("montecarlo", "--config", runs_config, "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()
    meta = (tmp_path / "rows.csv.meta.txt").read_text()
    assert "rng-algorithm: pcg64" in meta


def test_seed_override_lands_in_rows(tmp_path, runs_config):
    proc = run_cli("montecarlo", "--config", runs_config, "--seed", "99")
    assert proc.returncode == 0
    data_lines = proc.stdout.strip().split("\n")[1:]
    assert all(line.split(",")[10] == "99" for line in data_lines)


def test_config_error_exit_2(tmp_path):
    path = write_config(tmp_path, {
        "mode": "montecarlo",
        "source": {"kind": "runs", "first_bit": 0, "fractions": [0.5, 0.5], "n": 10},
        "p": 0.3,
        "traces": 4,
        "trials": 60,
        "seed": 5,
        "mystery": 1,
    })
    proc = run_cli("montecarlo", "--config", path)
    assert proc.returncode == 2
    assert "config error:" in proc.stderr


@pytest.mark.parametrize("command,obj", [
    ("generate", {"source": {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": True}}),
    ("sweep", {"source": {"kind": "repeat", "pattern": "0", "ell": 1.0}, "p": 0.5,
               "c_grid": [0.5], "n_grid": [True]}),
], ids=["generate-n", "sweep-n_grid"])
def test_boolean_number_exit_2(tmp_path, command, obj):
    proc = run_cli(command, "--config", write_config(tmp_path, {"mode": command, **obj}))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1


def test_subcommand_mode_mismatch_exit_2(tmp_path, runs_config):
    proc = run_cli("exact", "--config", runs_config)
    assert proc.returncode == 2
    assert "config error:" in proc.stderr


def difficulty_config(tmp_path, n):
    return write_config(tmp_path, {
        "mode": "montecarlo",
        "source": {"kind": "runs", "first_bit": 0, "fractions": [0.5, 0.5], "n": n},
        "p": 0.3,
        "traces": 4,
        "trials": 10,
        "seed": 5,
        "estimators": ["difficulty"],
    })


def test_infeasible_exit_3(tmp_path, monkeypatch, capsys):
    # a trial whose oracle passes the state budget of 40: every trial's search
    # finds a second source at bit 1 but trial 4's and 9's, which keep 54 and
    # 48 states and pass 40 at bits 11 and 12
    monkeypatch.setattr(kernel, "MAX_ORACLE_STATES", 40)
    assert cli.main(["montecarlo", "--config", difficulty_config(tmp_path, 24)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("infeasible: the sufficiency oracle passed its budget of 40 automaton "
                            "states at bit 11 of 24 on trial 4\n")


def test_difficulty_above_n20_exit_0(tmp_path):
    proc = run_cli("montecarlo", "--config", difficulty_config(tmp_path, 24))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[1].startswith("difficulty,24,0.3,4,")


def test_audit_exit_0(tmp_path):
    path = write_config(tmp_path, {
        "mode": "audit",
        "source": {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.4, 0.3], "n": 10},
        "p": 0.3,
        "traces": 3,
        "trials": 50,
        "seed": 2,
    })
    proc = run_cli("audit", "--config", path)
    assert proc.returncode == 0
    assert "audit result: pass" in proc.stdout


def test_sweep_regime_csv(tmp_path):
    path = write_config(tmp_path, {
        "mode": "sweep",
        "source": {"kind": "repeat", "pattern": "0", "ell": 1.0},
        "p": 0.5,
        "c_grid": [0.6, 0.8],
        "n_grid": [30],
    })
    proc = run_cli("sweep", "--config", path)
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0].endswith(",regime")
    assert all(len(line.split(",")) == 13 for line in lines)


def test_missing_config_flag():
    proc = run_cli("exact")
    assert proc.returncode == 2


def test_unwritable_out_exit_2(tmp_path, runs_config):
    out = tmp_path / "missing" / "rows.csv"
    proc = run_cli("montecarlo", "--config", runs_config, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot write output:")
    assert proc.stderr.count("\n") == 1


def test_closed_stdout_exit_2(runs_config):
    # the read end of stdout's pipe is closed before the child writes, as in `| true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(CLI + ["montecarlo", "--config", runs_config],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot write output:")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.fixture
def unfrozen():
    gc.unfreeze()
    yield
    gc.unfreeze()


def test_main_freezes_the_collector(runs_config, unfrozen):
    assert cli.main(["montecarlo", "--config", runs_config]) == 0
    assert gc.get_freeze_count() > 0


@pytest.mark.parametrize("host_collects", [True, False])
def test_import_leaves_the_collector_as_found(host_collects):
    # the imports run with the collector off and end frozen; a host that had
    # switched the collector off before importing the command finds it still off
    code = ("import gc\n" + ("" if host_collects else "gc.disable()\n")
            + "import deltrace.cli\nprint(gc.isenabled(), gc.get_freeze_count() > 0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == f"{host_collects} True\n", proc.stderr


# numpy 2 loads numpy.random on first use, about 10 ms with secrets and hmac;
# only montecarlo and audit draw anything, so only they may pay for it.  Any
# other numpy submodule loaded on first use (numpy.ma for np.unique, numpy.char
# for np.char) costs every start 8-17 ms, counted as work by the benchmark.
# Under a numpy whose own import loads one of them, it goes unchecked.
_START_UP = """
import json, sys
import numpy
before = set(sys.modules)
import deltrace.cli

def added():
    return sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy"))

on_import = added()
codes = [deltrace.cli.main([command, "--config", config, "--out", out])
         for command, config, out in json.loads(sys.argv[1])]
print(json.dumps([codes, on_import, added()]))
"""


def _start_up(runs):
    proc = subprocess.run([sys.executable, "-c", _START_UP, json.dumps(runs)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])  # after an audit's summary


def test_formula_modes_load_no_random_module(tmp_path):
    runs = [(command, str(GOLDEN / f"{name}.json"), str(tmp_path / name))
            for command, name in CASES if command != "montecarlo"]
    assert {command for command, _, _ in runs} == {"sweep", "exact", "asympt", "generate"}
    assert _start_up(runs) == [[0] * len(runs), [], []]


def test_every_mode_loads_no_numpy_submodule_but_random(tmp_path):
    # one golden config of each mode, in one fresh interpreter
    first = {}
    for command, name in _cases():
        first.setdefault(command, name)
    assert first.keys() == cli._COMMANDS.keys()
    runs = [(command, str(GOLDEN / f"{name}.json"), str(tmp_path / name)) for command, name in first.items()]
    codes, on_import, loaded = _start_up(runs)
    assert codes == [0] * len(runs) and on_import == []
    assert "numpy.random" in loaded
    assert [m for m in loaded if m.split(".")[:2] != ["numpy", "random"]] == []


# a meta-path finder sees every import request first, so it records the
# variable as numpy's own import starts
_BLAS_THREADS = """
import json, os, sys

seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Spy())
environ = dict(os.environ)
import deltrace
library = ["numpy" in sys.modules, dict(os.environ) == environ]
import deltrace.cli
print(json.dumps([library, seen, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_sets_blas_threads_before_numpy_loads(preset):
    # this process inherits the variable once it has imported cli
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    expected = preset or "1"
    assert json.loads(proc.stdout) == [[False, True], [expected], expected]


def test_unwritable_out_refused_before_any_trial(tmp_path, runs_config, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the output path was checked")

    monkeypatch.setattr(harness, "_mask_block", no_trials)
    out = tmp_path / "missing" / "rows.csv"
    assert cli.main(["montecarlo", "--config", runs_config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: cannot write output: "
                                       f"{out.parent} is not a writable directory\n")
    # an existing directory, as the output or as its sidecar
    (tmp_path / "outdir").mkdir()
    (tmp_path / "rows.csv.meta.txt").mkdir()
    refused = [(tmp_path / "outdir", "is a directory"), (tmp_path / "rows.csv.meta.txt", "is a directory")]
    # an existing read-only file; a process that may write it anyway (root)
    # has nothing to refuse
    locked = tmp_path / "locked.csv"
    locked.write_text("")
    locked.chmod(0o444)
    if not os.access(locked, os.W_OK):
        refused.append((locked, "is not writable"))
    for path, reason in refused:
        out = path.parent / path.name.removesuffix(".meta.txt")
        assert cli.main(["montecarlo", "--config", runs_config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: cannot write output: {path} {reason}\n"


def test_trial_size_cap_exit_3(tmp_path):
    # 4000 traces x 2e6 bits: one trial would need over 50 GiB
    path = write_config(tmp_path, {
        "mode": "montecarlo",
        "source": {"kind": "runs", "first_bit": 0, "fractions": [0.5, 0.5], "n": 2_000_000},
        "p": 0.3,
        "traces": 4000,
        "trials": 10,
        "seed": 5,
    })
    proc = run_cli("montecarlo", "--config", path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("infeasible: one trial needs traces x n = 8000000000 mask bits, "
                                  "up to about 52 GiB at peak")
    assert proc.stderr.count("\n") == 1
    # a trace count past the largest float: its GiB figure overflows a float,
    # and both figures print to three digits
    for mode in ("montecarlo", "audit"):
        path = write_config(tmp_path, {
            "mode": mode,
            "source": {"kind": "runs", "first_bit": 0, "fractions": [0.5, 0.5], "n": 10},
            "p": 0.3,
            "traces": 10**330,
            "trials": 10,
            "seed": 5,
        }, name=f"{mode}.json")
        proc = run_cli(mode, "--config", path)
        assert proc.returncode == 3
        assert proc.stderr == ("infeasible: one trial needs traces x n = 1.00e+331 mask bits, up to about "
                               "6.52e+322 GiB at peak, over the cap of 1073741824 bits (up to about 7 GiB)\n")


@pytest.mark.parametrize("trials", [0, 2**64 + 1, 10**30])
def test_trials_outside_the_stream_indexes_exit_2(tmp_path, capsys, runs_config, trials):
    # trial i draws from stream i of 2^64; the config and --trials are bounded alike
    with open(runs_config) as fh:
        obj = json.load(fh)
    path = write_config(tmp_path, {**obj, "trials": trials}, name="trials.json")
    for args in (["--config", path], ["--config", runs_config, "--trials", str(trials)]):
        assert cli.main(["montecarlo", *args]) == 2
        assert capsys.readouterr() == ("", "config error: trials must be an integer in [1, 2^64]\n")
    assert harness.ExperimentConfig.from_dict({**obj, "trials": 2**64}).trials == 2**64


@pytest.mark.parametrize("command,n,rest", [
    ("exact", {"n": 42}, {"traces": 4}),
    ("sweep", {}, {"c_grid": [0.1], "n_grid": [42]}),
], ids=["exact", "sweep"])
def test_inclusion_exclusion_cap_exit_3(tmp_path, command, n, rest):
    source = {"kind": "runs", "first_bit": 0, "fractions": [1 / 21] * 21, **n}
    path = write_config(tmp_path, {"mode": command, "source": source, "p": 0.3, **rest})
    proc = run_cli(command, "--config", path)
    assert proc.returncode == 3
    assert proc.stderr == "infeasible: inclusion-exclusion over 21 runs exceeds the cap of 20\n"


# (source, n, runs): runs of 2 bits but the literal's last, and a run per bit
_MANY_RUNS = {
    "bits": ({"kind": "bits", "bits": "0011" * 10 + "0"}, 41, 21),
    "runs": ({"kind": "runs", "first_bit": 0, "fractions": [1 / 21] * 21, "n": 42}, 42, 21),
    "repeat": ({"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 42}, 42, 42),
}


@pytest.mark.parametrize("kind,p,code", [
    ("bits", 0.3, 3), ("bits", 0.0, 0), ("bits", 1.0, 0),
    ("runs", 0.3, 3), ("runs", 0.0, 0), ("runs", 1.0, 0),
    ("repeat", 0.3, 3), ("repeat", 0.0, 0), ("repeat", 1.0, 0),
], ids=["0.3-3", "0.0-0", "1.0-0", "runs-0.3-3", "runs-0.0-0", "runs-1.0-0",
        "repeat-0.3-3", "repeat-0.0-0", "repeat-1.0-0"])
def test_exact_refuses_a_many_run_literal_before_its_run_table(tmp_path, monkeypatch, capsys, kind, p, code):
    # over the inclusion-exclusion cap, which p = 0 and 1 do not need: there
    # every row is a constant, and the source is not built either
    def built(*args):
        raise AssertionError("the source or its run table was built")

    for name in ("_run_lengths", "make_run_instance", "make_repeat_instance"):
        monkeypatch.setattr(harness, name, built)
    source, n, runs = _MANY_RUNS[kind]
    path = write_config(tmp_path, {"mode": "exact", "source": source, "p": p, "traces": 4})
    assert cli.main(["exact", "--config", path]) == code
    out, err = capsys.readouterr()
    assert err == (f"infeasible: inclusion-exclusion over {runs} runs exceeds the cap of 20\n" if code else "")
    if not code:
        value, ln_value = ("1.0", "0.0") if p else ("0.0", "-inf")
        assert out.splitlines()[1:] == [f"{name},{n},{p},4,,{value},{ln_value},,,,,{method}" for name, method in (
            ("no-pattern-witness", "exact-closed-form"), ("uncovered-run", "exact-closed-form"),
            ("uncovered-run", "exact-direct-sum"))]


def test_deeply_nested_config_exit_2(tmp_path):
    # json.load raises RecursionError on it
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    proc = run_cli("exact", "--config", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "config error: config is nested too deeply to parse\n"


@pytest.mark.parametrize("pattern,n,traces,code,message", [
    ("01", 1 << 25, 1, 3, "infeasible: inclusion-exclusion over 33554432 runs exceeds the cap of 20"),
    ("01", 10**14, 1, 3, "infeasible: the source needs n = 100000000000000 bits, over the cap of 1073741824 bits"),
    ("01", 1, 1, 2, "config error: n=1 too small: copy count floor(ell*n^a) = 0 < 1"),
    ("0110", 3, 1, 2, "config error: pattern block of 4 bits does not fit in n=3"),
    ("01", 64, {"c": 1e308}, 2, "config error: traces must keep c * n^a below the largest float, about 1.8e308"),
], ids=["runs-cap", "n-cap", "no-copy", "block-too-long", "infinite-count"])
def test_exact_refuses_a_many_run_recipe_before_building_it(tmp_path, monkeypatch, capsys, pattern, n, traces,
                                                            code, message):
    # repeat 01 at ell 0.5 is a run per bit; the refusals keep their order
    def build(*args):
        raise AssertionError("the source string was built")

    monkeypatch.setattr(harness, "make_repeat_instance", build)
    source = {"kind": "repeat", "pattern": pattern, "ell": 0.5, "n": n}
    path = write_config(tmp_path, {"mode": "exact", "source": source, "p": 0.99, "traces": traces})
    assert cli.main(["exact", "--config", path]) == code
    assert capsys.readouterr().err == message + "\n"


def _sized_config(command, n):
    """A config of each formula subcommand and generate whose source is n bits long."""
    source = {"kind": "runs", "first_bit": 0, "fractions": [0.5, 0.5], "n": n}
    return {
        "exact": {"mode": "exact", "source": source, "p": 0.3, "traces": 4},
        "asympt": {"mode": "asymptotic", "source": source, "p": 0.3, "traces": {"c": 0.5}},
        "sweep": {"mode": "sweep", "source": {k: v for k, v in source.items() if k != "n"},
                  "p": 0.3, "c_grid": [0.5], "n_grid": [n]},
        "generate": {"mode": "generate", "source": source},
    }[command]


@pytest.mark.parametrize("command", ["exact", "asympt", "sweep", "generate"])
def test_n_beyond_float_range_exit_2(tmp_path, command):
    proc = run_cli(command, "--config", write_config(tmp_path, _sized_config(command, 10**400)))
    assert proc.returncode == 2
    key = "n_grid entries exceed" if command == "sweep" else "source.n exceeds"
    assert proc.stderr == f"config error: {key} the largest float, about 1.8e308\n"


@pytest.mark.parametrize("n", [10**20, int(sys.float_info.max)], ids=["1e20", "largest-float"])
@pytest.mark.parametrize("command", ["asympt", "sweep"])
def test_n_within_float_range_exit_0(tmp_path, capsys, command, n):
    assert cli.main([command, "--config", write_config(tmp_path, _sized_config(command, n))]) == 0
    assert capsys.readouterr().out.split("\n")[1].split(",")[1] == str(n)


@pytest.mark.parametrize("command", ["exact", "generate"])
def test_source_over_allocation_cap_exit_3(tmp_path, capsys, command):
    # 10^14 bits would be about 91 TiB; refused before the string exists
    path = write_config(tmp_path, _sized_config(command, 10**14))
    assert cli.main([command, "--config", path]) == 3
    assert capsys.readouterr().err == ("infeasible: the source needs n = 100000000000000 bits, "
                                       "over the cap of 1073741824 bits\n")


def test_coverage_breach_exit_4(tmp_path, monkeypatch, capsys):
    # a reconstruction that always misses breaks "coverage implies success"
    # on every trial with run coverage, which p = 0 makes every trial
    monkeypatch.setattr(harness, "_run_alignment_misses",
                        lambda s, lengths, padded: np.ones(len(padded), dtype=bool))
    path = write_config(tmp_path, {
        "mode": "audit",
        "source": {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.4, 0.3], "n": 10},
        "p": 0.0,
        "traces": 2,
        "trials": 20,
        "seed": 5,
    })
    assert cli.main(["audit", "--config", path]) == 4
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "audit covered-and-wrong: 20" in lines
    assert "offender trial=0 check=covered-and-wrong" in lines
    assert lines[-1] == "audit result: FAIL"
    assert captured.err == ""


# ---------------------------------------------------------------------------
# exit-code contract on random configs of every mode, in process

_PREFIXES = {2: ("usage error: ", "config error: "), 3: ("infeasible: ",)}
_COMMAND = {"exact": "exact", "asymptotic": "asympt", "sweep": "sweep", "montecarlo": "montecarlo",
            "audit": "audit", "generate": "generate"}


def _mostly(common, rare):
    """common in about seven of eight draws, rare in the rest"""
    return st.sampled_from(range(8)).flatmap(lambda k: rare if k == 7 else common)


_EDGE_P = _mostly(st.floats(0, 1, exclude_min=True, exclude_max=True), st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1 - 1e-16]))
# 1e-300 to 1e300, spread by exponent
_WIDE = st.floats(-300, 300).map(lambda e: 10.0 ** e)
# ell and a in (0, 1]: below 1/4 most repeat sources keep no copy
_UNIT = _mostly(st.floats(0.25, 1), st.sampled_from([1e-300, 5e-324]) | st.floats(0, 0.25, exclude_min=True))
# run fractions down to 1e-19, whose run lengths round to 0 in a small source
_FRACTIONS = st.lists(_mostly(st.floats(-3, 0), st.floats(-19, 0)).map(lambda e: 10.0 ** e), min_size=2, max_size=5).map(
    lambda w: [x / sum(w) for x in w])


@st.composite
def _configs(draw):
    """A config of any mode: mostly valid, with edge values everywhere; the
    simulation modes keep n <= 64 and few traces and trials."""
    mode = draw(st.sampled_from(sorted(_COMMAND)))
    simulated = mode in ("montecarlo", "audit")
    small_n = _mostly(st.integers(8, 64), st.integers(1, 7))
    n = draw(small_n if simulated else _mostly(small_n, st.sampled_from([10**3, 10**6, 10**20, 10**300])))
    kind = draw(st.sampled_from(["repeat", "runs"] if mode in ("asymptotic", "sweep") else ["repeat", "runs", "bits"]))
    if kind == "bits":
        source = {"kind": "bits", "bits": draw(st.text("01", min_size=1, max_size=64))}
    elif kind == "repeat":
        source = {"kind": "repeat", "pattern": draw(st.text("01", min_size=1, max_size=4)),
                  "ell": draw(_UNIT), "a": draw(_UNIT), "n": n}
    else:
        source = {"kind": "runs", "first_bit": draw(st.integers(0, 1)), "fractions": draw(_FRACTIONS), "n": n}
    config = {"mode": mode, "source": source}
    if mode == "generate":
        return config
    config["p"] = draw(_EDGE_P)
    if mode == "sweep":
        del source["n"]
        config["c_grid"] = draw(st.lists(_WIDE, min_size=1, max_size=3))
        config["n_grid"] = draw(st.lists(small_n | st.sampled_from([10**6, 10**300]), min_size=1, max_size=3))
        config["a"] = draw(_UNIT)
        return config
    literal = _mostly(st.integers(1, 16), st.sampled_from([0, 10**4, 10**330]))
    schedule = st.fixed_dictionaries({"c": _WIDE, "a": _UNIT})
    config["traces"] = draw(literal if simulated else schedule if mode == "asymptotic" else literal | schedule)
    if simulated:
        config["trials"] = draw(_mostly(st.integers(1, 12), st.sampled_from([0, 2**64 + 1])))
        config["seed"] = draw(st.integers(0, 2**64 - 1))
    if mode == "montecarlo" and draw(st.booleans()):
        config["estimators"] = draw(st.lists(st.sampled_from(harness.ESTIMATORS), min_size=1, max_size=4,
                                             unique=True))
    return config


def _recording_plain_errors(call, plain: list):
    """call, appending to plain each ValueError it raises that is neither a
    ConfigError nor a UsageError, before it reaches cli.main's handler."""
    def wrapped(*args, **kwargs):
        try:
            return call(*args, **kwargs)
        except ValueError as exc:
            if not isinstance(exc, (harness.ConfigError, cli.UsageError)):
                plain.append(repr(exc))
            raise
    return wrapped


def _run_in_process(folder, config) -> tuple[int, str, str, list]:
    """cli.main on config with the oracle's budget and the per-trial and
    source cap patched low, so that no example allocates much; and the
    refusals that reached its handler as plain ValueErrors."""
    path = folder / "fuzz.json"
    path.write_text(json.dumps(config))
    out, err, plain = io.StringIO(), io.StringIO(), []
    parse = harness.ExperimentConfig.from_file
    with mock.patch.object(kernel, "MAX_ORACLE_STATES", 2000), \
            mock.patch.object(harness, "MAX_TRIAL_ELEMENTS", 1 << 12), \
            mock.patch.object(harness.ExperimentConfig, "from_file", _recording_plain_errors(parse, plain)), \
            mock.patch.object(cli, "run_mode", _recording_plain_errors(harness.run_mode, plain)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([_COMMAND[config["mode"]], "--config", str(path)])
        finally:
            gc.unfreeze()
    return code, out.getvalue(), err.getvalue(), plain


# each exited 2 with "config error: math domain error": analytics took
# log(1 - e^x) by hand where e^x rounds to 1
_CATCHES = {
    "sweep": {"mode": "sweep", "source": {"kind": "runs", "first_bit": 0, "fractions": [1e-18, 0.5, 0.5]},
              "p": 0.99, "c_grid": [0.5], "n_grid": [1]},
    "asympt": {"mode": "asymptotic", "source": {"kind": "runs", "first_bit": 0, "fractions": [5e-19, 0.5, 0.5],
                                                "n": 10}, "p": 0.3, "traces": {"c": 0.05}},
}


@pytest.mark.parametrize("name", sorted(_CATCHES))
def test_run_lengths_whose_power_rounds_to_one_exit_0(tmp_path, name):
    code, out, err, _ = _run_in_process(tmp_path, _CATCHES[name])
    assert (code, err) == (0, "")
    assert "nan" not in out and out.count("\n") == {"sweep": 3, "asympt": 2}[name]


# each reached cli.main as a plain ValueError that named no config key:
# ThresholdParams refused p, and TraceCount a c * n^a that overflowed
_PLAIN_REFUSALS = {
    "p-outside-open-interval": {"mode": "asymptotic", "source": {"kind": "runs", "first_bit": 0,
                                                                 "fractions": [0.5, 0.5], "n": 10},
                                "p": 0.0, "traces": {"c": 0.5}},
    "infinite-count": {"mode": "exact", "source": {"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 64},
                       "p": 0.3, "traces": {"c": 1e308}},
}


@settings(max_examples=300, deadline=None)
@given(config=_configs())
@example(config=_CATCHES["sweep"])
@example(config=_CATCHES["asympt"])
@example(config=_PLAIN_REFUSALS["p-outside-open-interval"])
@example(config=_PLAIN_REFUSALS["infinite-count"])
def test_every_config_exits_with_a_documented_code(tmp_path_factory, config):
    # code 2 or 3 prints one stderr line with its prefix; 0 prints nothing
    # there, and 4, an audit breach, reports on stdout; every config refusal
    # is a ConfigError, never a plain ValueError
    code, out, err, plain = _run_in_process(tmp_path_factory.getbasetemp(), config)
    assert plain == []
    assert code in (0, 2, 3, 4)
    if code in _PREFIXES:
        assert err.count("\n") == 1 and err.endswith("\n") and err.startswith(_PREFIXES[code]), err
    else:
        assert err == ""
        assert code == 0 or out.endswith("audit result: FAIL\n")
