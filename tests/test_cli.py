import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from deltrace import cli, harness, kernel
from test_golden import CASES, GOLDEN

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


# numpy 2 loads numpy.random on first use, about 10 ms with secrets and hmac;
# only montecarlo and audit draw anything, so only they may pay for it.  Under
# a numpy whose own import loads it, only scipy is left to check.
_START_UP = """
import json, sys
import numpy
before = set(sys.modules)
import deltrace.cli

def added():
    return sorted(m for m in set(sys.modules) - before if m == "numpy.random" or m.split(".")[0] == "scipy")

on_import = added()
codes = [deltrace.cli.main([command, "--config", config, "--out", out])
         for command, config, out in json.loads(sys.argv[1])]
print(json.dumps([codes, on_import, added()]))
"""


def test_formula_modes_load_no_random_module(tmp_path):
    runs = [(command, str(GOLDEN / f"{name}.json"), str(tmp_path / name))
            for command, name in CASES if command != "montecarlo"]
    assert {command for command, _, _ in runs} == {"sweep", "exact", "asympt", "generate"}
    proc = subprocess.run([sys.executable, "-c", _START_UP, json.dumps(runs)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(runs), [], []]


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
    # a trace count past the largest float: its GiB figure overflows a float
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
        assert proc.stderr.startswith(f"infeasible: one trial needs traces x n = {10**331} mask bits, ")
        assert proc.stderr.count("\n") == 1


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


@pytest.mark.parametrize("p,code", [(0.3, 3), (0.0, 0), (1.0, 0)])
def test_exact_refuses_a_many_run_literal_before_its_run_table(tmp_path, monkeypatch, capsys, p, code):
    # 21 runs: over the inclusion-exclusion cap, which p = 0 and 1 do not need
    bits = "0011" * 10 + "0"
    path = write_config(tmp_path, {"mode": "exact", "source": {"kind": "bits", "bits": bits}, "p": p, "traces": 4})
    if code == 3:
        def tabled(arr):
            raise AssertionError("the run table was built")

        monkeypatch.setattr(harness, "_run_bounds", tabled)
    assert cli.main(["exact", "--config", path]) == code
    err = capsys.readouterr().err
    assert err == ("infeasible: inclusion-exclusion over 21 runs exceeds the cap of 20\n" if code else "")


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
    ("01", 64, {"c": 1e308}, 2, "config error: trace count must be finite"),
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
                        lambda s, padded: np.ones(len(padded), dtype=bool))
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
