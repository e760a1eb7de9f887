import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltrace import harness, reconstruct
from deltrace.analytics import critical_rate, prob_uncovered_run_mgf
from deltrace.harness import (
    CSV_HEADER,
    ESTIMATORS,
    WILSON_Z,
    SUMMARY_OFFENDERS,
    AuditReport,
    ConfigError,
    EstimateRow,
    ExperimentConfig,
    InfeasibleError,
    SourceSpec,
    audit_implications,
    estimate_event_probs,
    rows_to_csv,
    run_mode,
    sweep_threshold,
    wilson_interval,
    write_outputs,
)
from oracles import wilson_oracle


def mc_obj(**over):
    obj = {
        "mode": "montecarlo",
        "source": {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.4, 0.3], "n": 10},
        "p": 0.3,
        "traces": 4,
        "trials": 200,
        "seed": 5,
    }
    obj.update(over)
    return obj


def mc_config(**over):
    return ExperimentConfig.from_dict(mc_obj(**over))


EXACT_OBJ = {
    "mode": "exact",
    "source": {"kind": "repeat", "pattern": "0", "ell": 1.0, "a": 1.0, "n": 10},
    "p": 0.5,
    "traces": {"c": 0.6, "a": 1.0},
}
SWEEP_OBJ = {
    "mode": "sweep",
    "source": {"kind": "repeat", "pattern": "0", "ell": 1.0},
    "p": 0.5,
    "c_grid": [0.5],
    "n_grid": [10],
    "a": 1.0,
}
# every numeric key of the schema: a valid config and the path to the key
# (a list index picks an element)
NUMERIC_KEYS = {
    "source.n": (mc_obj(), ("source", "n")),
    "source.ell": (EXACT_OBJ, ("source", "ell")),
    "source.a": (EXACT_OBJ, ("source", "a")),
    "source.first_bit": (mc_obj(), ("source", "first_bit")),
    "source.fractions": (mc_obj(), ("source", "fractions", 0)),
    "p": (mc_obj(), ("p",)),
    "traces": (mc_obj(), ("traces",)),
    "traces.c": (EXACT_OBJ, ("traces", "c")),
    "traces.a": (EXACT_OBJ, ("traces", "a")),
    "trials": (mc_obj(), ("trials",)),
    "seed": (mc_obj(), ("seed",)),
    "c_grid": (SWEEP_OBJ, ("c_grid", 0)),
    "n_grid": (SWEEP_OBJ, ("n_grid", 0)),
    "sweep.a": (SWEEP_OBJ, ("a",)),
}


def with_value(obj, path, value):
    obj = copy.deepcopy(obj)
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    return obj


class TestSourceSpec:
    def test_repeat_instance(self):
        spec = SourceSpec.from_dict(
            {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": 6}, allow_missing_n=False
        )
        inst = spec.instance()
        assert str(inst.s) == "000000"
        assert inst.span.copies == 6 and inst.span.period == 1

    def test_runs_instance(self):
        spec = SourceSpec.from_dict(
            {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.4, 0.3], "n": 10},
            allow_missing_n=False,
        )
        inst = spec.instance()
        assert str(inst.s) == "0001111000"
        assert np.diff(inst.bounds).tolist() == [3, 4, 3]
        # declared span sits on the first longest run
        assert (inst.span.offset, inst.span.copies) == (3, 4)

    def test_bits_instance(self):
        spec = SourceSpec.from_dict({"kind": "bits", "bits": "0110"}, allow_missing_n=False)
        inst = spec.instance()
        assert str(inst.s) == "0110" and np.diff(inst.bounds).tolist() == [1, 2, 1]

    def test_rejections(self):
        bad = [
            {"kind": "morse"},
            {"kind": "bits", "bits": "012"},
            {"kind": "bits", "bits": ""},
            {"kind": "repeat", "pattern": "0", "ell": 0.0, "n": 5},
            {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": 0},
            {"kind": "runs", "fractions": [0.5, 0.6], "n": 10},
            {"kind": "runs", "fractions": [1.0], "n": 10},
            {"kind": "runs", "first_bit": 2, "fractions": [0.5, 0.5], "n": 10},
            {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": 5, "extra": 1},
        ]
        for obj in bad:
            with pytest.raises(ConfigError):
                SourceSpec.from_dict(obj, allow_missing_n=False)

    def test_sweep_forbids_n(self):
        with pytest.raises(ConfigError, match="omit source.n"):
            SourceSpec.from_dict(
                {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": 5}, allow_missing_n=True
            )


class TestConfigValidation:
    def test_montecarlo_round_trip(self):
        cfg = mc_config()
        assert cfg.mode == "montecarlo" and cfg.traces == 4 and cfg.seed == 5

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            mc_config(wibble=3)

    def test_mode_mismatch(self):
        with pytest.raises(ConfigError, match="does not match subcommand"):
            ExperimentConfig.from_dict(mc_obj(), mode="exact")

    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            mc_config(p=1.5)
        with pytest.raises(ConfigError):
            mc_config(p="0.3")

    def test_empty_traces(self):
        with pytest.raises(ConfigError, match="empty trace set has undefined sufficiency"):
            mc_config(traces=0)

    def test_bool_is_not_a_count(self):
        with pytest.raises(ConfigError):
            mc_config(traces=True)
        with pytest.raises(ConfigError):
            mc_config(trials=True)

    @pytest.mark.parametrize("key", list(NUMERIC_KEYS))
    def test_numeric_keys_refuse_booleans(self, key):
        obj, path = NUMERIC_KEYS[key]
        ExperimentConfig.from_dict(obj)  # valid as given
        with pytest.raises(ConfigError) as wrong_type:
            ExperimentConfig.from_dict(with_value(obj, path, "1"))
        # true is refused with the message any other non-number gets
        with pytest.raises(ConfigError, match=re.escape(str(wrong_type.value))):
            ExperimentConfig.from_dict(with_value(obj, path, True))

    def test_integers_are_numbers(self):
        assert mc_config(p=1).p == 1.0
        cfg = ExperimentConfig.from_dict({**EXACT_OBJ, "traces": {"c": 1, "a": 1},
                                          "source": {**EXACT_OBJ["source"], "ell": 1, "a": 1}})
        assert cfg.schedule == (1.0, 1.0)
        assert (cfg.source.recipe.ell, cfg.source.recipe.a) == (1.0, 1.0)
        cfg = ExperimentConfig.from_dict({**SWEEP_OBJ, "p": 0, "c_grid": [1, 0.5], "a": 1})
        assert (cfg.p, cfg.c_grid, cfg.sweep_a) == (0.0, (1.0, 0.5), 1.0)

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            mc_config(seed=-1)
        with pytest.raises(ConfigError):
            mc_config(seed=2**64)
        mc_config(seed=2**64 - 1)  # boundary value accepted

    def test_montecarlo_needs_integer_traces(self):
        with pytest.raises(ConfigError, match="integer trace count"):
            mc_config(traces={"c": 0.5, "a": 1.0})

    def test_estimator_names(self):
        cfg = mc_config(estimators=["difficulty", "uncovered-run"])
        assert cfg.estimators == ("difficulty", "uncovered-run")
        with pytest.raises(ConfigError):
            mc_config(estimators=["difficulty", "difficulty"])
        with pytest.raises(ConfigError):
            mc_config(estimators=["luck"])

    def test_exact_accepts_schedule(self):
        cfg = ExperimentConfig.from_dict({
            "mode": "exact",
            "source": {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": 30},
            "p": 0.5,
            "traces": {"c": 0.6, "a": 1.0},
        })
        assert cfg.schedule == (0.6, 1.0) and cfg.traces is None

    def test_asymptotic_needs_schedule(self):
        obj = {
            "mode": "asymptotic",
            "source": {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": 30},
            "p": 0.5,
            "traces": 16,
        }
        with pytest.raises(ConfigError, match="schedule"):
            ExperimentConfig.from_dict(obj)

    def test_asymptotic_rejects_bits(self):
        obj = {
            "mode": "asymptotic",
            "source": {"kind": "bits", "bits": "0011"},
            "p": 0.5,
            "traces": {"c": 0.6},
        }
        with pytest.raises(ConfigError, match="repeat or runs"):
            ExperimentConfig.from_dict(obj)

    def test_sweep_rejects_bits(self):
        obj = {
            "mode": "sweep",
            "source": {"kind": "bits", "bits": "0011"},
            "p": 0.5,
            "c_grid": [0.5],
            "n_grid": [10],
        }
        with pytest.raises(ConfigError, match="repeat or runs"):
            ExperimentConfig.from_dict(obj)

    def test_sweep_grid_validation(self):
        base = {
            "mode": "sweep",
            "source": {"kind": "repeat", "pattern": "0", "ell": 1.0},
            "p": 0.5,
            "c_grid": [0.5, 0.7],
            "n_grid": [10, 20],
        }
        cfg = ExperimentConfig.from_dict(base)
        assert cfg.c_grid == (0.5, 0.7) and cfg.n_grid == (10, 20)
        for patch in [{"c_grid": []}, {"c_grid": [0.0]}, {"n_grid": [10.5]}, {"a": 0.0}]:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({**base, **patch})

    def test_from_file_overrides_apply_before_validation(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mode": "exact",
            "source": {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": 10},
            "p": 0.5,
            "traces": 8,
        }))
        cfg = ExperimentConfig.from_file(str(path))
        assert len(cfg.config_sha256) == 64
        # a seed override is an unknown key for exact mode, so it must fail
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_file(str(path), overrides={"seed": 7})
        # None-valued overrides are skipped entirely
        cfg2 = ExperimentConfig.from_file(str(path), overrides={"seed": None})
        assert cfg2.config_sha256 == cfg.config_sha256

    def test_override_changes_hash(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(mc_obj()))
        a = ExperimentConfig.from_file(str(path))
        b = ExperimentConfig.from_file(str(path), overrides={"seed": 6})
        assert b.seed == 6 and a.config_sha256 != b.config_sha256

    def test_unreadable_and_invalid_files(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ExperimentConfig.from_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_file(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_file(str(arr))


class TestWilson:
    def test_boundary_clamps(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0.0 < hi < 0.12
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and 0.88 < lo < 1.0

    def test_symmetric_center(self):
        lo, hi = wilson_interval(50, 100)
        assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-15)

    def test_z_constant(self):
        # two-sided 95% normal quantile
        assert WILSON_Z == pytest.approx(1.959963984540054, abs=1e-12)

    @given(st.integers(1, 300), st.data())
    def test_matches_quadratic_oracle(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        lo, hi = wilson_interval(successes, trials)
        olo, ohi = wilson_oracle(successes, trials, WILSON_Z)
        assert lo == pytest.approx(olo, abs=1e-12)
        assert hi == pytest.approx(ohi, abs=1e-12)
        assert lo <= successes / trials <= hi

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestRowsAndCsv:
    def test_field_layout(self):
        row = EstimateRow("difficulty", 10, 0.3, 4, None, 0.5, math.log(0.5),
                          ci=(0.25, 0.75), trials=100, seed=7)
        assert ",".join(row.fields()) == (
            "difficulty,10,0.3,4,,0.5,-0.6931471805599453,0.25,0.75,100,7,monte-carlo"
        )

    def test_rate_valued_t_column(self):
        row = EstimateRow("uncovered-run", 50, 0.25, 0.75, 1.0, 0.5, math.log(0.5),
                          method="asymptotic")
        fields = row.fields()
        assert fields[3] == "0.75" and fields[4] == "1.0"
        assert fields[7] == "" and fields[10] == ""

    def test_ci_must_contain_value(self):
        with pytest.raises(ValueError, match="confidence interval"):
            EstimateRow("difficulty", 10, 0.3, 4, None, 0.9, math.log(0.9),
                        ci=(0.1, 0.2), trials=10, seed=0)

    def test_csv_shape(self):
        row = EstimateRow("difficulty", 10, 0.3, 4, None, 0.5, math.log(0.5),
                          ci=(0.25, 0.75), trials=100, seed=7)
        text = rows_to_csv([row])
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert text.endswith("\n")
        assert len(lines[0].split(",")) == 12 and len(lines[1].split(",")) == 12

    def test_csv_regime_column(self):
        row = EstimateRow("uncovered-run", 50, 0.25, 0.75, 1.0, 0.5, math.log(0.5),
                          method="asymptotic")
        text = rows_to_csv([row], regimes=["above"])
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER + ",regime"
        assert lines[1].endswith(",above") and len(lines[1].split(",")) == 13
        with pytest.raises(ValueError, match="one regime label per row"):
            rows_to_csv([row], regimes=[])


class TestMonteCarlo:
    def test_perfect_channel(self):
        cfg = mc_config(p=0.0, trials=50)
        for row in harness._estimate(cfg, ("reconstruction-error", "difficulty")):
            assert row.value == 0.0
        for row in estimate_event_probs(cfg):
            assert row.value == 0.0

    def test_total_deletion(self):
        cfg = mc_config(p=1.0, trials=50)
        for row in harness._estimate(cfg, ("reconstruction-error", "difficulty")):
            assert row.value == 1.0
        for row in estimate_event_probs(cfg):
            assert row.value == 1.0

    def test_row_metadata(self):
        cfg = mc_config(trials=100)
        [row] = harness._estimate(cfg, ("difficulty",))
        assert (row.n, row.p, row.t_or_c, row.trials, row.seed) == (10, 0.3, 4, 100, 5)
        assert row.method == "monte-carlo" and row.a is None
        assert row.ci[0] <= row.value <= row.ci[1]

    def test_difficulty_needs_small_n(self, monkeypatch):
        # any n runs; the oracle's state budget is the only limit.  Trials 0 to 2
        # find a second source at bit 1, and trial 3's search passes 50 states at bit 9
        cfg = mc_config(source={"kind": "runs", "first_bit": 0,
                                "fractions": [0.5, 0.5], "n": 22}, trials=20)
        assert 0.0 <= harness._estimate(cfg, ("difficulty",))[0].value <= 1.0
        monkeypatch.setattr(reconstruct, "MAX_ORACLE_STATES", 50)
        with pytest.raises(InfeasibleError,
                           match=r"budget of 50 automaton states at bit 9 of 22 on trial 3$"):
            harness._estimate(cfg, ("difficulty",))

    def test_seed_determinism(self):
        a = estimate_event_probs(mc_config(trials=150))
        b = estimate_event_probs(mc_config(trials=150))
        assert [r.fields() for r in a] == [r.fields() for r in b]
        c = estimate_event_probs(mc_config(trials=150, seed=6))
        assert [r.fields() for r in a] != [r.fields() for r in c]

    def test_paired_difficulty_dominates_span_event(self):
        # shared masks make the implication hold per trial, not just in mean
        for seed in range(5):
            report = audit_implications(mc_config(mode="audit", trials=120, seed=seed))
            by_name = {row.estimator: row.value for row in report.rows}
            assert by_name["difficulty"] >= by_name["no-pattern-witness"]

    def test_mc_converges_to_formula(self):
        cfg = mc_config(source={"kind": "bits", "bits": "0" * 10},
                        trials=20_000, estimators=["uncovered-run"])
        row = [r for r in estimate_event_probs(cfg) if r.estimator == "uncovered-run"][0]
        exact = prob_uncovered_run_mgf([10], 0.3, 4).value
        sigma = math.sqrt(exact * (1 - exact) / cfg.trials)
        assert abs(row.value - exact) <= 4 * sigma

    def test_ci_calibration_smoke(self):
        # frozen check: over 100 seed batches of 400 trials the Wilson CI
        # covers the closed-form value at least 95 times
        exact = prob_uncovered_run_mgf([10], 0.3, 4).value
        covered = 0
        for seed in range(100):
            cfg = mc_config(source={"kind": "bits", "bits": "0" * 10},
                            trials=400, seed=seed, estimators=["uncovered-run"])
            row = [r for r in estimate_event_probs(cfg)
                   if r.estimator == "uncovered-run"][0]
            covered += row.ci[0] <= exact <= row.ci[1]
        assert covered >= 95


class TestAudit:
    def test_clean_run(self):
        report = audit_implications(mc_config(mode="audit", trials=200, seed=1))
        assert report.ok
        assert set(report.counts) == {
            "no-witness-and-sufficient",
            "covered-and-wrong",
            "ambiguity-alternative-inconsistent",
        }
        assert all(v == 0 for v in report.counts.values())
        assert report.offenders == ()
        assert len(report.rows) == 4

    def test_summary_text(self):
        report = audit_implications(mc_config(mode="audit", trials=60, seed=2))
        text = report.summary()
        assert text.startswith("audit trials: 60\n")
        assert "audit no-witness-and-sufficient: 0" in text
        assert text.endswith("audit result: pass\n")

    def test_summary_flags_offenders(self):
        report = AuditReport(trials=3, counts={"covered-and-wrong": 1},
                             offenders=((2, "covered-and-wrong"),), rows=())
        assert not report.ok
        assert "offender trial=2 check=covered-and-wrong" in report.summary()
        assert report.summary().endswith("audit result: FAIL\n")

    def test_summary_caps_offender_lines(self):
        offenders = tuple((t, "covered-and-wrong") for t in range(25))
        report = AuditReport(trials=30, counts={"covered-and-wrong": 25}, offenders=offenders, rows=())
        lines = report.summary().splitlines()
        shown = [line for line in lines if line.startswith("offender ")]
        assert shown == [f"offender trial={t} check=covered-and-wrong" for t in range(SUMMARY_OFFENDERS)]
        assert lines[-2:] == ["audit offenders not shown: 5", "audit result: FAIL"]
        assert "audit covered-and-wrong: 25" in lines
        assert len(report.offenders) == 25


class TestSweep:
    def sweep_config(self, **over):
        c_star = critical_rate(1, 1.0, 0.5)
        obj = {
            "mode": "sweep",
            "source": {"kind": "repeat", "pattern": "0", "ell": 1.0},
            "p": 0.5,
            "c_grid": [0.9 * c_star, c_star, 1.1 * c_star],
            "n_grid": [40],
        }
        obj.update(over)
        return ExperimentConfig.from_dict(obj)

    def test_regime_labels(self):
        rows, regimes = sweep_threshold(self.sweep_config())
        assert regimes == ["below", "below", "at", "at", "above", "above"]
        methods = [row.method for row in rows]
        assert methods == ["exact-closed-form", "asymptotic"] * 3

    def test_regime_tolerance_is_relative_to_a_small_critical_rate(self):
        c_star = critical_rate(4, 0.1, 0.001)  # about 1e-13
        source = {"kind": "repeat", "pattern": "0110", "ell": 0.1}
        config = self.sweep_config(source=source, p=0.001, c_grid=[1e-14, c_star, 1e-12])
        assert sweep_threshold(config)[1] == ["below", "below", "at", "at", "above", "above"]

    def test_at_threshold_limit(self):
        # at the critical rate the closed form tends to exp(-1)
        rows, regimes = sweep_threshold(self.sweep_config(n_grid=[400]))
        at_exact = [r for r, reg in zip(rows, regimes)
                    if reg == "at" and r.method == "exact-closed-form"][0]
        assert at_exact.value == pytest.approx(math.exp(-1), abs=1e-3)

    def test_runs_sweep(self):
        c_star = critical_rate(1, 0.5, 0.3)
        cfg = ExperimentConfig.from_dict({
            "mode": "sweep",
            "source": {"kind": "runs", "first_bit": 0, "fractions": [0.5, 0.5]},
            "p": 0.3,
            "c_grid": [1.2 * c_star],
            "n_grid": [60, 120],
        })
        rows, regimes = sweep_threshold(cfg)
        assert regimes == ["above"] * 4
        assert {row.estimator for row in rows} == {"uncovered-run"}
        text = rows_to_csv(rows, regimes)
        assert text.split("\n")[0].endswith(",regime")


class TestRunMode:
    def test_generate_text(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_dict({
            "mode": "generate",
            "source": {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.4, 0.3], "n": 10},
        })
        assert run_mode(cfg) == 0
        out = capsys.readouterr().out
        assert out == (
            "0001111000\n"
            "span offset=3 period=1 copies=4\n"
            "runs first_bit=0 lengths=3,4,3\n"
        )

    @pytest.mark.parametrize("source,widths", [
        ({"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 5000}, {1}),  # a run per bit
        ({"kind": "runs", "first_bit": 1, "fractions": [0.0005, 0.005, 0.05, 0.8045, 0.14], "n": 12345},
         {1, 2, 3, 4}),
    ], ids=["many-runs", "multi-digit"])
    def test_generate_joins_the_run_lengths(self, source, widths, capsys):
        assert run_mode(ExperimentConfig.from_dict({"mode": "generate", "source": source})) == 0
        bits, _, runs, end = capsys.readouterr().out.split("\n")
        lengths = [len(run.group()) for run in re.finditer("0+|1+", bits)]
        assert {len(str(k)) for k in lengths} == widths and end == ""
        assert runs == f"runs first_bit={bits[0]} lengths=" + ",".join(map(str, lengths))

    def test_exact_mode_rows(self, capsys):
        cfg = ExperimentConfig.from_dict({
            "mode": "exact",
            "source": {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.4, 0.3], "n": 10},
            "p": 0.3,
            "traces": 8,
        })
        assert run_mode(cfg) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        methods = [line.split(",")[-1] for line in lines[1:]]
        assert methods == ["exact-closed-form", "exact-closed-form", "exact-direct-sum"]

    # runs [0.5, 0.5] at n = 800: ln P is about -2.2e-36, and inclusion-
    # exclusion loses 1 - P (ROADMAP items 1 and 10); the true ln_value is from
    # 3000-digit mpmath
    @pytest.mark.parametrize("method", [
        "exact-direct-sum",
        pytest.param("exact-closed-form", marks=pytest.mark.xfail(
            strict=True, reason="inclusion-exclusion loses 1 - P near P = 1 (ROADMAP item 1)")),
    ])
    def test_exact_uncovered_run_near_one(self, method, capsys):
        cfg = ExperimentConfig.from_dict({
            "mode": "exact",
            "source": {"kind": "runs", "first_bit": 0, "fractions": [0.5, 0.5], "n": 800},
            "p": 0.1,
            "traces": 3,
        })
        assert run_mode(cfg) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        column = CSV_HEADER.split(",").index("ln_value")
        ln_value = {row[-1]: float(row[column]) for row in rows if row[0] == "uncovered-run"}
        assert ln_value[method] == pytest.approx(-2.2297186216104693e-36, rel=1e-12, abs=0)

    def test_exact_run_cap(self):
        fracs = [1.0 / 21] * 21
        cfg = ExperimentConfig.from_dict({
            "mode": "exact",
            "source": {"kind": "runs", "first_bit": 0, "fractions": fracs, "n": 42},
            "p": 0.3,
            "traces": 4,
        })
        with pytest.raises(InfeasibleError, match="exceeds the cap"):
            run_mode(cfg)

    def test_asymptotic_mode(self, capsys):
        cfg = ExperimentConfig.from_dict({
            "mode": "asymptotic",
            "source": {"kind": "repeat", "pattern": "0", "ell": 1.0, "n": 100},
            "p": 0.5,
            "traces": {"c": 0.9},
        })
        assert run_mode(cfg) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2 and lines[1].split(",")[-1] == "asymptotic"

    def test_file_outputs_and_sidecar(self, tmp_path):
        out = tmp_path / "rows.csv"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(mc_obj(trials=50, out=str(out))))
        cfg = ExperimentConfig.from_file(str(path), mode="montecarlo")
        assert run_mode(cfg) == 0
        text = out.read_text()
        assert text.split("\n")[0] == CSV_HEADER
        meta = (tmp_path / "rows.csv.meta.txt").read_text()
        assert meta.splitlines()[0] == "rng-algorithm: pcg64"
        assert meta.splitlines()[1] == "package: deltrace 0.1.0"
        assert meta.splitlines()[2] == f"config-sha256: {cfg.config_sha256}"

    def test_sidecar_reports_package_version(self, tmp_path, monkeypatch):
        import deltrace

        monkeypatch.setattr(deltrace, "__version__", "9.8.7")
        out = tmp_path / "rows.csv"
        write_outputs(mc_config(out=str(out)), "payload\n")
        assert out.read_text() == "payload\n"
        meta = (tmp_path / "rows.csv.meta.txt").read_text()
        assert meta.splitlines()[1] == "package: deltrace 9.8.7"

    def test_byte_identical_reruns(self, tmp_path):
        texts = []
        for run in range(2):
            out = tmp_path / f"rows{run}.csv"
            cfg_path = tmp_path / f"cfg{run}.json"
            cfg_path.write_text(json.dumps(mc_obj(trials=80, out=str(out))))
            cfg = ExperimentConfig.from_file(str(cfg_path), mode="montecarlo")
            assert run_mode(cfg) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_large_n_default_skips_oracle(self, capsys):
        cfg = mc_config(source={"kind": "runs", "first_bit": 0,
                                "fractions": [0.5, 0.5], "n": 24},
                        trials=20)
        assert run_mode(cfg) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        names = [line.split(",")[0] for line in lines[1:]]
        assert "difficulty" not in names
        assert names == ["no-pattern-witness", "uncovered-run", "reconstruction-error"]

    def test_estimator_subset(self, capsys):
        cfg = mc_config(trials=30, estimators=["uncovered-run"])
        assert run_mode(cfg) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["uncovered-run"]

    def test_audit_mode_output(self, capsys):
        assert run_mode(mc_config(mode="audit", trials=40)) == 0
        out = capsys.readouterr().out
        assert CSV_HEADER in out and "audit result: pass" in out


class TestEstimatorRegistry:
    def test_names(self):
        assert ESTIMATORS == (
            "difficulty",
            "no-pattern-witness",
            "uncovered-run",
            "reconstruction-error",
        )
