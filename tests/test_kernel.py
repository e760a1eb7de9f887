"""The block-vectorized Monte Carlo kernel against independent routes: the
batched run-alignment verdict against maximal_runs trace set by trace set,
and the kernel's counts against a trial-by-trial replay through the public
detectors, whatever the block size and however the oracle's calls split."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltrace import channel, cli, harness, reconstruct
from deltrace.bits import BitString, _run_lengths, is_subsequence, run_decompose
from deltrace.channel import RngSpec, _mask_block, sample_traces
from deltrace.events import (
    AdjacentPattern,
    SandwichPattern,
    _clean_runs,
    _copies_violated,
    _covered_runs,
    detect_ambiguities,
    detect_events,
)
from deltrace.harness import (
    ESTIMATORS,
    ExperimentConfig,
    InfeasibleError,
    SourceSpec,
    _audit_pattern,
    _audit_patterns,
    _consistent_counts,
    _simulate,
    _simulation_estimators,
    run_mode,
)
from deltrace.reconstruct import (
    ReconstructionResult,
    SufficiencyVerdict,
    _automaton,
    _matchers,
    _run_alignment_misses,
    is_levenshtein_sufficient,
    maximal_runs,
)

SOURCES = st.one_of(
    st.builds(lambda bits: {"kind": "bits", "bits": bits},
              st.text(alphabet="01", min_size=1, max_size=14)),
    st.builds(lambda first, cut, n: {"kind": "runs", "first_bit": first,
                                     "fractions": [cut / 8, 1 - cut / 8], "n": n},
              st.integers(0, 1), st.integers(1, 7), st.integers(8, 14)),
    st.builds(lambda pattern, n: {"kind": "repeat", "pattern": pattern, "ell": 0.25, "n": n},
              st.sampled_from(["0", "01", "001", "0110"]), st.integers(8, 14)),
)
PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _source_string(source: dict) -> BitString:
    return SourceSpec.from_dict(source, allow_missing_n=False).instance().s


@settings(max_examples=150, deadline=None)
@given(SOURCES, PROBS, st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32))
@example({"kind": "bits", "bits": "1"}, 0.5, 1, 3, 0)  # n = 1
@example({"kind": "bits", "bits": "0110"}, 1.0, 1, 2, 0)  # every trace empty
@example({"kind": "runs", "first_bit": 1, "fractions": [0.5, 0.5], "n": 6}, 0.0, 1, 1, 0)
# the benchmark's shapes: mc-long's source, where every set keeps traces with
# all 2000 runs, then where every set misses, and a full block of mc-short's
@example({"kind": "repeat", "pattern": "001", "ell": 0.25, "n": 3000}, 1e-4, 32, 4, 5)
@example({"kind": "repeat", "pattern": "001", "ell": 0.25, "n": 3000}, 0.17, 32, 2, 5)
@example({"kind": "runs", "first_bit": 0, "fractions": [0.2, 0.3, 0.1, 0.25, 0.15], "n": 40}, 0.1, 8, 102, 5)
def test_batched_alignment_matches_maximal_runs(source, p, t_count, block, seed):
    _check_alignment(_source_string(source), p, t_count, block, seed)


def test_blocks_fit_int32_run_indexes():
    # a block holds at most max(BLOCK_ELEMENTS, MAX_TRIAL_ELEMENTS) mask bits,
    # which is why _run_alignment_misses indexes runs with int32
    assert max(harness.BLOCK_ELEMENTS, harness.MAX_TRIAL_ELEMENTS) < 2**31


def _check_alignment(s, p, t_count, block, seed):
    n = len(s)
    spec = RngSpec(master_seed=seed)
    flags = _mask_block(map(spec.trial_rng, range(block)), p, np.empty((block, t_count, n), dtype=bool))
    kept = ~flags
    misses = _run_alignment_misses(s, np.broadcast_to(s.bits, kept.shape)[kept], np.count_nonzero(kept, axis=-1))
    assert misses.shape == (block,)
    for b in range(block):
        result = maximal_runs(n, [s.bits[~row] for row in flags[b]])
        assert misses[b] == (not (result.ok and result.string == s))
    # a trace that wipes out a run has fewer runs than s, so alignment uses
    # the traces that wiped no run: it misses exactly when some run is uncovered
    assert np.array_equal(misses, ~_covered_runs(*_clean_runs(flags, _run_lengths(s.bits))).all(axis=-1))


@pytest.mark.parametrize("step", [1, 3, 4])  # 3 leaves a short last draw
def test_mask_block_draws_the_sample_traces_masks(step, monkeypatch):
    s = BitString("0010111010")
    spec = RngSpec(master_seed=77)
    # at the default constant each trial draws its 4 x 10 uniforms at once
    expected = [np.vstack([mt.mask.flags for mt in sample_traces(s, 0.4, 4, spec.trial_rng(5 + k))])
                for k in range(3)]
    for k in range(3):
        assert np.array_equal(expected[k], spec.trial_rng(5 + k).random((4, len(s))) < 0.4)
    monkeypatch.setattr(channel, "BLOCK_ELEMENTS", step * len(s))  # step rows per draw
    flags = _mask_block(map(spec.trial_rng, range(5, 8)), 0.4, np.empty((3, 4, len(s)), dtype=bool))
    for k in range(3):
        assert np.array_equal(flags[k], expected[k])


def _declared_patterns(s):
    """The audit's patterns as objects, from run_decompose: adjacent run pairs
    at each boundary, then sandwiches around single-bit interior runs."""
    profile = run_decompose(s)
    lengths = profile.lengths
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    bit = lambda i: BitString([(profile.first_bit + i) % 2])  # noqa: E731
    declared = [AdjacentPattern(starts[i], bit(i), lengths[i], bit(i + 1), lengths[i + 1])
                for i in range(len(lengths) - 1)]
    declared += [SandwichPattern(starts[i - 1], bit(i - 1), bit(i), lengths[i - 1], lengths[i + 1])
                 for i in range(1, len(lengths) - 1) if lengths[i] == 1]
    return declared


@settings(max_examples=100, deadline=None)
@given(SOURCES, PROBS, st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32))
def test_run_pairs_declare_the_same_patterns(source, p, t_count, block, seed):
    instance = SourceSpec.from_dict(source, allow_missing_n=False).instance()
    s, bounds = instance.s, instance.bounds
    pairs = _audit_patterns(bounds)
    declared = _declared_patterns(s)
    assert [_audit_pattern(s, bounds, i, j) for i, j in pairs] == declared
    # the kernel's verdict on pair (i, j): every trace deleted a bit of run i or of run j
    flags = np.random.default_rng(seed).random((block, t_count, len(s))) < p
    clean = _clean_runs(flags, np.diff(bounds))[0]
    for (i, j), pattern in zip(pairs, declared):
        fired = ~(clean[..., i] & clean[..., j]).any(axis=-1)
        assert np.array_equal(fired, _copies_violated(flags, pattern.copy_spans()).all(axis=-1))


def _audit_config(source, p, t_count, trials, seed):
    return ExperimentConfig.from_dict({"mode": "audit", "source": source, "p": p,
                                       "traces": t_count, "trials": trials, "seed": seed})


def _tally(config, budget, monkeypatch):
    monkeypatch.setattr(harness, "BLOCK_ELEMENTS", budget)
    audit = config.mode == "audit"
    tally = _simulate(config, ESTIMATORS if audit else config.estimators, audit=audit)
    return tally.fired, tally.audit_counts, tally.offenders


@settings(max_examples=60, deadline=None)
@given(SOURCES, PROBS, st.integers(1, 4), st.integers(1, 11), st.integers(0, 2**32))
def test_counts_do_not_depend_on_block_size(source, p, t_count, trials, seed):
    # a function-scoped fixture would be shared by every hypothesis example
    audit = _audit_config(source, p, t_count, trials, seed)
    # difficulty alone: the oracle runs without the audit
    difficulty = ExperimentConfig.from_dict({"mode": "montecarlo", "source": source, "p": p,
                                             "traces": t_count, "trials": trials, "seed": seed,
                                             "estimators": ["difficulty"]})
    per_trial = t_count * audit.source.n
    fired = []
    for config in (audit, difficulty):
        with pytest.MonkeyPatch.context() as mp:
            one = _tally(config, 1, mp)  # B = 1
            three = _tally(config, 3 * per_trial, mp)  # B = 3, need not divide trials
            single = _tally(config, per_trial * trials, mp)  # every trial in one block
        assert one == three == single
        fired.append(one[0]["difficulty"])
    assert fired[0] == fired[1]


def _replayed_counts(config, faults=None):
    """Trial-by-trial counts through the public functions, as the harness
    computed them before it ran trials in blocks.  faults may stand in for
    maximal_runs, is_levenshtein_sufficient or is_subsequence by name."""
    faults = faults or {}
    reconstruct_ = faults.get("maximal_runs", maximal_runs)
    sufficiency = faults.get("is_levenshtein_sufficient", is_levenshtein_sufficient)
    embeds = faults.get("is_subsequence", is_subsequence)
    instance = config.source.instance()
    s, span = instance.s, instance.span
    profile = run_decompose(s)
    patterns = _declared_patterns(s)
    spec = RngSpec(master_seed=config.seed)
    fired = dict.fromkeys(ESTIMATORS, 0)
    offenders = []
    for trial in range(config.trials):
        traces = sample_traces(s, config.p, config.traces, spec.trial_rng(trial))
        plain = [mt.trace for mt in traces]
        events = detect_events(traces, [span], profile)
        result = reconstruct_(len(s), plain)
        wrong = not (result.ok and result.string == s)
        sufficient = sufficiency(s, plain).sufficient
        fired["no-pattern-witness"] += not events.pattern_witness[0]
        fired["uncovered-run"] += not events.run_covered
        fired["reconstruction-error"] += wrong
        fired["difficulty"] += not sufficient
        if events.run_covered and wrong:
            offenders.append((trial, "covered-and-wrong"))
        if not events.pattern_witness[0] and sufficient:
            offenders.append((trial, "no-witness-and-sufficient"))
        for witness in detect_ambiguities(s, traces, patterns):
            if not all(embeds(t, witness.alternative) for t in plain):
                offenders.append((trial, "ambiguity-alternative-inconsistent"))
    return fired, offenders


@settings(max_examples=60, deadline=None)
@given(SOURCES, PROBS, st.integers(1, 4), st.integers(1, 9), st.integers(0, 2**32))
def test_kernel_matches_public_detectors(source, p, t_count, trials, seed):
    config = _audit_config(source, p, t_count, trials, seed)
    tally = _simulate(config, ESTIMATORS, audit=True)
    assert (tally.fired, tally.offenders) == _replayed_counts(config)


def _never_aligned(s, bits, lens):
    raise AssertionError("montecarlo called _run_alignment_misses")


@settings(max_examples=60, deadline=None)
@given(SOURCES, PROBS, st.integers(1, 4), st.integers(1, 9), st.integers(0, 2**32),
       st.sampled_from([None, ["reconstruction-error"]]))
def test_montecarlo_counts_match_replay_without_run_alignment(source, p, t_count, trials, seed, estimators):
    # montecarlo reads reconstruction-error off coverage; the replay runs
    # maximal_runs on every trial, so the two routes stay independent
    obj = {"mode": "montecarlo", "source": source, "p": p, "traces": t_count,
           "trials": trials, "seed": seed}
    if estimators is not None:
        obj["estimators"] = estimators
    config = ExperimentConfig.from_dict(obj)
    names = _simulation_estimators(config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_run_alignment_misses", _never_aligned)
        fired = _simulate(config, names).fired
    expected = _replayed_counts(config)[0]
    assert {name: fired[name] for name in names} == {name: expected[name] for name in names}


# Each audit check fails on no correct trial.  Made to fail, each must still
# reach every trial it applies to, though the audit visits only suspect trials:
# (kernel function, its stand-in, the replay's stand-in by name)
_FAULTS = {
    "covered-and-wrong": ("_run_alignment_misses", lambda s, bits, lens: np.ones(len(lens), dtype=bool),
                          {"maximal_runs": lambda n, traces: ReconstructionResult(failure="forced")}),
    "no-witness-and-sufficient": ("_consistent_counts", lambda n, step, lens, first: np.ones(len(lens), dtype=np.int64),
                                  {"is_levenshtein_sufficient": lambda s, traces: SufficiencyVerdict(1, True)}),
    "ambiguity-alternative-inconsistent": ("_embeds", lambda step, lens, x: np.zeros(len(lens), dtype=bool),
                                           {"is_subsequence": lambda t, x: False}),
}


def _built_alternatives(config):
    """The patterns whose competing source an audit of config builds, in order."""
    built = []

    def recorded(s, pattern):
        built.append(pattern)
        return validated(s, pattern)

    validated = harness._validated_alternative
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_validated_alternative", recorded)
        _simulate(config, ESTIMATORS, audit=True)
    return built


@pytest.mark.parametrize("trials", [12, 60])  # 15 of the 17 patterns fire, then all 17
def test_competing_sources_are_built_when_a_pattern_first_fires(trials, monkeypatch):
    source = {"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 10}
    monkeypatch.setattr(harness, "BLOCK_ELEMENTS", 3 * 2 * 10)  # blocks of 3 trials
    assert _built_alternatives(_audit_config(source, 0.0, 2, trials, 4)) == []
    config = _audit_config(source, 0.15, 2, trials, 4)
    s = config.source.instance().s
    patterns = _declared_patterns(s)
    spec = RngSpec(master_seed=config.seed)
    fired = [witness.pattern for trial in range(config.trials)
             for witness in detect_ambiguities(s, sample_traces(s, config.p, config.traces,
                                                                spec.trial_rng(trial)), patterns)]
    assert len(fired) > len(set(fired)) and 0 < len(set(fired)) <= len(patterns)
    built = _built_alternatives(config)
    assert len(built) == len(set(built)) and set(built) == set(fired)
    assert (len(built) < len(patterns)) == (trials == 12)


@pytest.mark.parametrize("check", list(_FAULTS))
def test_audit_reaches_every_trial_a_check_applies_to(check, monkeypatch):
    # at this shape and seed one trial has its span wiped in every trace but no
    # declared pattern wiped, so only the no-witness arm makes it suspect
    source = {"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 10}
    config = _audit_config(source, 0.15, 2, 60, 4)
    name, kernel_fault, replay_faults = _FAULTS[check]
    expected = _replayed_counts(config, replay_faults)
    # the check applies to some trials but not to all
    assert 0 < len({trial for trial, found in expected[1] if found == check}) < config.trials
    monkeypatch.setattr(harness, name, kernel_fault)
    tally = _simulate(config, ESTIMATORS, audit=True)
    assert (tally.fired, tally.offenders) == expected


def test_offenders_keep_check_order_within_a_trial(monkeypatch):
    # every check made to fail, with run coverage forced to hold and the span's
    # witness to be absent so that the first two fail on one trial: a trial's
    # offenders are covered-and-wrong, no-witness-and-sufficient, then one
    # entry per declared pattern whose copies every trace wiped
    source = {"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 10}
    config = _audit_config(source, 0.15, 2, 60, 4)
    wiped = _replayed_counts(config, {"is_subsequence": lambda t, x: False})[1]
    expected = []
    for trial in range(config.trials):
        expected += [(trial, "covered-and-wrong"), (trial, "no-witness-and-sufficient")]
        expected += [entry for entry in wiped if entry[0] == trial]
    assert any(sum(entry[0] == trial for entry in wiped) > 1 for trial in range(config.trials))
    for name, kernel_fault, _ in _FAULTS.values():
        monkeypatch.setattr(harness, name, kernel_fault)
    monkeypatch.setattr(harness, "_covered_runs",
                        lambda clean, wiped: np.ones(clean.shape[:-2] + clean.shape[-1:], dtype=bool))
    monkeypatch.setattr(harness, "_pattern_witness_from_flags", lambda flags, span: np.zeros(len(flags), dtype=bool))
    assert _simulate(config, ESTIMATORS, audit=True).offenders == expected


@pytest.mark.parametrize("mode", ["montecarlo", "audit"])
def test_kernel_draws_only_block_streams(mode, monkeypatch, capsys):
    source = {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.2, 0.5], "n": 10}
    config = ExperimentConfig.from_dict({"mode": mode, "source": source, "p": 0.3, "traces": 3,
                                         "trials": 60, "seed": 2**32 + 5})
    # through trial_rng, before it is barred
    expected = _replayed_counts(config)
    spec = RngSpec(master_seed=config.seed)
    expected_masks = np.stack([spec.trial_rng(i).random((3, 10)) < 0.3 for i in range(60)])

    def barred(self, trial_index):
        raise AssertionError("the kernel called RngSpec.trial_rng")

    def recorded(rngs, p, out):
        masks.extend(_mask_block(rngs, p, out).copy())
        return out

    monkeypatch.setattr(RngSpec, "trial_rng", barred)
    monkeypatch.setattr(harness, "_mask_block", recorded)
    monkeypatch.setattr(channel, "SEED_CHUNK", 16)  # seeds computed in 4 chunks
    outputs = []
    for budget in (1, 7 * 3 * 10):  # B = 1, then B = 7
        monkeypatch.setattr(harness, "BLOCK_ELEMENTS", budget)
        masks = []
        assert run_mode(config) == 0
        assert np.array_equal(np.stack(masks), expected_masks)
        outputs.append(capsys.readouterr().out)
        tally = _simulate(config, ESTIMATORS, audit=True)
        assert (tally.fired, tally.offenders) == expected
    assert outputs[0] == outputs[1]


def _trace_sets(config):
    """Each trial's traces as bit arrays, through the kernel's mask sampler."""
    s, n = config.source.instance().s, config.source.n
    flags = _mask_block(RngSpec(master_seed=config.seed).block_rngs(0, config.trials), config.p,
                        np.empty((config.trials, config.traces, n), dtype=bool))
    return [[s.bits[~row] for row in trial] for trial in flags]


def _matchers_of(trace_sets):
    """The matcher table of nested lists of trace bit arrays, built as the
    kernel builds it: every trace's bits concatenated, and their lengths."""
    bits = np.concatenate([np.asarray(t, dtype=np.uint8) for ts in trace_sets for t in ts])
    return _matchers(bits, [[len(t) for t in ts] for ts in trace_sets])


def _states(n, trace_sets):
    """Automaton states one call visits, summed over lengths."""
    children = _automaton(n, *_matchers_of(trace_sets))[0]
    return len(trace_sets) + sum(int(child.max(initial=-1)) + 1 for child in children)


def test_oversized_block_is_split(monkeypatch):
    source = {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.4, 0.3], "n": 12}
    config = _audit_config(source, 0.4, 3, 40, 3)
    sets = _trace_sets(config)
    expected = _tally(config, harness.BLOCK_ELEMENTS, monkeypatch)  # one block of 40 trials
    counts = _automaton(12, *_matchers_of(sets))[1][0][:40]
    states = [_states(12, [trial]) for trial in sets]
    # every trial fits the budget on its own; the block passes it in aggregate
    monkeypatch.setattr(reconstruct, "MAX_ORACLE_STATES", max(states))
    assert sum(states) > max(states)
    with pytest.raises(InfeasibleError):
        _automaton(12, *_matchers_of(sets))
    calls = []

    def recorded(n, step, lens):
        calls.append(len(lens))
        return _automaton(n, step, lens)

    monkeypatch.setattr(harness, "_automaton", recorded)
    assert np.array_equal(_consistent_counts(12, *_matchers_of(sets), 0), counts)
    assert calls[0] == 40 and len(calls) > 1
    assert _tally(config, harness.BLOCK_ELEMENTS, monkeypatch) == expected


def test_oracle_refusal_names_the_first_trial_over_the_budget(tmp_path, monkeypatch, capsys):
    # trials 2 and 5 keep their masks and pass a budget of 40 states on their
    # own; every other trial keeps every bit, 25 states
    source = {"kind": "runs", "first_bit": 0, "fractions": [0.5, 0.5], "n": 24}
    config = {"mode": "montecarlo", "source": source, "p": 0.3, "traces": 4, "trials": 10,
              "seed": 5, "estimators": ["difficulty"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    sets = _trace_sets(ExperimentConfig.from_dict(config))

    def two_and_five(rngs, p, out):
        flags = _mask_block(rngs, p, out)
        flags[[0, 1, 3, 4, 6, 7, 8, 9]] = False
        return flags

    monkeypatch.setattr(harness, "_mask_block", two_and_five)
    monkeypatch.setattr(reconstruct, "MAX_ORACLE_STATES", 40)
    alone = []
    for trial in (2, 5):
        with pytest.raises(InfeasibleError) as refusal:
            _automaton(24, *_matchers_of([sets[trial]]))
        alone.append(str(refusal.value))
    assert cli.main(["montecarlo", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"infeasible: {alone[0]} on trial 2\n"
