"""The block-vectorized Monte Carlo kernel against independent routes: the
batched run-alignment verdict against maximal_runs trace set by trace set,
and the kernel's counts against a trial-by-trial replay through the public
detectors, whatever the block size and however the oracle's calls split."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltrace import cli, harness, kernel
from deltrace.bits import BitString, PatternSpan, _run_lengths, is_subsequence, run_decompose
from deltrace.channel import sample_traces
from deltrace.events import (
    AdjacentPattern,
    SandwichPattern,
    _copies_violated,
    _validated_alternative,
    detect_ambiguities,
    detect_events,
)
from deltrace.harness import (
    _AUDIT_CHECKS,
    ESTIMATORS,
    ExperimentConfig,
    InfeasibleError,
    SourceSpec,
    _audit_patterns,
    _simulate,
    _simulation_estimators,
    _sufficient_sets,
    audit_implications,
    run_mode,
)
from deltrace.kernel import (
    RngSpec,
    _covered_runs,
    _embedding_tables,
    _embeds_flipped,
    _mask_block,
    _matchers,
    _run_alignment_misses,
    _RunTables,
    _span_wiped,
    _sufficient,
)
from deltrace.reconstruct import (
    ReconstructionResult,
    SufficiencyVerdict,
    _automaton,
    is_levenshtein_sufficient,
    maximal_runs,
)
from oracles import diverged_states_oracle, every_trace_kills_a_copy, run_coverage_oracle
from test_reconstruct import _matchers_of, _oracle_of

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
    # so no trace reaches 2^31 bits: the oracle's int32 pointers and run coverage's
    # int32 counts hold any of them
    assert max(kernel.BLOCK_ELEMENTS, harness.MAX_TRIAL_ELEMENTS) < 2**31


def _check_alignment(s, p, t_count, block, seed):
    n = len(s)
    spec = RngSpec(master_seed=seed)
    flags = _mask_block(map(spec.trial_rng, range(block)), p, np.empty((block, t_count, n), dtype=bool))
    kept = ~flags
    lengths = _run_lengths(s.bits)
    misses = _run_alignment_misses(s, lengths, _matchers(np.broadcast_to(s.bits, kept.shape)[kept],
                                                         np.count_nonzero(kept, axis=-1))[0])
    assert misses.shape == (block,)
    for b in range(block):
        result = maximal_runs(n, [s.bits[~row] for row in flags[b]])
        assert misses[b] == (not (result.ok and result.string == s))
    # a trace that wipes out a run has fewer runs than s, so alignment uses
    # the traces that wiped no run: it misses exactly when some run is uncovered
    assert np.array_equal(misses, ~_covered_runs(flags, _RunTables(lengths))[0].all(axis=-1))


# 3 leaves a short last draw; 12 rows hold the whole block, compared at once
@pytest.mark.parametrize("step", [1, 3, 4, 12])
def test_mask_block_draws_the_sample_traces_masks(step, monkeypatch):
    s = BitString("0010111010")
    spec = RngSpec(master_seed=77)
    # at the default constant sample_traces draws a trial's 4 x 10 uniforms
    # into one buffer and compares them at once
    expected = [np.vstack([mt.mask.flags for mt in sample_traces(s, 0.4, 4, spec.trial_rng(5 + k))])
                for k in range(3)]
    for k in range(3):
        assert np.array_equal(expected[k], spec.trial_rng(5 + k).random((4, len(s))) < 0.4)
    monkeypatch.setattr(kernel, "BLOCK_ELEMENTS", step * len(s))  # step rows per draw
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


def _junction(bounds, i, j):
    """The bits [lo, hi) where run i meets run j of the run pair (i, j): 2 for
    adjacent runs, 3 around a single-bit run."""
    return int(bounds[i + 1]) - 1, int(bounds[j]) + 1


def _flipped(s, lo, hi):
    """s with the bits [lo, hi) flipped."""
    alt = s.bits.copy()
    alt[lo:hi] ^= 1
    return alt


def _competing_source(s, bounds, i, j):
    """s with the junction bits of run pair (i, j) flipped."""
    return _flipped(s, *_junction(bounds, i, j))


def _span_masks(span, n, p, block, t_count, seed):
    """Masks with p-deleted bits, on which each trace also wipes, at random,
    nothing, one aligned copy of span, one aligned copy but for one bit, or
    a window of one period anywhere, aligned or not."""
    rng = np.random.default_rng(seed)
    flags = rng.random((block, t_count, n)) < p
    for row in flags.reshape(-1, n):
        kind = rng.integers(4)
        start = span.offset + span.period * rng.integers(span.copies) if kind < 3 else rng.integers(n - span.period + 1)
        if kind:
            row[start:start + span.period] = True
        if kind == 2:
            row[start + rng.integers(span.period)] = False
    return flags


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 70), st.just(1500)), st.integers(1, 4), st.integers(0, 5), st.integers(0, 5),
       PROBS, st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32))
@example(1500, 1, 0, 0, 0.5, 2, 3, 0)  # one copy, the whole source
@example(64, 3, 2, 0, 0.9, 4, 4, 1)  # a power of two, no remainder pass; ending at n
@example(70, 2, 0, 0, 0.2, 1, 1, 2)  # a remainder of 6 past 64; one trace
@example(5, 1, 3, 4, 0.7, 3, 2, 0)  # one copy inside the source
@example(3, 4, 1, 2, 0.3, 2, 3, 0)  # mc-long's period, a remainder of 1
def test_span_witness_matches_oracle(period, copies, offset, tail, p, block, t_count, seed):
    span = PatternSpan(offset, period, copies)
    n = span.end + tail
    flags = _span_masks(span, n, p, block, t_count, seed)
    windows = [(offset + j * period, period) for j in range(copies)]
    expected = [[every_trace_kills_a_copy([row], windows) for row in trial] for trial in flags.tolist()]
    assert _span_wiped(flags, span).tolist() == expected
    assert _span_wiped(flags[0, 0], span) == expected[0][0]


@settings(max_examples=100, deadline=None)
@given(SOURCES, PROBS, st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32))
def test_run_pairs_declare_the_same_patterns(source, p, t_count, block, seed):
    instance = SourceSpec.from_dict(source, allow_missing_n=False).instance()
    s, bounds = instance.s, np.cumsum([0, *instance.lengths])
    pairs = _audit_patterns(instance.lengths)
    declared = _declared_patterns(s)
    assert len(pairs) == len(declared)
    # the flipped junction bits are the declared pattern's competing source
    for (i, j), pattern in zip(pairs, declared):
        assert BitString(_competing_source(s, bounds, i, j)) == _validated_alternative(s, pattern)[2]
    # the kernel's verdict on pair (i, j): every trace deleted a bit of run i or of run j
    flags = np.random.default_rng(seed).random((block, t_count, len(s))) < p
    clean = _covered_runs(flags, _RunTables(instance.lengths), table=True)[1]
    for (i, j), pattern in zip(pairs, declared):
        fired = ~(clean[..., i] & clean[..., j]).any(axis=-1)
        assert np.array_equal(fired, _copies_violated(flags, pattern.copy_spans()).all(axis=-1))


@settings(max_examples=100, deadline=None)
@given(SOURCES, PROBS, st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32))
@example({"kind": "bits", "bits": "1"}, 0.5, 1, 2, 0)  # n = 1: no run pair
@example({"kind": "bits", "bits": "0110"}, 1.0, 2, 2, 0)  # every trace empty
@example({"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 10}, 0.0, 3, 2, 0)  # traces are s
def test_competing_source_embedding_read_off_the_tables(source, p, t_count, block, seed):
    # in one call, every set against every run pair's junction and against
    # windows of 0 to 3 bits anywhere, each (set, window) hit twice and in
    # random order: the tables' check against is_subsequence on the whole
    # flipped source
    instance = SourceSpec.from_dict(source, allow_missing_n=False).instance()
    s, bounds = instance.s, np.cumsum([0, *instance.lengths])
    rng = np.random.default_rng(seed)
    kept = rng.random((block, t_count, len(s))) >= p
    padded, lens = _matchers(np.broadcast_to(s.bits, kept.shape)[kept], np.count_nonzero(kept, axis=-1))
    tables = _embedding_tables(s.bits, padded, lens)
    windows = [_junction(bounds, i, j) for i, j in _audit_patterns(instance.lengths)]
    windows += [(lo, min(lo + width, len(s)))
                for lo, width in zip(rng.integers(0, len(s) + 1, 8), rng.integers(0, 4, 8))]
    hits = rng.permutation(np.repeat(np.arange(block * len(windows)), 2))
    sets, w = np.divmod(hits, len(windows))
    lo, hi = np.array(windows)[w].T
    assert set((hi - lo).tolist()) <= {0, 1, 2, 3}
    expected = [all(is_subsequence(s.bits[row], BitString(_flipped(s, *windows[k]))) for row in kept[b])
                for b, k in zip(sets, w)]
    assert _embeds_flipped(s.bits, padded, lens, tables, sets, lo, hi).tolist() == expected


def _audit_config(source, p, t_count, trials, seed):
    return ExperimentConfig.from_dict({"mode": "audit", "source": source, "p": p,
                                       "traces": t_count, "trials": trials, "seed": seed})


def _tally(config, budget, monkeypatch):
    """The kernel's (fired, offenders) at a block budget, then for an audit
    its summary's counts in order."""
    monkeypatch.setattr(kernel, "BLOCK_ELEMENTS", budget)
    if config.mode != "audit":
        return _simulate(config, config.estimators)
    return (*_simulate(config, ESTIMATORS, audit=True), list(audit_implications(config).counts.items()))


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


def test_montecarlo_and_audit_count_the_same_uncovered_runs():
    # montecarlo reads clean runs only on trials where some trace wiped no
    # run, through both the short and the long runs' route (runs of 1-4
    # bits); the audit counts every run's deleted bits, for its patterns
    bits = "010011101000011010001101"
    configs = [ExperimentConfig.from_dict({"mode": mode, "source": {"kind": "bits", "bits": bits}, "p": 0.12,
                                           "traces": 3, "trials": 300, "seed": 9}) for mode in ("montecarlo", "audit")]
    counts = [_simulate(config, ("uncovered-run",), audit=config.mode == "audit")[0]["uncovered-run"]
              for config in configs]
    bounds = np.cumsum([0, *_run_lengths(BitString(bits).bits)])
    spec, every_trace_wiped, uncovered = RngSpec(master_seed=9), 0, 0
    for trial in range(300):
        flags = (spec.trial_rng(trial).random((3, len(bits))) < 0.12).tolist()
        every_trace_wiped += all(any(all(row[a:b]) for a, b in zip(bounds, bounds[1:])) for row in flags)
        uncovered += not all(run_coverage_oracle(flags, np.diff(bounds).tolist()))
    assert counts == [uncovered, uncovered]
    assert 0 < every_trace_wiped < uncovered < 300


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
    assert _simulate(config, ESTIMATORS, audit=True) == _replayed_counts(config)


def _never_aligned(s, lengths, padded):
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
        fired = _simulate(config, names)[0]
    expected = _replayed_counts(config)[0]
    assert {name: fired[name] for name in names} == {name: expected[name] for name in names}


def _detected_counts(config):
    """The mask events' counts, trial by trial through sample_traces and
    detect_events, each report checked against the plain-Python oracles."""
    instance = config.source.instance()
    s, span, spec = instance.s, instance.span, RngSpec(master_seed=config.seed)
    profile = run_decompose(s)
    windows = [(span.offset + j * span.period, span.period) for j in range(span.copies)]
    missing = uncovered = 0
    for trial in range(config.trials):
        traces = sample_traces(s, config.p, config.traces, spec.trial_rng(trial))
        report = detect_events(traces, [span], profile)
        rows = [mt.mask.flags.tolist() for mt in traces]
        assert report.per_run == tuple(run_coverage_oracle(rows, list(profile.lengths)))
        assert report.pattern_witness[0] == (not every_trace_kills_a_copy(rows, windows))
        missing += not report.pattern_witness[0]
        uncovered += not report.run_covered
    return {"no-pattern-witness": missing, "uncovered-run": uncovered, "reconstruction-error": uncovered}


# runs of 1-9 bits, shorter and longer than the gather cutoff, the last long;
# (traces, trials, mask bits per block, in traces x n): blocks of 4 trials,
# the last of 3; then B = 1, each trial's 5 traces drawn 2 at a time.  The ids
# keep the names the cases had when they also set the draw size apart
@pytest.mark.parametrize("t_count,trials,block_traces", [(3, 23, 4 * 3), (5, 9, 2)],
                         ids=["3-23-12-None", "5-9-2-2"])
def test_reused_block_buffers_match_detect_events(t_count, trials, block_traces, monkeypatch):
    source = {"kind": "bits", "bits": "0111111001000000000110111100011111111"}
    config = ExperimentConfig.from_dict({"mode": "montecarlo", "source": source, "p": 0.12,
                                         "traces": t_count, "trials": trials, "seed": 6})
    n = config.source.n
    expected = _detected_counts(config)
    # every event both fires and fails on some trial
    assert all(0 < count < trials for count in expected.values())
    monkeypatch.setattr(kernel, "BLOCK_ELEMENTS", block_traces * n)
    assert _simulate(config, tuple(expected))[0] == {**dict.fromkeys(ESTIMATORS, 0), **expected}


# the same runs: blocks of 4 trials, the last of 3, then B = 1 with each
# trial's 5 traces drawn 2 at a time (ids as above)
@pytest.mark.parametrize("t_count,trials,block_traces", [(3, 11, 4 * 3), (5, 3, 2)],
                         ids=["3-11-12-None", "5-3-2-2"])
def test_every_block_draws_into_the_first_blocks_buffers(t_count, trials, block_traces, monkeypatch):
    # the mask is allocated once per run: every block's mask is a view of the
    # first block's
    source = {"kind": "bits", "bits": "0111111001000000000110111100011111111"}
    config = ExperimentConfig.from_dict({"mode": "montecarlo", "source": source, "p": 0.12,
                                         "traces": t_count, "trials": trials, "seed": 6})
    n = config.source.n
    monkeypatch.setattr(kernel, "BLOCK_ELEMENTS", block_traces * n)
    calls, draws = [], []

    class Counted:
        """A trial's stream, recording the size of each draw."""

        def __init__(self, rng):
            self.rng = rng

        def random(self, **kwargs):
            draws.append(kwargs["out"].size)
            return self.rng.random(**kwargs)

    def recorded(rngs, p, out):
        calls.append(out)
        return _mask_block(map(Counted, rngs), p, out)

    monkeypatch.setattr(harness, "_mask_block", recorded)
    _simulate(config, ESTIMATORS)
    sizes = [len(out) for out in calls]
    assert sum(sizes) == trials and len(calls) >= 3 and sum(draws) == trials * t_count * n
    # a short last block, or a trial larger than the budget drawn in chunks:
    # more draws than trials
    chunked = block_traces < t_count
    assert (len(draws) > trials) == chunked
    assert max(draws) == block_traces * n if chunked else sizes[-1] < sizes[0]
    for out in calls:
        assert np.shares_memory(out, calls[0])


# Each audit check fails on no correct trial.  Made to fail, each must still
# reach every trial it applies to, though the audit visits only suspect trials:
# (kernel function, its stand-in, the replay's stand-in by name)
_FAULTS = {
    "covered-and-wrong": ("_run_alignment_misses", lambda s, lengths, padded: np.ones(len(padded), dtype=bool),
                          {"maximal_runs": lambda n, traces: ReconstructionResult(failure="forced")}),
    "no-witness-and-sufficient": ("_sufficient_sets",
                                  lambda s, padded, lens, tables, first: np.ones(len(lens), dtype=bool),
                                  {"is_levenshtein_sufficient": lambda s, traces: SufficiencyVerdict(1)}),
    "ambiguity-alternative-inconsistent": ("_embeds_flipped",
                                           lambda s_bits, padded, lens, tables, sets, lo, hi: np.zeros(len(sets), dtype=bool),
                                           {"is_subsequence": lambda t, x: False}),
}


def _checked_hits(config, embeds=_embeds_flipped):
    """An audit of config with _embeds_flipped replaced by embeds: its report,
    the (trial, run pair) hits it checks, in order, and for each call the
    index of its block and its number of hits."""
    lengths = config.source.instance().lengths
    bounds = np.cumsum([0, *lengths])
    pairs = _audit_patterns(lengths)
    pair_of = {_junction(bounds, i, j): (int(i), int(j)) for i, j in pairs}
    assert len(pair_of) == len(pairs)  # one window per pair
    blocks, hits, calls = [], [], []

    def masked(rngs, p, out):
        blocks.append(len(out))
        return _mask_block(rngs, p, out)

    def checked(s_bits, padded, lens, tables, sets, lo, hi):
        first = sum(blocks[:-1])
        hits.extend((first + int(b), pair_of[int(l), int(h)]) for b, l, h in zip(sets, lo, hi))
        calls.append((len(blocks) - 1, len(sets)))
        return embeds(s_bits, padded, lens, tables, sets, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_mask_block", masked)
        mp.setattr(harness, "_embeds_flipped", checked)
        report = audit_implications(config)
    return report, hits, calls


@pytest.mark.parametrize("trials", [12, 60])  # 15 of the 17 patterns fire, then all 17
def test_competing_sources_are_built_when_a_pattern_first_fires(trials, monkeypatch):
    # each block checks exactly the (trial, run pair) hits that
    # detect_ambiguities fires on its trials, each once, trial by trial in
    # pair order, and makes no call where none fires
    source = {"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 10}
    monkeypatch.setattr(kernel, "BLOCK_ELEMENTS", 3 * 2 * 10)  # blocks of 3 trials
    assert _checked_hits(_audit_config(source, 0.0, 2, trials, 4))[1:] == ([], [])
    config = _audit_config(source, 0.15, 2, trials, 4)
    instance = config.source.instance()
    s = instance.s
    pairs = [tuple(pair) for pair in _audit_patterns(instance.lengths).tolist()]
    patterns = _declared_patterns(s)
    spec = RngSpec(master_seed=config.seed)
    expected = []
    for trial in range(config.trials):
        fired = {patterns.index(witness.pattern)
                 for witness in detect_ambiguities(s, sample_traces(s, config.p, config.traces,
                                                                   spec.trial_rng(trial)), patterns)}
        expected += [(trial, pairs[k]) for k in sorted(fired)]
    _, hits, calls = _checked_hits(config)
    assert hits == expected
    checked = [pair for _, pair in hits]
    assert len(checked) > len(set(checked))  # some pair fires on more than one trial
    assert (len(set(checked)) < len(pairs)) == (trials == 12)
    assert sum(size for _, size in calls) == len(hits)


def _parity_verdict(s_bits, padded, lens, tables, sets, lo, hi):
    """A stand-in verdict that depends on the trial, through its traces'
    lengths, and on the run pair, through its junction."""
    return (lens[sets].sum(axis=1) + lo) % 2 == 0


# chunks of 1 and 2 hits on blocks of one trial, then of 30 hits on blocks of 3
@pytest.mark.parametrize("budget", [1, 2 * 2, 3 * 2 * 10])
def test_hits_are_checked_in_chunks_of_the_block_budget(budget, monkeypatch):
    # a block's hits span several calls, none with more than
    # max(1, BLOCK_ELEMENTS // T) hits, and each verdict reaches its own hit:
    # the report (its rows carry the fired counts) equals that of one call
    # over one block
    source = {"kind": "repeat", "pattern": "01", "ell": 0.5, "n": 10}
    config = _audit_config(source, 0.6, 2, 60, 4)
    expected, hits, calls = _checked_hits(config, _parity_verdict)
    assert [block for block, _ in calls] == [0]  # at the default budget
    assert 0 < expected.counts["ambiguity-alternative-inconsistent"] < len(hits)
    monkeypatch.setattr(kernel, "BLOCK_ELEMENTS", budget)
    report, chunked, calls = _checked_hits(config, _parity_verdict)
    assert chunked == hits
    assert max(size for _, size in calls) <= max(1, budget // config.traces)
    blocks = [block for block, _ in calls]
    assert len(blocks) > len(set(blocks))  # some block's hits span several calls
    assert report == expected


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
    assert _simulate(config, ESTIMATORS, audit=True) == expected
    # the summary counts every check in order, zeros kept: only this one fires
    found = sum(entry == check for _, entry in expected[1])
    assert list(audit_implications(config).counts.items()) == [
        (name, found if name == check else 0) for name in _AUDIT_CHECKS]


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
    covered_runs = harness._covered_runs
    monkeypatch.setattr(harness, "_covered_runs", lambda flags, runs, table: (
        np.ones((*flags.shape[:-2], runs.count), dtype=bool), covered_runs(flags, runs, table=table)[1]))
    # every trace wiped a copy of the span
    monkeypatch.setattr(harness, "_span_wiped",
                        lambda flags, span: np.ones(flags.shape[:-1], dtype=bool))
    assert _simulate(config, ESTIMATORS, audit=True)[1] == expected
    # the summary counts them in its own order, not the offenders'
    assert list(audit_implications(config).counts.items()) == [
        ("no-witness-and-sufficient", config.trials), ("covered-and-wrong", config.trials),
        ("ambiguity-alternative-inconsistent", len(wiped))]


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
    monkeypatch.setattr(kernel, "SEED_CHUNK", 16)  # seeds computed in 4 chunks
    outputs = []
    for budget in (1, 7 * 3 * 10):  # B = 1, then B = 7
        monkeypatch.setattr(kernel, "BLOCK_ELEMENTS", budget)
        masks = []
        assert run_mode(config) == 0
        assert np.array_equal(np.stack(masks), expected_masks)
        outputs.append(capsys.readouterr().out)
        assert _simulate(config, ESTIMATORS, audit=True) == expected
    assert outputs[0] == outputs[1]


def _trace_sets(config):
    """Each trial's traces as bit arrays, through the kernel's mask sampler."""
    s, n = config.source.instance().s, config.source.n
    flags = _mask_block(RngSpec(master_seed=config.seed).block_rngs(0, config.trials), config.p,
                        np.empty((config.trials, config.traces, n), dtype=bool))
    return [[s.bits[~row] for row in trial] for trial in flags]


def _states(s, trace_sets):
    """The states the uniqueness oracle keeps on each trace set alone, after
    each bit, by the plain-Python reference."""
    text = "".join(map(str, s.bits))
    return [diverged_states_oracle(text, ["".join(map(str, t)) for t in ts])[1] for ts in trace_sets]


def _refusal(kept, budget):
    """The bit at which a search keeping kept[k] states after bit k + 1 passes
    the budget, or None."""
    passed = np.flatnonzero(np.cumsum(kept) > budget)
    return int(passed[0]) + 1 if passed.size else None


def test_oversized_block_is_split(monkeypatch):
    source = {"kind": "runs", "first_bit": 0, "fractions": [0.3, 0.4, 0.3], "n": 12}
    config = _audit_config(source, 0.4, 3, 40, 3)
    sets = _trace_sets(config)
    s = config.source.instance().s
    expected = _tally(config, kernel.BLOCK_ELEMENTS, monkeypatch)  # one block of 40 trials
    sufficient = _automaton(12, *_matchers_of(sets))[1][0][:40] == 1
    states = [sum(kept) for kept in _states(s, sets)]
    # every trial fits the budget on its own; the block passes it in aggregate
    monkeypatch.setattr(kernel, "MAX_ORACLE_STATES", max(states))
    assert sum(states) > max(states)
    with pytest.raises(InfeasibleError):
        _sufficient(s.bits, *_oracle_of(s.bits, sets))
    calls = []

    def recorded(s_bits, padded, lens, tables):
        calls.append(len(lens))
        return _sufficient(s_bits, padded, lens, tables)

    monkeypatch.setattr(harness, "_sufficient", recorded)
    assert np.array_equal(_sufficient_sets(s, *_oracle_of(s.bits, sets), 0), sufficient)
    assert calls[0] == 40 and len(calls) > 1
    assert _tally(config, kernel.BLOCK_ELEMENTS, monkeypatch) == expected


def _half_runs_config(trials):
    return {"mode": "montecarlo", "source": {"kind": "runs", "first_bit": 0, "fractions": [0.5, 0.5], "n": 24},
            "p": 0.3, "traces": 4, "trials": trials, "seed": 5, "estimators": ["difficulty"]}


def test_oracle_refusal_names_the_first_trial_over_the_budget(tmp_path, monkeypatch, capsys):
    # trials 4 and 9 keep their masks and pass a budget of 40 states on their
    # own; every other trial keeps every bit, and its search keeps no state
    config = _half_runs_config(10)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    config = ExperimentConfig.from_dict(config)
    s, sets = config.source.instance().s, _trace_sets(config)
    assert [_refusal(kept, 40) for kept in _states(s, [sets[4], sets[9]])] == [11, 12]

    def four_and_nine(rngs, p, out):
        flags = _mask_block(rngs, p, out)
        flags[[0, 1, 2, 3, 5, 6, 7, 8]] = False
        return flags

    monkeypatch.setattr(harness, "_mask_block", four_and_nine)
    monkeypatch.setattr(kernel, "MAX_ORACLE_STATES", 40)
    alone = []
    for trial in (4, 9):
        with pytest.raises(InfeasibleError) as refusal:
            _sufficient(s.bits, *_oracle_of(s.bits, [sets[trial]]))
        alone.append(str(refusal.value))
    assert alone[0] == "the sufficiency oracle passed its budget of 40 automaton states at bit 11 of 24"
    assert cli.main(["montecarlo", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"infeasible: {alone[0]} on trial 4\n"


def test_refusal_of_a_block_over_the_budget_takes_two_calls(monkeypatch):
    # every trial passes the budget on its own: the block's call fails, then
    # its first trial's alone, where halving the block would take log2(B) + 1
    config = ExperimentConfig.from_dict(_half_runs_config(10))
    s, sets = config.source.instance().s, _trace_sets(config)
    sets = [sets[4], sets[9]] * 8  # the two trials whose searches pass 8 states
    monkeypatch.setattr(kernel, "MAX_ORACLE_STATES", 8)
    for trial in sets:
        with pytest.raises(InfeasibleError):
            _sufficient(s.bits, *_oracle_of(s.bits, [trial]))
    calls = []

    def recorded(s_bits, padded, lens, tables):
        calls.append(len(lens))
        return _sufficient(s_bits, padded, lens, tables)

    monkeypatch.setattr(harness, "_sufficient", recorded)
    with pytest.raises(InfeasibleError, match="on trial 5$"):
        _sufficient_sets(s, *_oracle_of(s.bits, sets), 5)
    assert calls == [16, 1]
