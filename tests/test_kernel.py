"""The block-vectorized Monte Carlo kernel against independent routes: the
batched run-alignment verdict against maximal_runs trace set by trace set,
and the kernel's counts against a trial-by-trial replay through the public
detectors, whatever the block size."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltrace import channel, harness
from deltrace.bits import BitString, _run_lengths, is_subsequence
from deltrace.channel import RngSpec, _mask_block, sample_traces
from deltrace.events import _run_coverage_from_flags, detect_ambiguities, detect_events
from deltrace.harness import ESTIMATORS, ExperimentConfig, SourceSpec, _audit_patterns, _simulate
from deltrace.reconstruct import _run_alignment_misses, is_levenshtein_sufficient, maximal_runs

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
    misses = _run_alignment_misses(s, ~flags)
    assert misses.shape == (block,)
    for b in range(block):
        result = maximal_runs(n, [s.bits[~row] for row in flags[b]])
        assert misses[b] == (not (result.ok and result.string == s))
    # a trace that wipes out a run has fewer runs than s, so alignment uses
    # the traces that wiped no run: it misses exactly when some run is uncovered
    assert np.array_equal(misses, ~_run_coverage_from_flags(flags, _run_lengths(s.bits)).all(axis=-1))


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


def _audit_config(source, p, t_count, trials, seed):
    return ExperimentConfig.from_dict({"mode": "audit", "source": source, "p": p,
                                       "traces": t_count, "trials": trials, "seed": seed})


def _tally(config, budget, monkeypatch):
    monkeypatch.setattr(harness, "BLOCK_ELEMENTS", budget)
    tally = _simulate(config, ESTIMATORS, audit=True)
    return tally.fired, tally.audit_counts, tally.offenders


@settings(max_examples=60, deadline=None)
@given(SOURCES, PROBS, st.integers(1, 4), st.integers(1, 11), st.integers(0, 2**32))
def test_counts_do_not_depend_on_block_size(source, p, t_count, trials, seed):
    # a function-scoped fixture would be shared by every hypothesis example
    config = _audit_config(source, p, t_count, trials, seed)
    per_trial = t_count * config.source.n
    with pytest.MonkeyPatch.context() as mp:
        one = _tally(config, 1, mp)  # B = 1
        three = _tally(config, 3 * per_trial, mp)  # B = 3, need not divide trials
        single = _tally(config, per_trial * trials, mp)  # every trial in one block
    assert one == three == single


def _replayed_counts(config):
    """Trial-by-trial counts through the public functions, as the harness
    computed them before it ran trials in blocks."""
    instance = config.source.instance()
    s, span, profile = instance.s, instance.span, instance.profile
    patterns = _audit_patterns(instance)
    spec = RngSpec(master_seed=config.seed)
    fired = dict.fromkeys(ESTIMATORS, 0)
    offenders = []
    for trial in range(config.trials):
        traces = sample_traces(s, config.p, config.traces, spec.trial_rng(trial))
        plain = [mt.trace for mt in traces]
        events = detect_events(traces, [span], profile)
        result = maximal_runs(len(s), plain)
        wrong = not (result.ok and result.string == s)
        sufficient = is_levenshtein_sufficient(s, plain).sufficient
        fired["no-pattern-witness"] += not events.pattern_witness[0]
        fired["uncovered-run"] += not events.run_covered
        fired["reconstruction-error"] += wrong
        fired["difficulty"] += not sufficient
        if events.run_covered and wrong:
            offenders.append((trial, "covered-and-wrong"))
        if not events.pattern_witness[0] and sufficient:
            offenders.append((trial, "no-witness-and-sufficient"))
        for witness in detect_ambiguities(s, traces, patterns):
            if not all(is_subsequence(t, witness.alternative) for t in plain):
                offenders.append((trial, "ambiguity-alternative-inconsistent"))
    return fired, offenders


@settings(max_examples=60, deadline=None)
@given(SOURCES, PROBS, st.integers(1, 4), st.integers(1, 9), st.integers(0, 2**32))
def test_kernel_matches_public_detectors(source, p, t_count, trials, seed):
    config = _audit_config(source, p, t_count, trials, seed)
    tally = _simulate(config, ESTIMATORS, audit=True)
    assert (tally.fired, tally.offenders) == _replayed_counts(config)
