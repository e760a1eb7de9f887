import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltrace import events, kernel
from deltrace.bits import BitString, PatternSpan, RepeatBlockSpec, make_repeat_instance, run_decompose
from deltrace.channel import DeletionMask, MaskedTrace, RngSpec, apply_mask, sample_traces
from deltrace.events import AdjacentPattern, SandwichPattern, detect_ambiguities, detect_events
from oracles import every_trace_kills_a_copy, is_subseq_str, run_coverage_oracle, some_run_uncovered


def traces_from_masks(s: BitString, rows) -> list[MaskedTrace]:
    out = []
    for row in rows:
        mask = DeletionMask(np.asarray(row, dtype=bool))
        out.append(MaskedTrace(trace=apply_mask(s, mask), mask=mask, source_length=len(s)))
    return out


def events_of(s: BitString, rows, spans=()):
    return detect_events(traces_from_masks(s, rows), list(spans), run_decompose(s))


def has_witness(traces: list[MaskedTrace], span: PatternSpan, profile) -> bool:
    return detect_events(traces, [span], profile).pattern_witness[0]


def coverage(traces: list[MaskedTrace], profile):
    report = detect_events(traces, [], profile)
    return report.run_covered, report.per_run


class TestPatternWitness:
    def test_every_trace_kills_a_copy(self):
        s = BitString("0011")
        span = PatternSpan(offset=0, period=1, copies=2)  # the "00" block
        rows = [[1, 0, 0, 0], [0, 1, 0, 0]]
        assert not events_of(s, rows, [span]).pattern_witness[0]

    def test_one_trace_spares_all_copies(self):
        s = BitString("0011")
        span = PatternSpan(offset=0, period=1, copies=2)
        rows = [[1, 0, 0, 0], [0, 0, 1, 1]]  # second trace keeps both zeros
        assert events_of(s, rows, [span]).pattern_witness[0]

    def test_multibit_copies(self):
        s = BitString("01010101")
        span = PatternSpan(offset=0, period=2, copies=4)
        # partial damage to every copy is not a full deletion of any copy
        rows = [[1, 0, 1, 0, 1, 0, 1, 0]]
        assert events_of(s, rows, [span]).pattern_witness[0]
        rows = [[1, 1, 0, 0, 0, 0, 0, 0]]  # first copy wiped
        assert not events_of(s, rows, [span]).pattern_witness[0]

    def test_copy_fully_deleted(self):
        s = BitString("0101")
        span = PatternSpan(offset=0, period=2, copies=2)
        for row in ([1, 1, 0, 0], [0, 0, 1, 1]):  # either copy wiped whole
            assert not events_of(s, [row], [span]).pattern_witness[0]
        assert events_of(s, [[0, 1, 1, 0]], [span]).pattern_witness[0]
        for past in (PatternSpan(6, 2, 3), PatternSpan(3, 2, 1)):  # no bit of copy 0, half of it
            with pytest.raises(ValueError, match="span extends past the source"):
                events_of(s, [[0, 0, 0, 1]], [past])

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.floats(0.05, 0.95), st.integers(1, 4))
    def test_matches_enumeration_oracle(self, seed, p, t_count):
        s = BitString("010101")
        span = PatternSpan(offset=0, period=2, copies=3)
        traces = sample_traces(s, p, t_count, RngSpec(master_seed=seed))
        rows = [tuple(bool(b) for b in mt.mask.flags) for mt in traces]
        windows = [(j * 2, 2) for j in range(3)]
        assert has_witness(traces, span, run_decompose(s)) == (
            not every_trace_kills_a_copy(rows, windows)
        )


class TestRunCoverage:
    def test_hand_case_uncovered(self):
        s = BitString("0011")
        rows = [[0, 0, 1, 1], [0, 0, 0, 1]]
        covered, per_run = coverage(traces_from_masks(s, rows), run_decompose(s))
        # first trace wiped run 2, second trace is clean with run 1 intact
        assert per_run == (True, False)
        assert not covered

    def test_hand_case_covered(self):
        s = BitString("0011")
        rows = [[0, 0, 0, 1], [1, 0, 0, 0]]
        covered, per_run = coverage(traces_from_masks(s, rows), run_decompose(s))
        assert per_run == (True, True)
        assert covered

    def test_wiped_run_disqualifies_trace(self):
        s = BitString("0011")
        # the trace keeps run 1 intact but wipes run 2, so it counts for nothing
        rows = [[0, 0, 1, 1]]
        covered, per_run = coverage(traces_from_masks(s, rows), run_decompose(s))
        assert per_run == (False, False)

    def test_perfect_trace_covers_everything(self):
        s = BitString("0100111")
        rows = [[0] * 7]
        covered, _ = coverage(traces_from_masks(s, rows), run_decompose(s))
        assert covered

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.floats(0.05, 0.95), st.integers(1, 4))
    def test_matches_enumeration_oracle(self, seed, p, t_count):
        s = BitString("001110")
        profile = run_decompose(s)
        traces = sample_traces(s, p, t_count, RngSpec(master_seed=seed))
        rows = [tuple(bool(b) for b in mt.mask.flags) for mt in traces]
        covered, _ = coverage(traces, profile)
        assert covered == (not some_run_uncovered(rows, list(profile.lengths)))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=12),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32))
    @example([3], 0.0, 2, 2, 0)  # one run, no deleted bit
    @example([1, 2, 1], 1.0, 3, 2, 0)  # every run wiped
    @example([2, 1] * 1000, 0.17, 32, 2, 5)  # mc-long's runs of 1-2 bits
    @example([1, 6, 6, 2], 0.3, 3, 2, 1)  # adjacent long runs
    @example([2, 1, 3, 6], 0.3, 3, 2, 2)  # a long last run, ending at n
    @example([6, 1, 2, 1], 0.3, 3, 2, 3)  # a long first run
    @example([1] * 7, 0.3, 1, 3, 4)  # 1-bit runs at T = 1
    @example([1, 2] * 6, 0.4, 3, 2, 1)  # every trace of every trial wipes a run
    @example([1, 2, 1, 3, 1, 2], 0.35, 3, 2, 0)  # one trace of one trial wipes none
    @example([1, 5, 2, 4, 3, 1, 6, 2], 0.25, 3, 3, 1)  # short and long runs; trial 1 alone has no clean trace
    def test_both_counting_routes_match_oracle(self, lengths, p, t_count, block, seed):
        s = BitString(np.repeat(np.arange(len(lengths)) % 2, lengths))
        profile = run_decompose(s)
        flags = np.random.default_rng(seed).random((block, t_count, len(s))) < p
        expected = [run_coverage_oracle(trial.tolist(), lengths) for trial in flags]
        bounds = np.cumsum([0, *lengths]).tolist()
        runs = [[row[a:b] for a, b in zip(bounds, bounds[1:])] for row in flags.reshape(-1, len(s))]
        clean = [[not run.any() for run in row] for row in runs]
        wiped = [any(run.all() for run in row) for row in runs]
        # 0 sends every run to reduceat, one past the longest reads every run
        # at its start, and the longest alone sends the longest runs to reduceat
        for cutoff in (0, max(lengths) + 1, max(lengths)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel, "SHORT_RUN_LENGTH", cutoff)
                # the same index arrays serve every call
                runs = kernel._RunTables(np.asarray(lengths, dtype=np.int64))
                for _ in range(2):
                    assert kernel._wiped_runs(flags, runs)[0].ravel().tolist() == wiped
                    # the audit's full table, and the shortcut that reads clean
                    # runs only on trials where some trace wiped none
                    per_run, table = kernel._covered_runs(flags, runs, table=True)
                    assert table.reshape(-1, len(lengths)).tolist() == clean
                    assert per_run.tolist() == expected
                    per_run, table = kernel._covered_runs(flags, runs)
                    assert per_run.tolist() == expected and table is None
                traces = traces_from_masks(s, flags[0])
                assert coverage(traces, profile) == (all(expected[0]), tuple(expected[0]))

    def test_report_consistency(self):
        s = BitString("0011")
        traces = sample_traces(s, 0.5, 3, RngSpec(master_seed=4))
        report = detect_events(traces, [PatternSpan(0, 1, 2)], run_decompose(s))
        assert report.run_covered == all(report.per_run)
        assert len(report.pattern_witness) == 1

    def test_detect_events_rejects_span_past_source(self):
        s = BitString("0011")
        traces = sample_traces(s, 0.5, 2, RngSpec(master_seed=4))
        with pytest.raises(ValueError, match="span extends past the source"):
            detect_events(traces, [PatternSpan(2, 2, 3)], run_decompose(s))


class TestSandwich:
    def test_window_and_alternative_shapes(self):
        pat = SandwichPattern(offset=0, outer=BitString("00"), inner=BitString("1"),
                              left_copies=2, right_copies=1)
        assert str(pat.window()) == "0000100"
        alt = pat.alternative_window()
        assert len(alt) == len(pat.window())
        # outer^(l-1) inner outer inner pad(1^(|B|-|A|)) outer^(r-1)
        assert str(alt) == "0010011"

    def test_rejects_longer_inner(self):
        with pytest.raises(ValueError):
            SandwichPattern(offset=0, outer=BitString("0"), inner=BitString("11"),
                            left_copies=1, right_copies=1)

    def test_rejects_equal_blocks(self):
        with pytest.raises(ValueError):
            SandwichPattern(offset=0, outer=BitString("01"), inner=BitString("01"),
                            left_copies=1, right_copies=1)

    def test_degenerate_declaration_rejected(self):
        # outer "1", inner "1"-prefixed pad case: alternative equals the source
        s = BitString("11011")
        pat = SandwichPattern(offset=0, outer=BitString("1"), inner=BitString("0"),
                              left_copies=2, right_copies=2)
        # window matches s, but check whether the alternative differs
        witnesses = detect_ambiguities(
            s,
            traces_from_masks(s, [[1, 1, 1, 1, 1]]),
            [pat],
        )
        assert len(witnesses) == 1  # not degenerate: 10101 differs from 11011

class TestAdjacent:
    def test_window_and_alternative(self):
        pat = AdjacentPattern(offset=0, left=BitString("0"), left_copies=3,
                              right=BitString("1"), right_copies=3)
        assert str(pat.window()) == "000111"
        assert str(pat.alternative_window()) == "001011"
        assert len(pat.alternative_window()) == len(pat.window())

    def test_commuting_blocks_degenerate(self):
        # left "0", right "00": the swap reproduces the source, so the
        # declaration is rejected rather than emitting a no-op witness
        s = BitString("000")
        pat = AdjacentPattern(offset=0, left=BitString("0"), left_copies=1,
                              right=BitString("00"), right_copies=1)
        with pytest.raises(ValueError, match="degenerate"):
            detect_ambiguities(s, traces_from_masks(s, [[1, 1, 1]]), [pat])

    def test_absent_pattern_rejected(self):
        s = BitString("0101")
        pat = AdjacentPattern(offset=0, left=BitString("0"), left_copies=2,
                              right=BitString("1"), right_copies=2)
        with pytest.raises(ValueError, match="absent"):
            detect_ambiguities(s, traces_from_masks(s, [[0, 0, 0, 0]]), [pat])


class TestDetectAmbiguities:
    def test_adjacent_violation_yields_witness(self):
        s = BitString("000111")
        pat = AdjacentPattern(offset=0, left=BitString("0"), left_copies=3,
                              right=BitString("1"), right_copies=3)
        # every trace deletes at least one whole single-bit copy
        rows = [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 1]]
        traces = traces_from_masks(s, rows)
        witnesses = detect_ambiguities(s, traces, [pat])
        assert len(witnesses) == 1
        w = witnesses[0]
        assert w.condition == 3
        assert len(w.alternative) == len(s)
        assert w.alternative != s
        for mt in traces:
            assert is_subseq_str(str(mt.trace), str(w.alternative))

    def test_no_violation_no_witness(self):
        s = BitString("000111")
        pat = AdjacentPattern(offset=0, left=BitString("0"), left_copies=3,
                              right=BitString("1"), right_copies=3)
        rows = [[0, 0, 0, 0, 0, 0]]  # perfect trace deletes no copy
        assert detect_ambiguities(s, traces_from_masks(s, rows), [pat]) == []

    def test_sandwich_violation_yields_witness(self):
        s = BitString("00100")
        pat = SandwichPattern(offset=0, outer=BitString("0"), inner=BitString("1"),
                              left_copies=2, right_copies=2)
        # aligned copies are the four zeros; every trace deletes one of them
        rows = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 1, 0, 1, 0]]
        traces = traces_from_masks(s, rows)
        witnesses = detect_ambiguities(s, traces, [pat])
        assert len(witnesses) == 1
        w = witnesses[0]
        assert w.condition == 2
        assert len(w.alternative) == len(s)
        assert w.alternative != s
        for mt in traces:
            assert is_subseq_str(str(mt.trace), str(w.alternative))

    def test_inner_damage_is_not_a_violation(self):
        s = BitString("00100")
        pat = SandwichPattern(offset=0, outer=BitString("0"), inner=BitString("1"),
                              left_copies=2, right_copies=2)
        rows = [[0, 0, 1, 0, 0]]  # only the inner bit went missing
        assert detect_ambiguities(s, traces_from_masks(s, rows), [pat]) == []

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["0", "01", "001", "0110", "110"]), st.integers(4, 16),
           st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]), st.integers(1, 4), st.integers(0, 2**32))
    def test_repeated_block_yields_witness(self, pattern, n, p, t_count, seed):
        # condition 1: the declared span is the repeated block A^f of a repeat source
        s, span = make_repeat_instance(RepeatBlockSpec(pattern, 0.25), n)
        traces = sample_traces(s, p, t_count, RngSpec(master_seed=seed))
        rows = [tuple(bool(b) for b in mt.mask.flags) for mt in traces]
        windows = [(span.offset + k * span.period, span.period) for k in range(span.copies)]
        witnesses = detect_ambiguities(s, traces, [span])
        if not every_trace_kills_a_copy(rows, windows):
            assert witnesses == []
            return
        assert [(w.condition, w.pattern) for w in witnesses] == [(1, span)]
        alt = witnesses[0].alternative
        assert len(alt) == n and alt != s
        for mt in traces:
            assert is_subseq_str(str(mt.trace), str(alt))


class TestMonotonicity:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.floats(0.1, 0.9), st.integers(1, 4))
    def test_extra_trace_never_revokes_events(self, seed, p, t_count):
        s = BitString("0011010")
        span = PatternSpan(offset=0, period=1, copies=2)
        profile = run_decompose(s)
        traces = sample_traces(s, p, t_count + 1, RngSpec(master_seed=seed))
        head, full = traces[:t_count], traces
        if has_witness(head, span, profile):
            assert has_witness(full, span, profile)
        covered_head, per_head = coverage(head, profile)
        covered_full, per_full = coverage(full, profile)
        for before, after in zip(per_head, per_full):
            assert after or not before
        if covered_head:
            assert covered_full


def test_each_profile_gets_its_own_run_tables():
    # equal run counts, different lengths: the cached tables of one profile
    # must not answer for the other
    s = BitString("0011100")
    mask = DeletionMask([1, 1, 0, 0, 0, 0, 0])
    trace = MaskedTrace(apply_mask(s, mask), mask, len(s))
    assert detect_events([trace], [], run_decompose(s)).per_run == (False, False, False)  # run 0 wiped
    other = BitString("0001100")
    trace = MaskedTrace(apply_mask(other, mask), mask, len(other))
    assert detect_events([trace], [], run_decompose(other)).per_run == (False, True, True)


def test_repeated_calls_on_one_profile_build_the_run_tables_once(monkeypatch):
    events._profile_tables.cache_clear()  # an earlier test may have left these lengths cached
    built = []
    monkeypatch.setattr(events, "_RunTables", lambda lengths: built.append(lengths) or kernel._RunTables(lengths))
    profile = run_decompose(BitString("0110001111"))
    traces = sample_traces(BitString("0110001111"), 0.3, 4, RngSpec(11))
    reports = {detect_events(traces, [], profile) for _ in range(3)}
    assert len(reports) == 1 and len(built) == 1
