import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltrace import kernel
from deltrace.bits import BitString, is_subsequence, run_decompose
from deltrace.channel import RngSpec, sample_traces
from deltrace.kernel import (
    MAX_ORACLE_STATES,
    _embedding_tables,
    _embeds_flipped,
    _matchers,
    _run_alignment_misses,
    _state_keys,
    _sufficient,
)
from deltrace.reconstruct import (
    EMPTY_TRACE_SET,
    FIRST_BIT_MISMATCH,
    LENGTH_MISMATCH,
    InfeasibleError,
    ReconstructionResult,
    _automaton,
    consistent_sources,
    is_levenshtein_sufficient,
    maximal_runs,
)
from oracles import consistent_sources_oracle, diverged_states_oracle, embedding_tables_oracle, is_subseq_str


def bs(*texts):
    return [BitString(t) for t in texts]


class TestMaximalRuns:
    def test_single_perfect_trace(self):
        result = maximal_runs(4, bs("0011"))
        assert result.ok and str(result.string) == "0011"

    def test_runwise_maximum(self):
        result = maximal_runs(4, bs("01", "0011"))
        assert result.ok and str(result.string) == "0011"

    def test_first_bit_guard(self):
        result = maximal_runs(4, bs("0011", "1100"))
        assert not result.ok and result.failure == FIRST_BIT_MISMATCH

    def test_length_guard(self):
        result = maximal_runs(4, bs("001"))
        assert not result.ok and result.failure == LENGTH_MISMATCH

    def test_empty_trace_list(self):
        result = maximal_runs(4, [])
        assert not result.ok and result.failure == EMPTY_TRACE_SET

    def test_all_empty_traces(self):
        result = maximal_runs(4, bs("", ""))
        assert not result.ok and result.failure == LENGTH_MISMATCH
        zero = maximal_runs(0, bs("", ""))
        assert zero.ok and len(zero.string) == 0

    def test_lower_run_count_traces_ignored(self):
        # the 3-run trace sets M-hat; the long 1-run trace must not pollute it
        result = maximal_runs(6, bs("010", "000000"))
        assert not result.ok and result.failure == LENGTH_MISMATCH

    def test_result_validation(self):
        with pytest.raises(ValueError):
            ReconstructionResult(string=BitString("0"), failure=LENGTH_MISMATCH)
        with pytest.raises(ValueError):
            ReconstructionResult()

    @settings(max_examples=60)
    @given(st.text(alphabet="01", min_size=1, max_size=24),
           st.integers(1, 6), st.integers(0, 2**32))
    def test_success_shape_invariant(self, text, t_count, seed):
        s = BitString(text)
        traces = [mt.trace for mt in sample_traces(s, 0.3, t_count, RngSpec(master_seed=seed))]
        result = maximal_runs(len(s), traces)
        if result.ok:
            assert len(result.string) == len(s)
            m_hat = max(
                (len(run_decompose(t).lengths) if len(t) else 0) for t in traces
            )
            assert len(run_decompose(result.string).lengths) == m_hat

    @settings(max_examples=40)
    @given(st.text(alphabet="01", min_size=1, max_size=20), st.integers(0, 2**32))
    def test_perfect_trace_always_reconstructs(self, text, seed):
        s = BitString(text)
        damaged = [mt.trace for mt in sample_traces(s, 0.6, 3, RngSpec(master_seed=seed))]
        result = maximal_runs(len(s), damaged + [s])
        assert result.ok and result.string == s


class TestConsistentSources:
    def test_single_bit(self):
        assert [str(x) for x in consistent_sources(1, bs("0"))] == ["0"]

    def test_one_deletion(self):
        assert [str(x) for x in consistent_sources(2, bs("0"))] == ["00", "01", "10"]

    def test_no_traces_read_as_one_empty_trace(self):
        assert [str(x) for x in consistent_sources(2, [])] == ["00", "01", "10", "11"]
        verdict = is_levenshtein_sufficient(BitString("01"), [])
        assert (verdict.consistent_count, verdict.witness) == (4, BitString("00"))

    def test_two_traces(self):
        got = [str(x) for x in consistent_sources(3, bs("00", "0"))]
        assert got == ["000", "001", "010", "100"]

    def test_lexicographic_order(self):
        got = consistent_sources(4, bs("01"))
        assert [str(x) for x in got] == sorted(str(x) for x in got)

    def test_cap_enforced(self):
        # 2^40 - 1 sources from two states per length: counted, never listed
        with pytest.raises(InfeasibleError,
                           match=f"^{2**40 - 1} consistent sources exceed {MAX_ORACLE_STATES}$"):
            consistent_sources(40, bs("0"))

    def test_cap_override(self, monkeypatch):
        # the state budget is the one cap: lowered, it refuses a small input
        assert len(consistent_sources(8, bs("0110", "1001"))) > 0
        monkeypatch.setattr(kernel, "MAX_ORACLE_STATES", 10)
        with pytest.raises(InfeasibleError, match="budget of 10 automaton states at bit 3 of 8"):
            consistent_sources(8, bs("0110", "1001"))

    def test_source_cap_at_the_budget(self, monkeypatch):
        # the 15 four-bit strings holding a 0 take the automaton through 8
        # states, so the sources, not the states, meet a budget of 15 or 14;
        # the 7 completions of the first layer-1 state stay under either
        monkeypatch.setattr(kernel, "MAX_ORACLE_STATES", 15)
        assert len(consistent_sources(4, bs("0"))) == 15
        monkeypatch.setattr(kernel, "MAX_ORACLE_STATES", 14)
        with pytest.raises(InfeasibleError, match="^15 consistent sources exceed 14$"):
            consistent_sources(4, bs("0"))

    def test_zero_length_sources(self):
        # only the empty string, and only if every trace is empty
        assert consistent_sources(0, []) == [BitString(())]
        assert consistent_sources(0, bs("", "")) == [BitString(())]
        assert consistent_sources(0, bs("", "0")) == []

    def test_overlong_trace_yields_nothing(self):
        assert consistent_sources(2, bs("000")) == []

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.lists(st.text(alphabet="01", max_size=6), min_size=1, max_size=3))
    def test_matches_enumeration_oracle(self, n, texts):
        got = [str(x) for x in consistent_sources(n, bs(*texts))]
        assert got == consistent_sources_oracle(n, texts)

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="01", min_size=1, max_size=9),
           st.integers(1, 4), st.integers(0, 2**32))
    def test_source_always_consistent(self, text, t_count, seed):
        s = BitString(text)
        traces = [mt.trace for mt in sample_traces(s, 0.5, t_count, RngSpec(master_seed=seed))]
        assert s in consistent_sources(len(s), traces)


class TestSufficiency:
    def test_perfect_trace_sufficient(self):
        verdict = is_levenshtein_sufficient(BitString("000"), bs("000"))
        assert verdict.sufficient and verdict.consistent_count == 1
        assert verdict.witness is None

    def test_single_bit_sufficient(self):
        assert is_levenshtein_sufficient(BitString("0"), bs("0")).sufficient

    def test_short_traces_insufficient(self):
        verdict = is_levenshtein_sufficient(BitString("000"), bs("00", "0"))
        assert not verdict.sufficient
        assert verdict.consistent_count == 4
        assert verdict.witness is not None and verdict.witness != BitString("000")

    def test_inconsistent_traces_rejected(self):
        with pytest.raises(ValueError, match="traces inconsistent with source"):
            is_levenshtein_sufficient(BitString("000"), bs("1"))

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="01", min_size=1, max_size=12),
           st.integers(1, 4), st.integers(0, 2**32))
    def test_verdict_matches_oracle_count(self, text, t_count, seed):
        s = BitString(text)
        traces = [mt.trace for mt in sample_traces(s, 0.4, t_count, RngSpec(master_seed=seed))]
        verdict = is_levenshtein_sufficient(s, traces)
        oracle = consistent_sources_oracle(len(s), [str(t) for t in traces])
        assert [str(x) for x in consistent_sources(len(s), traces)] == oracle
        assert verdict.consistent_count == len(oracle)
        assert verdict.sufficient == (len(oracle) == 1)
        others = [x for x in oracle if x != text]
        assert verdict.witness == (BitString(others[0]) if others else None)

    def test_beyond_recursion_and_int64(self):
        # deeper than the recursion limit, and 2^n - 1 sources overflow int64
        n = 2000
        verdict = is_levenshtein_sufficient(BitString("0" * n), bs("0"))
        assert verdict.consistent_count == 2**n - 1
        assert verdict.witness == BitString("0" * (n - 1) + "1")


def _matchers_of(trace_sets):
    """The matchers (padded, lens) of nested lists of trace bit arrays, built
    as the kernel builds them: from every trace's bits concatenated, and their
    lengths."""
    bits = np.concatenate([np.asarray(t, dtype=np.uint8) for ts in trace_sets for t in ts])
    return _matchers(bits, [[len(t) for t in ts] for ts in trace_sets])


def _oracle_of(s_bits, trace_sets):
    """The matchers of trace sets of s, its bits s_bits, and their embedding
    tables on s, as the kernel passes them to the oracle."""
    padded, lens = _matchers_of(trace_sets)
    return padded, lens, _embedding_tables(s_bits, padded, lens)


@st.composite
def _trace_sets(draw):
    """n <= 12 and up to 5 sets of the same T <= 4 traces, of any length up to
    n + 2: empty traces and traces too long to embed in n bits included."""
    n = draw(st.integers(0, 12))
    t_count = draw(st.integers(1, 4))
    trace = st.text(alphabet="01", max_size=n + 2)
    return n, draw(st.lists(st.lists(trace, min_size=t_count, max_size=t_count), min_size=1, max_size=5))


def _arrays(texts):
    return [[np.array([int(c) for c in t], dtype=np.uint8) for t in ts] for ts in texts]


class TestBatchedAutomaton:
    @settings(max_examples=60, deadline=None)
    @given(_trace_sets())
    def test_each_set_counted_as_alone(self, case):
        n, texts = case
        sets = _arrays(texts)
        counts = _automaton(n, *_matchers_of(sets))[1][0]
        assert counts.size == len(sets) + 1 and counts[-1] == 0
        for b, ts in enumerate(sets):
            assert counts[b] == _automaton(n, *_matchers_of([ts]))[1][0][0]
            assert counts[b] == len(consistent_sources_oracle(n, texts[b]))


@st.composite
def _wide_trace_sets(draw):
    """Sets of 15 to 20 traces, each set of its own source of n = 8 to 10 bits
    through a deletion channel, whose states need two or more key words.  The
    first trace of set 0 is its whole source, so every pointer takes 4 bits:
    16 or more traces fill 64 bits, and with 15 traces the owner of 9 or more
    sets starts a word of its own."""
    n = draw(st.integers(8, 10))
    t_count = draw(st.integers(15, 20))
    set_count = draw(st.integers(9 if t_count == 15 else 1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([0.2, 0.4, 0.6]))
    sources = rng.integers(0, 2, (set_count, n)).astype(np.uint8)
    sets = [[source[rng.random(n) >= p] for _ in range(t_count)] for source in sources]
    sets[0][0] = sources[0]
    return n, sets


class TestStateKeys:
    @staticmethod
    def _keys(rows, owner, pointer_bits, owner_bits, live=None):
        rows, owner = np.asarray(rows, dtype=np.int32), np.asarray(owner, dtype=np.int64)
        live = np.arange(len(owner)) if live is None else np.asarray(live)
        return _state_keys(rows, live, owner, pointer_bits, owner_bits)

    @pytest.mark.parametrize("t_count,pointer_bits,owner_bits,words", [
        (9, 7, 0, 1),   # 63 bits: one full word
        (9, 7, 1, 2),   # 64 bits: the owner starts a second word
        (8, 8, 0, 2),   # 64 bits: the eighth pointer starts a second word
        (21, 3, 0, 1),  # 63 bits of narrow fields
        (16, 5, 7, 2),  # the wide golden case: 80 pointer bits and 128 sets
        (30, 31, 31, 16),  # two 31-bit fields per word
    ])
    def test_boundary_layout(self, t_count, pointer_bits, owner_bits, words):
        top, owner_top = (1 << pointer_bits) - 1, (1 << owner_bits) - 1
        keys = self._keys(np.full((1, t_count), top), [owner_top], pointer_bits, owner_bits)
        assert len(keys) == words
        assert all(k.dtype == np.int64 and k[0] >= 0 for k in keys)  # each word below 2^63
        set_bits = sum(bin(int(k[0])).count("1") for k in keys)
        assert set_bits == t_count * pointer_bits + owner_bits
        # no field is split: a field at its largest value alone sets all of its
        # bits in one word
        for field in range(t_count + 1):
            rows, owner = np.zeros((1, t_count), dtype=np.int32), [0]
            if field < t_count:
                rows[0, field], width = top, pointer_bits
            else:
                owner, width = [owner_top], owner_bits
            values = [int(k[0]) for k in self._keys(rows, owner, pointer_bits, owner_bits)]
            assert sum(v != 0 for v in values) == (width > 0)
            assert sum(bin(v).count("1") for v in values) == width

    @pytest.mark.parametrize("t_count,pointer_bits,owner_bits", [(9, 7, 1), (8, 8, 3), (5, 2, 2)])
    def test_distinct_states_distinct_keys(self, t_count, pointer_bits, owner_bits):
        # fields take only their smallest and largest values, so high bits are
        # set often, and repeated states are common
        rng = np.random.default_rng(t_count)
        size = 4000
        rows = rng.integers(0, 2, (size, t_count)) * ((1 << pointer_bits) - 1)
        owner = rng.integers(0, 2, size) * ((1 << owner_bits) - 1)
        live = np.flatnonzero(rng.random(size) < 0.8)
        keys = np.stack(self._keys(rows, owner, pointer_bits, owner_bits, live), axis=1)
        states = np.column_stack([rows[live], owner[live]])
        # the two groupings are the same partition: pairing each state's group
        # with its key's group makes no more pairs than there are groups
        distinct = len(np.unique(states, axis=0))
        assert distinct < live.size
        assert len(np.unique(keys, axis=0)) == distinct
        assert len(np.unique(np.column_stack([states, keys]), axis=0)) == distinct


class TestWideAutomaton:
    @settings(max_examples=25, deadline=None)
    @given(_wide_trace_sets())
    def test_counts_match_brute_force(self, case):
        n, sets = case
        padded, lens = _matchers_of(sets)
        pointer_bits, owner_bits = int(lens.max()).bit_length(), (len(sets) - 1).bit_length()
        assert lens.shape[1] * pointer_bits + owner_bits > 63  # two or more words
        counts = _automaton(n, padded, lens)[1][0]
        texts = [["".join(map(str, t)) for t in ts] for ts in sets]
        assert counts.tolist() == [len(consistent_sources_oracle(n, ts)) for ts in texts] + [0]


@st.composite
def _source_blocks(draw):
    """A source of n = 1 to 13 bits and 1 to 5 sets of T = 1 to 5 of its traces
    through a deletion channel: p = 0 keeps every bit, p near 1 leaves empty
    traces."""
    n = draw(st.integers(1, 13))
    t_count = draw(st.integers(1, 5))
    p = draw(st.one_of(st.sampled_from([0.0, 0.9, 1.0]), st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    s = rng.integers(0, 2, n).astype(np.uint8)
    return s, [[s[rng.random(n) >= p] for _ in range(t_count)] for _ in range(draw(st.integers(1, 5)))]


@st.composite
def _wide_source_blocks(draw):
    """_wide_trace_sets with one source for every set, as the kernel's blocks
    have: two or more key words."""
    n = draw(st.integers(8, 10))
    t_count = draw(st.integers(15, 20))
    set_count = draw(st.integers(9 if t_count == 15 else 1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([0.2, 0.4, 0.6]))
    s = rng.integers(0, 2, n).astype(np.uint8)
    sets = [[s[rng.random(n) >= p] for _ in range(t_count)] for _ in range(set_count)]
    sets[0][0] = s
    return s, sets


def _text(bits) -> str:
    return "".join(map(str, bits))


class TestSufficient:
    @settings(max_examples=150, deadline=None)
    @given(_source_blocks())
    @example((np.array([1], dtype=np.uint8), [[np.array([1], dtype=np.uint8)]]))  # n = 1, T = 1, p = 0
    @example((np.array([1], dtype=np.uint8), [[np.zeros(0, dtype=np.uint8)]]))  # n = 1, empty
    @example((np.array([0, 1, 1], dtype=np.uint8), [[np.zeros(0, dtype=np.uint8)] * 2] * 2))  # every trace empty
    @example((np.array([0, 1, 1, 0], dtype=np.uint8), [[np.array([0, 1, 1, 0], dtype=np.uint8)] * 3]))  # p = 0
    # sufficient: only the bit after each layer, not the one at it, may finish a trace
    @example((np.array([0, 1, 1, 0], dtype=np.uint8), [[np.array([0, 1, 1], dtype=np.uint8),
                                                        np.array([1, 1, 0], dtype=np.uint8)]]))
    def test_verdicts_match_the_counting_automaton(self, case):
        s, sets = case
        padded, lens, tables = _oracle_of(s, sets)
        verdicts = _sufficient(s, padded, lens, tables)
        assert verdicts.tolist() == (_automaton(s.size, padded, lens)[1][0][:len(sets)] == 1).tolist()

    @settings(max_examples=25, deadline=None)
    @given(_wide_source_blocks())
    def test_wide_keys(self, case):
        s, sets = case
        padded, lens, tables = _oracle_of(s, sets)
        pointer_bits, owner_bits = int(lens.max()).bit_length(), (len(sets) - 1).bit_length()
        assert lens.shape[1] * pointer_bits + owner_bits > 63  # two or more words
        verdicts = _sufficient(s, padded, lens, tables)
        assert verdicts.tolist() == (_automaton(s.size, padded, lens)[1][0][:len(sets)] == 1).tolist()

    @settings(max_examples=100, deadline=None)
    @given(_source_blocks())
    def test_budget_counts_the_kept_states(self, case):
        # one set at a time: the verdict and the states kept after each bit by the
        # plain-Python search, which passes a budget one below their sum at the
        # last bit that keeps a state
        s, sets = case
        for ts in sets:
            sufficient, kept = diverged_states_oracle(_text(s), [_text(t) for t in ts])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel, "MAX_ORACLE_STATES", sum(kept))
                assert _sufficient(s, *_oracle_of(s, [ts])).tolist() == [sufficient]
                if sum(kept) == 0:
                    continue
                mp.setattr(kernel, "MAX_ORACLE_STATES", sum(kept) - 1)
                last = max(k for k, count in enumerate(kept) if count) + 1
                with pytest.raises(InfeasibleError, match=f"at bit {last} of {s.size}$"):
                    _sufficient(s, *_oracle_of(s, [ts]))


class TestEmbeds:
    @settings(max_examples=100, deadline=None)
    @given(_trace_sets(), st.data())
    def test_tables_match_the_oracle_at_every_j(self, case, data):
        # s has n bits, and the traces may be empty or longer than s, so
        # pointers reach their trace's end and read the padding
        n, texts = case
        s = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
        fwd, back = _embedding_tables(np.array([int(c) for c in s], dtype=np.uint8), *_matchers_of(_arrays(texts)))
        for b, ts in enumerate(texts):
            assert (fwd[:, b].tolist(), back[:, b].tolist()) == embedding_tables_oracle(s, ts)

    @settings(max_examples=100, deadline=None)
    @given(_trace_sets(), st.text(alphabet="01", max_size=12), st.integers(0, 12), st.integers(0, 3),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 12), st.integers(0, 3)), max_size=12))
    def test_each_set_embeds_as_by_is_subsequence(self, case, x, lo, width, rows):
        # traces are ragged, empty or longer than x, and x may be empty: the
        # tables of x, and in one call x with the bits [lo, hi) flipped, hi - lo
        # of 0 to 3 hit by hit: every set with the same window, last set first,
        # then more hits on sets picked out of order and repeated
        sets = _arrays(case[1])
        padded, lens = _matchers_of(sets)
        x_bits = np.array([int(c) for c in x], dtype=np.uint8)
        rows = [(b, lo, width) for b in reversed(range(len(sets)))] + rows
        picked = np.array([b % len(sets) for b, _, _ in rows], dtype=np.intp)
        lo = np.array([min(start, len(x)) for _, start, _ in rows], dtype=np.intp)
        hi = np.array([min(start + width, len(x)) for _, start, width in rows], dtype=np.intp)
        embeds = _embeds_flipped(x_bits, padded, lens, _embedding_tables(x_bits, padded, lens), picked, lo, hi)
        assert embeds.shape == (len(rows),)
        for r, (b, start, end) in enumerate(zip(picked, lo, hi)):
            flipped = x[:start] + "".join("10"[int(c)] for c in x[start:end]) + x[end:]
            assert embeds[r] == all(is_subsequence(t, BitString(flipped)) for t in sets[b])
            assert embeds[r] == all(is_subseq_str(t, flipped) for t in case[1][b])


@st.composite
def _any_trace_sets(draw):
    """A source of 1 to 8 bits and 1 to 4 sets of the same T <= 4 traces that
    need not be its traces: each is s, a subsequence of s, or any string up to
    3 bits longer than s.  So the sets hold empty traces, traces longer than n,
    traces of either first bit and traces with more runs than s."""
    s = draw(st.text(alphabet="01", min_size=1, max_size=8))
    t_count = draw(st.integers(1, 4))
    subsequence = st.lists(st.booleans(), min_size=len(s), max_size=len(s)).map(
        lambda keep: "".join(bit for bit, kept in zip(s, keep) if kept))
    trace = st.one_of(st.just(s), subsequence, st.text(alphabet="01", max_size=len(s) + 3))
    return s, draw(st.lists(st.lists(trace, min_size=t_count, max_size=t_count), min_size=1, max_size=4))


class TestRunAlignment:
    @settings(max_examples=300, deadline=None)
    @given(_any_trace_sets())
    @example(("01", [["01", "010"]]))  # the traces with the most runs have more than s
    @example(("01", [["01", "1"]]))  # a trace with fewer runs starts with the other bit
    @example(("10", [["10", "0"], ["", ""]]))  # traces end in 0; a set of empty traces
    def test_misses_match_maximal_runs_on_any_trace_sets(self, case):
        text, texts = case
        s = BitString(text)
        misses = _run_alignment_misses(s, np.array(run_decompose(s).lengths), _matchers_of(_arrays(texts))[0])
        assert misses.shape == (len(texts),)
        for b, ts in enumerate(texts):
            result = maximal_runs(len(s), bs(*ts))
            assert misses[b] == (not (result.ok and result.string == s))
