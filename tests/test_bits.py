import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltrace.bits import (
    BitString,
    PatternSpan,
    RepeatBlockSpec,
    RunFractionSpec,
    RunProfile,
    is_subsequence,
    make_repeat_instance,
    make_run_instance,
    rounded_run_lengths,
    run_decompose,
    span_matches,
)
from oracles import is_subseq_str, subsequences_oracle

bit_text = st.text(alphabet="01", max_size=48)


class TestBitString:
    def test_constructors_agree(self):
        variants = [
            BitString("0110"),
            BitString([0, 1, 1, 0]),
            BitString((0, 1, 1, 0)),
            BitString(np.array([0, 1, 1, 0], dtype=np.uint8)),
            BitString(BitString("0110")),
        ]
        assert len(set(variants)) == 1
        assert str(variants[0]) == "0110"

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            BitString("012")
        with pytest.raises(ValueError):
            BitString([0, 2])

    def test_indexing_and_concat(self):
        s = BitString("10011")
        assert s[0] == 1 and s[4] == 1
        assert s[1:4] == BitString("001")
        assert BitString("10") + BitString("011") == s
        assert list(s).count(0) == 2 and list(s).count(1) == 3

    @given(bit_text)
    def test_text_round_trip(self, text):
        assert str(BitString(text)) == text

    @given(bit_text)
    def test_hash_consistency(self, text):
        assert hash(BitString(text)) == hash(BitString(list(map(int, text))))


class TestRuns:
    def test_decompose_example(self):
        profile = run_decompose(BitString("0001110010"))
        assert profile.first_bit == 0
        assert profile.lengths == (3, 3, 2, 1, 1)

    def test_compose_examples(self):
        # run_decompose inverts laying out runs of alternating bits
        for text, first_bit, lengths in [("010011", 0, (1, 1, 2, 2)), ("111", 1, (3,)), ("0011", 0, (2, 2))]:
            s = BitString(np.repeat((first_bit + np.arange(len(lengths))) % 2, lengths))
            assert str(s) == text
            assert run_decompose(s) == RunProfile(first_bit, lengths)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty string has no runs"):
            run_decompose(BitString(""))

    @given(bit_text.filter(bool))
    def test_round_trip(self, text):
        s = BitString(text)
        profile = run_decompose(s)
        runs = len(profile.lengths)
        assert BitString(np.repeat((profile.first_bit + np.arange(runs)) % 2, profile.lengths)) == s

    @given(bit_text.filter(bool))
    def test_alternation(self, text):
        profile = run_decompose(BitString(text))
        # runs alternate by construction; re-derive values and compare blocks
        pos = 0
        for i, length in enumerate(profile.lengths):
            expected = (profile.first_bit + i) % 2
            assert all(int(text[pos + j]) == expected for j in range(length))
            pos += length


class TestSubsequence:
    def test_examples(self):
        assert is_subsequence(BitString(""), BitString("10"))
        assert not is_subsequence(BitString("01"), BitString("10"))
        assert is_subsequence(BitString("0101"), BitString("00110011"))

    @given(st.text(alphabet="01", max_size=12), st.text(alphabet="01", max_size=9))
    def test_matches_two_pointer(self, x, t):
        assert is_subsequence(BitString(t), BitString(x)) == is_subseq_str(t, x)

    @settings(max_examples=30)
    @given(st.text(alphabet="01", min_size=1, max_size=9))
    def test_matches_exhaustive_enumeration(self, x):
        subs = subsequences_oracle(x)
        for length in range(len(x) + 1):
            for t in {s for s in subs if len(s) == length}:
                assert is_subsequence(BitString(t), BitString(x))
        # and a sample of non-subsequences of the same lengths
        for t in ("1" * (len(x) + 1), "0" * (len(x) + 1)):
            assert not is_subsequence(BitString(t), BitString(x))


class TestSpans:
    def test_span_matches(self):
        s = BitString("01010101")
        span = PatternSpan(offset=0, period=2, copies=4)
        assert span_matches(s, span)
        assert not span_matches(BitString("01100101"), span)

    def test_span_bounds(self):
        with pytest.raises(ValueError):
            PatternSpan(offset=-1, period=2, copies=2)
        with pytest.raises(ValueError):
            PatternSpan(offset=0, period=0, copies=2)


class TestRepeatInstances:
    def test_all_zero_example(self):
        spec = RepeatBlockSpec(BitString("0"), ell=1.0, a=1.0)
        s, span = make_repeat_instance(spec, 5)
        assert str(s) == "00000"
        assert (span.offset, span.period, span.copies) == (0, 1, 5)

    def test_alternating_example(self):
        spec = RepeatBlockSpec(BitString("01"), ell=0.5, a=1.0)
        s, span = make_repeat_instance(spec, 8)
        assert str(s) == "01010101"
        assert (span.offset, span.period, span.copies) == (0, 2, 4)

    def test_sublinear_copy_count(self):
        spec = RepeatBlockSpec(BitString("0"), ell=1.0, a=0.5)
        s, span = make_repeat_instance(spec, 16)
        assert len(s) == 16
        assert span.copies == 4
        assert str(s)[:4] == "0000"
        # filler starts with the complement and alternates
        assert str(s)[4:6] == "10"

    def test_filler_never_extends_block(self):
        spec = RepeatBlockSpec(BitString("01"), ell=0.25, a=1.0)
        s, span = make_repeat_instance(spec, 12)
        assert span.copies == 3
        assert span_matches(s, span)
        assert not span_matches(s, PatternSpan(span.offset, span.period, span.copies + 1))

    def test_infeasible(self):
        spec = RepeatBlockSpec(BitString("0111"), ell=1.0, a=1.0)
        with pytest.raises(ValueError):
            make_repeat_instance(spec, 3)

    @given(st.integers(8, 200), st.sampled_from(["0", "01", "011", "10"]),
           st.floats(0.05, 1.0), st.sampled_from([0.5, 0.75, 1.0]))
    def test_span_invariant(self, n, pattern, ell, a):
        spec = RepeatBlockSpec(BitString(pattern), ell=ell, a=a)
        if spec.copies_for(n) < 1 or len(pattern) * spec.copies_for(n) > n:
            return
        s, span = make_repeat_instance(spec, n)
        assert len(s) == n
        assert span_matches(s, span)
        assert span.copies == spec.copies_for(n)

    @settings(max_examples=500)
    @given(st.text(alphabet="01", min_size=1, max_size=6), st.floats(0.05, 1.0),
           st.sampled_from([0.5, 0.75, 1.0]), st.integers(1, 200))
    def test_run_count_matches_the_built_string(self, pattern, ell, a, n):
        spec = RepeatBlockSpec(BitString(pattern), ell=ell, a=a)
        try:
            s, _ = make_repeat_instance(spec, n)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                spec.run_count(n)
            assert str(refused.value) == str(exc)
            return
        assert spec.run_count(n) == len(run_decompose(s).lengths)


class TestRunInstances:
    def test_exact_fraction_example(self):
        spec = RunFractionSpec(0, (0.5, 0.25, 0.25))
        assert str(make_run_instance(spec, 8)) == "00001100"

    def test_single_run(self):
        assert str(make_run_instance(RunFractionSpec(1, (1.0,)), 3)) == "111"

    def test_rounding_example(self):
        assert rounded_run_lengths((0.5, 0.5), 7) == [4, 3]

    def test_rounding_criterion_instance(self):
        assert rounded_run_lengths((0.3, 0.4, 0.3), 10) == [3, 4, 3]

    def test_too_small(self):
        with pytest.raises(ValueError, match="n too small for M runs"):
            rounded_run_lengths((0.4, 0.3, 0.3), 2)
        with pytest.raises(ValueError, match="n too small for M runs"):
            # second fraction rounds to zero even though n >= M
            rounded_run_lengths((0.98, 0.02), 10)

    def test_float_dust(self):
        # 0.29 * 100 is 28.999... in floating point; the floor must see 29
        assert rounded_run_lengths((0.29, 0.42, 0.29), 100) == [29, 42, 29]

    @given(st.integers(2, 6).flatmap(
        lambda m: st.tuples(
            st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m),
            st.integers(m * 3, 400),
        )
    ))
    def test_rounding_properties(self, case):
        weights, n = case
        total = sum(weights)
        fractions = tuple(w / total for w in weights)
        spec = RunFractionSpec(0, fractions)
        try:
            lengths = rounded_run_lengths(fractions, n)
        except ValueError:
            with pytest.raises(ValueError):
                spec.run_count(n)
            return  # a fraction legitimately rounded to zero
        assert sum(lengths) == n
        assert all(x >= 1 for x in lengths)
        s = make_run_instance(spec, n)
        profile = run_decompose(s)
        assert profile.lengths == tuple(lengths)
        assert len(profile.lengths) == len(fractions) == spec.run_count(n)
