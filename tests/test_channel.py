import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltrace.bits import BitString
from deltrace.channel import (
    DeletionMask,
    MaskedTrace,
    RngSpec,
    apply_mask,
    sample_mask,
    sample_traces,
    trace_is_consistent,
)
from oracles import is_subseq_str


class TestMask:
    def test_apply_identity(self):
        s = BitString("0110")
        mask = DeletionMask(np.zeros(4, dtype=bool))
        assert apply_mask(s, mask) == s

    def test_apply_all_deleted(self):
        s = BitString("0110")
        mask = DeletionMask(np.ones(4, dtype=bool))
        assert apply_mask(s, mask) == BitString("")

    def test_apply_partial(self):
        s = BitString("010011")
        mask = DeletionMask(np.array([True, False, False, True, False, False]))
        assert apply_mask(s, mask) == BitString("1011")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_mask(BitString("01"), DeletionMask(np.zeros(3, dtype=bool)))

    def test_deleted_count(self):
        mask = DeletionMask(np.array([True, True, False]))
        assert mask.deleted_count() == 2


class TestSampling:
    def test_p_zero_gives_perfect_traces(self):
        s = BitString("0100111")
        for mt in sample_traces(s, 0.0, 5, RngSpec(master_seed=1)):
            assert mt.trace == s
            assert mt.mask.deleted_count() == 0

    def test_p_one_gives_empty_traces(self):
        s = BitString("0100111")
        for mt in sample_traces(s, 1.0, 5, RngSpec(master_seed=1)):
            assert len(mt.trace) == 0

    def test_empty_trace_set_rejected(self):
        with pytest.raises(ValueError, match="empty trace set has undefined sufficiency"):
            sample_traces(BitString("01"), 0.5, 0, RngSpec(master_seed=1))

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            sample_mask(4, 1.5, RngSpec(master_seed=1))

    @settings(max_examples=40)
    @given(st.text(alphabet="01", min_size=1, max_size=30),
           st.floats(0.0, 1.0), st.integers(1, 6), st.integers(0, 2**32))
    def test_traces_always_consistent(self, text, p, t_count, seed):
        s = BitString(text)
        for mt in sample_traces(s, p, t_count, RngSpec(master_seed=seed)):
            assert mt.source_length == len(s)
            assert len(mt.trace) == len(s) - mt.mask.deleted_count()
            assert trace_is_consistent(mt, s)
            assert is_subseq_str(str(mt.trace), text)

    def test_masked_trace_validation(self):
        s = BitString("0011")
        mask = DeletionMask(np.array([True, False, False, False]))
        with pytest.raises(ValueError):
            MaskedTrace(trace=s, mask=mask, source_length=4)  # wrong trace length


class TestDeterminism:
    def test_same_seed_same_masks(self):
        spec = RngSpec(master_seed=99)
        a = sample_traces(BitString("0101010101"), 0.4, 6, spec)
        b = sample_traces(BitString("0101010101"), 0.4, 6, spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.mask.flags, y.mask.flags)

    def test_trial_streams_differ(self):
        spec = RngSpec(master_seed=99)
        masks = [spec.trial_rng(i).random(64) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(masks[i], masks[j])

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngSpec(master_seed=-1)
        with pytest.raises(ValueError):
            RngSpec(master_seed=2**64)
