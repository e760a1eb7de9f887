import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltrace import kernel
from deltrace.bits import BitString, is_subsequence
from deltrace.channel import DeletionMask, MaskedTrace, RngSpec, apply_mask, sample_traces
from deltrace.kernel import SEED_CHUNK, _mask_block
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

    def test_equality_and_immutability(self):
        a, b = DeletionMask([True, False, True]), DeletionMask(np.array([1, 0, 1]))
        assert a == b and hash(a) == hash(b)
        assert a != DeletionMask([True, False, False]) and a != DeletionMask([True, False])
        # another type: DeletionMask defers, and the fallback is identity
        assert (a == [True, False, True]) is False
        for name in ("_flags", "extra"):
            with pytest.raises(AttributeError, match="DeletionMask is immutable"):
                setattr(a, name, None)

    def test_repr_shows_the_deleted_count_out_of_n(self):
        assert repr(DeletionMask([True, False, True, False, False])) == "DeletionMask(deleted=2/5)"


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
            sample_traces(BitString("0110"), 1.5, 1, RngSpec(master_seed=1))

    @settings(max_examples=40)
    @given(st.text(alphabet="01", min_size=1, max_size=30),
           st.floats(0.0, 1.0), st.integers(1, 6), st.integers(0, 2**32))
    def test_traces_always_consistent(self, text, p, t_count, seed):
        s = BitString(text)
        for mt in sample_traces(s, p, t_count, RngSpec(master_seed=seed)):
            assert mt.source_length == len(s)
            assert len(mt.trace) == len(s) - mt.mask.deleted_count()
            assert apply_mask(s, mt.mask) == mt.trace and is_subsequence(mt.trace, s)
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

    @pytest.mark.parametrize("seed", [True, 1.5, "3"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            RngSpec(master_seed=seed)

    def test_seed_stored_as_int(self):
        spec = RngSpec(master_seed=np.uint64(2**64 - 1))
        assert type(spec.master_seed) is int and spec.master_seed == 2**64 - 1


# seeds at the uint32 word boundaries, where the entropy grows a word
SEEDS = st.one_of(st.sampled_from([0, 1, 2024, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1]),
                  st.integers(0, 2**64 - 1))
# ranges starting just below index 2**32 (a word boundary) or a seeding chunk edge
FIRSTS = st.one_of(st.integers(0, 3 * SEED_CHUNK),
                   st.integers(2**32 - 2 * SEED_CHUNK, 2**32 + 3),
                   st.integers(0, 2**64 - 3 * SEED_CHUNK))


class TestBlockRngs:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, FIRSTS, st.integers(0, 2 * SEED_CHUNK + 3))
    @example(2**32, SEED_CHUNK - 2, 4)  # across a seeding chunk edge
    @example(2**32 - 1, 2**32 - 2, 4)  # across index 2**32
    @example(2**64 - 1, 2**64 - 2, 2)  # up to the last index
    def test_streams_equal_trial_rng(self, seed, first, size):
        spec = RngSpec(master_seed=seed)
        drawn = 0
        for k, rng in enumerate(spec.block_rngs(first, size)):
            # a uniform and a 32-bit draw: the state, the increment and the
            # half-word buffer all have to match the reference
            expected = spec.trial_rng(first + k)
            assert np.array_equal(rng.random(3), expected.random(3))
            assert np.array_equal(rng.integers(0, 2**32, 3, dtype=np.uint32),
                                  expected.integers(0, 2**32, 3, dtype=np.uint32))
            drawn += 1
        assert drawn == size

    def test_index_range_validation(self):
        spec = RngSpec(master_seed=1)
        for first, size in ((-1, 2), (0, -1), (2**64 - 1, 2)):
            with pytest.raises(ValueError):
                spec.block_rngs(first, size)


# mask draw budgets around _mask_block's buffer: trials fill a buffer of
# BLOCK_ELEMENTS values, at least one, in order, a trial larger than it piece
# by piece, and it is compared whenever the next piece would not fit; "block"
# compares once
BUDGETS = {
    "one": lambda b, t, n: 1,
    "row": lambda b, t, n: n,
    "trial-1": lambda b, t, n: t * n - 1,
    "trial": lambda b, t, n: t * n,
    "block-1": lambda b, t, n: b * t * n - 1,
    "block": lambda b, t, n: b * t * n,
}


class TestMaskBlock:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 40),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           st.sampled_from(sorted(BUDGETS)), st.booleans(), SEEDS, st.integers(0, 3 * SEED_CHUNK))
    @example(3, 4, 10, 0.4, "block", True, 77, 5)  # one comparison per block
    @example(3, 4, 10, 0.4, "row", True, 77, 5)  # a draw per row
    @example(1, 1, 1, 0.4, "block-1", True, 77, 5)  # a budget of 0: the buffer still holds one value
    def test_each_trial_draws_its_own_stream(self, b_count, t_count, n, p, budget, block_rngs, seed, first):
        spec = RngSpec(master_seed=seed)
        # two consecutive blocks from one iterable: a block that takes one
        # stream too many shifts every trial of the next
        indexes = range(first, first + 2 * b_count)
        rngs = spec.block_rngs(first, len(indexes)) if block_rngs else map(spec.trial_rng, indexes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "BLOCK_ELEMENTS", BUDGETS[budget](b_count, t_count, n))
            blocks = [_mask_block(rngs, p, np.empty((b_count, t_count, n), dtype=bool)) for _ in range(2)]
        for i, flags in zip(indexes, np.concatenate(blocks)):
            assert np.array_equal(flags, spec.trial_rng(i).random((t_count, n)) < p)
