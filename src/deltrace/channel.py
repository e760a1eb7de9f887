"""Deletion channel: every bit of the source is dropped independently with
probability p.  Masks are always kept alongside traces because the event
detectors need to know which positions were deleted, not just what survived.

One function, _mask_block, turns uniforms into deletion flags: sample_traces,
sample_mask and the harness's Monte Carlo kernel all draw their masks through
it.  A block whose uniforms fit BLOCK_ELEMENTS is drawn into one buffer and
compared once; a larger one is drawn a trial, or a chunk of a trial's traces,
at a time.  Either way at most max(BLOCK_ELEMENTS, n) uniforms are held.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bits import BitString, is_subsequence

__all__ = ["DeletionMask", "MaskedTrace", "RngSpec", "sample_mask", "apply_mask", "sample_traces", "trace_is_consistent"]

# Uniforms one mask draw holds at once.  The harness's Monte Carlo kernel also
# sizes its blocks by it: B = max(1, BLOCK_ELEMENTS // (T * n)) trials share
# one (B, T, n) mask, so every verdict is computed for B trials at once.  On
# 6000 trials of T * n = 320, the kernel took 84-92 ms at 2^13, 75-76 ms at
# 2^15 and 70-74 ms at 2^17 (medians of 7-9 runs in each of three rounds, in
# process, 2 cores): each trial's stream setting and draw, about 7 us, do not
# shrink with the block, so 2^17 gains about 5% for four times the buffers.
BLOCK_ELEMENTS = 1 << 15

# Trial indexes whose PCG64 seeds RngSpec.block_rngs computes in one numpy
# pass.  It does not follow the mask block: a pass costs about 175 us even for
# one trial (8 trial_rng calls), and 0.5 us per trial at 512.  Larger chunks
# save little more and hold more transients: at 4096 a 6000-trial mc-short
# run peaked 0.7 MB higher than at 512.
SEED_CHUNK = 512

# SeedSequence's hash constants (numpy.random.bit_generator, frozen by NEP 19
# as O'Neill's seed_seq_fe) and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_consts(value: int, mult: int, count: int) -> list[np.uint32]:
    out = [value]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return [np.uint32(h) for h in out]


# SeedSequence hashes 4 pool words, then 12 in the pool mix (consts A), and
# draws 8 output words for 4 uint64 (consts B); hash k uses consts k and k + 1.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)


def _xshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _pcg64_seed_words(seed: int, first: int, size: int) -> np.ndarray:
    """(size, 4) little-endian uint64: SeedSequence([seed, i]).generate_state(4, uint64)
    for i in [first, first + size), the words PCG64 seeds itself from.

    The entropy is the little-endian uint32 words of seed and then of i, each
    at least one word; positions up to the pool size of 4 that it leaves
    empty hash as 0, so zero-padding it to 4 words changes nothing."""
    idx = np.arange(first, first + size, dtype=np.uint64)
    words = [np.full(size, w, dtype=np.uint32) for w in ([seed & _M32, seed >> 32] if seed >> 32 else [seed])]
    words += [(idx & np.uint64(_M32)).astype(np.uint32), (idx >> np.uint64(32)).astype(np.uint32)]
    words += [np.zeros(size, dtype=np.uint32)] * (4 - len(words))
    pool = [_xshift((w ^ _HASH_A[k]) * _HASH_A[k + 1]) for k, w in enumerate(words)]
    k = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed = _xshift((pool[src] ^ _HASH_A[k]) * _HASH_A[k + 1])
                pool[dst] = _xshift(_MIX_L * pool[dst] - _MIX_R * hashed)
                k += 1
    out = np.empty((size, 8), dtype="<u4")  # uint32 pairs read as little-endian uint64
    for j in range(8):
        out[:, j] = _xshift((pool[j % 4] ^ _HASH_B[j]) * _HASH_B[j + 1])
    return out.view("<u8")


class DeletionMask:
    """Per-position deletion flags for one channel use; True = bit deleted."""

    __slots__ = ("_flags",)

    def __init__(self, flags):
        arr = np.ascontiguousarray(np.asarray(flags, dtype=bool))
        if arr.ndim != 1:
            raise ValueError("flags must be one-dimensional")
        arr.setflags(write=False)
        object.__setattr__(self, "_flags", arr)

    @property
    def flags(self) -> np.ndarray:
        return self._flags

    def __len__(self):
        return self._flags.size

    def __eq__(self, other):
        if isinstance(other, DeletionMask):
            return np.array_equal(self._flags, other._flags)
        return NotImplemented

    def __hash__(self):
        return hash(self._flags.tobytes())

    def __setattr__(self, name, value):
        raise AttributeError("DeletionMask is immutable")

    def __repr__(self):
        return f"DeletionMask(deleted={int(self._flags.sum())}/{self._flags.size})"

    def deleted_count(self) -> int:
        return int(self._flags.sum())


@dataclass(frozen=True)
class MaskedTrace:
    """A trace together with the channel realization that produced it."""

    trace: BitString
    mask: DeletionMask
    source_length: int

    def __post_init__(self):
        if len(self.mask) != self.source_length:
            raise ValueError("mask length must equal source length")
        if len(self.trace) != self.source_length - self.mask.deleted_count():
            raise ValueError("trace length inconsistent with mask")


@dataclass(frozen=True)
class RngSpec:
    """Deterministic randomness recipe.

    Trial i draws from an independent PCG64 stream seeded with
    SeedSequence([master_seed, i]), so trials can be evaluated in any order
    (or in parallel) and still reproduce bit-for-bit.  trial_rng builds one
    such stream, the reference; block_rngs yields a range of them, bit-equal,
    with their seeds computed SEED_CHUNK trials at a time.
    """

    master_seed: int

    def __post_init__(self):
        seed = self.master_seed
        if isinstance(seed, (bool, np.bool_)) or not hasattr(type(seed), "__index__"):
            raise ValueError(f"master_seed must be an integer, got {seed!r}")
        seed = operator.index(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "master_seed", seed)

    def trial_rng(self, trial_index: int) -> np.random.Generator:
        if trial_index < 0:
            raise ValueError("trial_index must be >= 0")
        seq = np.random.SeedSequence([self.master_seed, trial_index])
        return np.random.Generator(np.random.PCG64(seq))

    def block_rngs(self, first: int, size: int) -> Iterator[np.random.Generator]:
        """Trial i's stream for i in [first, first + size), in order, each
        drawing exactly what trial_rng(i) draws.

        Every item is one reused Generator whose PCG64 state is set to trial
        i's when the item is taken, so draw from it before taking the next.
        The state is set from one shared dict: only its state and inc words
        change, and has_uint32 and uinteger stay 0, as seeding leaves them.
        """
        if first < 0 or size < 0 or first + size > 2**64:
            raise ValueError("trial indexes must lie in [0, 2**64)")
        return self._streams(first, size)

    def _streams(self, first: int, size: int) -> Iterator[np.random.Generator]:
        bit_gen = np.random.PCG64(0)
        rng = np.random.Generator(bit_gen)
        # the setter copies the values out, so one dict serves every trial
        words: dict[str, int] = {}
        state = {"bit_generator": "PCG64", "state": words, "has_uint32": 0, "uinteger": 0}
        for start in range(first, first + size, SEED_CHUNK):
            seeds = _pcg64_seed_words(self.master_seed, start, min(SEED_CHUNK, first + size - start))
            for s_hi, s_lo, i_hi, i_lo in seeds.tolist():
                # PCG64's seeding: inc = 2 * seq + 1, then two LCG steps from 0
                inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
                words["state"] = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _M128
                words["inc"] = inc
                bit_gen.state = state
                yield rng


def _coerce_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSpec):
        return rng.trial_rng(0)
    raise TypeError("rng must be a numpy Generator or an RngSpec")


def _mask_block(rngs, p: float, out: np.ndarray) -> np.ndarray:
    """Fill the (B, T, n) bool array out with deletion masks, trial k's from
    the k-th generator of the iterable rngs, and return it.  It takes no more
    than B generators, so consecutive blocks can share one iterable.

    When the block's B * T rows fit max(1, BLOCK_ELEMENTS // n), trial k draws
    its T x n uniforms into row k of one (B, T, n) float buffer, and the
    block is compared with p once.  Otherwise each trial draws its uniforms in
    order, that many rows at a time, into one float scratch.  The draws
    continue one stream, so trial k's flags are rng.random((T, n)) < p on
    either path, while at most max(BLOCK_ELEMENTS, n) uniforms are held.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"deletion probability must be in [0, 1], got {p}")
    b_count, t_count, n = out.shape
    rows = max(1, BLOCK_ELEMENTS // max(n, 1))
    if b_count * t_count <= rows:
        uniforms = np.empty(out.shape)
        for trial, rng in zip(uniforms, rngs):
            rng.random(out=trial)
        return np.less(uniforms, p, out=out)
    scratch = np.empty((min(t_count, rows), n))
    for flags, rng in zip(out, rngs):
        for r in range(0, t_count, len(scratch)):
            uniforms = scratch[: t_count - r]
            rng.random(out=uniforms)
            np.less(uniforms, p, out=flags[r : r + len(uniforms)])
    return out


def sample_mask(n: int, p: float, rng) -> DeletionMask:
    """One deletion mask for a length-n source."""
    return DeletionMask(_mask_block([_coerce_rng(rng)], p, np.empty((1, 1, n), dtype=bool))[0, 0])


def apply_mask(s: BitString, mask: DeletionMask) -> BitString:
    """Drop the flagged positions of s, preserving order."""
    if len(s) != len(mask):
        raise ValueError(f"length mismatch: string {len(s)}, mask {len(mask)}")
    return BitString(s.bits[~mask.flags])


def sample_traces(s: BitString, p: float, T: int, rng) -> list[MaskedTrace]:
    """Pass s through the channel T times; each output keeps its mask."""
    if T < 1:
        raise ValueError("empty trace set has undefined sufficiency")
    flags = _mask_block([_coerce_rng(rng)], p, np.empty((1, T, len(s)), dtype=bool))[0]
    out = []
    for row in flags:
        mask = DeletionMask(row)
        out.append(MaskedTrace(trace=apply_mask(s, mask), mask=mask, source_length=len(s)))
    return out


def trace_is_consistent(mt: MaskedTrace, s: BitString) -> bool:
    """Check a trace against its claimed source: mask applies and yields the trace."""
    return (
        mt.source_length == len(s)
        and apply_mask(s, mt.mask) == mt.trace
        and is_subsequence(mt.trace, s)
    )
