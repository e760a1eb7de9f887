"""Deletion channel: every bit of the source is dropped independently with
probability p.  Masks are always kept alongside traces because the event
detectors need to know which positions were deleted, not just what survived.

One function, _mask_block, turns uniforms into deletion flags: sample_traces,
sample_mask and the harness's Monte Carlo kernel all draw their masks through
it, at most BLOCK_ELEMENTS uniforms (at least one trace) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitString, is_subsequence

__all__ = ["DeletionMask", "MaskedTrace", "RngSpec", "sample_mask", "apply_mask", "sample_traces", "trace_is_consistent"]

# Uniforms one mask draw holds at once.  The harness's Monte Carlo kernel also
# sizes its blocks by it: B = max(1, BLOCK_ELEMENTS // (T * n)) trials share
# one (B, T, n) mask, so every verdict is computed for B trials at once.  At
# 2^15 per-trial seeding already dominates; larger blocks only add peak memory.
BLOCK_ELEMENTS = 1 << 15


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
    (or in parallel) and still reproduce bit-for-bit.
    """

    master_seed: int

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")

    def trial_rng(self, trial_index: int) -> np.random.Generator:
        if trial_index < 0:
            raise ValueError("trial_index must be >= 0")
        seq = np.random.SeedSequence([self.master_seed, trial_index])
        return np.random.Generator(np.random.PCG64(seq))


def _coerce_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSpec):
        return rng.trial_rng(0)
    raise TypeError("rng must be a numpy Generator or an RngSpec")


def _mask_block(rngs, p: float, out: np.ndarray) -> np.ndarray:
    """Fill the (B, T, n) bool array out with deletion masks, trial k's from
    the k-th generator of the iterable rngs, and return it.

    Each trial draws its T x n uniforms in order, max(1, BLOCK_ELEMENTS // n)
    rows at a time, into one float scratch.  The draws continue one stream, so
    trial k's flags are rng.random((T, n)) < p whatever the row count, while
    no more than about BLOCK_ELEMENTS uniforms are held at once.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"deletion probability must be in [0, 1], got {p}")
    _, t_count, n = out.shape
    scratch = np.empty((min(t_count, max(1, BLOCK_ELEMENTS // max(n, 1))), n))
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
