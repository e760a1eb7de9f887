"""Deletion channel: every bit of the source is dropped independently with
probability p.  Masks are always kept alongside traces because the event
detectors need to know which positions were deleted, not just what survived.

sample_traces draws its masks through the Monte Carlo kernel's own stage,
kernel._mask_block, so a trial's masks are the same whichever of them draws
them; RngSpec, the seeding recipe, lives in kernel and is re-exported here.
"""

from __future__ import annotations

import numpy as np

from .bits import BitString, frozen
from .kernel import RngSpec, _mask_block


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


@frozen
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


def _coerce_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSpec):
        return rng.trial_rng(0)
    raise TypeError("rng must be a numpy Generator or an RngSpec")


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
