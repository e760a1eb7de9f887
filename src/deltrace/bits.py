"""Binary strings, run decomposition, and generators for structured sources.

Strings are stored as numpy uint8 arrays so that run splitting and masking
stay vectorized for lengths up to ~10^6.  The text form is ASCII '0'/'1',
leftmost character first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitString",
    "RunProfile",
    "PatternSpan",
    "RepeatBlockSpec",
    "RunFractionSpec",
    "run_decompose",
    "run_compose",
    "is_subsequence",
    "pattern_at",
    "span_matches",
    "rounded_run_lengths",
    "make_repeat_instance",
    "make_run_instance",
]

# Guard against float dust when flooring products like 0.29 * 100.
_FLOOR_EPS = 1e-9


class BitString:
    """Immutable binary string backed by a uint8 array.

    Accepts a '0'/'1' text literal, an iterable of 0/1 ints, a numpy array,
    or another BitString.  Instances hash and compare by content.
    """

    __slots__ = ("_bits", "_hash")

    def __init__(self, bits: "str | Iterable[int] | np.ndarray | BitString" = ()):
        if isinstance(bits, BitString):
            arr = bits._bits
        elif isinstance(bits, str):
            if bits and set(bits) - {"0", "1"}:
                raise ValueError(f"bit literal must contain only '0'/'1', got {bits!r}")
            arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        else:
            arr = np.asarray(bits, dtype=np.uint8)
            if arr.ndim != 1:
                raise ValueError("bits must be one-dimensional")
            if arr.size and not np.all((arr == 0) | (arr == 1)):
                raise ValueError("every symbol must be 0 or 1")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "_bits", arr)
        object.__setattr__(self, "_hash", None)

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 view of the bits."""
        return self._bits

    def __len__(self):
        return self._bits.size

    def __iter__(self):
        return iter(self._bits.tolist())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return BitString(self._bits[idx])
        return int(self._bits[idx])

    def __eq__(self, other):
        if isinstance(other, BitString):
            return np.array_equal(self._bits, other._bits)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._bits.tobytes()))
        return self._hash

    def __add__(self, other):
        other = BitString(other) if not isinstance(other, BitString) else other
        return BitString(np.concatenate([self._bits, other._bits]))

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    def __str__(self):
        return self._bits.tobytes().translate(bytes.maketrans(b"\x00\x01", b"01")).decode("ascii")

    def __repr__(self):
        text = str(self)
        if len(text) > 48:
            text = text[:45] + "..."
        return f"BitString({text!r}, n={len(self)})"

    def count(self, value: int) -> int:
        return int(np.count_nonzero(self._bits == value))


@dataclass(frozen=True)
class RunProfile:
    """First bit plus the ordered maximal run lengths of a string."""

    first_bit: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        if self.first_bit not in (0, 1):
            raise ValueError("first_bit must be 0 or 1")
        object.__setattr__(self, "lengths", tuple(int(x) for x in self.lengths))
        if any(x < 1 for x in self.lengths):
            raise ValueError("every run length must be >= 1")

    @property
    def num_runs(self) -> int:
        return len(self.lengths)

    @property
    def total(self) -> int:
        return sum(self.lengths)


@dataclass(frozen=True)
class PatternSpan:
    """Location of a repeated block inside a host string.

    The block is the ``period`` bits starting at ``offset``, repeated
    ``copies`` times back to back.
    """

    offset: int
    period: int
    copies: int

    def __post_init__(self):
        if self.offset < 0 or self.period < 1 or self.copies < 1:
            raise ValueError("need offset >= 0, period >= 1, copies >= 1")

    @property
    def end(self) -> int:
        return self.offset + self.period * self.copies


def _bits_of(s) -> np.ndarray:
    return s.bits if isinstance(s, BitString) else BitString(s).bits


def _run_bounds(arr: np.ndarray) -> np.ndarray:
    # run starts plus the final end, for a nonempty array
    change = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    return np.concatenate(([0], change, [arr.size]))


def _run_lengths(arr: np.ndarray) -> np.ndarray:
    """Run lengths of a (possibly empty) uint8 array, as int64."""
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.diff(_run_bounds(arr))


def run_decompose(s: BitString) -> RunProfile:
    """Split a nonempty string into its maximal runs.

    '010011' decomposes to first_bit 0 with lengths (1, 1, 2, 2).
    """
    arr = _bits_of(s)
    if arr.size == 0:
        raise ValueError("empty string has no runs")
    return RunProfile(int(arr[0]), tuple(_run_lengths(arr).tolist()))


def run_compose(profile: RunProfile) -> BitString:
    """Inverse of run_decompose: expand a profile back into a string."""
    lengths = np.asarray(profile.lengths, dtype=np.int64)
    values = (profile.first_bit + np.arange(lengths.size)) % 2
    return BitString(np.repeat(values.astype(np.uint8), lengths))


def is_subsequence(t: BitString, x: BitString) -> bool:
    """True iff t can be obtained from x by deleting bits.

    Greedy left-to-right matching, advanced one run of t at a time via
    searchsorted over the value positions of x.
    """
    tb = _bits_of(t)
    xb = _bits_of(x)
    if tb.size == 0:
        return True
    if tb.size > xb.size:
        return False
    positions = (np.flatnonzero(xb == 0), np.flatnonzero(xb == 1))
    bounds = _run_bounds(tb)
    cursor = 0
    for k in range(bounds.size - 1):
        start = bounds[k]
        length = bounds[k + 1] - start
        pos = positions[tb[start]]
        i = np.searchsorted(pos, cursor)
        if i + length > pos.size:
            return False
        cursor = pos[i + length - 1] + 1
    return True


def pattern_at(s: BitString, span: PatternSpan) -> BitString:
    """The repeated block itself: the first period bits of the span."""
    if span.end > len(s):
        raise ValueError("span extends past the end of the string")
    return s[span.offset : span.offset + span.period]


def span_matches(s: BitString, span: PatternSpan) -> bool:
    """Check the span's self-consistency: the window really is the block repeated."""
    if span.end > len(s):
        return False
    window = s.bits[span.offset : span.end]
    block = window[: span.period]
    return bool(np.array_equal(window, np.tile(block, span.copies)))


@dataclass(frozen=True)
class RepeatBlockSpec:
    """Recipe for strings containing ``pattern`` repeated floor(ell * n**a) times.

    The block sits at offset 0; the suffix is filled with alternating single
    bits starting with the complement of the pattern's first bit, so the
    repeated block is never accidentally extended.
    """

    pattern: BitString
    ell: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pattern", BitString(self.pattern))
        if len(self.pattern) == 0:
            raise ValueError("pattern must be nonempty")
        if not 0 < self.ell <= 1:
            raise ValueError("ell must be in (0, 1]")
        if not 0 < self.a <= 1:
            raise ValueError("a must be in (0, 1]")

    def copies_for(self, n: int) -> int:
        return int(math.floor(self.ell * float(n) ** self.a + _FLOOR_EPS))


def make_repeat_instance(spec: RepeatBlockSpec, n: int) -> tuple[BitString, PatternSpan]:
    """Build a length-n string containing the requested repeated block, plus its span."""
    r = len(spec.pattern)
    f = spec.copies_for(n)
    if f < 1:
        raise ValueError(f"n={n} too small: copy count floor(ell*n^a) = {f} < 1")
    if r * f > n:
        raise ValueError(f"pattern block of {r * f} bits does not fit in n={n}")
    arr = np.empty(n, dtype=np.uint8)
    arr[: r * f] = np.tile(spec.pattern.bits, f)
    tail = n - r * f
    if tail:
        # alternating filler opening on the complement of the block's first
        # bit, so the span never silently gains an extra copy
        start = 1 - int(spec.pattern.bits[0])
        arr[r * f :] = (start + np.arange(tail)) % 2
    return BitString(arr), PatternSpan(offset=0, period=r, copies=f)


@dataclass(frozen=True)
class RunFractionSpec:
    """Recipe for strings with a fixed run count and run lengths ~ fractions[i] * n."""

    first_bit: int
    fractions: tuple[float, ...]

    def __post_init__(self):
        if self.first_bit not in (0, 1):
            raise ValueError("first_bit must be 0 or 1")
        object.__setattr__(self, "fractions", tuple(float(x) for x in self.fractions))
        if not self.fractions or any(x <= 0 for x in self.fractions):
            raise ValueError("fractions must be positive")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")


def rounded_run_lengths(fractions: Sequence[float], n: int) -> list[int]:
    """Deterministic rounding of fractions[i] * n to integer run lengths summing to n.

    Each run gets floor(fractions[i] * n); the remainder is handed out one
    bit at a time to runs in decreasing-fraction order, ties broken by index.
    """
    base = [int(math.floor(f * n + _FLOOR_EPS)) for f in fractions]
    rem = n - sum(base)
    if rem < 0:
        raise ValueError("fractions must sum to at most 1")
    order = sorted(range(len(fractions)), key=lambda i: (-fractions[i], i))
    for i in order[:rem]:
        base[i] += 1
    if any(x < 1 for x in base):
        raise ValueError("n too small for M runs")
    return base


def make_run_instance(spec: RunFractionSpec, n: int) -> BitString:
    """Build the length-n string with the requested run structure."""
    lengths = rounded_run_lengths(spec.fractions, n)
    return run_compose(RunProfile(spec.first_bit, tuple(lengths)))
