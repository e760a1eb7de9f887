"""Detectors for the channel-realization events that govern reconstruction.

All detectors look at deletion masks, not at the surviving bits: distinct
deletion patterns can produce identical traces, and the probability
formulas in `analytics` are statements about the realizations.

Two events matter:

* pattern witness — for a repeated block A^f inside the source, some trace's
  mask deletes no copy of A outright.  Without such a witness the trace set
  can never single out the source (see `detect_ambiguities`).
* run coverage — for every run i of the source there is a trace whose mask
  deleted no run completely and left run i untouched.  With coverage the
  maximal-runs reconstructor provably returns the source.

Coverage reads each (trace, run)'s count of deleted bits: np.add.reduceat
over the run segments on sources with long runs, one np.bincount over the
deleted bits per chunk of rows on sources with short runs
(BINCOUNT_RUN_LENGTH).  Both give the same integers, kept as the table of
clean runs, which trace deleted no bit of which run (_clean_runs).  The
harness's audit reads its declared patterns off the same table: each is a
pair of runs whose copies are single bits, so every trace wipes a copy
exactly when every trace deletes a bit of one run or of the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitString, PatternSpan, RunProfile, span_matches
from .channel import BLOCK_ELEMENTS, MaskedTrace

__all__ = [
    "EventReport",
    "SandwichPattern",
    "AdjacentPattern",
    "AmbiguityWitness",
    "copy_fully_deleted",
    "has_pattern_witness",
    "run_coverage",
    "detect_events",
    "detect_ambiguities",
]


# Run coverage counts each (trace, run)'s deleted bits.  np.add.reduceat costs
# about 7 ns per (trace, run) segment whatever the dtype, so on short runs one
# np.bincount over the deleted bits is faster; on long runs reduceat is.
# Sources whose runs average under this many bits take bincount.  On 32 traces
# of 3000 bits (in process, 2 cores, numpy 2.4), reduceat against bincount:
# mean run length 2: 0.69 against 0.28-0.32 ms; 4: 0.31-0.33 against
# 0.19-0.30; 6: 0.21-0.22 against 0.17-0.27; 8: 0.18-0.24 against 0.19-0.28;
# 40: 0.06 against 0.19.  At p = 0.5 bincount stops winning near 4-6, at
# p = 0.05-0.17 near 6-8.  Two runs over 2^23 bits: 5.5 against 97 ms.
BINCOUNT_RUN_LENGTH = 4


def _flags_matrix(traces: list[MaskedTrace], n: int) -> np.ndarray:
    if not traces:
        raise ValueError("need at least one trace")
    for mt in traces:
        if mt.source_length != n:
            raise ValueError("trace source length does not match")
    return np.vstack([mt.mask.flags for mt in traces])


def _copy_windows(flags: np.ndarray, span: PatternSpan) -> np.ndarray:
    """Masks (..., n) -> the span's copies as a (..., copies, period) view."""
    if span.end > flags.shape[-1]:
        raise ValueError("span extends past the source")
    return flags[..., span.offset : span.end].reshape(*flags.shape[:-1], span.copies, span.period)


def _copies_violated(flags: np.ndarray, spans) -> np.ndarray:
    """For masks of shape (..., n): is some aligned copy of some span fully
    deleted?  Each span's window is viewed as a (..., copies, period) block,
    so the check ANDs the period columns of every copy at once, never a loop
    over copies."""
    hit = np.zeros(flags.shape[:-1], dtype=bool)
    for span in spans:
        window = _copy_windows(flags, span)
        deleted = window[..., 0].copy()
        for j in range(1, span.period):
            deleted &= window[..., j]
        hit |= deleted.any(axis=-1)
    return hit


def _span_windows(span: PatternSpan):
    return [(span.offset + j * span.period, span.period) for j in range(span.copies)]


def _pattern_witness_from_flags(flags: np.ndarray, span: PatternSpan) -> np.ndarray:
    """Masks (..., T, n) -> (...): does some trace delete no copy of the span?"""
    return ~_copies_violated(flags, (span,)).all(axis=-1)


def _run_starts(lengths: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths[:-1])))


def _clean_runs(flags: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks (..., T, n) -> (clean (..., T, M), wiped (..., T)): trace t
    deleted no bit of run i; trace t deleted every bit of some run."""
    n, m = flags.shape[-1], len(lengths)
    if n >= BINCOUNT_RUN_LENGTH * m:
        # reduceat casts all of flags to the count type; int32 holds any run of
        # a mask with fewer than 2^31 columns at half the memory of int64
        count_type = np.int32 if n < 2**31 else np.int64
        counts = np.add.reduceat(flags, _run_starts(lengths), axis=-1, dtype=count_type)
        return counts == 0, (counts == lengths).any(axis=-1)
    # one bincount per chunk of rows: a deleted bit at column j of the chunk's
    # row r falls in bin r * M + (the run holding j)
    rows = flags.reshape(-1, n)
    clean, wiped = np.empty((len(rows), m), dtype=bool), np.empty(len(rows), dtype=bool)
    chunk = min(len(rows), max(1, BLOCK_ELEMENTS // n))
    bins = (np.arange(chunk)[:, np.newaxis] * m + np.repeat(np.arange(m), lengths)).ravel()
    for lo in range(0, len(rows), chunk):
        part = rows[lo : lo + chunk]
        counts = np.bincount(bins[np.flatnonzero(part)], minlength=len(part) * m).reshape(-1, m)
        clean[lo : lo + chunk], wiped[lo : lo + chunk] = counts == 0, (counts == lengths).any(axis=-1)
    return clean.reshape(*flags.shape[:-1], m), wiped.reshape(flags.shape[:-1])


def _covered_runs(clean: np.ndarray, wiped: np.ndarray) -> np.ndarray:
    """_clean_runs' tables -> per_run (..., M): some trace deleted no run
    completely while leaving run i untouched."""
    return (clean & ~wiped[..., np.newaxis]).any(axis=-2)


def copy_fully_deleted(mask, span: PatternSpan, copy_index: int) -> bool:
    """Did this mask delete every bit of the copy_index-th copy of the block?"""
    if not 0 <= copy_index < span.copies:
        raise ValueError(f"copy_index must be in [0, {span.copies}), got {copy_index}")
    return bool(_copy_windows(mask.flags, span)[copy_index].all())


def has_pattern_witness(traces: list[MaskedTrace], span: PatternSpan) -> bool:
    """True iff some trace's mask deletes no copy of the block in the span."""
    flags = _flags_matrix(traces, traces[0].source_length if traces else 0)
    return bool(_pattern_witness_from_flags(flags, span))


def run_coverage(traces: list[MaskedTrace], profile: RunProfile):
    """(covered, per_run): per_run[i] is True iff some trace deleted no run
    completely while leaving run i untouched; covered iff that holds for all i."""
    report = detect_events(traces, [], profile)
    return report.run_covered, report.per_run


@dataclass(frozen=True)
class EventReport:
    """Event outcomes for one trace set: pattern witness per declared span,
    plus run coverage with its per-run detail."""

    pattern_witness: tuple[bool, ...]
    run_covered: bool
    per_run: tuple[bool, ...]

    def __post_init__(self):
        if self.run_covered != all(self.per_run):
            raise ValueError("run_covered must equal the conjunction of per_run")


def detect_events(traces: list[MaskedTrace], spans: list[PatternSpan], profile: RunProfile) -> EventReport:
    flags = _flags_matrix(traces, profile.total)
    witness = tuple(bool(_pattern_witness_from_flags(flags, span)) for span in spans)
    per_run = _covered_runs(*_clean_runs(flags, np.asarray(profile.lengths, dtype=np.int64)))
    return EventReport(witness, bool(per_run.all()), tuple(per_run.tolist()))


@dataclass(frozen=True)
class SandwichPattern:
    """A contiguous window outer^left_copies + inner + outer^right_copies.

    Requires len(inner) <= len(outer) and inner != outer.  If every trace
    deletes one of the aligned outer copies outright, the trace set is
    ambiguous; the competing source swaps the window for
    outer^(left-1) inner outer inner 1^(len(outer)-len(inner)) outer^(right-1).
    """

    offset: int
    outer: BitString
    inner: BitString
    left_copies: int
    right_copies: int

    def __post_init__(self):
        object.__setattr__(self, "outer", BitString(self.outer))
        object.__setattr__(self, "inner", BitString(self.inner))
        if self.offset < 0 or self.left_copies < 1 or self.right_copies < 1:
            raise ValueError("need offset >= 0 and copies >= 1 on both sides")
        if len(self.inner) > len(self.outer):
            raise ValueError("inner block must not be longer than outer block")
        if self.inner == self.outer:
            raise ValueError("inner and outer blocks must differ")

    @property
    def end(self) -> int:
        return self.offset + (self.left_copies + self.right_copies) * len(self.outer) + len(self.inner)

    def window(self) -> BitString:
        return (
            BitString(np.tile(self.outer.bits, self.left_copies))
            + self.inner
            + BitString(np.tile(self.outer.bits, self.right_copies))
        )

    def copy_spans(self) -> tuple[PatternSpan, PatternSpan]:
        """The aligned outer copies left and right of the inner block."""
        w = len(self.outer)
        right = self.offset + self.left_copies * w + len(self.inner)
        return PatternSpan(self.offset, w, self.left_copies), PatternSpan(right, w, self.right_copies)

    def alternative_window(self) -> BitString:
        pad = BitString(np.ones(len(self.outer) - len(self.inner), dtype=np.uint8))
        return (
            BitString(np.tile(self.outer.bits, self.left_copies - 1))
            + self.inner
            + self.outer
            + self.inner
            + pad
            + BitString(np.tile(self.outer.bits, self.right_copies - 1))
        )


@dataclass(frozen=True)
class AdjacentPattern:
    """A contiguous window left^left_copies + right^right_copies of two
    distinct blocks.  If every trace deletes one of the aligned copies
    (either block) outright, the trace set is ambiguous; the competing
    source swaps the window for left^(l-1) right left right^(r-1)."""

    offset: int
    left: BitString
    left_copies: int
    right: BitString
    right_copies: int

    def __post_init__(self):
        object.__setattr__(self, "left", BitString(self.left))
        object.__setattr__(self, "right", BitString(self.right))
        if self.offset < 0 or self.left_copies < 1 or self.right_copies < 1:
            raise ValueError("need offset >= 0 and copies >= 1 on both sides")
        if not len(self.left) or not len(self.right):
            raise ValueError("blocks must be nonempty")
        if self.left == self.right:
            raise ValueError("blocks must differ")

    @property
    def end(self) -> int:
        return self.offset + self.left_copies * len(self.left) + self.right_copies * len(self.right)

    def window(self) -> BitString:
        return BitString(
            np.concatenate(
                [np.tile(self.left.bits, self.left_copies), np.tile(self.right.bits, self.right_copies)]
            )
        )

    def copy_spans(self) -> tuple[PatternSpan, PatternSpan]:
        """The aligned copies of the left block and of the right block."""
        lw = len(self.left)
        right = self.offset + self.left_copies * lw
        return (PatternSpan(self.offset, lw, self.left_copies),
                PatternSpan(right, len(self.right), self.right_copies))

    def alternative_window(self) -> BitString:
        return (
            BitString(np.tile(self.left.bits, self.left_copies - 1))
            + self.right
            + self.left
            + BitString(np.tile(self.right.bits, self.right_copies - 1))
        )


@dataclass(frozen=True)
class AmbiguityWitness:
    """Proof that a trace set cannot single out the source: a competing
    source of the same length from which every trace could equally arise.

    condition 1 = repeated block, 2 = sandwich, 3 = adjacent blocks.
    """

    condition: int
    pattern: object
    alternative: BitString


def _splice(s: BitString, start: int, end: int, replacement: BitString) -> BitString:
    return BitString(np.concatenate([s.bits[:start], replacement.bits, s.bits[end:]]))


def _copy_spans(pat) -> tuple[PatternSpan, ...]:
    """The aligned copies a declared pattern needs every trace to wipe."""
    return (pat,) if isinstance(pat, PatternSpan) else pat.copy_spans()


def _validated_alternative(s: BitString, pat) -> tuple[int, list, BitString]:
    """Check a declared pattern against s and build its competing source.

    Returns (condition number, copy windows as (start, length), alternative string).
    """
    n = len(s)
    if isinstance(pat, PatternSpan):
        if pat.end > n or not span_matches(s, pat):
            raise ValueError(f"declared pattern absent from source at {pat}")
        flipped = s.bits[pat.offset : pat.offset + pat.period].copy()
        flipped[0] ^= 1
        alt = _splice(s, pat.offset, pat.offset + pat.period, BitString(flipped))
        condition = 1
    elif isinstance(pat, (SandwichPattern, AdjacentPattern)):
        if pat.end > n or BitString(s.bits[pat.offset : pat.end]) != pat.window():
            raise ValueError(f"declared pattern absent from source at {pat}")
        alt = _splice(s, pat.offset, pat.end, pat.alternative_window())
        if alt == s:
            raise ValueError("degenerate declaration: competing source equals the source")
        condition = 2 if isinstance(pat, SandwichPattern) else 3
    else:
        raise TypeError(f"unknown pattern declaration {type(pat).__name__}")
    windows = [w for span in _copy_spans(pat) for w in _span_windows(span)]
    return condition, windows, alt


def detect_ambiguities(s: BitString, traces: list[MaskedTrace], patterns) -> list[AmbiguityWitness]:
    """Evaluate declared patterns against the masks; emit a witness for every
    pattern whose aligned copies were wiped out in every single trace."""
    flags = _flags_matrix(traces, len(s))
    out = []
    for pat in patterns:
        condition, _, alt = _validated_alternative(s, pat)
        if _copies_violated(flags, _copy_spans(pat)).all():
            out.append(AmbiguityWitness(condition=condition, pattern=pat, alternative=alt))
    return out
