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

Coverage reads, for each (trace, run), whether the mask deleted some bit of
the run and whether it deleted every bit: by clipped gathers on runs shorter
than SHORT_RUN_LENGTH bits and by np.add.reduceat on the others, kept as
the table of clean runs, which trace deleted no bit of which run
(_clean_runs).  The Monte Carlo kernel builds the runs' index arrays once per
run (_RunTables); each call allocates its own tables.  The harness's audit
reads its declared patterns off the same table: each is a pair of runs whose
copies are single bits, so every trace wipes a copy exactly when every trace
deletes a bit of one run or of the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitString, PatternSpan, RunProfile, span_matches
from .channel import MaskedTrace

__all__ = [
    "EventReport",
    "SandwichPattern",
    "AdjacentPattern",
    "AmbiguityWitness",
    "detect_events",
    "detect_ambiguities",
]


# Run coverage reads, per (trace, run), whether some bit and whether every bit
# was deleted.  Runs shorter than this many bits are gathered: for each offset
# k below the longest of them, one np.take of column min(start + k, last) per
# run, OR-folded and AND-folded, so the gathers read about one column per mask
# column whatever the lengths.  Longer runs take np.add.reduceat, about 7 ns per
# (trace, run) segment, plus a cast of the mask to the count type.  _clean_runs
# on one block of 32 x 3000 bits at p = 0.17 (in process, 2 cores, numpy 2.4),
# all gathered against all to reduceat: runs of 1-2 bits 0.10-0.16 against
# 1.0-1.2 ms; 4: 0.11 against 0.56; 8: 0.12 against 0.33; 12: 0.20 against
# 0.24; 16: 0.26 against 0.19.  A higher cutoff would move mc-short's runs of
# 4-12 bits off reduceat; it stays at 4.
SHORT_RUN_LENGTH = 4


def _flags_matrix(traces: list[MaskedTrace], n: int) -> np.ndarray:
    if not traces:
        raise ValueError("need at least one trace")
    for mt in traces:
        if mt.source_length != n:
            raise ValueError("trace source length does not match")
    return np.vstack([mt.mask.flags for mt in traces])


def _span_wiped(flags: np.ndarray, span: PatternSpan) -> np.ndarray:
    """Masks (..., n) -> (...): is some aligned copy of span fully deleted?
    The window is viewed as a (..., copies, period) block, so the check ANDs
    the period columns of every copy at once; a period of 1 reads the mask
    itself."""
    if span.end > flags.shape[-1]:
        raise ValueError("span extends past the source")
    window = flags[..., span.offset : span.end].reshape(*flags.shape[:-1], span.copies, span.period)
    if span.period == 1:
        deleted = window[..., 0]
    else:
        deleted = np.logical_and(window[..., 0], window[..., 1])
        for j in range(2, span.period):
            deleted &= window[..., j]
    return np.any(deleted, axis=-1)


def _copies_violated(flags: np.ndarray, spans) -> np.ndarray:
    """For masks of shape (..., n): is some aligned copy of some span fully
    deleted?  Never a loop over copies (see _span_wiped)."""
    hit = np.zeros(flags.shape[:-1], dtype=bool)
    for span in spans:
        hit |= _span_wiped(flags, span)
    return hit


def _span_windows(span: PatternSpan):
    return [(span.offset + j * span.period, span.period) for j in range(span.copies)]


def _pattern_witness_from_flags(flags: np.ndarray, span: PatternSpan) -> np.ndarray:
    """Masks (..., T, n) -> (...): does some trace delete no copy of the span?"""
    return ~_copies_violated(flags, (span,)).all(axis=-1)


class _RunTables:
    """Run coverage's index arrays for one run table: the columns gathered
    and the segments counted.  _clean_runs allocates its tables per call.

    Runs are routed by length (SHORT_RUN_LENGTH): the short ones are
    gathered, the long ones counted by reduceat, and their columns are
    tabled in that order, then put back in run order unless they already are.
    """

    def __init__(self, lengths: np.ndarray):
        starts = np.zeros_like(lengths)
        np.cumsum(lengths[:-1], out=starts[1:])
        n = int(lengths.sum())
        short = lengths < SHORT_RUN_LENGTH
        s = int(np.count_nonzero(short))
        # column min(start + k, last) of each short run for k below the
        # longest: a repeated column changes neither the OR nor the AND
        first, short_lengths = (starts, lengths) if s == len(lengths) else (starts[short], lengths[short])
        self.columns = [first] if s else []
        if s and short_lengths.max() > 1:
            last = first + short_lengths - 1
            self.columns += [np.minimum(first + k, last) for k in range(1, short_lengths.max())]
        # each long run's [start, end) segment, every other reduceat result;
        # an end at n is implicit
        self.long_lengths = lengths[~short]
        long_starts = starts[~short]
        edges = np.column_stack([long_starts, long_starts + self.long_lengths]).ravel()
        self.edges = edges[:-1] if edges.size and edges[-1] == n else edges
        # each run's column among the short runs then the long ones, unless a
        # short run follows a long one, that is its own
        self.order = np.argsort(np.argsort(~short, kind="stable")) if np.any(short[1:] > short[:-1]) else None
        # reduceat casts the mask to the count type; int32 holds any run of
        # a mask with fewer than 2^31 columns at half the memory of int64
        self.count_type = np.int32 if n < 2**31 else np.int64


def _clean_runs(flags: np.ndarray, runs: _RunTables) -> tuple[np.ndarray, np.ndarray]:
    """Masks (..., T, n) -> (clean (..., T, M), wiped (..., T)): trace t
    deleted no bit of run i; trace t deleted every bit of some run, for the
    runs whose index arrays runs holds."""
    wiped = np.zeros(flags.shape[:-1], dtype=bool)
    routed = []  # clean runs, short then long
    if runs.columns:
        # some bit deleted, and (past one offset) every bit deleted, per short
        # run; each gather and every are freed once read, to hold the peak down
        some = np.take(flags, runs.columns[0], axis=-1, mode="clip")
        every = some.copy() if len(runs.columns) > 1 else some
        for columns in runs.columns[1:]:
            gathered = np.take(flags, columns, axis=-1, mode="clip")
            some |= gathered
            every &= gathered
            del gathered
        np.any(every, axis=-1, out=wiped)
        del every
        routed.append(np.logical_not(some, out=some))
    if runs.edges.size:
        counts = np.add.reduceat(flags, runs.edges, axis=-1, dtype=runs.count_type)[..., ::2]
        wiped |= np.any(counts == runs.long_lengths, axis=-1)
        routed.append(counts == 0)
        del counts
    clean = routed[0] if len(routed) == 1 else np.concatenate(routed, axis=-1)
    if runs.order is None:
        return clean, wiped
    return np.take(clean, runs.order, axis=-1, mode="clip"), wiped


def _covered_runs(clean: np.ndarray, wiped: np.ndarray) -> np.ndarray:
    """_clean_runs' tables -> per_run (..., M): some trace deleted no run
    completely while leaving run i untouched."""
    kept = np.greater(clean, wiped[..., np.newaxis])  # clean and not wiped
    return np.any(kept, axis=-2)


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
    per_run = _covered_runs(*_clean_runs(flags, _RunTables(np.asarray(profile.lengths, dtype=np.int64))))
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
