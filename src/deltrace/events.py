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

The mask stages behind both, _span_wiped and run coverage (_RunTables,
_clean_runs, _covered_runs), live in kernel, where the harness's Monte Carlo
kernel runs them a block of trials at a time; the detectors here run them on
one trace set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitString, PatternSpan, RunProfile, span_matches
from .channel import MaskedTrace
from .kernel import _clean_runs, _covered_runs, _RunTables, _span_wiped

__all__ = [
    "EventReport",
    "SandwichPattern",
    "AdjacentPattern",
    "AmbiguityWitness",
    "detect_events",
    "detect_ambiguities",
]


def _flags_matrix(traces: list[MaskedTrace], n: int) -> np.ndarray:
    if not traces:
        raise ValueError("need at least one trace")
    for mt in traces:
        if mt.source_length != n:
            raise ValueError("trace source length does not match")
    return np.vstack([mt.mask.flags for mt in traces])


def _copies_violated(flags: np.ndarray, spans) -> np.ndarray:
    """For masks of shape (..., n): is some aligned copy of some span fully
    deleted?  Never a loop over copies (see _span_wiped)."""
    hit = np.zeros(flags.shape[:-1], dtype=bool)
    for span in spans:
        hit |= _span_wiped(flags, span)
    return hit


def _span_windows(span: PatternSpan):
    return [(span.offset + j * span.period, span.period) for j in range(span.copies)]


@dataclass(frozen=True)
class EventReport:
    """Event outcomes for one trace set: pattern witness per declared span,
    plus run coverage with its per-run detail."""

    pattern_witness: tuple[bool, ...]
    per_run: tuple[bool, ...]

    @property
    def run_covered(self) -> bool:
        return all(self.per_run)


def detect_events(traces: list[MaskedTrace], spans: list[PatternSpan], profile: RunProfile) -> EventReport:
    flags = _flags_matrix(traces, profile.total)
    # some trace deleted no copy of the span outright
    witness = tuple(not _span_wiped(flags, span).all() for span in spans)
    per_run = _covered_runs(*_clean_runs(flags, _RunTables(np.asarray(profile.lengths, dtype=np.int64))))
    return EventReport(witness, tuple(per_run.tolist()))


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
