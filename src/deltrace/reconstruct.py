"""Reconstruction from traces: the linear-time maximal-runs algorithm, and
the product-automaton oracle that counts and lists the length-n sources
consistent with a trace set.  It shares the matchers, state keys and state
budget of the kernel's uniqueness oracle, which decides instead of counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .bits import BitString, _bits_of, _run_lengths, is_subsequence
from .kernel import InfeasibleError, _check_budget, _distinct, _matchers, _state_keys

__all__ = [
    "FIRST_BIT_MISMATCH",
    "LENGTH_MISMATCH",
    "EMPTY_TRACE_SET",
    "ReconstructionResult",
    "SufficiencyVerdict",
    "maximal_runs",
    "consistent_sources",
    "is_levenshtein_sufficient",
]

FIRST_BIT_MISMATCH = "first-bit mismatch"
LENGTH_MISMATCH = "length mismatch"
EMPTY_TRACE_SET = "empty trace set"


@dataclass(frozen=True)
class ReconstructionResult:
    """Either a reconstructed string or a named failure reason."""

    string: BitString | None = None
    failure: str | None = None

    def __post_init__(self):
        if (self.string is None) == (self.failure is None):
            raise ValueError("exactly one of string/failure must be set")

    @property
    def ok(self) -> bool:
        return self.failure is None


def maximal_runs(n: int, traces) -> ReconstructionResult:
    """Reconstruct a length-n source from traces by run alignment.

    Take the traces with the maximal run count; if they agree on the first
    bit, output the longest observed i-th run for each i.  The result is
    returned only when those runs add up to exactly n bits.  O(n * T).
    """
    traces = list(traces)
    if not traces:
        return ReconstructionResult(failure=EMPTY_TRACE_SET)
    arrays = [_bits_of(t) for t in traces]
    lengths = [_run_lengths(a) for a in arrays]
    m_hat = max(l.size for l in lengths)
    if m_hat == 0:
        # every trace is empty: nothing to align
        if n == 0:
            return ReconstructionResult(string=BitString(()))
        return ReconstructionResult(failure=LENGTH_MISMATCH)
    chosen = [i for i, l in enumerate(lengths) if l.size == m_hat]
    first_bits = {int(arrays[i][0]) for i in chosen}
    if len(first_bits) != 1:
        return ReconstructionResult(failure=FIRST_BIT_MISMATCH)
    best = lengths[chosen[0]]
    for i in chosen[1:]:
        best = np.maximum(best, lengths[i])
    if int(best.sum()) != n:
        return ReconstructionResult(failure=LENGTH_MISMATCH)
    first = first_bits.pop()
    values = ((first + np.arange(m_hat)) % 2).astype(np.uint8)
    return ReconstructionResult(string=BitString(np.repeat(values, best)))


def _automaton(n: int, padded, lens):
    """Product automaton of the B sets of T greedy matchers (padded, lens) from
    _matchers (after V. I. Levenshtein, J. Combin. Theory Ser. A 93, 2001).  A
    state is its set, the owner, and one pointer per trace; a bit advances each
    pointer whose next trace bit it equals.  Layer 0 is state b for set b, and
    layer k keeps the states k bits reach from which no trace needs more than
    the n - k bits left.  children[k][b, j] is the layer-(k + 1) index of state
    j after bit b, or -1; counts[k][j] counts the (n - k)-bit strings taking
    state j to every trace's end, counts[k][-1] is 0, and counts[0][:B] are the
    sets' counts."""
    bit, traces = np.arange(2).reshape(2, 1, 1), np.arange(lens.shape[1])
    owner, rows = np.arange(lens.shape[0]), np.zeros(lens.shape, dtype=np.int32)
    pointer_bits, owner_bits = int(lens.max(initial=0)).bit_length(), (lens.shape[0] - 1).bit_length()
    visited = lens.shape[0]
    children = []
    for k in range(n):
        # the pointers after each bit, (2, states, T) in C order and with no
        # temporary of that shape, so the reshape below copies nothing; no trace
        # of a live state needs more than the n - k - 1 bits left
        nxt = np.equal(padded[owner[:, None], traces, rows], bit, out=np.empty((2, *rows.shape), dtype=np.int32))
        nxt += rows
        live = np.flatnonzero((nxt >= lens[owner] - (n - k - 1)).all(axis=-1))
        nxt, owner = nxt.reshape(-1, traces.size), np.tile(owner, 2)
        order, new = _distinct(_state_keys(nxt, live, owner, pointer_bits, owner_bits))
        order = live[order]
        child = np.full(nxt.shape[0], -1, dtype=np.int32)
        child[order] = np.cumsum(new) - 1
        children.append(child.reshape(2, -1))
        order = order[new]
        rows, owner = nxt[order], owner[order]
        visited += rows.shape[0]
        _check_budget(visited, k, n)
    # counts reach 2^n, past int64 from n = 63 on
    counts = [np.append((rows == lens[owner]).all(axis=1), 0).astype(np.int64 if n < 63 else object)]
    for child in reversed(children):
        counts.append(np.append(counts[-1][child[0]] + counts[-1][child[1]], 0))
    return children, counts[::-1]




def _sources(n: int, children, counts, limit: int) -> list[BitString]:
    """The consistent sources of rank 0 to limit - 1 in lexicographic order: rank
    r takes bit 0 if r < c0, the completions through bit 0, else bit 1, rank r - c0."""
    rank = np.arange(min(int(counts[0][0]), limit))
    state = np.zeros(rank.size, dtype=np.int64)
    bits = np.empty((rank.size, n), dtype=np.uint8)
    for k in range(n):
        zeros = counts[k + 1][children[k][0, state]]
        bits[:, k] = rank >= zeros
        rank = rank - zeros * bits[:, k]
        state = children[k][bits[:, k], state]
    return [BitString(row) for row in bits]


def consistent_sources(n: int, traces) -> list[BitString]:
    """All length-n strings of which every trace is a subsequence, in
    lexicographic order; more than kernel.MAX_ORACLE_STATES raise InfeasibleError."""
    if n < 0:
        raise ValueError("n must be >= 0")
    arrays = [_bits_of(t) for t in traces] or [np.zeros(0, dtype=np.uint8)]
    children, counts = _automaton(n, *_matchers(np.concatenate(arrays), [[a.size for a in arrays]]))
    budget = kernel.MAX_ORACLE_STATES  # read per call, so a patched budget holds
    if counts[0][0] > budget:
        raise InfeasibleError(f"{counts[0][0]} consistent sources exceed {budget}")
    return _sources(n, children, counts, budget)


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Is the trace set enough to single out its source?  consistent_count
    is the number of length-n candidates embedding every trace; a witness is
    provided whenever some other candidate survives."""

    consistent_count: int
    witness: BitString | None = None

    @property
    def sufficient(self) -> bool:
        return self.consistent_count == 1


def is_levenshtein_sufficient(s: BitString, traces) -> SufficiencyVerdict:
    """Decide whether the traces admit s as the only length-|s| source; the
    witness is the lexicographically first other consistent source."""
    s = s if isinstance(s, BitString) else BitString(s)
    arrays = [_bits_of(t) for t in traces] or [np.zeros(0, dtype=np.uint8)]
    for t in arrays:
        if not is_subsequence(t, s):
            raise ValueError("traces inconsistent with source")
    children, counts = _automaton(len(s), *_matchers(np.concatenate(arrays), [[a.size for a in arrays]]))
    witness = next((x for x in _sources(len(s), children, counts, 2) if x != s), None)
    return SufficiencyVerdict(consistent_count=int(counts[0][0]), witness=witness)
