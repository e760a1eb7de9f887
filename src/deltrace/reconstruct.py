"""Reconstruction from traces: the linear-time maximal-runs algorithm and the
product-automaton oracle that decides whether a trace set pins down a unique
length-n source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitString, _bits_of, _run_lengths, is_subsequence

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


def _run_alignment_misses(s: BitString, kept: np.ndarray) -> np.ndarray:
    """maximal_runs over a block of trace sets at once: for kept of shape
    (B, T, n), True where a bit of the nonempty source s survived, is the
    reconstruction from trace set b anything other than s?

    Equals ``not (maximal_runs(n, traces_b).ok and .string == s)`` for every
    b.  The traces are read as one concatenation of their surviving bits: a
    run starts at the first bit of a trace or where the bit changes.  Each
    trace set keeps its traces with the most runs, needs them to agree on
    the first bit, takes the longest i-th run over them and needs the runs
    to add up to n; the result is s exactly when it starts with s's first
    bit and has s's run lengths.
    """
    B, T, n = kept.shape
    lengths = _run_lengths(s.bits)
    rows = B * T
    kept = kept.reshape(rows, n)
    # The temporaries scale with the block, so each is dropped once spent, and
    # per-run indexes are int32: the harness's blocks hold at most
    # max(BLOCK_ELEMENTS, MAX_TRIAL_ELEMENTS) < 2^31 bits.
    count = np.count_nonzero(kept, axis=1)
    row_start = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(count, out=row_start[1:])
    nonempty = count > 0
    # surviving bits trace after trace; a run starts at the first bit of a
    # trace or where the bit changes
    val = np.broadcast_to(s.bits, (rows, n))[kept]
    size = val.size
    starts = np.empty(size, dtype=bool)
    np.not_equal(val[1:], val[:-1], out=starts[1:])
    starts[row_start[:-1][nonempty]] = True
    first_bit = np.full(rows, -1, dtype=np.int64)
    first_bit[nonempty] = val[row_start[:-1][nonempty]]
    del val
    run_at = np.flatnonzero(starts)
    del starts
    first_run = np.searchsorted(run_at, row_start)  # runs of trace r: first_run[r:r+2]
    run_len = np.empty(run_at.size, dtype=np.int32)
    np.subtract(run_at[1:], run_at[:-1], out=run_len[:-1], casting="same_kind")
    run_len[-1:] = size - run_at[-1:]
    del run_at
    runs = np.diff(first_run).reshape(B, T)
    m_hat = runs.max(axis=1)
    chosen = (runs == m_hat[:, np.newaxis]) & (m_hat[:, np.newaxis] > 0)
    first_bit = first_bit.reshape(B, T)
    first_max = np.where(chosen, first_bit, -1).max(axis=1)
    first_min = np.where(chosen, first_bit, 2).min(axis=1)
    agree = first_max == first_min

    # run k of trace r goes to table[r, k]; only the chosen traces count
    m = lengths.size
    width = max(m, int(m_hat.max()))
    table = np.zeros((rows, width), dtype=np.int32)
    at = np.repeat((np.arange(rows) * width - first_run[:-1]).astype(np.int32), runs.reshape(-1))
    at += np.arange(run_len.size, dtype=np.int32)
    table.reshape(-1)[at] = run_len
    del at, run_len
    table[~chosen.reshape(-1)] = 0
    best = table.reshape(B, T, width).max(axis=1)
    # for traces of s an exact match already implies agreement and the length
    # test; they stay so that the verdict is maximal_runs' own, not a
    # comparison of run counts that assumes its inputs
    ok = (m_hat > 0) & agree & (best.sum(axis=1, dtype=np.int64) == n)
    exact = (first_max == s.bits[0]) & (m_hat == m) & (best[:, :m] == lengths).all(axis=1)
    return ~(ok & exact)


# ---------------------------------------------------------------------------
# unique-source oracle

# States the oracle may visit, and sources consistent_sources may list.  Layer
# k holds at most 2^k states, so no n <= 20 is refused.  A montecarlo process
# running into it peaked at 76 MB with 4 traces and 682 MB with 32 (n = 100).
MAX_ORACLE_STATES = 1 << 21


class InfeasibleError(RuntimeError):
    """Structurally valid request that exceeds a hard resource cap (exit 3)."""


def _automaton(n: int, arrays):
    """Product automaton of the traces' greedy subsequence matchers (after V. I.
    Levenshtein, J. Combin. Theory Ser. A 93, 2001).  A state is one pointer
    per trace; a bit advances each pointer whose next trace bit it equals.
    Layer k keeps the states k bits reach from which no trace needs more than
    the n - k bits left.  children[k][b, j] is the layer-(k + 1) index of state
    j after bit b, or -1; counts[k][j] counts the (n - k)-bit strings taking
    state j to every trace's end, and counts[k][-1] is 0."""
    arrays = list(arrays) or [np.zeros(0, dtype=np.uint8)]
    lens = np.array([a.size for a in arrays], dtype=np.int32)
    traces = np.arange(len(arrays))
    # step[b, i, q]: trace i's pointer q after reading bit b
    step = np.tile(np.arange(lens.max() + 1, dtype=np.int32), (2, len(arrays), 1))
    for i, a in enumerate(arrays):
        step[a, i, np.arange(a.size)] += 1
    rows = np.zeros((1, len(arrays)), dtype=np.int32)
    visited = 1
    children = []
    for k in range(n):
        nxt = np.concatenate([step[0, traces, rows], step[1, traces, rows]])
        live = np.flatnonzero((nxt >= lens - (n - k - 1)).all(axis=1))
        # deduplicate: sort the live states, keep the first of each equal run
        order = live[np.lexsort(nxt[live].T)]
        rows = nxt[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        child = np.full(nxt.shape[0], -1, dtype=np.int32)
        child[order] = np.cumsum(new) - 1
        children.append(child.reshape(2, -1))
        rows = rows[new]
        visited += rows.shape[0]
        if visited > MAX_ORACLE_STATES:
            raise InfeasibleError(f"the sufficiency oracle passed its budget of "
                                  f"{MAX_ORACLE_STATES} automaton states at bit {k + 1} of {n}")
    # counts reach 2^n, past int64 from n = 63 on
    counts = [np.append((rows == lens).all(axis=1), 0).astype(np.int64 if n < 63 else object)]
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


def _count_consistent(n: int, arrays) -> int:
    """How many length-n strings embed every trace, given as bit arrays."""
    return int(_automaton(n, arrays)[1][0][0])


def consistent_sources(n: int, traces) -> list[BitString]:
    """All length-n strings of which every trace is a subsequence, in
    lexicographic order; more than MAX_ORACLE_STATES raise InfeasibleError."""
    if n < 0:
        raise ValueError("n must be >= 0")
    children, counts = _automaton(n, [_bits_of(t) for t in traces])
    if counts[0][0] > MAX_ORACLE_STATES:
        raise InfeasibleError(f"{counts[0][0]} consistent sources exceed {MAX_ORACLE_STATES}")
    return _sources(n, children, counts, MAX_ORACLE_STATES)


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Is the trace set enough to single out its source?  consistent_count
    is the number of length-n candidates embedding every trace; a witness is
    provided whenever some other candidate survives."""

    consistent_count: int
    sufficient: bool
    witness: BitString | None = None

    def __post_init__(self):
        if self.sufficient != (self.consistent_count == 1):
            raise ValueError("sufficient must mean exactly one consistent source")


def is_levenshtein_sufficient(s: BitString, traces) -> SufficiencyVerdict:
    """Decide whether the traces admit s as the only length-|s| source; the
    witness is the lexicographically first other consistent source."""
    s = s if isinstance(s, BitString) else BitString(s)
    traces = list(traces)
    for t in traces:
        if not is_subsequence(t, s):
            raise ValueError("traces inconsistent with source")
    children, counts = _automaton(len(s), [_bits_of(t) for t in traces])
    count = int(counts[0][0])
    witness = next((x for x in _sources(len(s), children, counts, 2) if x != s), None)
    return SufficiencyVerdict(consistent_count=count, sufficient=count == 1, witness=witness)
