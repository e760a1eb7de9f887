"""Reconstruction from traces: the linear-time maximal-runs algorithm and the
exponential brute-force oracle that decides whether a trace set pins down a
unique length-n source.
"""

from __future__ import annotations

import warnings
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

# 2^n candidates with next-occurrence tables; beyond this the tables alone
# pass ~60 MB and enumeration stops being a desk-scale oracle.
DEFAULT_ORACLE_CAP = 20


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


# Blocks with fewer bits than this index their runs with int32.
_INDEX32_LIMIT = 2**31


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
    # The temporaries scale with the block, so each is dropped once spent and
    # per-run indexes are int32 whenever the block has fewer than 2^31 bits.
    index = np.int32 if kept.size < _INDEX32_LIMIT else np.int64
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
    run_len = np.empty(run_at.size, dtype=index)
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
    table = np.zeros((rows, width), dtype=index)
    at = np.repeat((np.arange(rows) * width - first_run[:-1]).astype(index), runs.reshape(-1))
    at += np.arange(run_len.size, dtype=index)
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
# brute-force unique-source oracle

_TABLES: dict[int, tuple] = {}


def _tables(n: int):
    """Candidate matrix in lexicographic order plus next-occurrence tables.

    Row i of the candidate matrix is the length-n binary expansion of i
    (leftmost bit most significant), so row order == lexicographic order.
    nxt[b][i, j] is the first position >= j where candidate i carries bit b,
    with n as the not-found sentinel.
    """
    cached = _TABLES.get(n)
    if cached is not None:
        return cached
    count = 1 << n
    if n:
        shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
        cand = ((np.arange(count, dtype=np.uint32)[:, None] >> shifts) & 1).astype(np.uint8)
    else:
        cand = np.zeros((1, 0), dtype=np.uint8)
    nxt = np.full((2, count, n + 1), n, dtype=np.int16)
    for j in range(n - 1, -1, -1):
        for b in (0, 1):
            nxt[b, :, j] = np.where(cand[:, j] == b, j, nxt[b, :, j + 1])
    ones = cand.sum(axis=1, dtype=np.int16)
    _TABLES[n] = (cand, nxt, ones)
    return _TABLES[n]


def _consistent_rows(n: int, arrays) -> np.ndarray:
    cand, nxt, ones = _tables(n)
    alive = np.arange(1 << n, dtype=np.int64)
    need_one = max((int((a == 1).sum()) for a in arrays), default=0)
    need_zero = max((int((a == 0).sum()) for a in arrays), default=0)
    alive = alive[(ones[alive] >= need_one) & (n - ones[alive] >= need_zero)]
    for a in sorted(arrays, key=len, reverse=True):
        if a.size == 0 or alive.size == 0:
            break
        pos = np.zeros(alive.size, dtype=np.int16)
        for b in a:
            hit = nxt[b, alive, pos]
            keep = hit < n
            alive = alive[keep]
            if alive.size == 0:
                break
            pos = hit[keep] + 1
    return alive


def consistent_sources(n: int, traces, cap: int = DEFAULT_ORACLE_CAP) -> list[BitString]:
    """All length-n strings of which every trace is a subsequence, in
    lexicographic order.  Exhaustive over 2^n candidates, hence the cap."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise ValueError(f"brute-force infeasible: n={n} exceeds cap {cap}")
    if n > DEFAULT_ORACLE_CAP:
        warnings.warn(f"enumerating 2^{n} candidates; expect heavy memory use", stacklevel=2)
    arrays = [_bits_of(t) for t in traces]
    if any(a.size > n for a in arrays):
        return []
    rows = _consistent_rows(n, arrays)
    cand = _tables(n)[0]
    return [BitString(cand[i]) for i in rows]


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


def is_levenshtein_sufficient(s: BitString, traces, cap: int = DEFAULT_ORACLE_CAP) -> SufficiencyVerdict:
    """Decide by brute force whether the traces admit s as the only source."""
    s = s if isinstance(s, BitString) else BitString(s)
    traces = list(traces)
    for t in traces:
        if not is_subsequence(t, s):
            raise ValueError("traces inconsistent with source")
    sources = consistent_sources(len(s), traces, cap=cap)
    count = len(sources)
    if count == 1:
        return SufficiencyVerdict(consistent_count=1, sufficient=True)
    witness = next(x for x in sources if x != s)
    return SufficiencyVerdict(consistent_count=count, sufficient=False, witness=witness)
