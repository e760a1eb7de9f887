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


def _run_alignment_misses(s: BitString, bits: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """maximal_runs over a block of trace sets at once: for B sets of T traces
    of the nonempty source s, given as _matchers takes them (their bits trace
    after trace and their (B, T) lengths), is the reconstruction from trace
    set b anything other than s?

    Equals ``not (maximal_runs(n, traces_b).ok and .string == s)`` for every
    b.  The traces are read as one concatenation of their surviving bits: a
    run starts at the first bit of a trace or where the bit changes.
    maximal_runs keeps the traces with the most runs, m_hat, and returns s
    exactly when those traces (i) have s's M runs, (ii) each start with s's
    first bit and (iii) have elementwise-longest i-th runs equal to s's run
    lengths.  Its other tests are implied for any trace set: (ii) makes the
    kept traces agree on the first bit, (i) gives m_hat = M > 0, and (iii)
    makes the runs add up to n.
    """
    B, T = lens.shape
    lengths = _run_lengths(s.bits)
    rows = B * T
    # The temporaries scale with the block, so each is dropped once spent, and
    # per-run indexes are int32: the harness's blocks hold at most
    # max(BLOCK_ELEMENTS, MAX_TRIAL_ELEMENTS) < 2^31 bits.
    count = lens.reshape(rows)
    row_start = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(count, out=row_start[1:])
    nonempty = count > 0
    # a run starts at the first bit of a trace or where the bit changes
    starts = np.empty(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    starts[row_start[:-1][nonempty]] = True
    first_bit = np.full(rows, -1, dtype=np.int64)
    first_bit[nonempty] = bits[row_start[:-1][nonempty]]
    run_at = np.flatnonzero(starts)
    del starts
    first_run = np.searchsorted(run_at, row_start)  # runs of trace r: first_run[r:r+2]
    run_len = np.empty(run_at.size, dtype=np.int32)
    np.subtract(run_at[1:], run_at[:-1], out=run_len[:-1], casting="same_kind")
    run_len[-1:] = bits.size - run_at[-1:]
    del run_at
    runs = np.diff(first_run).reshape(B, T)
    chosen = runs == runs.max(axis=1, keepdims=True)
    # (i): only the kept traces of sets with m_hat = M fill their row of the
    # table; every other set keeps zero rows, which fail (iii)
    m = lengths.size
    full = np.flatnonzero(chosen & (runs == m))
    table = np.zeros((rows, m), dtype=np.int32)
    table[full] = run_len[first_run[full].astype(np.int32)[:, np.newaxis] + np.arange(m, dtype=np.int32)]
    del run_len
    best = table.reshape(B, T, m).max(axis=1)
    first_ok = (first_bit.reshape(B, T) == s.bits[0]) | ~chosen  # (ii)
    return ~(first_ok.all(axis=1) & (best == lengths).all(axis=1))


# ---------------------------------------------------------------------------
# unique-source oracle

# States one oracle call may visit, summed over lengths and trace sets, and
# sources consistent_sources may list.  Layer k of one set holds at most 2^k
# states, so no n <= 20 is refused.  A montecarlo process running into it
# peaked at 76 MB with 4 traces and 682 MB with 32 (n = 100).  The block's
# matcher table (_matchers, 8 bytes per trace and bit of the longest trace) is
# built once before any call and split by view, so it is not counted.
MAX_ORACLE_STATES = 1 << 21


class InfeasibleError(RuntimeError):
    """Structurally valid request that exceeds a hard resource cap (exit 3)."""


def _matchers(bits, lens):
    """Greedy subsequence matchers of B sets of T traces, from their bits trace
    after trace and their (B, T) lengths: step[b, o, i, q] is pointer q of set
    o's trace i after bit b.  Each trace is padded with 2, which no bit matches."""
    lens = np.asarray(lens, dtype=np.int32)  # read per automaton state, as the pointers are
    pointer = np.arange(lens.max(initial=0) + 1, dtype=np.int32)
    padded = np.full((*lens.shape, pointer.size), 2, dtype=np.uint8)
    padded[pointer < lens[..., np.newaxis]] = bits
    return pointer + (padded == np.arange(2).reshape(2, 1, 1, 1)), lens


def _embeds(step, lens, x) -> np.ndarray:
    """For each set of the matchers, is every one of its traces a subsequence
    of x?  x is read once, through every trace's matcher at once."""
    sets, traces = np.ogrid[:lens.shape[0], :lens.shape[1]]
    pointer = np.zeros(lens.shape, dtype=np.int32)
    for bit in _bits_of(x):
        pointer = step[bit, sets, traces, pointer]
    return (pointer == lens).all(axis=1)


def _automaton(n: int, step, lens):
    """Product automaton of the B sets of T greedy matchers (step, lens) from
    _matchers (after V. I. Levenshtein, J. Combin. Theory Ser. A 93, 2001).  A
    state is its set, the owner, and one pointer per trace; a bit advances each
    pointer whose next trace bit it equals.  Layer 0 is state b for set b, and
    layer k keeps the states k bits reach from which no trace needs more than
    the n - k bits left.  children[k][b, j] is the layer-(k + 1) index of state
    j after bit b, or -1; counts[k][j] counts the (n - k)-bit strings taking
    state j to every trace's end, counts[k][-1] is 0, and counts[0][:B] are the
    sets' counts."""
    traces = np.arange(lens.shape[1])
    owner, rows = np.arange(lens.shape[0]), np.zeros(lens.shape, dtype=np.int32)
    visited = lens.shape[0]
    children = []
    for k in range(n):
        nxt = step[:, owner[:, None], traces, rows].reshape(-1, traces.size)
        owner = np.tile(owner, 2)
        live = np.flatnonzero((nxt >= lens[owner] - (n - k - 1)).all(axis=1))
        # deduplicate: sort the live states by owner, then pointers, keep the first of each equal run
        order = live[np.lexsort((*nxt[live].T, owner[live]))]
        rows, owner = nxt[order], owner[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1) | (owner[1:] != owner[:-1])
        child = np.full(nxt.shape[0], -1, dtype=np.int32)
        child[order] = np.cumsum(new) - 1
        children.append(child.reshape(2, -1))
        rows, owner = rows[new], owner[new]
        visited += rows.shape[0]
        if visited > MAX_ORACLE_STATES:
            raise InfeasibleError(f"the sufficiency oracle passed its budget of "
                                  f"{MAX_ORACLE_STATES} automaton states at bit {k + 1} of {n}")
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
    lexicographic order; more than MAX_ORACLE_STATES raise InfeasibleError."""
    if n < 0:
        raise ValueError("n must be >= 0")
    arrays = [_bits_of(t) for t in traces] or [np.zeros(0, dtype=np.uint8)]
    children, counts = _automaton(n, *_matchers(np.concatenate(arrays), [[a.size for a in arrays]]))
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
    arrays = [_bits_of(t) for t in traces] or [np.zeros(0, dtype=np.uint8)]
    for t in arrays:
        if not is_subsequence(t, s):
            raise ValueError("traces inconsistent with source")
    children, counts = _automaton(len(s), *_matchers(np.concatenate(arrays), [[a.size for a in arrays]]))
    count = int(counts[0][0])
    witness = next((x for x in _sources(len(s), children, counts, 2) if x != s), None)
    return SufficiencyVerdict(consistent_count=count, sufficient=count == 1, witness=witness)
