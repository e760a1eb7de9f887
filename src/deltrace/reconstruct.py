"""Reconstruction from traces: the linear-time maximal-runs algorithm, the
product-automaton oracle that counts and lists the length-n sources consistent
with a trace set, and the uniqueness oracle the Monte Carlo kernel runs, which
only decides whether the source is the one such string and stops at the first
witness of another.
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


def _run_alignment_misses(s: BitString, padded) -> np.ndarray:
    """maximal_runs over a block of trace sets at once: for B sets of T traces
    of the nonempty source s, their padded bits from _matchers, is the
    reconstruction from trace set b anything other than s?

    Equals ``not (maximal_runs(n, traces_b).ok and .string == s)`` for every
    b.  A run starts at bit 0, where the bit changes, and so at the trace's
    end, where the padding 2 differs from both bits, and at no column past it.
    maximal_runs keeps the traces with the most runs, m_hat, and returns s
    exactly when those traces (i) have s's M runs, (ii) each start with s's
    first bit and (iii) have elementwise-longest i-th runs equal to s's run
    lengths.  Its other tests are implied for any trace set: (ii) makes the
    kept traces agree on the first bit, (i) gives m_hat = M > 0, and (iii)
    makes the runs add up to n.
    """
    lengths = _run_lengths(s.bits)
    m = lengths.size
    starts = np.ones(padded.shape, dtype=bool)
    np.not_equal(padded[..., 1:], padded[..., :-1], out=starts[..., 1:])
    runs = np.count_nonzero(starts, axis=-1) - 1
    chosen = runs == runs.max(axis=1, keepdims=True)
    # (i): only the kept traces of sets with m_hat = M fill their row of the
    # table; every other set keeps zero rows, which fail (iii)
    full = chosen & (runs == m)
    table = np.zeros((*runs.shape, m), dtype=np.int32)
    table[full] = np.diff(np.flatnonzero(starts[full]).reshape(-1, m + 1))
    first_ok = (padded[..., 0] == s.bits[0]) | ~chosen  # (ii)
    return ~(first_ok.all(axis=1) & (table.max(axis=1) == lengths).all(axis=1))


# ---------------------------------------------------------------------------
# unique-source oracle

# States one oracle call may visit, summed over lengths and trace sets, and
# sources consistent_sources may list.  Layer k of one set holds at most 2^k
# automaton states, and at most 2^k - 1 states of _sufficient, one per prefix
# other than s's own, so no n <= 20 is refused by either.  Of three random
# sources at n = 100, p = 0.3, one trial, only one still runs into it with 32
# traces, and its montecarlo process peaked at about 400 MB; with 4 to 16
# traces none does.  Neither the block's padded trace bits (_matchers, 1 byte
# per trace and bit of the longest trace) nor its two embedding tables
# (_embedding_tables, 8 bytes per trace and bit of s) is counted; each is built
# once per block and split by view.
MAX_ORACLE_STATES = 1 << 21


class InfeasibleError(RuntimeError):
    """Structurally valid request that exceeds a hard resource cap (exit 3)."""


def _matchers(bits, lens):
    """Greedy subsequence matchers of B sets of T traces, from their bits trace
    after trace and their (B, T) lengths: padded[o, i, q] is bit q of set o's
    trace i, padded with 2, which no bit equals, to max(lens) + 1 columns, and
    pointer q steps on bit b by padded[o, i, q] == b.  The last column is
    always padding: pointers stop at their trace's end, and q = -1 reads it."""
    lens = np.asarray(lens, dtype=np.int32)  # read per automaton state, as the pointers are
    padded = np.full((*lens.shape, lens.max(initial=0) + 1), 2, dtype=np.uint8)
    padded[np.arange(padded.shape[-1]) < lens[..., np.newaxis]] = bits
    return padded, lens


def _embedding_tables(s_bits, padded, lens):
    """Where the traces of the matchers (padded, lens) stand on a string s, its
    bits s_bits: fwd[j, o, i] is trace i of set o's greedy pointer after
    s[:j], and back[j, o, i] how many trailing bits of that trace s[j:]
    embeds, matched greedily from the end.  So the trace is a subsequence of
    x + s[j:] exactly when x takes its pointer to at least lens - back[j].
    One pass over s each, every trace at once."""
    sets, traces = np.ogrid[:lens.shape[0], :lens.shape[1]]
    fwd = np.zeros((s_bits.size + 1, *lens.shape), dtype=np.int32)
    back = np.zeros_like(fwd)
    for j, bit in enumerate(s_bits):
        fwd[j + 1] = fwd[j] + (padded[sets, traces, fwd[j]] == bit)
    for j in range(s_bits.size - 1, -1, -1):
        # trace bit q, the next from the end; q = -1 reads the padding
        back[j] = back[j + 1] + (padded[sets, traces, lens - back[j + 1] - 1] == s_bits[j])
    return fwd, back


def _embeds_flipped(s_bits, padded, lens, tables, sets, lo, hi) -> np.ndarray:
    """One row per hit: is every trace of set sets[h] a subsequence of s with
    the bits [lo[h], hi[h]) flipped?  s's own bits before lo and from hi on are
    read off tables, from _embedding_tables.  Only the flipped bits are
    stepped: bit d of every hit whose window is still open, all at once."""
    fwd, back = tables
    pointer = fwd[lo, sets]
    for d in range(int((hi - lo).max(initial=0))):
        open_ = np.flatnonzero(lo + d < hi)
        bit = 1 - s_bits[lo[open_] + d]
        pointer[open_] += padded[sets[open_, np.newaxis], np.arange(lens.shape[1]), pointer[open_]] == bit[:, np.newaxis]
    return (lens[sets] - pointer <= back[hi, sets]).all(axis=1)


def _state_keys(nxt, live, owner, pointer_bits: int, owner_bits: int) -> list[np.ndarray]:
    """Pack the live states, pointer row nxt[j] and owner[j] for j in live, into
    int64 words: pointer_bits bits per pointer, then owner_bits for the owner,
    at most 63 bits per word and no field split across two words.  Equal words
    mean equal states.  The words are built one field at a time, so the pointer
    table is never widened to int64 as a whole."""
    fields = [(nxt[:, t], pointer_bits) for t in range(nxt.shape[1])] + [(owner, owner_bits)]
    words, used = [], 0
    for column, bits in fields:
        if not words or used + bits > 63:
            words.append(np.zeros(live.size, dtype=np.int64))
            used = 0
        words[-1] |= np.left_shift(column[live], used, dtype=np.int64)
        used += bits
    return words


def _distinct(keys):
    """Deduplicate states on their packed keys (_state_keys): the order that
    sorts the keys, and along it whether each is the first of its equal run.
    Equal keys are equal states, so the sort need not be stable."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for word in keys:
        word = word[order]
        new[1:] |= word[1:] != word[:-1]
    return order, new


def _check_budget(visited: int, k: int, n: int):
    if visited > MAX_ORACLE_STATES:
        raise InfeasibleError(f"the sufficiency oracle passed its budget of "
                              f"{MAX_ORACLE_STATES} automaton states at bit {k + 1} of {n}")


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


def _sufficient(s_bits, padded, lens, tables) -> np.ndarray:
    """Is s the only length-n source of each set of the matchers (padded, lens),
    traces of s given by its bits s_bits and tables = (fwd, back) from
    _embedding_tables?  Equals _automaton's count == 1 set by set, but decides
    uniqueness instead of counting.  Its states are the automaton's whose
    prefix has left s: at bit k, the successors of the previous ones and the
    flip of s's own state fwd[k], kept while live as in _automaton.  A state
    that s's own suffix finishes, lens - pointer <= back[k + 1] on every
    trace, is a witness: that completion is a length-n source other than s.
    Its set is then insufficient, drops its states and makes no more flips,
    and the call returns once no set is open.  A live state at layer n has
    every pointer at its trace's end, so it is a witness too: the sets still
    open at the end are exactly the sufficient ones.  The budget counts the
    states kept, summed over layers and sets."""
    n, bit, traces = s_bits.size, np.arange(2).reshape(2, 1, 1), np.arange(lens.shape[1])
    fwd, back = tables
    pointer_bits, owner_bits = int(lens.max(initial=0)).bit_length(), (lens.shape[0] - 1).bit_length()
    undecided = np.ones(lens.shape[0], dtype=bool)
    owner, rows = np.zeros(0, dtype=np.intp), np.zeros((0, traces.size), dtype=np.int32)
    visited = 0
    for k in range(n):
        # s's own state rides along in each undecided set, after the diverged
        # states; the pointers after each bit are (2, states, T) in C order, as
        # in _automaton, and of s's own state only the flip leaves s
        own = np.flatnonzero(undecided)
        owner, rows = np.concatenate([owner, own]), np.concatenate([rows, fwd[k, own]])
        nxt = np.equal(padded[owner[:, None], traces, rows], bit, out=np.empty((2, *rows.shape), dtype=np.int32))
        nxt += rows
        del rows  # held to the layer's end, it and floor below would raise its peak
        # live: no trace needs more than the n - k - 1 bits left; a witness: the
        # rest of s, s[k + 1:], takes every pointer to its trace's end
        floor = lens[owner]
        live = (nxt >= floor - (n - k - 1)).all(axis=-1)
        live[s_bits[k], owner.size - own.size:] = False
        floor -= back[k + 1, owner]
        witness = live & (nxt >= floor).all(axis=-1)
        del floor
        undecided[np.broadcast_to(owner, witness.shape)[witness]] = False
        live = np.flatnonzero(live & undecided[owner])
        nxt, owner = nxt.reshape(-1, traces.size), np.tile(owner, 2)
        order, new = _distinct(_state_keys(nxt, live, owner, pointer_bits, owner_bits))
        order = live[order[new]]
        rows, owner = nxt[order], owner[order]
        visited += order.size
        _check_budget(visited, k, n)
        if not undecided.any():
            break
    return undecided


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
