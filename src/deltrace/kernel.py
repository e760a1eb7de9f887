"""The Monte Carlo kernel's block stages, which harness._simulate runs on a
block of B trials at once.  The object API shares them: channel and events
run the mask stages on one trace set, and reconstruct's counting automaton
reuses the matchers, state keys and budget.  The CLI loads none of those.

_mask_block draws deletion masks, trial i from its own PCG64 stream
(RngSpec), whose seeded states RngSpec.block_rngs computes SEED_CHUNK trials
at a time in one numpy pass (_pcg64_seeds).  It draws through a per-call
buffer of at most BLOCK_ELEMENTS uniforms: each trial that fits it into its
own row, the rows compared with p together, and a trial larger than it
piece by piece.  The span witness (_span_wiped) and run coverage
(_covered_runs, over index arrays built once per run by _RunTables) read
shifted contiguous ANDs of the mask (_window_and).  Coverage reads clean
runs only on trials where some trace wiped no run.  The audit's (trace,
run) table of clean runs, off which it reads its declared patterns, counts
every run's deleted bits instead.  Run alignment (_run_alignment_misses),
the uniqueness oracle (_sufficient) and the audit's embedding check
(_embeds_flipped) read the kept bits only through the padded matchers
(_matchers), the last two also through one pair of embedding tables
(_embedding_tables).
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

from .bits import BitString, PatternSpan, frozen

# Uniforms one mask draw holds at once.  The harness's Monte Carlo kernel also
# sizes its blocks by it: B = max(1, BLOCK_ELEMENTS // (T * n)) trials share
# one (B, T, n) mask, so every verdict is computed for B trials at once.  On
# 6000 trials of T * n = 320, the kernel took 84-92 ms at 2^13, 75-76 ms at
# 2^15 and 70-74 ms at 2^17 (medians of 7-9 runs in each of three rounds, in
# process, 2 cores): each trial's stream setting and draw, about 7 us, do not
# shrink with the block, so 2^17 gains about 5% for four times the buffers.
BLOCK_ELEMENTS = 1 << 15

# Trial indexes whose seeded PCG64 states RngSpec.block_rngs computes in one
# numpy pass (_pcg64_seeds).  It does not follow the mask block: a pass costs
# about 80 us even for one trial (8 trial_rng calls), and 0.43 us per trial at
# 512, of which 0.2 us builds the state and inc as Python ints (in process,
# 2 cores, numpy 2.4).  At 2048 that falls to 0.29 us, but the transients
# grow: a 6000-trial mc-short run peaked at 36.2 MB at 512, 37.2 at 2048 and
# 38.3 at 4096 (the child's own ru_maxrss).
SEED_CHUNK = 512

# SeedSequence's hash constants (numpy.random.bit_generator, frozen by NEP 19
# as O'Neill's seed_seq_fe) and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = (1 << 32) - 1


def _hash_consts(value: int, mult: int, count: int) -> np.ndarray:
    out = [value]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, np.newaxis]


# SeedSequence hashes 4 pool words, then 12 in the pool mix (consts A), and
# draws 8 output words for 4 uint64 (consts B); hash k uses consts k and k + 1.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)
# uint64 scalars only, so that numpy 1.24's value-based promotion and numpy
# 2's rules give the same uint64 results
_U1, _U32, _U63, _LO32 = np.uint64(1), np.uint64(32), np.uint64(63), np.uint64(_M32)
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
_MULT_LO_HALVES = np.uint64(_PCG_MULT >> 32 & _M32), np.uint64(_PCG_MULT & _M32)


def _xshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _mulhi(x: np.ndarray) -> np.ndarray:
    """The high 64 bits of x * _MULT_LO, from four products of 32-bit halves,
    each exact in uint64."""
    c1, c0 = _MULT_LO_HALVES
    x1, x0 = x >> _U32, x & _LO32
    cross0, cross1 = x0 * c1, x1 * c0
    carry = (x0 * c0 >> _U32) + (cross0 & _LO32) + (cross1 & _LO32)
    return x1 * c1 + (cross0 >> _U32) + (cross1 >> _U32) + (carry >> _U32)


def _pcg64_seeds(seed: int, first: int, size: int) -> tuple[list[int], list[int]]:
    """(states, incs): for i in [first, first + size), the 128-bit state and
    increment of PCG64(SeedSequence([seed, i])), as Python ints.

    SeedSequence's entropy is the little-endian uint32 words of seed and then
    of i, each at least one word; positions up to the pool size of 4 that it
    leaves empty hash as 0, so zero-padding it to 4 words changes nothing.
    Its generate_state(4, uint64) gives PCG64's seed and sequence, high word
    first, from which PCG64 takes inc = 2 * seq + 1 and two LCG steps from
    0, state = (seed + inc) * MULT + inc mod 2^128: done here on uint64
    words."""
    idx = np.arange(first, first + size, dtype=np.uint64)
    seed_words = [seed & _M32, seed >> 32] if seed >> 32 else [seed]
    pool = np.zeros((4, size), dtype=np.uint32)
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, np.newaxis]
    pool[len(seed_words)] = idx & _LO32
    pool[len(seed_words) + 1] = idx >> _U32
    pool = _xshift((pool ^ _HASH_A[:4]) * _HASH_A[1:5])
    for src in range(4):
        # the three other words, each mixed with its own hash of word src
        dst, k = [d for d in range(4) if d != src], 4 + 3 * src
        hashed = _xshift((pool[src] ^ _HASH_A[k : k + 3]) * _HASH_A[k + 1 : k + 4])
        pool[dst] = _xshift(_MIX_L * pool[dst] - _MIX_R * hashed)
    # output word j hashes pool word j % 4; uint64 word w is uint32 words 2w
    # (low) and 2w + 1 (high)
    out = _xshift((pool ^ _HASH_B[:8].reshape(2, 4, 1)) * _HASH_B[1:].reshape(2, 4, 1)).reshape(8, size)
    s_hi, s_lo, i_hi, i_lo = out[::2].astype(np.uint64) | out[1::2].astype(np.uint64) << _U32
    inc_hi, inc_lo = i_hi << _U1 | i_lo >> _U63, i_lo << _U1 | _U1
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < inc_lo)
    hi = hi * _MULT_LO + lo * _MULT_HI + _mulhi(lo)
    lo = lo * _MULT_LO + inc_lo
    hi += inc_hi + (lo < inc_lo)
    words = np.stack([hi, lo, inc_hi, inc_lo]).astype(object)
    state, inc = words[::2] << 64 | words[1::2]
    return state.tolist(), inc.tolist()


@frozen
class RngSpec:
    """Deterministic randomness recipe.

    Trial i draws from an independent PCG64 stream seeded with
    SeedSequence([master_seed, i]), so trials can be evaluated in any order
    (or in parallel) and still reproduce bit-for-bit.  trial_rng builds one
    such stream, the reference; block_rngs yields a range of them, bit-equal,
    with their seeds computed SEED_CHUNK trials at a time.
    """

    master_seed: int

    def __post_init__(self):
        seed = self.master_seed
        if isinstance(seed, (bool, np.bool_)) or not hasattr(type(seed), "__index__"):
            raise ValueError(f"master_seed must be an integer, got {seed!r}")
        seed = operator.index(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "master_seed", seed)

    def trial_rng(self, trial_index: int) -> np.random.Generator:
        if trial_index < 0:
            raise ValueError("trial_index must be >= 0")
        seq = np.random.SeedSequence([self.master_seed, trial_index])
        return np.random.Generator(np.random.PCG64(seq))

    def block_rngs(self, first: int, size: int) -> Iterator[np.random.Generator]:
        """Trial i's stream for i in [first, first + size), in order, each
        drawing exactly what trial_rng(i) draws.

        Every item is one reused Generator whose PCG64 state is set to trial
        i's when the item is taken, so draw from it before taking the next.
        The states and increments come SEED_CHUNK trials at a time from one
        numpy pass (_pcg64_seeds), so taking an item only stores two ints in
        one shared dict and hands it to the state setter; has_uint32 and
        uinteger stay 0, as seeding leaves them.
        """
        if first < 0 or size < 0 or first + size > 2**64:
            raise ValueError("trial indexes must lie in [0, 2**64)")
        return self._streams(first, size)

    def _streams(self, first: int, size: int) -> Iterator[np.random.Generator]:
        bit_gen = np.random.PCG64(0)
        rng = np.random.Generator(bit_gen)
        # the setter copies the values out, so one dict serves every trial
        words: dict[str, int] = {}
        state = {"bit_generator": "PCG64", "state": words, "has_uint32": 0, "uinteger": 0}
        for start in range(first, first + size, SEED_CHUNK):
            states, incs = _pcg64_seeds(self.master_seed, start, min(SEED_CHUNK, first + size - start))
            for words["state"], words["inc"] in zip(states, incs):
                bit_gen.state = state
                yield rng


def _mask_block(rngs, p: float, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous (B, T, n) bool array out with deletion masks,
    trial k's from the k-th generator of the iterable rngs, and return it.
    It takes no more than B generators, so consecutive blocks can share one
    iterable.

    Each trial draws its T * n uniforms in order into a float buffer of
    min(B * T * n, BLOCK_ELEMENTS) values, at least one, allocated per call,
    which is compared with p into out.  T * n against the buffer's size
    picks the loop.  Trials that fit it (mc-short's and audit-oracle's) draw
    each into its own row of a (rows, T * n) view of it, and the rows drawn
    are compared once they fill it and at the end: a block that fits the
    buffer is compared once.  A trial larger than the buffer (mc-long's)
    draws in pieces of its size, each compared as soon as it is drawn.  The
    draws continue one stream, so trial k's flags are rng.random((T, n)) < p.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"deletion probability must be in [0, 1], got {p}")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    size, values = max(1, min(out.size, BLOCK_ELEMENTS)), out.shape[1] * out.shape[2]
    flags = out.reshape(len(out), values)  # a view: out is C-contiguous
    if values <= size:
        uniforms = np.empty((size // max(1, values), values))
        for first in range(0, len(out), len(uniforms)):
            drawn = 0
            for drawn, (row, rng) in enumerate(zip(uniforms[: len(out) - first], rngs), 1):
                rng.random(out=row)
            np.less(uniforms[:drawn], p, out=flags[first : first + drawn])
        return out
    uniforms = np.empty(size)
    for trial, rng in zip(flags, rngs):
        for at in range(0, values, size):
            piece = uniforms[: min(size, values - at)]
            rng.random(out=piece)
            np.less(piece, p, out=trial[at : at + piece.size])
    return out


# Runs shorter than this many bits are read at their starts off _window_and
# of their length, a group per length; longer ones off np.add.reduceat's
# count of their deleted bits.  On one trial of 32 x 3000 bits where no trace
# wiped a run (in process, 2 cores, numpy 2.4), every run of one length,
# coverage took 0.06-0.10 ms read at the starts against 1.14 (1 bit), 0.34
# (4) and 0.10 ms (16) counted; but each length costs its own passes:
# mc-short's blocks (runs of 4-12 bits) took 0.09 ms at 4 against 0.64 at 13.
SHORT_RUN_LENGTH = 4


def _window_and(x: np.ndarray, width: int) -> np.ndarray:
    """x (..., m) -> (..., m - width + 1): is every bit of x[..., i : i + width]
    set?  Each pass ANDs two contiguous slices shifted by the width covered so
    far, doubling it while it stays within width; one more pass, shifted by
    the remainder, covers the rest."""
    covered = 1
    while 2 * covered <= width:
        x = x[..., :-covered] & x[..., covered:]
        covered *= 2
    rest = width - covered
    return x[..., : x.shape[-1] - rest] & x[..., rest:] if rest else x


def _span_wiped(flags: np.ndarray, span: PatternSpan) -> np.ndarray:
    """Masks (..., n) -> (...): is some aligned copy of span fully deleted?
    _window_and over the span's window, read at every period-th start."""
    if span.end > flags.shape[-1]:
        raise ValueError("span extends past the source")
    window = _window_and(flags[..., span.offset : span.end], span.period)
    return np.any(window[..., :: span.period], axis=-1)


class _RunTables:
    """Run coverage's index arrays: per length of short run, the runs, their
    starts, and those as a mask over _window_and's columns; the long runs and
    the segments counted; and every run's start, for the audit's table."""

    def __init__(self, lengths: np.ndarray):
        starts = np.zeros_like(lengths)
        np.cumsum(lengths[:-1], out=starts[1:])
        n = int(lengths.sum())
        short = lengths < SHORT_RUN_LENGTH
        self.lengths, self.starts, self.count = lengths, starts, lengths.size
        self.groups = []
        for length in np.flatnonzero(np.bincount(lengths[short])).tolist():
            index = np.flatnonzero(lengths == length)
            at = np.zeros(n - length + 1, dtype=bool)
            at[starts[index]] = True
            self.groups.append((length, index, starts[index], at))
        # reduceat's edges: each long run's start, and its end unless that is
        # n or the next long run's start; long_at picks the long runs' segments
        self.long_index = np.flatnonzero(~short)
        self.long_lengths = lengths[~short]
        long_starts = starts[~short]
        ends = long_starts + self.long_lengths
        self.edges = np.sort(np.concatenate([long_starts, ends[ends != np.append(long_starts, n)[1:]]]))
        self.long_at = np.searchsorted(self.edges, long_starts)
        # reduceat casts the mask to the count type; int32 holds any run of
        # a mask with fewer than 2^31 columns at half the memory of int64
        self.count_type = np.int32 if n < 2**31 else np.int64


def _wiped_runs(flags: np.ndarray, runs: _RunTables):
    """Masks (B, T, n) -> (wiped (B, T), counts): trace t deleted every bit of
    some run; the long runs' deleted bits (B, T, M_long), or None if there is
    no long run or the short ones alone wiped every trace."""
    wiped = np.zeros(flags.shape[:-1], dtype=bool)
    for length, _, _, at in runs.groups:  # shortest first, the likeliest wiped
        wiped |= np.any(_window_and(flags, length) & at, axis=-1)
        if wiped.all():
            return wiped, None
    if not runs.edges.size:
        return wiped, None
    counts = np.add.reduceat(flags, runs.edges, axis=-1, dtype=runs.count_type)[..., runs.long_at]
    return wiped | np.any(counts == runs.long_lengths, axis=-1), counts


def _clean_runs(flags: np.ndarray, runs: _RunTables, counts, traces) -> np.ndarray:
    """Masks (B, T, n), _wiped_runs' counts of them and the traces to read
    (B, T) -> (B, M): some of those traces deleted no bit of run i.  The
    traces are folded before the runs' starts are read."""
    clean = np.empty((len(flags), runs.count), dtype=bool)
    if runs.groups:
        kept = np.greater(traces[..., np.newaxis], flags)  # a read trace's kept bits
    for length, index, starts, _ in runs.groups:
        clean[:, index] = np.take(np.any(_window_and(kept, length), axis=1), starts, axis=-1, mode="clip")
    if counts is not None:
        clean[:, runs.long_index] = np.any((counts == 0) & traces[..., np.newaxis], axis=1)
    return clean


def _covered_runs(flags: np.ndarray, runs: _RunTables, *, table: bool = False):
    """Masks (B, T, n) -> (per_run (B, M), clean): some trace wiped no run and
    left run i untouched; with table, clean (B, T, M) says that trace t
    deleted no bit of run i, from every run's count of deleted bits.  Without
    it, only trials where some trace wiped no run read their clean runs."""
    if table:
        counts = np.add.reduceat(flags, runs.starts, axis=-1, dtype=runs.count_type)
        clean = counts == 0
        return np.greater(clean, np.any(counts == runs.lengths, axis=-1)[..., np.newaxis]).any(axis=1), clean
    wiped, counts = _wiped_runs(flags, runs)
    per_run = np.zeros((len(flags), runs.count), dtype=bool)
    live = ~wiped.all(axis=-1)
    if live.any():
        live = slice(None) if live.all() else live  # a slice copies no mask
        per_run[live] = _clean_runs(flags[live], runs, None if counts is None else counts[live], ~wiped[live])
    return per_run, None


def _run_alignment_misses(s: BitString, lengths: np.ndarray, padded) -> np.ndarray:
    """maximal_runs over a block of trace sets at once: for B sets of T traces
    of the nonempty source s, whose run lengths are lengths, their padded bits
    from _matchers, is the reconstruction from trace set b anything other than s?

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
