"""The Monte Carlo kernel's block stages, which harness._simulate runs on a
block of B trials at once.  The object API shares them: channel and events
run the mask stages on one trace set, and reconstruct's counting automaton
reuses the matchers, state keys and budget.  The CLI loads none of those.

_mask_block draws deletion masks, trial i from its own PCG64 stream
(RngSpec), through a per-call buffer of at most BLOCK_ELEMENTS uniforms:
trials fill it in order, piece by piece when larger than it, and it is
compared with p whenever a piece would not fit, and at the end.  Run coverage
reads, per (trace, run), whether the mask deleted some and every bit of the
run, by clipped gathers on runs shorter than SHORT_RUN_LENGTH bits and by
np.add.reduceat on the others (_clean_runs), from index arrays built once
per run (_RunTables); the audit reads its declared patterns off the same
table of clean runs.  Run alignment (_run_alignment_misses), the uniqueness
oracle (_sufficient) and the audit's embedding check (_embeds_flipped) read
the kept bits only through the padded matchers (_matchers), the last two
also through one pair of embedding tables (_embedding_tables).
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .bits import BitString, PatternSpan, _run_lengths

# Uniforms one mask draw holds at once.  The harness's Monte Carlo kernel also
# sizes its blocks by it: B = max(1, BLOCK_ELEMENTS // (T * n)) trials share
# one (B, T, n) mask, so every verdict is computed for B trials at once.  On
# 6000 trials of T * n = 320, the kernel took 84-92 ms at 2^13, 75-76 ms at
# 2^15 and 70-74 ms at 2^17 (medians of 7-9 runs in each of three rounds, in
# process, 2 cores): each trial's stream setting and draw, about 7 us, do not
# shrink with the block, so 2^17 gains about 5% for four times the buffers.
BLOCK_ELEMENTS = 1 << 15

# Trial indexes whose PCG64 seeds RngSpec.block_rngs computes in one numpy
# pass.  It does not follow the mask block: a pass costs about 175 us even for
# one trial (8 trial_rng calls), and 0.5 us per trial at 512.  Larger chunks
# save little more and hold more transients: at 4096 a 6000-trial mc-short
# run peaked 0.7 MB higher than at 512.
SEED_CHUNK = 512

# SeedSequence's hash constants (numpy.random.bit_generator, frozen by NEP 19
# as O'Neill's seed_seq_fe) and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_consts(value: int, mult: int, count: int) -> list[np.uint32]:
    out = [value]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return [np.uint32(h) for h in out]


# SeedSequence hashes 4 pool words, then 12 in the pool mix (consts A), and
# draws 8 output words for 4 uint64 (consts B); hash k uses consts k and k + 1.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)


def _xshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _pcg64_seed_words(seed: int, first: int, size: int) -> np.ndarray:
    """(size, 4) little-endian uint64: SeedSequence([seed, i]).generate_state(4, uint64)
    for i in [first, first + size), the words PCG64 seeds itself from.

    The entropy is the little-endian uint32 words of seed and then of i, each
    at least one word; positions up to the pool size of 4 that it leaves
    empty hash as 0, so zero-padding it to 4 words changes nothing."""
    idx = np.arange(first, first + size, dtype=np.uint64)
    words = [np.full(size, w, dtype=np.uint32) for w in ([seed & _M32, seed >> 32] if seed >> 32 else [seed])]
    words += [(idx & np.uint64(_M32)).astype(np.uint32), (idx >> np.uint64(32)).astype(np.uint32)]
    words += [np.zeros(size, dtype=np.uint32)] * (4 - len(words))
    pool = [_xshift((w ^ _HASH_A[k]) * _HASH_A[k + 1]) for k, w in enumerate(words)]
    k = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed = _xshift((pool[src] ^ _HASH_A[k]) * _HASH_A[k + 1])
                pool[dst] = _xshift(_MIX_L * pool[dst] - _MIX_R * hashed)
                k += 1
    out = np.empty((size, 8), dtype="<u4")  # uint32 pairs read as little-endian uint64
    for j in range(8):
        out[:, j] = _xshift((pool[j % 4] ^ _HASH_B[j]) * _HASH_B[j + 1])
    return out.view("<u8")


@dataclass(frozen=True)
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
        The state is set from one shared dict: only its state and inc words
        change, and has_uint32 and uinteger stay 0, as seeding leaves them.
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
            seeds = _pcg64_seed_words(self.master_seed, start, min(SEED_CHUNK, first + size - start))
            for s_hi, s_lo, i_hi, i_lo in seeds.tolist():
                # PCG64's seeding: inc = 2 * seq + 1, then two LCG steps from 0
                inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
                words["state"] = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _M128
                words["inc"] = inc
                bit_gen.state = state
                yield rng


def _mask_block(rngs, p: float, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous (B, T, n) bool array out with deletion masks,
    trial k's from the k-th generator of the iterable rngs, and return it.
    It takes no more than B generators, so consecutive blocks can share one
    iterable.

    Each trial draws its T * n uniforms in order into one flat float buffer
    of min(B * T * n, BLOCK_ELEMENTS) values, at least one, allocated per
    call, in pieces of at most its size, after what the buffer already
    holds.  The buffer is compared with p into the flat view of out whenever
    the next piece would not fit, and once at the end: a block that fits the
    buffer is compared once, and a trial larger than it piece by piece.  The
    draws continue one stream, so trial k's flags are rng.random((T, n)) < p.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"deletion probability must be in [0, 1], got {p}")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    uniforms = np.empty(max(1, min(out.size, BLOCK_ELEMENTS)))
    flags = out.reshape(-1)  # a view: out is C-contiguous
    size, values = uniforms.size, out.shape[1] * out.shape[2]
    pieces = [min(size, values - r) for r in range(0, values, size)]
    held = compared = 0
    for _, rng in zip(out, rngs):
        for piece in pieces:
            if held + piece > size:
                np.less(uniforms[:held], p, out=flags[compared : compared + held])
                compared, held = compared + held, 0
            rng.random(out=uniforms[held : held + piece])
            held += piece
    np.less(uniforms[:held], p, out=flags[compared : compared + held])
    return out


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


def _span_wiped(flags: np.ndarray, span: PatternSpan) -> np.ndarray:
    """Masks (..., n) -> (...): is some aligned copy of span fully deleted?
    The window is viewed as a (..., copies, period) block, so the check ANDs
    the period columns of every copy at once."""
    if span.end > flags.shape[-1]:
        raise ValueError("span extends past the source")
    window = flags[..., span.offset : span.end].reshape(*flags.shape[:-1], span.copies, span.period)
    deleted = window[..., 0].copy()
    for j in range(1, span.period):
        deleted &= window[..., j]
    return np.any(deleted, axis=-1)


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
        # column min(start + k, last) of each short run for k below the
        # longest: a repeated column changes neither the OR nor the AND
        first, last = starts[short], starts[short] + lengths[short] - 1
        self.columns = [np.minimum(first + k, last) for k in range(lengths[short].max(initial=0))]
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
