"""Independent reference implementations used only by the tests.

Everything here is deliberately written in plain Python with exhaustive
enumeration, trading speed for obviousness, so package results can be
checked against code that shares no logic with the implementation.
"""

from __future__ import annotations

import itertools
import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

import numpy as np

from deltrace.analytics import (
    MGF_MAX_RUNS,
    _as_count,
    _check_lengths,
    _check_p,
    _report,
    _run_log_quantities,
)
from deltrace.logspace import NEG_INF, ln_one_minus_exp, pow_one_minus_ln
from deltrace.reconstruct import InfeasibleError


def is_subseq_str(t: str, x: str) -> bool:
    """Two-pointer subsequence check on text strings."""
    i = 0
    for ch in x:
        if i < len(t) and t[i] == ch:
            i += 1
    return i == len(t)


def all_strings(n: int):
    for tup in itertools.product("01", repeat=n):
        yield "".join(tup)


def consistent_sources_oracle(n: int, traces: list[str]) -> list[str]:
    """All length-n strings embedding every trace, by exhaustive filtering."""
    return [x for x in all_strings(n) if all(is_subseq_str(t, x) for t in traces)]


def diverged_states_oracle(s: str, traces: list[str]) -> tuple[bool, list[int]]:
    """Whether s is the only length-|s| string embedding every trace (each a
    subsequence of s), and the states a uniqueness search keeps after each
    bit: the distinct greedy pointer tuples of the prefixes other than s's own
    from which no trace needs more bits than are left.  The list ends before
    the first bit at which one of them, followed by the rest of s, embeds
    every trace: s is then not the only source, and the search stops."""
    n = len(s)

    def advance(state, bit):
        return tuple(q + (q < len(t) and t[q] == bit) for q, t in zip(state, traces))

    own, states, kept = (0,) * len(traces), set(), []
    for k in range(n):
        flip = "1" if s[k] == "0" else "0"
        reached = {advance(state, bit) for state in states for bit in "01"} | {advance(own, flip)}
        own = advance(own, s[k])
        states = {state for state in reached if all(len(t) - q <= n - k - 1 for q, t in zip(state, traces))}
        if any(all(is_subseq_str(t[q:], s[k + 1:]) for q, t in zip(state, traces)) for state in states):
            return False, kept
        kept.append(len(states))
    return True, kept


def embedding_tables_oracle(s: str, traces: list[str]) -> tuple[list[list[int]], list[list[int]]]:
    """For each j from 0 to len(s), and for each trace: the longest prefix of
    the trace that s[:j] embeds, which is where its greedy pointer stands
    after s[:j], and the longest suffix of the trace that s[j:] embeds.  Both
    by trying every length, longest first."""
    def longest(fits, t):
        return next(m for m in range(len(t), -1, -1) if fits(m))

    fwd = [[longest(lambda m: is_subseq_str(t[:m], s[:j]), t) for t in traces] for j in range(len(s) + 1)]
    back = [[longest(lambda m: is_subseq_str(t[len(t) - m:], s[j:]), t) for t in traces] for j in range(len(s) + 1)]
    return fwd, back


def subsequences_oracle(x: str) -> set[str]:
    """Every subsequence of x, by enumerating kept-index subsets."""
    out = set()
    for r in range(len(x) + 1):
        for keep in itertools.combinations(range(len(x)), r):
            out.add("".join(x[i] for i in keep))
    return out


# ---------------------------------------------------------------------------
# exact event probabilities by enumerating every deletion mask matrix

def _mask_rows(n: int):
    return list(itertools.product((False, True), repeat=n))


def mask_matrix_probs(n: int, p: float, t_count: int):
    """Yield (rows, probability) over all (2^n)^T deletion outcomes."""
    rows = _mask_rows(n)
    row_prob = [p ** sum(r) * (1 - p) ** (n - sum(r)) for r in rows]
    for combo in itertools.product(range(len(rows)), repeat=t_count):
        prob = 1.0
        for idx in combo:
            prob *= row_prob[idx]
        yield [rows[i] for i in combo], prob


def every_trace_kills_a_copy(rows, windows) -> bool:
    """True iff each mask fully deletes at least one (start, width) window."""
    for row in rows:
        if not any(all(row[start + j] for j in range(width)) for start, width in windows):
            return False
    return True


def run_coverage_oracle(rows, run_lengths) -> list[bool]:
    """Per run i: does some mask both keep a remnant of every run and leave
    run i untouched?  Counts each mask's deleted bits run by run."""
    starts = [0]
    for length in run_lengths[:-1]:
        starts.append(starts[-1] + length)
    covered = [False] * len(run_lengths)
    for row in rows:
        deleted = [sum(1 for j in range(length) if row[s + j]) for s, length in zip(starts, run_lengths)]
        if any(d == length for d, length in zip(deleted, run_lengths)):
            continue
        for i, d in enumerate(deleted):
            if d == 0:
                covered[i] = True
    return covered


def some_run_uncovered(rows, run_lengths) -> bool:
    """True iff some run is covered by no mask, taken over all masks jointly."""
    return not all(run_coverage_oracle(rows, run_lengths))


def event_prob_oracle(n: int, p: float, t_count: int, event) -> float:
    return math.fsum(prob for rows, prob in mask_matrix_probs(n, p, t_count) if event(rows))


# ---------------------------------------------------------------------------
# Wilson interval by direct quadratic solution

def wilson_oracle(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Roots of (phat - p)^2 = z^2 p (1-p) / n, solved with the quadratic
    formula rather than the rearranged textbook expression."""
    phat = successes / trials
    a = 1 + z * z / trials
    b = -(2 * phat + z * z / trials)
    c = phat * phat
    disc = b * b - 4 * a * c
    lo = (-b - math.sqrt(disc)) / (2 * a)
    hi = (-b + math.sqrt(disc)) / (2 * a)
    return (max(0.0, lo), min(1.0, hi))


# ---------------------------------------------------------------------------
# inclusion-exclusion one subset at a time

def mgf_per_subset(run_lengths, p: float, T):
    """prob_uncovered_run_mgf with one term per nonempty run subset, built
    by a Python loop over the 2^M - 1 masks.  The package groups equal
    terms; this is the ungrouped sum its results must equal exactly."""
    lengths = _check_lengths(run_lengths)
    p = _check_p(p)
    count = _as_count(T)
    if p == 0.0:
        return _report(NEG_INF, "exact-closed-form")
    if p == 1.0:
        return _report(0.0, "exact-closed-form")
    m = len(lengths)
    if m > MGF_MAX_RUNS:
        raise InfeasibleError(
            f"inclusion-exclusion over {m} runs exceeds the cap of {MGF_MAX_RUNS}")
    ln_beta, ln_px = _run_log_quantities(lengths, p)
    # Per nonempty subset K: sign (-1)^{|K|+1} times (1 - p_X (1 - prod beta))^T.
    ln_beta_sum = np.zeros(1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        ln_beta_sum[mask] = ln_beta_sum[mask ^ low] + ln_beta[low.bit_length() - 1]
    ln_mags = np.empty((1 << m) - 1)
    signs = np.empty((1 << m) - 1)
    for mask in range(1, 1 << m):
        ln_gamma = ln_one_minus_exp(ln_beta_sum[mask])
        ln_mags[mask - 1] = pow_one_minus_ln(ln_px + ln_gamma, count.ln_value)
        signs[mask - 1] = 1.0 if (mask.bit_count() & 1) else -1.0
    # the +-1 copies summed exactly; math.exp, as the package takes it
    top = max(ln_mags)
    if top == NEG_INF:
        return _report(NEG_INF, "exact-closed-form")
    total = math.fsum(math.copysign(math.exp(v - top), sign) for v, sign in zip(ln_mags, signs))
    return _report(top + math.log(total), "exact-closed-form")


# ---------------------------------------------------------------------------
# uncovered-run probability in exact rational arithmetic

def _decimal(num: int, den: int) -> Decimal:
    """num / den in the current decimal context, read off the top 200 bits of
    each, so that no huge integer is converted whole."""
    shift_num, shift_den = max(0, num.bit_length() - 200), max(0, den.bit_length() - 200)
    return Decimal(num >> shift_num) / Decimal(den >> shift_den) * Decimal(2) ** (shift_num - shift_den)


def uncovered_run_ln_exact(run_lengths, p: float, t_count: int) -> Decimal:
    """ln P(some run uncovered) to 50 digits, summed over the number j of
    traces that kept every run alive, in exact rational arithmetic from the
    exact double p: the uncovered mass M = sum_j w_j (1 - phi_j) and the
    covered mass A = sum_j w_j phi_j, with w_j = C(T, j) px^j (1 - px)^(T - j),
    px = prod_i a_i and px^j phi_j = prod_i (a_i^j - (a_i - k_i)^j), where
    a_i = 1 - p^r_i and k_i = (1 - p)^r_i.  p is a dyadic fraction, so every
    term is an integer over one power of two: the masses are summed as those
    integers, and M + A is that power exactly.  The log is taken of M where
    M <= 1/2, and as ln(1 - A) otherwise, at a precision that keeps 50 digits
    of it."""
    p = Fraction(p)
    one, deleted = p.denominator, p.numerator  # p = deleted / one, one a power of two
    total = sum(run_lengths)
    alive = [one**r - deleted**r for r in run_lengths]  # a_i, scaled by one^r_i
    nicked = [a - (one - deleted) ** r for a, r in zip(alive, run_lengths)]  # a_i - k_i, likewise
    px = math.prod(alive)  # scaled by one^total
    covered_mass = uncovered_mass = 0  # scaled by one^(total * T)
    for j in range(t_count + 1):
        weight = math.comb(t_count, j) * (one**total - px) ** (t_count - j)
        covered = math.prod(a**j - b**j for a, b in zip(alive, nicked)) if j else 0
        covered_mass += weight * covered
        uncovered_mass += weight * (px**j - covered)
    scale = one ** (total * t_count)
    assert covered_mass + uncovered_mass == scale
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 50, MIN_EMIN, MAX_EMAX
        if 2 * uncovered_mass <= scale:
            return _decimal(uncovered_mass, scale).ln()
        # 1 - A in full needs as many more digits as A has leading zeros
        ctx.prec += max(0, -_decimal(covered_mass, scale).adjusted())
        ln_value = (1 - _decimal(covered_mass, scale)).ln()
        ctx.prec = 50
        return +ln_value
