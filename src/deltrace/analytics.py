"""Closed-form and asymptotic probabilities for the two reconstruction events,
plus the threshold on the trace-count growth rate separating them.

Everything here works in the log domain; see logspace for the primitives.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .logspace import (
    _TINY_LOG,
    NEG_INF,
    ln_one_minus_exp,
    log_comb,
    logsumexp_pos,
    neg_exp,
    pow_one_minus_ln,
)
from .bits import frozen
from .kernel import InfeasibleError

METHODS = frozenset(
    {"exact-closed-form", "exact-direct-sum", "asymptotic", "monte-carlo"}
)

MGF_MAX_RUNS = 20
DIRECT_SUM_MAX_TRACES = 10_000

_LN_TENTH = math.log(0.1)


@frozen
class ProbReport:
    """A probability with its log, how it was computed, and any caveats."""

    value: float
    ln_value: float
    method: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not (math.isnan(self.value) or 0.0 <= self.value <= 1.0):
            raise ValueError(f"probability out of range: {self.value!r}")


def _report(ln_value: float, method: str, flags: tuple[str, ...] = ()) -> ProbReport:
    ln_value = min(ln_value, 0.0)
    return ProbReport(value=math.exp(ln_value), ln_value=ln_value, method=method, flags=flags)


@frozen
class TraceCount:
    """Trace count carried in the log domain so schedules like exp(c * n) stay
    usable long past integer range.  exact is set only for literal counts."""

    ln_value: float
    exact: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.ln_value):
            raise ValueError("trace count must be finite")
        if self.exact is not None and self.exact < 1:
            raise ValueError("empty trace set has undefined sufficiency")

    @classmethod
    def integer(cls, count: int) -> "TraceCount":
        count = int(count)
        if count < 1:
            raise ValueError("empty trace set has undefined sufficiency")
        return cls(ln_value=math.log(count), exact=count)

    @classmethod
    def exponential(cls, c: float, n: float, a: float = 1.0) -> "TraceCount":
        if c <= 0 or n <= 0 or a <= 0:
            raise ValueError("growth schedule needs c > 0, n > 0, a > 0")
        return cls(ln_value=c * float(n) ** a)

    @property
    def is_analytic(self) -> bool:
        return self.exact is None


def _as_count(T) -> TraceCount:
    if isinstance(T, TraceCount):
        return T
    if isinstance(T, (int, np.integer)):
        return TraceCount.integer(int(T))
    raise TypeError("trace count must be an int or a TraceCount")


def _check_p(p: float, *, open_interval: bool = False) -> float:
    p = float(p)
    lo, hi = (0.0, 1.0)
    if open_interval and not (lo < p < hi):
        raise ValueError("deletion probability must lie strictly in (0, 1)")
    if not (lo <= p <= hi):
        raise ValueError("deletion probability must lie in [0, 1]")
    return p


def _check_lengths(run_lengths) -> list[float]:
    lengths = [float(r) for r in run_lengths]
    if not lengths:
        raise ValueError("empty string has no runs")
    if any(r <= 0 for r in lengths):
        raise ValueError("run lengths must be positive")
    return lengths


# ---------------------------------------------------------------------------
# threshold

@frozen
class ThresholdParams:
    """Pattern length, its length fraction of the source, and the deletion
    probability: together they fix the critical trace-count growth rate."""

    r: int
    ell: float
    p: float

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise ValueError("pattern length r must be a positive integer")
        if not (0 < self.ell <= 1):
            raise ValueError("length fraction ell must lie in (0, 1]")
        _check_p(self.p, open_interval=True)


def critical_rate(r: int, ell: float, p: float) -> float:
    """Growth rate (nats per n^a) above which no-witness probability dies off
    and below which it tends to one: ell * ln(1 / (1 - p^r)).  Where p^r is
    below the smallest normal float so is the rate (ell <= 1), and it may read
    0.0: every positive normal c lies above it either way."""
    ThresholdParams(r=r, ell=ell, p=p)  # reuse validation
    return -float(ell) * math.log1p(-float(p) ** int(r))


# ---------------------------------------------------------------------------
# pattern-witness event, exact and asymptotic

def prob_no_pattern_witness_exact(r: int, f: float, p: float, T) -> ProbReport:
    """Probability that each of T traces deletes at least one of f disjoint
    copies of an r-bit pattern: (1 - (1 - p^r)^f)^T.  f may be fractional."""
    if int(r) != r or r < 1:
        raise ValueError("pattern length r must be a positive integer")
    f = float(f)
    if f <= 0:
        raise ValueError("copy count f must be positive")
    p = _check_p(p)
    count = _as_count(T)
    if p in (0.0, 1.0):
        return _report(0.0 if p else NEG_INF, "exact-closed-form")
    x = p ** int(r)
    if x < sys.float_info.min:
        # p^r is subnormal or 0, lost against 1 in (1 - p^r)^f = e^-u with
        # u = f p^r: carry ln u instead.  ln(1 - e^-u), the log chance that a
        # trace wipes a copy, is ln u to double precision below e^-500
        lu = math.log(f) + int(r) * math.log(p)
        ln_wipe = lu if lu < _TINY_LOG else ln_one_minus_exp(-math.exp(lu))
        return _report(neg_exp(count.ln_value + math.log(-ln_wipe)), "exact-closed-form")
    # lx = ln((1 - p^r)^f), the per-trace miss probability in log form
    lx = f * math.log1p(-x)
    return _report(pow_one_minus_ln(lx, count.ln_value), "exact-closed-form")


def prob_no_pattern_witness_asymptotic(params: ThresholdParams, c: float, T) -> ProbReport:
    """Large-n shape of the no-witness probability under T = exp(c * n^a):
    exp(-T^E) with E = (ell / c) * ln(1 - p^r) + 1.

    The shape takes -T * y for T * ln(1 - y), where y = T^(E - 1) =
    (1 - p^r)^f is the chance a trace wipes no copy; at y >= 0.1 that is
    off by over 5% and the report carries outside-validity-regime.
    """
    if c <= 0:
        raise ValueError("growth rate c must be positive")
    count = _as_count(T)
    slope = (params.ell / c) * math.log1p(-params.p ** params.r)
    ln_value = neg_exp((slope + 1.0) * count.ln_value)
    # ln y = slope * ln T, not (E - 1) * ln T: E rounds to 1 once |slope| < eps
    flags = ("outside-validity-regime",) if slope * count.ln_value >= _LN_TENTH else ()
    return _report(ln_value, "asymptotic", flags=flags)


# ---------------------------------------------------------------------------
# uncovered-run event, two exact routes

def _run_log_quantities(lengths: list[float], p: float):
    """Per-run ln(beta_i) and the all-runs-survive log-probability ln(p_X).

    beta_i = 1 - (1-p)^{r_i} / (1 - p^{r_i}) is the chance a trace that kept
    a remnant of every run still nicked run i; p_X is the chance no run was
    wiped out entirely.
    """
    ln_p = math.log(p)
    ln_q = math.log1p(-p)
    ln_beta = []
    ln_px = 0.0
    for r in lengths:
        ln_keep_all = r * ln_q                      # run survives untouched
        ln_alive = ln_one_minus_exp(r * ln_p)       # run not fully deleted
        ln_px += ln_alive
        ln_delta = min(ln_keep_all - ln_alive, 0.0)
        ln_beta.append(ln_one_minus_exp(ln_delta))
    return ln_beta, ln_px


def _check_mgf_runs(m: int, p: float):
    if 0.0 < p < 1.0 and m > MGF_MAX_RUNS:
        raise InfeasibleError(f"inclusion-exclusion over {m} runs exceeds the cap of {MGF_MAX_RUNS}")


def prob_uncovered_run_mgf(run_lengths, p: float, T) -> ProbReport:
    """Probability that no trace both keeps every run alive and keeps some run
    fully intact, summed over traces by inclusion-exclusion on the run set.

    Exact for any trace count, including analytic ones.  Of the 2^M - 1
    nonempty run subsets, a subset's term depends only on its sum of
    ln(beta_i) and its sign on its parity, so each distinct sum is evaluated
    once, weighted by its odd and even subsets; tied run lengths make the
    sums few.  M above MGF_MAX_RUNS raises InfeasibleError when 0 < p < 1,
    before the run lengths are read.

    The alternating sum is taken exactly (fsum), so only its terms' own
    rounding reaches P, amplified at most 2^M - 1 times: subset K's term is
    Pr(every run in K uncovered), at most Pr(run i uncovered) <= P for each
    i in K, so the terms' magnitudes sum to at most (2^M - 1) P.  That bounds
    the error in P, not in 1 - P, which is the error that matters near
    P = 1; nothing bounds that one yet.
    """
    p = _check_p(p)
    _check_mgf_runs(len(run_lengths), p)
    lengths = _check_lengths(run_lengths)
    count = _as_count(T)
    if p in (0.0, 1.0):
        return _report(0.0 if p else NEG_INF, "exact-closed-form")
    ln_beta, ln_px = _run_log_quantities(lengths, p)
    # Per nonempty subset K: sign (-1)^{|K|+1} times (1 - p_X (1 - prod beta))^T.
    # Group the subsets by their float sum of ln(beta_i), as (even, odd)
    # counts.  Built from the highest run down, each sum gets the additions
    # a sum over its subset alone would, lowest run last; equal sums stay
    # equal under one more addition, so merging them as they appear is exact.
    groups = {0.0: (1, 0)}  # the empty subset
    for b in reversed(ln_beta):
        grown = dict(groups)
        for v, (n_even, n_odd) in groups.items():
            s = v + b
            e, o = grown.get(s, (0, 0))
            grown[s] = (e + n_odd, o + n_even)  # one more run flips the parity
        groups = grown
    n_even, n_odd = groups[0.0]
    groups[0.0] = (n_even - 1, n_odd)  # drop the empty subset
    # one term per distinct sum, of weight (odd subsets) - (even subsets); the
    # dict is drained as the list grows, so both are never held in full.  A
    # group left with no subset, the empty one's at worst, has no term.
    terms = []
    while groups:
        v, (n_even, n_odd) = groups.popitem()
        if n_even or n_odd:
            terms.append((pow_one_minus_ln(ln_px + ln_one_minus_exp(v), count.ln_value), n_odd - n_even))
    top = max(ln_mag for ln_mag, _ in terms)
    if top == NEG_INF:
        return _report(NEG_INF, "exact-closed-form")  # every term underflows
    # weight w enters as the exact pieces x * 2^b, one per set bit b of |w|,
    # so fsum gives the sum of the |w| listed copies
    pieces = []
    for ln_mag, w in terms:
        x = math.copysign(math.exp(ln_mag - top), w)
        w = abs(w)
        while w:
            bit = w & -w
            pieces.append(x * bit)
            w ^= bit
    return _report(top + math.log(math.fsum(pieces)), "exact-closed-form")


def prob_uncovered_run_sum(run_lengths, p: float, T) -> ProbReport:
    """Same probability as prob_uncovered_run_mgf, summed instead over the
    number of traces that kept every run alive; requires a literal trace count
    (O(T * M) work).  P and 1 - P are each a sum of nonnegative terms, so no
    cancellation: the smaller is taken as summed, and P from it."""
    lengths = _check_lengths(run_lengths)
    p = _check_p(p)
    count = _as_count(T)
    if count.is_analytic or count.exact > DIRECT_SUM_MAX_TRACES:
        raise ValueError(
            f"direct sum needs a literal trace count <= {DIRECT_SUM_MAX_TRACES}"
        )
    if p in (0.0, 1.0):
        return _report(0.0 if p else NEG_INF, "exact-direct-sum")
    t_count = count.exact
    ln_beta, ln_px = _run_log_quantities(lengths, p)
    ln_qx = ln_one_minus_exp(ln_px)  # some run wiped out in a given trace
    # ln w_j (1 - phi_j), which sum to P, and ln w_j phi_j, which sum to 1 - P,
    # over j clean traces: w_j = P(j clean), phi_j = P(covered | j clean)
    uncovered, covered = [], []
    for j in range(t_count + 1):
        # with no clean trace no run is covered: phi_0 = 0
        ln_phi = math.fsum(ln_one_minus_exp(j * lb) for lb in ln_beta) if j else NEG_INF
        if j and j * max(ln_beta) < _TINY_LOG:
            # every beta_i^j is below e^-500, where 1 - prod(1 - beta_i^j) is
            # their sum to double precision and 1 - beta_i^j rounds to 1
            ln_miss = logsumexp_pos([j * lb for lb in ln_beta])
        else:
            ln_miss = ln_one_minus_exp(ln_phi)
        # no trace lost a run at j = T; ln_qx is -inf where every p^r underflows
        ln_lost = (t_count - j) * ln_qx if j < t_count else 0.0
        ln_weight = log_comb(t_count, j) + j * ln_px + ln_lost
        uncovered.append(ln_weight + ln_miss)
        covered.append(ln_weight + ln_phi)
    ln_m, ln_a = logsumexp_pos(uncovered), logsumexp_pos(covered)
    return _report(ln_m if ln_m <= ln_a else ln_one_minus_exp(ln_a), "exact-direct-sum")


def prob_uncovered_run_asymptotic(fractions, p: float, c: float, T) -> ProbReport:
    """Large-n shape of the uncovered-run probability for run-length fractions
    ell_i under T = exp(c * n^a).  The longest run dominates; N equal-longest
    runs contribute a multiplicity factor."""
    fracs = _check_lengths(fractions)
    p = _check_p(p, open_interval=True)
    if c <= 0:
        raise ValueError("growth rate c must be positive")
    count = _as_count(T)
    ln_t = count.ln_value
    ln_p = math.log(p)
    ln_q = math.log1p(-p)
    q = [frac / c for frac in fracs]
    ell_star = max(fracs)
    i_star = fracs.index(ell_star)
    multiplicity = sum(1 for frac in fracs if frac == ell_star)
    # F = prod_k (1 - T^{q_k ln p}); each factor in (0, 1)
    ln_factors = [ln_one_minus_exp(qk * ln_p * ln_t) for qk in q]
    ln_power = (q[i_star] * ln_q + 1.0) * ln_t
    drop = math.fsum(ln_factors) + ln_power - ln_factors[i_star]
    ln_value = math.log(multiplicity) + neg_exp(drop)
    flags: tuple[str, ...] = ()
    if c <= critical_rate(1, ell_star, p):
        flags = ("outside-validity-regime",)
    return _report(ln_value, "asymptotic", flags=flags)


def log_ratio_diagnostic(fractions, p: float, c: float, n: float) -> float:
    """ln of the uncovered-run probability over ln of the no-witness
    probability for the dominant run, at T = exp(c * n).  Tends to one
    above the critical rate."""
    fracs = _check_lengths(fractions)
    count = TraceCount.exponential(c, n)
    lengths = [frac * float(n) for frac in fracs]
    numerator = prob_uncovered_run_mgf(lengths, p, count).ln_value
    denominator = prob_no_pattern_witness_exact(1, max(lengths), p, count).ln_value
    if numerator == 0.0 or denominator == 0.0:
        raise ValueError("ratio undefined: a log-probability is exactly zero")
    return numerator / denominator


# ---------------------------------------------------------------------------
# polynomial trace schedules

def poly_trace_table(fractions, p: float, c: float, b: float, m_grid) -> list[tuple]:
    """Rows (m, T, value, ln_value) of the probability that some run is nicked
    by every one of T = ceil(c * m^b) traces, with run lengths r_i = ell_i * m:
    1 - prod_i (1 - (1 - (1-p)^{r_i})^T).  Runs are treated independently,
    which is exact for this event."""
    fracs = _check_lengths(fractions)
    p = _check_p(p)
    if c <= 0 or b <= 0:
        raise ValueError("schedule needs c > 0 and b > 0")
    ln_q = math.log1p(-p) if p < 1.0 else NEG_INF  # ln(1 - p)
    rows = []
    for m in m_grid:
        m = int(m)
        if m < 1:
            raise ValueError("grid sizes must be positive")
        t_count = max(1, math.ceil(c * m**b))
        ln_t = TraceCount.integer(t_count).ln_value
        ln_every_run_kept = math.fsum(ln_one_minus_exp(pow_one_minus_ln(frac * m * ln_q, ln_t)) for frac in fracs)
        report = _report(ln_one_minus_exp(ln_every_run_kept), "exact-closed-form")
        rows.append((m, t_count, report.value, report.ln_value))
    return rows
