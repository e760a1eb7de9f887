"""Closed-form and asymptotic probabilities for the two reconstruction events,
plus the threshold on the trace-count growth rate separating them.

Everything here works in the log domain; see logspace for the primitives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .logspace import (
    _EXP_OVERFLOW,
    _TINY_LOG,
    NEG_INF,
    ln_one_minus_exp,
    log_comb,
    logsumexp_pos,
    pow_one_minus_ln,
    signed_logsumexp,
)
from .reconstruct import InfeasibleError

__all__ = [
    "METHODS",
    "MGF_MAX_RUNS",
    "DIRECT_SUM_MAX_TRACES",
    "ProbReport",
    "TraceCount",
    "ThresholdParams",
    "critical_rate",
    "prob_no_pattern_witness_exact",
    "prob_no_pattern_witness_asymptotic",
    "prob_uncovered_run_mgf",
    "prob_uncovered_run_sum",
    "prob_uncovered_run_asymptotic",
    "prob_unpreserved_run",
    "poly_trace_table",
    "log_ratio_diagnostic",
]

METHODS = frozenset(
    {"exact-closed-form", "exact-direct-sum", "asymptotic", "monte-carlo"}
)

MGF_MAX_RUNS = 20
DIRECT_SUM_MAX_TRACES = 10_000

_LN_INT64_MAX = math.log(2**63 - 1)
_LN_TENTH = math.log(0.1)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def materialize(self) -> int:
        if self.exact is not None:
            return self.exact
        if self.ln_value > _LN_INT64_MAX:
            raise ValueError("trace count too large to materialize")
        return max(1, round(math.exp(self.ln_value)))


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

@dataclass(frozen=True)
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

    @property
    def critical_rate(self) -> float:
        return critical_rate(self.r, self.ell, self.p)


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
    if p == 0.0:
        return _report(NEG_INF, "exact-closed-form")
    if p == 1.0:
        return _report(0.0, "exact-closed-form")
    x = p ** int(r)
    if x < sys.float_info.min:
        # p^r is subnormal or 0, lost against 1 in (1 - p^r)^f = e^-u with
        # u = f p^r: carry ln u instead.  ln(1 - e^-u), the log chance that a
        # trace wipes a copy, is ln u to double precision below e^-500
        lu = math.log(f) + int(r) * math.log(p)
        ln_wipe = lu if lu < _TINY_LOG else ln_one_minus_exp(-math.exp(lu))
        exponent = count.ln_value + math.log(-ln_wipe)
        return _report(NEG_INF if exponent > _EXP_OVERFLOW else -math.exp(exponent), "exact-closed-form")
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
    power = (slope + 1.0) * count.ln_value
    ln_value = NEG_INF if power > _EXP_OVERFLOW else -math.exp(power)
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
        ln_alive = math.log1p(-math.exp(r * ln_p))  # run not fully deleted
        ln_px += ln_alive
        ln_delta = min(ln_keep_all - ln_alive, 0.0)
        ln_beta.append(ln_one_minus_exp(ln_delta))
    return ln_beta, ln_px


def prob_uncovered_run_mgf(run_lengths, p: float, T) -> ProbReport:
    """Probability that no trace both keeps every run alive and keeps some run
    fully intact, summed over traces by inclusion-exclusion on the run set.

    Exact for any trace count, including analytic ones.  Of the 2^M - 1
    nonempty run subsets, a subset's term depends only on its sum of
    ln(beta_i) and its sign on its parity, so each distinct sum is evaluated
    once, weighted by its odd and even subsets; tied run lengths make the
    sums few.  M above MGF_MAX_RUNS raises InfeasibleError.
    """
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
    flags: tuple[str, ...] = ()
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
    # one term per distinct sum, weighted +1 per odd subset and -1 per even
    # one; the dict is drained as the lists grow, so both are never held in full
    ln_mags = []
    weights = []
    while groups:
        v, (n_even, n_odd) = groups.popitem()
        ln_mag = pow_one_minus_ln(ln_px + ln_one_minus_exp(v), count.ln_value)
        if n_odd:
            ln_mags.append(ln_mag)
            weights.append(n_odd)
        if n_even:
            ln_mags.append(ln_mag)
            weights.append(-n_even)
    ln_total, sign, cancelled = signed_logsumexp(ln_mags, weights)
    if cancelled:
        flags += ("catastrophic-cancellation",)
    if sign <= 0:
        # alternating sum rounded below zero; the true value is nonnegative
        return _report(NEG_INF, "exact-closed-form", flags=flags or ("catastrophic-cancellation",))
    return _report(ln_total, "exact-closed-form", flags=flags)


def prob_uncovered_run_sum(run_lengths, p: float, T) -> ProbReport:
    """Same probability as prob_uncovered_run_mgf, summed instead over the
    number of traces that kept every run alive.  All terms are nonnegative,
    so no cancellation; requires a literal trace count (O(T * M) work)."""
    lengths = _check_lengths(run_lengths)
    p = _check_p(p)
    count = _as_count(T)
    if count.is_analytic or count.exact > DIRECT_SUM_MAX_TRACES:
        raise ValueError(
            f"direct sum needs a literal trace count <= {DIRECT_SUM_MAX_TRACES}"
        )
    if p == 0.0:
        return _report(NEG_INF, "exact-direct-sum")
    if p == 1.0:
        return _report(0.0, "exact-direct-sum")
    t_count = count.exact
    ln_beta, ln_px = _run_log_quantities(lengths, p)
    ln_qx = ln_one_minus_exp(ln_px)  # some run wiped out in a given trace
    terms = []
    for j in range(t_count + 1):
        # ln P(covered | j clean traces) summed out of the complement
        if j == 0:
            ln_miss = 0.0
        elif j * max(ln_beta) < _TINY_LOG:
            # every beta_i^j is below e^-500, where 1 - prod(1 - beta_i^j) is
            # their sum to double precision and 1 - beta_i^j rounds to 1
            ln_miss = logsumexp_pos([j * lb for lb in ln_beta])
        else:
            ln_phi = math.fsum(ln_one_minus_exp(j * lb) for lb in ln_beta)
            ln_miss = ln_one_minus_exp(ln_phi)
        if ln_miss == NEG_INF:
            continue
        # no trace lost a run at j = T; ln_qx is -inf where every p^r underflows
        ln_lost = (t_count - j) * ln_qx if j < t_count else 0.0
        ln_weight = log_comb(t_count, j) + j * ln_px + ln_lost
        terms.append(ln_weight + ln_miss)
    if not terms:
        return _report(NEG_INF, "exact-direct-sum")
    return _report(logsumexp_pos(terms), "exact-direct-sum")


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
    ln_f = math.fsum(math.log1p(-math.exp(qk * ln_p * ln_t)) for qk in q)
    ln_power = (q[i_star] * ln_q + 1.0) * ln_t
    ln_d = math.log1p(-math.exp(q[i_star] * ln_p * ln_t))
    drop = ln_f + ln_power - ln_d
    ln_value = NEG_INF if drop > _EXP_OVERFLOW else math.log(multiplicity) - math.exp(drop)
    flags: tuple[str, ...] = ()
    if c <= critical_rate(1, ell_star, p):
        flags = ("outside-validity-regime",)
    return _report(ln_value, "asymptotic", flags=flags)


def log_ratio_diagnostic(fractions, p: float, c: float, n: float, a: float = 1.0) -> float:
    """ln of the uncovered-run probability over ln of the no-witness
    probability for the dominant run, at T = exp(c * n^a).  Tends to one
    above the critical rate."""
    fracs = _check_lengths(fractions)
    count = TraceCount.exponential(c, n, a)
    lengths = [frac * float(n) for frac in fracs]
    numerator = prob_uncovered_run_mgf(lengths, p, count).ln_value
    denominator = prob_no_pattern_witness_exact(1, max(lengths), p, count).ln_value
    if numerator == 0.0 or denominator == 0.0:
        raise ValueError("ratio undefined: a log-probability is exactly zero")
    return numerator / denominator


# ---------------------------------------------------------------------------
# polynomial trace schedules

def prob_unpreserved_run(run_lengths, p: float, T) -> ProbReport:
    """Probability that some run is nicked by every one of T traces:
    1 - prod_i (1 - (1 - (1-p)^{r_i})^T).  Runs are treated independently,
    which is exact for this event."""
    lengths = _check_lengths(run_lengths)
    p = _check_p(p)
    count = _as_count(T)
    if p == 0.0:
        return _report(NEG_INF, "exact-closed-form")
    if p == 1.0:
        return _report(0.0, "exact-closed-form")
    ln_q = math.log1p(-p)
    ln_all_hit = [pow_one_minus_ln(r * ln_q, count.ln_value) for r in lengths]
    ln_every_run_kept = math.fsum(ln_one_minus_exp(la) for la in ln_all_hit)
    return _report(ln_one_minus_exp(ln_every_run_kept), "exact-closed-form")


def poly_trace_table(fractions, p: float, c: float, b: float, m_grid) -> list[tuple]:
    """Rows (m, T, value, ln_value) of the unpreserved-run probability with
    run lengths ell_i * m and T = ceil(c * m^b) traces."""
    fracs = _check_lengths(fractions)
    p = _check_p(p)
    if c <= 0 or b <= 0:
        raise ValueError("schedule needs c > 0 and b > 0")
    rows = []
    for m in m_grid:
        m = int(m)
        if m < 1:
            raise ValueError("grid sizes must be positive")
        t_count = max(1, math.ceil(c * m**b))
        lengths = [frac * m for frac in fracs]
        report = prob_unpreserved_run(lengths, p, TraceCount.integer(t_count))
        rows.append((m, t_count, report.value, report.ln_value))
    return rows
