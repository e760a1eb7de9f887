"""Log-domain helpers for probabilities far below floating-point range.

Everything here works on natural logs.  The recurring shapes are
log(1 - e^x) for x <= 0, the T-th power of (1 - e^x) where log(T) itself
can be in the hundreds, and alternating sums whose terms only exist as
logs with signs.
"""

import math

NEG_INF = -float("inf")
_LN2 = math.log(2.0)
# exp() overflows just above this; a larger exponent means the power is 0.
_EXP_OVERFLOW = 709.0
# below this, log(-log(1 - e^x)) equals x to double precision
_TINY_LOG = -500.0


def ln_one_minus_exp(lx):
    """log(1 - e**lx) for lx <= 0.  Returns -inf at lx == 0."""
    if lx > 0:
        raise ValueError(f"need lx <= 0, got {lx}")
    if lx == 0.0:
        return NEG_INF
    if lx > -_LN2:
        # 1 - e^lx is small; -expm1 keeps the leading digits
        return math.log(-math.expm1(lx))
    return math.log1p(-math.exp(lx))


def ln_neg_ln_one_minus_exp(lx):
    """log(-log(1 - e**lx)) for lx < 0.

    For very negative lx, -log(1 - e^lx) ~ e^lx, so the answer is lx itself;
    the explicit branch avoids log1p underflowing to exactly 0.
    """
    if lx >= 0:
        raise ValueError(f"need lx < 0, got {lx}")
    if lx < _TINY_LOG:
        return lx
    return math.log(-ln_one_minus_exp(lx))


def pow_one_minus_ln(lx, ln_count):
    """log((1 - e**lx)**T) given lx <= 0 and ln_count = log(T).

    Works for T far beyond integer range; underflows cleanly to -inf.
    """
    if lx == NEG_INF:
        return 0.0
    if lx == 0.0:
        return NEG_INF  # zero base, any positive power
    exponent = ln_count + ln_neg_ln_one_minus_exp(lx)
    if exponent > _EXP_OVERFLOW:
        return NEG_INF
    return -math.exp(exponent)


def log_comb(n, k):
    """log of the binomial coefficient C(n, k)."""
    if k < 0 or k > n:
        return NEG_INF
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def logsumexp_pos(ln_values):
    """log of a sum of positive terms given by their logs."""
    m = max(ln_values, default=NEG_INF)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(math.fsum(math.exp(v - m) for v in ln_values))


def signed_logsumexp(ln_mags, weights):
    """Sum of weighted terms given as (log magnitude, integer weight).

    A weight w stands for |w| copies of the term with the sign of w, so
    weights of +-1 are plain signs.  Returns (log |sum|, sign of sum,
    cancelled).  The sum itself is exact (fsum): each |w| * t enters as
    the pieces t * 2^b, one per set bit b of |w|, each exact, so the result
    is the one the |w| listed copies give.  `cancelled` is set when the
    input terms' own rounding, roughly eps per term, is no longer
    negligible against the total, i.e. when eps * sum|t| / |sum t| exceeds
    1e-9, so an unflagged log is good to about 1e-9.
    """
    if len(ln_mags) != len(weights):
        raise ValueError("ln_mags and weights must have equal length")
    m = max((v for v in ln_mags if v != NEG_INF), default=NEG_INF)
    if m == NEG_INF:
        return NEG_INF, 0, False
    scaled = []
    for v, w in zip(ln_mags, weights):
        k = int(w)
        if k != w:
            raise ValueError(f"weights must be integers, got {w!r}")
        x = math.copysign(math.exp(v - m), k)
        k = abs(k)
        while k:
            bit = k & -k
            scaled.append(x * bit)
            k ^= bit
    total = math.fsum(scaled)
    gross = math.fsum(abs(x) for x in scaled)
    eps = math.ulp(1.0)
    if total == 0.0:
        return NEG_INF, 0, True
    cancelled = eps * gross / abs(total) > 1e-9
    return m + math.log(abs(total)), (1 if total > 0 else -1), cancelled
