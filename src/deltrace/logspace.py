"""Log-domain helpers for probabilities far below floating-point range.

Everything here works on natural logs.  The recurring shapes are
log(1 - e^x) for x <= 0, the T-th power of (1 - e^x) where log(T) itself
can be in the hundreds, and sums of positive terms that only exist as logs.
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


def neg_exp(x):
    """-e**x, and -inf where e**x would overflow."""
    return NEG_INF if x > _EXP_OVERFLOW else -math.exp(x)


def pow_one_minus_ln(lx, ln_count):
    """log((1 - e**lx)**T) given lx <= 0 and ln_count = log(T).

    Works for T far beyond integer range; underflows cleanly to -inf.
    """
    if lx == NEG_INF:
        return 0.0
    if lx == 0.0:
        return NEG_INF  # zero base, any positive power
    # log(-log(1 - e^lx)); below _TINY_LOG, -log(1 - e^lx) is e^lx to double
    # precision, where log1p would underflow to exactly 0
    ln_neg_ln = lx if lx < _TINY_LOG else math.log(-ln_one_minus_exp(lx))
    return neg_exp(ln_count + ln_neg_ln)


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

