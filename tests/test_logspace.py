import math
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltrace.logspace import (
    NEG_INF,
    ln_one_minus_exp,
    log_comb,
    logsumexp_pos,
    pow_one_minus_ln,
)


class TestLnOneMinusExp:
    def test_benign_values(self):
        for lx in (-0.1, -0.5, -1.0, -3.0, -10.0):
            assert ln_one_minus_exp(lx) == pytest.approx(math.log(1 - math.exp(lx)), rel=1e-14)

    def test_near_zero_keeps_precision(self):
        lx = -1e-12  # 1 - e^lx is about 1e-12; naive evaluation loses it
        assert ln_one_minus_exp(lx) == pytest.approx(math.log(1e-12), abs=1e-6)

    def test_deep_negative(self):
        # 1 - e^lx is essentially 1, so the log is essentially -e^lx
        assert ln_one_minus_exp(-700.0) == pytest.approx(-math.exp(-700.0), abs=1e-300)

    def test_zero_maps_to_neg_inf(self):
        assert ln_one_minus_exp(0.0) == NEG_INF
        assert ln_one_minus_exp(NEG_INF) == 0.0

    @given(st.floats(-60.0, -1e-6))
    def test_monotone_decreasing_in_lx(self, lx):
        assert ln_one_minus_exp(lx) >= ln_one_minus_exp(lx + 1e-7) - 1e-12


class TestPowOneMinus:
    def test_matches_direct_evaluation(self):
        for lx in (-0.2, -1.0, -4.0):
            for t_count in (1, 3, 10, 100):
                expected = t_count * math.log(1 - math.exp(lx))
                got = pow_one_minus_ln(lx, math.log(t_count))
                assert got == pytest.approx(expected, rel=1e-12)

    def test_certain_base(self):
        # lx = -inf means the base is 1, so any power stays 1 (log 0)
        assert pow_one_minus_ln(NEG_INF, 100.0) == 0.0

    def test_vanishing_base(self):
        # lx = 0 means the base is 0
        assert pow_one_minus_ln(0.0, 0.0) == NEG_INF

    def test_huge_counts_underflow_cleanly(self):
        # (1 - e^-1)^(e^800) underflows to log-probability -inf, not an error
        assert pow_one_minus_ln(-1.0, 800.0) == NEG_INF

    def test_tiny_lx_large_count(self):
        # base is 1 - eps with ln eps = -500; count e^400; ln result = -e^-100
        got = pow_one_minus_ln(-500.0, 400.0)
        assert got == pytest.approx(-math.exp(-100.0), rel=1e-9, abs=0)


class TestAggregation:
    def test_log_comb_matches_math(self):
        for n in (0, 1, 5, 40, 500):
            for k in (0, 1, n // 2, n):
                assert log_comb(n, k) == pytest.approx(math.log(math.comb(n, k)) if math.comb(n, k) else NEG_INF, rel=1e-12, abs=0)

    def test_logsumexp_pos(self):
        values = [-1.0, -2.0, -3.0]
        expected = math.log(sum(math.exp(v) for v in values))
        assert logsumexp_pos(values) == pytest.approx(expected, rel=1e-14)
        assert logsumexp_pos([]) == NEG_INF
        assert logsumexp_pos([NEG_INF, -1.0]) == pytest.approx(-1.0)


class TestInnerHelper:
    # pow_one_minus_ln is -exp(ln_count + log(-log(1 - e^lx))), so a count of
    # ln_count = -log(-log(1 - e^lx)) brings it to -1
    def test_ln_neg_ln_regimes(self):
        # log1p keeps the reference stable where 1 - e^lx loses digits
        for lx in (-0.3, -1.0, -5.0, -30.0):
            ln_neg_ln = math.log(-math.log1p(-math.exp(lx)))
            assert pow_one_minus_ln(lx, -ln_neg_ln) == pytest.approx(-1.0, rel=1e-12)

    def test_ln_neg_ln_deep_tail(self):
        # below the cutoff, -ln(1 - e^lx) equals e^lx to machine precision;
        # at -800, e^lx underflows to 0 and log1p would give log(0)
        assert pow_one_minus_ln(-600.0, 600.0) == -1.0
        assert pow_one_minus_ln(-800.0, 800.0) == -1.0


def test_import_leaves_scipy_out():
    # log_comb uses math.lgamma: scipy is no runtime dependency of the CLI,
    # the object API's modules or logspace
    code = ("import sys\n"
            "import deltrace.channel, deltrace.cli, deltrace.events, deltrace.reconstruct\n"
            "from deltrace import logspace\n"
            "logspace.log_comb(10, 3)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
