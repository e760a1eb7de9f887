import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltrace.analytics import (
    DIRECT_SUM_MAX_TRACES,
    MGF_MAX_RUNS,
    ProbReport,
    ThresholdParams,
    TraceCount,
    critical_rate,
    log_ratio_diagnostic,
    poly_trace_table,
    prob_no_pattern_witness_asymptotic,
    prob_no_pattern_witness_exact,
    prob_uncovered_run_asymptotic,
    prob_uncovered_run_mgf,
    prob_uncovered_run_sum,
    prob_unpreserved_run,
)
from deltrace.reconstruct import InfeasibleError
from oracles import (
    event_prob_oracle,
    every_trace_kills_a_copy,
    mgf_per_subset,
    some_run_uncovered,
)


class TestTraceCount:
    def test_integer_round_trip(self):
        count = TraceCount.integer(64)
        assert count.exact == 64 and not count.is_analytic
        assert count.ln_value == pytest.approx(math.log(64))

    def test_big_integer(self):
        big = 10**30
        count = TraceCount.integer(big)
        assert count.exact == big and count.ln_value == pytest.approx(30 * math.log(10))

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="empty trace set has undefined sufficiency"):
            TraceCount.integer(0)

    def test_exponential_schedule(self):
        count = TraceCount.exponential(0.5, 100)
        assert count.is_analytic
        assert count.ln_value == pytest.approx(50.0)

    def test_sublinear_exponent(self):
        count = TraceCount.exponential(2.0, 10_000, a=0.5)
        assert count.ln_value == pytest.approx(200.0)


class TestCriticalRate:
    def test_known_value(self):
        # r=1, ell=1, p=1/2: rate is ln 2
        assert critical_rate(1, 1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_formula_shape(self):
        # rate = -ell * ln(1 - p^r), checked against direct evaluation
        for r, ell, p in [(2, 0.5, 0.3), (3, 0.25, 0.7), (1, 0.9, 0.1)]:
            assert critical_rate(r, ell, p) == pytest.approx(
                -ell * math.log(1 - p**r), rel=1e-14
            )

    def test_degenerate_p_rejected(self):
        with pytest.raises(ValueError):
            critical_rate(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            critical_rate(1, 1.0, 1.0)

    def test_params_validation(self):
        # critical_rate validates its arguments through ThresholdParams
        for r, ell, match in [(0, 0.5, "pattern length"), (1.5, 0.5, "pattern length"),
                              (1, 0.0, "length fraction"), (1, 1.5, "length fraction")]:
            with pytest.raises(ValueError, match=match):
                ThresholdParams(r=r, ell=ell, p=0.3)
            with pytest.raises(ValueError, match=match):
                critical_rate(r, ell, 0.3)


class TestPatternWitnessExact:
    def test_edge_probabilities(self):
        assert prob_no_pattern_witness_exact(1, 4, 0.0, 3).value == 0.0
        assert prob_no_pattern_witness_exact(1, 4, 1.0, 3).value == 1.0

    def test_single_copy_single_trace(self):
        # one copy of a 2-bit pattern, one trace: probability p^2 of wiping it
        report = prob_no_pattern_witness_exact(2, 1, 0.3, 1)
        assert report.value == pytest.approx(0.09, rel=1e-12)

    def test_matches_mask_enumeration(self):
        # 0000 with four single-bit copies: enumerate every mask matrix
        windows = [(j, 1) for j in range(4)]
        for p in (0.2, 0.5, 0.8):
            for t_count in (1, 2, 3):
                oracle = event_prob_oracle(
                    4, p, t_count, lambda rows: every_trace_kills_a_copy(rows, windows)
                )
                got = prob_no_pattern_witness_exact(1, 4, p, t_count).value
                assert got == pytest.approx(oracle, abs=1e-12)

    def test_matches_mask_enumeration_wide_pattern(self):
        # 010101 as three copies of "01"
        windows = [(2 * j, 2) for j in range(3)]
        oracle = event_prob_oracle(
            6, 0.4, 2, lambda rows: every_trace_kills_a_copy(rows, windows)
        )
        got = prob_no_pattern_witness_exact(2, 3, 0.4, 2).value
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_fractional_copy_count(self):
        # real-valued f interpolates the closed form smoothly
        lo = prob_no_pattern_witness_exact(1, 3.0, 0.4, 8).value
        mid = prob_no_pattern_witness_exact(1, 3.5, 0.4, 8).value
        hi = prob_no_pattern_witness_exact(1, 4.0, 0.4, 8).value
        assert lo < mid < hi

    @given(st.integers(1, 3), st.integers(1, 8), st.floats(0.05, 0.95),
           st.integers(1, 50))
    def test_monotone_in_trace_count(self, r, f, p, t_count):
        a = prob_no_pattern_witness_exact(r, f, p, t_count).value
        b = prob_no_pattern_witness_exact(r, f, p, t_count + 1).value
        assert b <= a + 1e-15

    def test_analytic_count(self):
        report = prob_no_pattern_witness_exact(1, 200, 0.5, TraceCount.exponential(0.6931, 200))
        assert 0.0 < report.value < 1.0

    def test_method_tag(self):
        assert prob_no_pattern_witness_exact(1, 2, 0.5, 4).method == "exact-closed-form"

    @pytest.mark.parametrize("r, f, p, count", [
        (1100, 3, 0.5, 4),  # p^r underflows to 0
        (1060, 1e300, 0.5, 4),  # p^r subnormal, f p^r about 1e-19
        (200, 50.0, 0.01, TraceCount.exponential(0.5, 200)),  # a 200-bit pattern, as in sweep
    ])
    def test_ln_value_exact_where_p_to_the_r_underflows(self, r, f, p, count):
        # 1 - (1 - p^r)^f = f p^r to double precision here, so
        # ln_value = T (ln f + r ln p)
        count = TraceCount.integer(count) if isinstance(count, int) else count
        expected = -math.exp(count.ln_value + math.log(-(math.log(f) + r * math.log(p))))
        assert prob_no_pattern_witness_exact(r, f, p, count).ln_value == pytest.approx(expected, rel=1e-12)


class TestUncoveredRunExact:
    def test_edge_probabilities(self):
        assert prob_uncovered_run_mgf([3, 4], 0.0, 5).value == 0.0
        assert prob_uncovered_run_mgf([3, 4], 1.0, 5).value == 1.0
        assert prob_uncovered_run_sum([3, 4], 0.0, 5).value == 0.0
        assert prob_uncovered_run_sum([3, 4], 1.0, 5).value == 1.0

    def test_matches_mask_enumeration(self):
        # runs (2, 2) in 0011 and (1, 2, 1) in 0110, full mask enumeration
        cases = [([2, 2], 4), ([1, 2, 1], 4), ([2, 1, 2], 5)]
        for lengths, n in cases:
            for p in (0.3, 0.6):
                for t_count in (1, 2):
                    oracle = event_prob_oracle(
                        n, p, t_count,
                        lambda rows: some_run_uncovered(rows, lengths),
                    )
                    mgf = prob_uncovered_run_mgf(lengths, p, t_count).value
                    direct = prob_uncovered_run_sum(lengths, p, t_count).value
                    assert mgf == pytest.approx(oracle, abs=1e-12)
                    assert direct == pytest.approx(oracle, abs=1e-12)

    def test_single_run_reduces_to_pattern_form(self):
        # one run of length u: uncovered iff every trace nicks it, which is
        # the single-copy pattern event with r=1, f=u
        for u in (1, 3, 7):
            for p in (0.2, 0.7):
                a = prob_uncovered_run_mgf([u], p, 6).value
                b = prob_no_pattern_witness_exact(1, u, p, 6).value
                assert a == pytest.approx(b, rel=1e-12)

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.floats(0.05, 0.95),
        st.integers(1, 64),
    )
    def test_routes_agree(self, lengths, p, t_count):
        mgf = prob_uncovered_run_mgf(lengths, p, t_count)
        direct = prob_uncovered_run_sum(lengths, p, t_count)
        assert mgf.value == pytest.approx(direct.value, abs=1e-9)

    # true ln_value from 3000-digit mpmath.  Every p^r underflows in the first
    # and third rows, so ln p_X = 0 and ln(1 - p_X) = -inf; in the last three
    # beta_i^j underflows at the j that carry the sum
    @pytest.mark.parametrize("lengths,p,t_count,ln_true", [
        ([400, 400], 0.1, 3, -2.2297186216104693e-36),  # runs [0.5, 0.5] at n = 800
        ([5, 5], 1e-3, 150, -794.35445775158564),
        ([5, 5], 1e-110, 3, -754.33161977017283),
        ([1, 1, 2], 1e-3, 300, -1656.8883128211411),
    ])
    def test_direct_sum_where_terms_underflow(self, lengths, p, t_count, ln_true):
        report = prob_uncovered_run_sum(lengths, p, t_count)
        assert report.ln_value == pytest.approx(ln_true, rel=1e-12, abs=0)
        assert report.value == pytest.approx(math.exp(ln_true), rel=1e-12)

    def test_real_valued_run_lengths(self):
        report = prob_uncovered_run_mgf([2.5, 5.0, 2.5], 0.25, 16)
        assert 0.0 < report.value < 1.0

    def test_direct_sum_needs_literal_count(self):
        with pytest.raises(ValueError, match="literal trace count"):
            prob_uncovered_run_sum([2, 2], 0.3, TraceCount.exponential(1.0, 50))
        with pytest.raises(ValueError, match="literal trace count"):
            prob_uncovered_run_sum([2, 2], 0.3, DIRECT_SUM_MAX_TRACES + 1)

    def test_run_cap(self):
        lengths = [1.0] * (MGF_MAX_RUNS + 1)
        with pytest.raises(InfeasibleError, match="exceeds the cap"):
            prob_uncovered_run_mgf(lengths, 0.3, 4)

        class Unread:  # the cap is checked before the lengths are read
            def __len__(self):
                return MGF_MAX_RUNS + 1

            def __iter__(self):
                raise AssertionError("run lengths read before the run cap")

        with pytest.raises(InfeasibleError, match=f"over {MGF_MAX_RUNS + 1} runs exceeds the cap"):
            prob_uncovered_run_mgf(Unread(), 0.3, 4)
        # p = 0 and p = 1 need no sum, so the cap does not apply
        assert prob_uncovered_run_mgf(lengths, 0.0, 4).value == 0.0
        assert prob_uncovered_run_mgf(lengths, 1.0, 4).value == 1.0

    def test_empty_lengths_rejected(self):
        with pytest.raises(ValueError, match="empty string has no runs"):
            prob_uncovered_run_mgf([], 0.3, 4)


@st.composite
def _tied_lengths(draw):
    """Up to 12 run lengths drawn from a small pool, so ties, interleaved
    ties and runs of length 1 (beta = 0) are common."""
    pool = draw(st.lists(
        st.one_of(st.integers(1, 40), st.floats(0.5, 40.0)), min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))


_COUNTS = st.one_of(
    st.integers(1, 10**6),
    st.builds(TraceCount.exponential, st.floats(0.01, 0.5), st.sampled_from([50, 100, 200, 400])),
)


class TestUncoveredRunGrouped:
    """prob_uncovered_run_mgf evaluates each distinct subset term once; its
    reports must equal the one-term-per-subset sum exactly, not nearly
    (ProbReport equality compares value, ln_value, method and flags)."""

    @settings(max_examples=150, deadline=None)
    @given(
        _tied_lengths(),
        st.one_of(st.floats(1e-6, 1 - 1e-6), st.sampled_from([1e-12, 1e-9, 1 - 1e-9, 1 - 1e-12])),
        _COUNTS,
    )
    def test_equals_per_subset_sum(self, lengths, p, count):
        assert prob_uncovered_run_mgf(lengths, p, count) == mgf_per_subset(lengths, p, count)

    @pytest.mark.parametrize("lengths", [
        [3, 5, 3, 5],
        [1, 4, 1, 4, 1],
        [2.5, 7.0, 2.5, 7.0, 2.5, 7.0],
        [1] * 12,
        [6] * 12,
        list(range(1, 13)),
    ])
    @pytest.mark.parametrize("p", [1e-9, 0.3, 1 - 1e-9])
    def test_fixed_ties(self, lengths, p):
        for count in (7, TraceCount.exponential(0.05, 200)):
            assert prob_uncovered_run_mgf(lengths, p, count) == mgf_per_subset(lengths, p, count)

    @pytest.mark.parametrize("c", [0.03, 0.05, 0.08])
    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_sweep_bench_points(self, c, n):
        # the sweep-ie bench source: 4 runs of 0.1 n and 12 of 0.05 n, p = 0.4
        lengths = [0.1 * n] * 4 + [0.05 * n] * 12
        count = TraceCount.exponential(c, n)
        assert prob_uncovered_run_mgf(lengths, 0.4, count) == mgf_per_subset(lengths, 0.4, count)

    def test_twenty_distinct_runs(self):
        lengths = [1.0 + 0.37 * i for i in range(MGF_MAX_RUNS)]
        count = TraceCount.exponential(0.05, 200)
        assert prob_uncovered_run_mgf(lengths, 0.3, count) == mgf_per_subset(lengths, 0.3, count)


class TestAsymptotics:
    def test_pattern_witness_agreement(self):
        params = ThresholdParams(r=1, ell=0.5, p=0.25)
        c = 1.2 * critical_rate(1, 0.5, 0.25)
        count = TraceCount.exponential(c, 400)
        exact = prob_no_pattern_witness_exact(1, 200, 0.25, count)
        asym = prob_no_pattern_witness_asymptotic(params, c, count)
        rel = abs(asym.ln_value - exact.ln_value) / abs(exact.ln_value)
        assert rel < 1e-6

    def test_pattern_witness_flags_breakdown(self):
        # pattern of 100 zeros then 100 ones, ell = 1: p^r underflows, so
        # nearly every trace wipes no copy and -T^E reads -T, far off the
        # exact T * ln(f p^r)
        params = ThresholdParams(r=200, ell=1.0, p=0.01)
        asym = prob_no_pattern_witness_asymptotic(params, 0.05, TraceCount.exponential(0.05, 200))
        assert asym.flags == ("outside-validity-regime",)

    @pytest.mark.parametrize("r, ell, p", [(1, 0.5, 0.25), (2, 1.0, 0.5)])
    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_pattern_witness_unflagged_above_threshold(self, r, ell, p, n):
        # criterion 9's parameter sets
        c = 1.2 * critical_rate(r, ell, p)
        asym = prob_no_pattern_witness_asymptotic(ThresholdParams(r, ell, p), c,
                                                  TraceCount.exponential(c, n))
        assert asym.flags == ()

    def test_uncovered_agreement(self):
        fractions = [0.25, 0.5, 0.25]
        c = 1.2 * critical_rate(1, 0.5, 0.25)
        n = 400
        count = TraceCount.exponential(c, n)
        exact = prob_uncovered_run_mgf([f * n for f in fractions], 0.25, count)
        asym = prob_uncovered_run_asymptotic(fractions, 0.25, c, count)
        rel = abs(asym.ln_value - exact.ln_value) / abs(exact.ln_value)
        assert rel < 1e-3

    def test_validity_flag(self):
        fractions = [0.5, 0.5]
        c_star = critical_rate(1, 0.5, 0.3)
        below = prob_uncovered_run_asymptotic(fractions, 0.3, 0.5 * c_star,
                                              TraceCount.exponential(0.5 * c_star, 100))
        above = prob_uncovered_run_asymptotic(fractions, 0.3, 2.0 * c_star,
                                              TraceCount.exponential(2.0 * c_star, 100))
        assert "outside-validity-regime" in below.flags
        assert "outside-validity-regime" not in above.flags

    def test_multiplicity_counts_equal_longest_runs(self):
        # two equal longest runs double the leading coefficient; at matched
        # (c, n) the ln values differ by about ln 2
        c = 1.2 * critical_rate(1, 0.4, 0.3)
        count = TraceCount.exponential(c, 300)
        single = prob_uncovered_run_asymptotic([0.4, 0.35, 0.25], 0.3, c, count)
        double = prob_uncovered_run_asymptotic([0.4, 0.4, 0.2], 0.3, c, count)
        assert double.ln_value - single.ln_value == pytest.approx(math.log(2), abs=0.35)


class TestLogRatio:
    def test_converges_to_one(self):
        c = 1.2 * critical_rate(1, 0.5, 0.25)
        deviations = [
            abs(log_ratio_diagnostic([0.25, 0.5, 0.25], 0.25, c, n) - 1.0)
            for n in (50, 100, 200)
        ]
        assert deviations[0] < 0.05
        assert deviations == sorted(deviations, reverse=True)

    def test_undefined_ratio_rejected(self):
        # p = 1 drives both probabilities to 1, so both logs vanish
        with pytest.raises(ValueError, match="ratio undefined"):
            log_ratio_diagnostic([0.5, 0.5], 1.0, 0.5, 10)


class TestPolySchedules:
    def test_unpreserved_single_run_closed_form(self):
        # one run of length m, T traces: probability (1 - (1-p)^m)^T
        for m, p, t_count in [(5, 0.3, 4), (10, 0.5, 16)]:
            expected = (1 - (1 - p) ** m) ** t_count
            got = prob_unpreserved_run([m], p, t_count).value
            assert got == pytest.approx(expected, rel=1e-12)

    def test_unpreserved_multi_run(self):
        # independent runs: 1 - prod(1 - A_i^T)
        lengths, p, t_count = [2, 3], 0.4, 3
        a_vals = [(1 - (1 - p) ** r) ** t_count for r in lengths]
        expected = 1 - (1 - a_vals[0]) * (1 - a_vals[1])
        got = prob_unpreserved_run(lengths, p, t_count).value
        assert got == pytest.approx(expected, rel=1e-12)

    def test_table_rows(self):
        rows = poly_trace_table([1.0], 0.5, 1.0, 2.0, [10, 20, 40])
        assert [(m, t) for m, t, _, _ in rows] == [(10, 100), (20, 400), (40, 1600)]
        values = [v for _, _, v, _ in rows]
        assert values == sorted(values)  # failure probability grows with m

    def test_table_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            poly_trace_table([1.0], 0.5, 1.0, 2.0, [0])


class TestProbReport:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            ProbReport(value=1.5, ln_value=0.4, method="exact-closed-form")

    def test_method_validation(self):
        with pytest.raises(ValueError):
            ProbReport(value=0.5, ln_value=math.log(0.5), method="guesswork")
