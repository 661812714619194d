import functools
import math
import operator
import re

import numpy as np
import pytest
from conftest import random_interval_set

from specapprox import (
    ConvergenceReport,
    CoverStats,
    InsufficientDataError,
    Lebesgue,
    NotApplicableError,
    ReportRow,
    cantor_approximation,
    dim_bound_direct,
    dim_bound_last,
    fatten,
    fattened_measure_sequence,
    hausdorff_content_upper,
    lebesgue,
)
from specapprox.cli import main

CANTOR_DIM = math.log(2) / math.log(3)


def cantor_stats(levels=range(1, 13)) -> CoverStats:
    recs = [cantor_approximation(n) for n in levels]
    return CoverStats(
        n=tuple(levels),
        q=tuple(r.q for r in recs),
        delta=tuple(r.delta for r in recs),
        r=tuple(r.r for r in recs),
        mu_fattened=tuple(lebesgue(fatten(r.set, r.delta)) for r in recs),
    )


class TestCoverStats:
    def test_from_rows(self):
        rows = [
            {"n": 1, "q": 2, "delta": 0.5, "r": 0.5, "mu_fattened": 3.0},
            {"n": 2, "q": 4, "delta": 0.25, "r": 0.25, "mu_fattened": 2.0},
        ]
        st = CoverStats.from_rows(rows)
        assert st.q == (2, 4)
        assert st.mu_fattened == (3.0, 2.0)
        assert len(st) == 2

    # int() truncated these: n 2.9 read as 2, q 2.5 as 2
    @pytest.mark.parametrize("key, value", [("n", 2.9), ("q", 2.5), ("q", np.float64(4.5)), ("q", True)])
    def test_fractional_counts_refused(self, key, value):
        rows = [{"n": 1, "q": 2, "delta": 0.5, "r": 0.5, "mu_fattened": 3.0}]
        rows[0][key] = value
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got"):
            CoverStats.from_rows(rows)

    def test_integral_counts_read_as_ints(self):
        rows = [
            {"n": 1.0, "q": np.int64(2), "delta": 0.5, "r": 0.5, "mu_fattened": 3.0},
            {"n": "2", "q": "4", "delta": "0.25", "r": "0.25", "mu_fattened": "2.0"},  # CSV text
        ]
        st = CoverStats.from_rows(rows)
        assert (st.n, st.q) == ((1, 2), (2, 4)) and all(type(c) is int for c in st.n + st.q)

    def test_column_lengths_checked(self):
        with pytest.raises(ValueError):
            CoverStats(n=(1, 2), q=(2,), delta=(0.5, 0.25), r=(0.5, 0.25),
                       mu_fattened=(3.0, 2.0))

    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_counts_rejected(self, count):
        with pytest.raises(ValueError, match="component counts must be positive"):
            CoverStats(n=(1, 2, 3), q=(count, 4, 8), delta=(0.5,) * 3, r=(0.5,) * 3, mu_fattened=(1.0,) * 3)

    def test_from_report_csv(self, tmp_path):
        rows = [
            ReportRow(n=n, delta=1.0 / n, q=n, r=0.0, mu_raw=1.0,
                      mu_fattened=1.0 + 2.0 / n, q_times_delta=1.0)
            for n in (1, 2, 3)
        ]
        report = ConvergenceReport(rows=rows, summary={})
        path = tmp_path / "rows.csv"
        report.write_csv(path)
        st = CoverStats.from_csv(path)
        assert st.n == (1, 2, 3)
        assert st.q == (1, 2, 3)
        assert st.mu_fattened[2] == pytest.approx(1.0 + 2.0 / 3)

    # int() and float() refused each with their own text, "invalid literal for int() with base 10: '2.5'",
    # "could not convert string to float: 'x'" or "float() argument must be ... not 'NoneType'", naming no column
    @pytest.mark.parametrize(
        "line, message",
        [
            ("1,2.5,0.5,0.5,3.0", "q must be an integer, got 2.5"),
            ("x,2,0.5,0.5,3.0", "n must be an integer, got 'x'"),
            ("1,2,x,0.5,3.0", "delta must be a real number, got 'x'"),
            ("1,2,0.5,0.5,", "mu_fattened must be a real number, got ''"),
            ("1,2,0.5,0.5", "mu_fattened must be a real number, got None"),
            ("1", "q must be an integer, got None"),
        ],
        ids=["q-fraction", "n-text", "delta-text", "mu-empty", "mu-missing", "q-missing"],
    )
    def test_bad_cell_refused_naming_its_column(self, tmp_path, capsys, line, message):
        path = tmp_path / "stats.csv"
        path.write_text(f"n,q,delta,r,mu_fattened\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CoverStats.from_csv(path)
        assert main(["dimension", "--stats", str(path), "--method", "last"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,delta,q\n1,0.5,2\n")
        with pytest.raises(ValueError, match="mu_fattened"):
            CoverStats.from_csv(path)


class TestContent:
    def test_cantor_critical_exponent(self):
        # endpoints come from repeated thirds, so diam^alpha drifts a few
        # ulps per level; 1e-9 still pins the exact value 1
        for n in (1, 4, 8, 12):
            s = cantor_approximation(n).set
            assert hausdorff_content_upper(s, CANTOR_DIM) == pytest.approx(1.0, abs=1e-9)

    def test_exponent_one_is_lebesgue(self):
        s = cantor_approximation(3).set
        assert hausdorff_content_upper(s, 1.0) == pytest.approx(lebesgue(s))

    def test_monotone_in_exponent_for_small_pieces(self):
        # every component has diameter < 1, so diam^a decreases in a
        s = cantor_approximation(4).set
        values = [hausdorff_content_upper(s, a) for a in (0.3, 0.5, 0.7, 0.9)]
        assert all(x > y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.5, 0.63, 1.0, 2.0])
    def test_array_pass_against_the_loop(self, alpha):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s = random_interval_set(rng, max_components=40)
            got = hausdorff_content_upper(s, alpha)
            # numpy's terms summed by a plain left-to-right loop (not sum(), which compensates from
            # Python 3.12 on): bit for bit
            assert got == functools.reduce(operator.add, ((s.highs - s.lows) ** alpha).tolist(), 0.0)
            # the loop's own terms, by the C library's pow: the two powers round apart by an ulp on some
            # terms (never at alpha = 1), which moves the sum by at most (2n + 3) * 2^-52 of itself
            loop = functools.reduce(operator.add, (d**alpha for d in (s.highs - s.lows).tolist()), 0.0)
            assert abs(got - loop) <= (2 * len(s) + 3) * 2**-52 * loop
            if alpha == 1.0:
                assert got == loop

    def test_canonicalization_merges_before_summing(self):
        # abutting halves merge into one unit interval: 1^0.5 = 1, not 2 * 0.5^0.5
        raw = [(0.0, 0.5), (0.5, 1.0)]
        assert hausdorff_content_upper(raw, 0.5) == pytest.approx(1.0)

    def test_nonpositive_exponent_rejected(self):
        s = cantor_approximation(1).set
        for alpha in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                hausdorff_content_upper(s, alpha)


class TestDimBoundLast:
    def test_cantor_recovers_log2_over_log3(self):
        fit = dim_bound_last(cantor_stats())
        assert fit.estimate == pytest.approx(CANTOR_DIM, abs=1e-6)
        assert fit.residual < 1e-6

    def test_constant_measures_give_dimension_one(self):
        st = CoverStats(n=tuple(range(1, 6)), q=tuple(2**n for n in range(1, 6)),
                        delta=(0.0,) * 5, r=(0.0,) * 5, mu_fattened=(3.0,) * 5)
        fit = dim_bound_last(st)
        assert fit.estimate == pytest.approx(1.0)

    def test_growing_measures_clamp_to_one(self):
        st = CoverStats(n=tuple(range(1, 6)), q=tuple(2**n for n in range(1, 6)),
                        delta=(0.0,) * 5, r=(0.0,) * 5,
                        mu_fattened=tuple(3.0 * 2**n for n in range(1, 6)))
        assert dim_bound_last(st).estimate == pytest.approx(1.0)

    def test_tail_fraction_widens_window(self):
        st = cantor_stats()
        narrow = dim_bound_last(st, tail_fraction=0.25)
        wide = dim_bound_last(st, tail_fraction=1.0)
        assert narrow.window[0] > wide.window[0]
        assert narrow.estimate == pytest.approx(wide.estimate, abs=1e-3)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_tail_fraction_outside_unit_interval_refused(self, fraction):
        with pytest.raises(ValueError, match=r"tail_fraction must lie in \(0, 1\]"):
            dim_bound_last(cantor_stats(), tail_fraction=fraction)

    def test_needs_three_rows(self):
        st = CoverStats(n=(1, 2), q=(2, 4), delta=(0.5, 0.25), r=(0.5, 0.25),
                        mu_fattened=(3.0, 2.0))
        with pytest.raises(InsufficientDataError):
            dim_bound_last(st)

    def test_needs_increasing_q(self):
        st = CoverStats(n=(1, 2, 3, 4), q=(8, 8, 8, 8), delta=(0.1,) * 4,
                        r=(0.1,) * 4, mu_fattened=(2.0,) * 4)
        with pytest.raises(NotApplicableError):
            dim_bound_last(st)

    def test_needs_positive_measures(self):
        st = CoverStats(n=(1, 2, 3), q=(2, 4, 8), delta=(0.1,) * 3, r=(0.1,) * 3,
                        mu_fattened=(1.0, 0.0, 1.0))
        with pytest.raises(NotApplicableError):
            dim_bound_last(st)


class TestDimBoundDirect:
    def test_cantor_recovers_log2_over_log3(self):
        fit = dim_bound_direct(cantor_stats())
        assert fit.estimate == pytest.approx(CANTOR_DIM, abs=1e-6)
        assert fit.residual < 1e-6

    def test_power_law_half(self):
        # q = n and 2*delta + r = 3/n^2, so counts scale like diam^(-1/2)
        ns = tuple(range(2, 12))
        st = CoverStats(n=ns, q=ns, delta=tuple(1.0 / n**2 for n in ns),
                        r=tuple(1.0 / n**2 for n in ns), mu_fattened=(1.0,) * len(ns))
        fit = dim_bound_direct(st)
        assert fit.estimate == pytest.approx(0.5, abs=1e-12)

    def test_growing_radii_not_applicable(self):
        ns = tuple(range(1, 6))
        st = CoverStats(n=ns, q=tuple(2**n for n in ns), delta=(0.1,) * 5,
                        r=tuple(0.1 * n for n in ns), mu_fattened=(1.0,) * 5)
        with pytest.raises(NotApplicableError):
            dim_bound_direct(st)

    def test_zero_diameters_not_applicable(self):
        ns = tuple(range(1, 6))
        st = CoverStats(n=ns, q=tuple(2**n for n in ns), delta=(0.0,) * 5, r=(0.0,) * 5, mu_fattened=(1.0,) * 5)
        with pytest.raises(NotApplicableError, match="cover diameters must be positive"):
            dim_bound_direct(st)

    def test_constant_diameters_not_applicable(self):
        # r vanishes, but delta does not shrink: the diameters stay at 0.2
        ns = tuple(range(1, 6))
        st = CoverStats(n=ns, q=tuple(2**n for n in ns), delta=(0.1,) * 5, r=(0.0,) * 5, mu_fattened=(1.0,) * 5)
        with pytest.raises(NotApplicableError, match="cover diameters must decrease along the tail"):
            dim_bound_direct(st)

    def test_vanishing_radius_tolerated(self):
        # r stuck at exactly zero: only delta shrinks, still applicable
        ns = tuple(range(1, 8))
        st = CoverStats(n=ns, q=tuple(2**n for n in ns),
                        delta=tuple(3.0**-n for n in ns), r=(0.0,) * 7,
                        mu_fattened=(1.0,) * 7)
        fit = dim_bound_direct(st)
        assert fit.estimate == pytest.approx(CANTOR_DIM, abs=1e-9)

    def test_two_estimators_agree_on_cantor(self):
        st = cantor_stats()
        a = dim_bound_last(st).estimate
        b = dim_bound_direct(st).estimate
        assert abs(a - b) < 0.01


class TestPipelineIntegration:
    def test_report_feeds_estimators(self, tmp_path):
        report = fattened_measure_sequence(
            [cantor_approximation(n) for n in range(1, 13)], Lebesgue()
        )
        path = tmp_path / "cantor.csv"
        report.write_csv(path)
        st = CoverStats.from_csv(path)
        assert dim_bound_last(st).estimate == pytest.approx(CANTOR_DIM, abs=1e-4)
        assert dim_bound_direct(st).estimate == pytest.approx(CANTOR_DIM, abs=1e-4)
