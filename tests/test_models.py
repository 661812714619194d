import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from specapprox import (
    almost_mathieu,
    cantor_approximation,
    contains_set,
    convergents,
    fibonacci_potential,
    free_potential,
    grid_approximation,
    hausdorff_distance,
    lebesgue,
    set_to_obj,
)
from specapprox import floquet, models


class TestConvergents:
    def test_golden_mean(self):
        got = convergents([0, 1, 1, 1, 1, 1], 5)
        assert got == [Fraction(1, 1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 8)]

    def test_sqrt2_minus_one(self):
        assert convergents([0, 2, 2, 2], 3) == [Fraction(1, 2), Fraction(2, 5), Fraction(5, 12)]

    def test_integer_part_only(self):
        assert convergents([3], 1) == [Fraction(3, 1)]

    def test_reduced_form(self):
        for f in convergents([0] + [1] * 16, 15):
            assert math.gcd(f.numerator, f.denominator) == 1

    def test_quality_bound(self):
        # |alpha - p_k/q_k| < 1/(q_k * q_{k+1}); alpha evaluated exactly
        terms = [0, 1, 2, 3, 1, 4, 2, 1, 3, 5, 2, 1, 1, 6, 2]
        alpha = Fraction(0)
        for a in reversed(terms[1:]):
            alpha = 1 / (a + alpha)
        alpha += terms[0]
        convs = convergents(terms, 13)
        for f, g in zip(convs, convs[1:]):
            assert abs(alpha - f) < Fraction(1, f.denominator * g.denominator)

    def test_term_validation(self):
        with pytest.raises(ValueError):
            convergents([], 1)
        with pytest.raises(ValueError):
            convergents([0, 0, 1], 2)
        with pytest.raises(ValueError):
            convergents([0, 1], 5)
        with pytest.raises(ValueError):
            convergents([0, 1, 1], 0)


class TestFreePotential:
    def test_one_dimensional(self):
        v = free_potential(1, 4)
        assert v.periods == (4,)
        assert v.cell.tolist() == [0.0] * 4

    def test_two_dimensional(self):
        v = free_potential(2, (2, 3))
        assert v.q == 6
        assert v.cell.tolist() == [0.0] * 6


class TestAlmostMathieu:
    def test_half_frequency_cell(self):
        v = almost_mathieu(0.5, Fraction(1, 2))
        assert v.periods == (2,)
        assert v.cell[0] == pytest.approx(1.0)
        assert v.cell[1] == pytest.approx(-1.0)

    def test_pair_argument_is_reduced(self):
        v = almost_mathieu(0.5, (2, 4))
        assert v.periods == (2,)

    def test_cell_amplitude_bound(self):
        v = almost_mathieu(0.7, Fraction(3, 7), offset=0.1)
        assert all(abs(x) <= 2 * 0.7 + 1e-12 for x in v.cell)

    def test_declared_period_is_minimal(self):
        v = almost_mathieu(0.5, Fraction(3, 7))
        cell = np.array(v.cell)
        # site n of the rolled cell holds the value at n + m
        assert len(cell) == 7 and np.array_equal(np.roll(cell, -7), cell)
        for m in range(1, 7):
            assert not np.array_equal(np.roll(cell, -m), cell)

    def test_oversize_period_refused_before_its_cell(self):
        # a cell is charged what a run over it holds, 240 bytes per site (models.SITE_BYTES)
        with pytest.raises(ValueError, match=r"1000000000000 sites of an almost-Mathieu cell need 2\.400e\+14 bytes"):
            almost_mathieu(0.5, (1, 10**12))

    def test_numerator_reduced_mod_q(self):
        # frequencies equal mod 1 share a cell bit for bit: the float phase n * p / q once gave
        # [2, -0.705, -1.503] for (10^15 + 1) / 3 and overflowed for (10^400 + 1) / 3
        cell = almost_mathieu(1.0, (2, 3)).cell.tobytes()
        for p in (10**15 + 1, 10**400 + 1, -1):
            assert almost_mathieu(1.0, (p, 3)).cell.tobytes() == cell
        assert almost_mathieu(0.5, (10**400, 1)).cell.tolist() == [1.0]  # site 0 alone: its phase is 0

    def test_offset_shifts_cell(self):
        v = almost_mathieu(0.5, Fraction(1, 3), offset=0.25)
        expect = [2 * 0.5 * math.cos(2 * math.pi * (n / 3 + 0.25)) for n in range(3)]
        assert v.cell.tolist() == pytest.approx(expect)


def sturmian_cell(sites, coupling):
    """The Fibonacci word by its closed form: site n holds b (0) exactly when
    floor((n + 2) / golden^2) - floor((n + 1) / golden^2) = 1, else a (coupling)."""
    n = np.arange(sites)
    golden2 = ((1 + math.sqrt(5)) / 2) ** 2
    b = np.floor((n + 2) / golden2) - np.floor((n + 1) / golden2) == 1
    return np.where(b, 0.0, coupling)


class TestFibonacci:
    def test_first_words(self):
        for level, word in enumerate(["a", "ab", "aba", "abaab", "abaababa"], start=1):
            assert fibonacci_potential(level, 1.0).cell.tolist() == [1.0 if c == "a" else 0.0 for c in word]

    def test_lengths_are_fibonacci(self):
        fib = [1, 1]
        while len(fib) < 14:
            fib.append(fib[-1] + fib[-2])
        for level in range(1, 13):
            assert fibonacci_potential(level, 1.0).q == fib[level]

    def test_letter_ratio_approaches_golden_section(self):
        cell = fibonacci_potential(16, 1.0).cell
        ratio = np.count_nonzero(cell) / len(cell)
        assert ratio == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-3)

    def test_potential_cell_values(self):
        v = fibonacci_potential(4, coupling=0.8)
        assert v.periods == (5,)
        assert v.cell.tolist() == [0.8, 0.0, 0.8, 0.8, 0.0]

    def test_level_validation(self):
        with pytest.raises(ValueError):
            fibonacci_potential(0, 1.0)

    def test_potential_spells_the_word(self):
        for level in range(1, 21):
            v = fibonacci_potential(level, 1.5)
            np.testing.assert_array_equal(v.cell, sturmian_cell(v.q, 1.5))

    def test_oversize_level_refused_before_its_word(self, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("the cell was allocated")

        monkeypatch.setattr(np, "empty", no_cell)
        # F_61 = 2504730781961 sites, 240 bytes each for a run over them (models.SITE_BYTES)
        with pytest.raises(ValueError, match=r"the 2504730781961 sites of Fibonacci level 60 need 6\.011e\+14 bytes"):
            fibonacci_potential(60, 1.0)
        with pytest.raises(ValueError, match=r"need 7\.585e\+208989 bytes"):
            fibonacci_potential(10**6, 1.0)
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 240 * 88)
        with pytest.raises(ValueError, match=r"the 89 sites of Fibonacci level 10 need 2\.136e\+4 bytes"):
            fibonacci_potential(10, 1.0)
        monkeypatch.undo()
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 240 * 89)
        assert fibonacci_potential(10, 1.0).q == 89


class TestCantorApproximation:
    def test_level_zero_is_unit_interval(self):
        rec = cantor_approximation(0)
        assert set_to_obj(rec.set) == [[0.0, 1.0]]
        assert (rec.delta, rec.q, rec.r) == (1.0, 1, 1.0)

    def test_level_two_components(self):
        rec = cantor_approximation(2)
        got = set_to_obj(rec.set)
        expect = [(0, 1 / 9), (2 / 9, 1 / 3), (2 / 3, 7 / 9), (8 / 9, 1)]
        assert len(got) == len(expect)
        for (lo, hi), (elo, ehi) in zip(got, expect):
            assert lo == pytest.approx(elo, abs=1e-15)
            assert hi == pytest.approx(ehi, abs=1e-15)

    def test_shape_data(self):
        for level in (1, 5, 9):
            rec = cantor_approximation(level)
            assert rec.q == 2**level
            assert rec.r == pytest.approx(3.0 ** (-level), rel=1e-14)
            assert lebesgue(rec.set) == pytest.approx((2 / 3) ** level, rel=1e-12)

    def test_nesting(self):
        prev = cantor_approximation(1)
        for level in range(2, 9):
            cur = cantor_approximation(level)
            assert contains_set(prev.set, cur.set, tol=1e-12)
            prev = cur

    def test_consecutive_distance(self):
        for level in range(0, 8):
            a = cantor_approximation(level)
            b = cantor_approximation(level + 1)
            d = hausdorff_distance(a.set, b.set)
            # the farthest points of level n from level n+1 sit mid-gap
            assert d == pytest.approx(3.0 ** (-(level + 1)) / 2, rel=1e-12)
            assert d <= 3.0 ** (-(level + 1))

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            cantor_approximation(-1)
        with pytest.raises(ValueError):
            cantor_approximation(41)

    def test_oversize_level_refused_by_estimate(self, monkeypatch):
        # 26 bytes per interval, a measure run's peak at its last level, and one block; nothing is allocated
        assert models.BLOCK_BYTES == 24 * 2**13
        with pytest.raises(ValueError, match=r"2\^40 intervals of middle-thirds level 40 need 2\.859e\+13 bytes"):
            cantor_approximation(40)
        with pytest.raises(ValueError, match=r"need 2\.574e\+301031 bytes"):
            cantor_approximation(10**6)
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 26 * 2**10 + models.BLOCK_BYTES)
        assert cantor_approximation(10).q == 2**10
        with pytest.raises(ValueError, match=r"need 2\.499e\+5 bytes"):
            cantor_approximation(11)


class TestGridApproximation:
    def test_plain_grid(self):
        rec = grid_approximation(4)
        assert rec.set.lows.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert rec.delta == 0.125
        assert rec.q == 5
        assert rec.r == 0.0

    def test_solid_variant(self):
        rec = grid_approximation(4, solid_to=0.5)
        s = rec.set
        assert lebesgue(s) == 0.5
        assert rec.q == 3
        assert s.highs[0] == 0.5

    def test_solid_variant_matches_masked_grid_bitwise(self):
        # the welded points are the j/n above alpha of np.arange(n + 1) / n, as the division rounds them, also
        # where alpha is a grid point or one ulp off it: at n = 22, 15/22 * 22 rounds below 15
        from specapprox.intervals import interval_union

        for n in (1, 3, 10, 22, 49, 1000, 99999):
            pts = np.arange(n + 1) / n
            alphas = {float(x) for j in range(1, n + 1, max(1, n // 13)) for x in np.nextafter(j / n, [0, j / n, 2])}
            for alpha in sorted(alphas - {float(np.nextafter(1.0, 2))}):
                welded = pts[pts > alpha]
                want = interval_union(np.append(0.0, welded), np.append(alpha, welded))
                got = grid_approximation(n, solid_to=alpha).set
                assert got.lows.tobytes() == want.lows.tobytes() and got.highs.tobytes() == want.highs.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_approximation(0)
        with pytest.raises(ValueError):
            grid_approximation(3, solid_to=1.5)
        with pytest.raises(ValueError, match="float range"):
            grid_approximation(10**400, solid_to=0.5)

    def test_oversize_level_refused_by_estimate(self, monkeypatch):
        # 17 bytes per point, plus 33 per point welded on above solid_to, and one block; nothing is allocated
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 17 * 11 + models.BLOCK_BYTES)
        assert grid_approximation(10).q == 11
        with pytest.raises(ValueError, match=r"the 12 points of grid level 11 need 1\.968e\+5 bytes"):
            grid_approximation(11)
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 17 * 11 + 33 * 5 + models.BLOCK_BYTES)
        assert grid_approximation(10, solid_to=0.5).q == 6  # 5 points above 0.5
        with pytest.raises(ValueError, match=r"need 1\.971e\+5 bytes"):
            grid_approximation(10, solid_to=0.2)  # 8 points above 0.2
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"1000000000001 points of grid level 1000000000000 need 1\.700e\+13"):
            grid_approximation(10**12)


class TestPeaksWithinGuards:
    """What each builder allocates at its peak, as tracemalloc sees numpy's
    buffers, is at most what its memory guard charges before it allocates."""

    BUILDERS = {
        "fibonacci": lambda: fibonacci_potential(20, 1.5),
        "almost_mathieu": lambda: almost_mathieu(0.5, (4181, 6765)),
        "free-1d": lambda: free_potential(1, 10000),
        "free-2d": lambda: free_potential(2, (40, 50)),
        "grid": lambda: grid_approximation(20000),
        "grid-solid-to": lambda: grid_approximation(20000, solid_to=0.3),
        "phase-grid-2d": lambda: floquet._phase_set(2, 1000),
    }

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    def test_peak_at_most_the_charge(self, monkeypatch, build):
        charges = []
        check = floquet.check_bytes

        def recording(need, what):
            charges.append(need)
            return check(need, what)

        monkeypatch.setattr(floquet, "check_bytes", recording)
        monkeypatch.setattr(models, "check_bytes", recording)
        build()  # imports and caches come first
        charges.clear()
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(charges) == 1 and peak <= charges[0]
