import json
import math
import re
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import is_points, oracle_hausdorff, random_compact_set, random_interval_set

from specapprox import (
    AtomicMeasure,
    EmptySetError,
    IntervalSet,
    InvalidRadiusError,
    Lebesgue,
    PiecewiseDensity,
    cantor_approximation,
    components,
    contains_set,
    directed_distance,
    fatten,
    fattened_measure_sequence,
    grid_approximation,
    hausdorff_content_upper,
    hausdorff_distance,
    lebesgue,
    normalize,
    point_set,
    set_from_obj,
    set_to_obj,
    sets_equal,
)
from specapprox import intervals


def iset(*pairs):
    return normalize(pairs)


def pairs_of(s):
    """[[lo, hi], ...] of every component, points included; set_to_obj gives points flat."""
    return np.column_stack((s.lows, s.highs)).tolist()


# Loop references: the tuple-of-intervals algorithms the array code replaced,
# kept to pin the array versions to the same floating-point results.


def ref_normalize(pairs, tol=1e-12):
    items = sorted((float(lo), float(hi)) for lo, hi in pairs)
    merged = [items[0]]
    for lo, hi in items[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + tol:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return merged


def ref_distance(b, x):
    lows, highs = b.lows.tolist(), b.highs.tolist()
    if is_points(b):
        i = bisect_left(lows, x)
        best = math.inf
        if i < len(lows):
            best = lows[i] - x
        if i > 0:
            best = min(best, x - lows[i - 1])
        return best
    i = bisect_right(lows, x) - 1
    if i >= 0 and x <= highs[i]:
        return 0.0
    best = math.inf
    if i >= 0:
        best = x - highs[i]
    if i + 1 < len(lows):
        best = min(best, lows[i + 1] - x)
    return best


def ref_directed(a, b):
    # gap midpoints of b: between each component's high end and the next one's low end
    mids = [(hi + lo) / 2.0 for hi, lo in zip(b.highs.tolist(), b.lows.tolist()[1:])]
    if is_points(a):
        cands = a.lows.tolist()
    else:
        cands = [e for lo, hi in zip(a.lows.tolist(), a.highs.tolist()) for e in (lo, hi)]
        cands += [m for m in mids if ref_distance(a, m) == 0.0]
    return max(ref_distance(b, x) for x in cands)


def ref_hausdorff(a, b):
    return max(ref_directed(a, b), ref_directed(b, a))


# Whole-array references: the passes as they ran over whole endpoint arrays before they ran block by
# block, kept to pin the blockwise code to the same bits and the same errors.


def whole_union(lows, highs, tol=intervals.DEFAULT_TOL):
    lows, highs = np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)
    bad = ~(np.isfinite(lows) & np.isfinite(highs) & (lows <= highs))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"interval endpoints must be finite and ordered, got [{lows[i]}, {highs[i]}]")
    if not (lows[1:] > lows[:-1]).all():
        order = np.lexsort((highs, lows))
        lows, highs = lows[order], highs[order]
    reach = highs if (highs[1:] >= highs[:-1]).all() else np.maximum.accumulate(highs)
    first = np.concatenate(([True], lows[1:] > reach[:-1] + tol))
    last = np.append(first[1:], True)
    return lows[first], reach[last]


def whole_fatten(a, delta):
    return whole_union(a.lows - delta, a.highs + delta)


def whole_lebesgue(a):
    return float(np.cumsum(a.highs - a.lows)[-1])


def whole_content(a, alpha):
    return float(np.cumsum((a.highs - a.lows) ** alpha)[-1])


def whole_components(a):
    return len(a), float(np.max(a.highs - a.lows))


def whole_distances(b, xs):
    j = np.searchsorted(b.lows, xs, side="right")
    below = np.concatenate(([-np.inf], b.highs))[j]
    above = np.concatenate((b.lows, [np.inf]))[j]
    return np.where(xs <= below, 0.0, np.minimum(xs - below, above - xs))


def whole_directed(a, b):
    mids = (b.highs[:-1] + b.lows[1:]) / 2.0
    inside = mids[whole_distances(a, mids) == 0.0]
    return max(float(np.max(whole_distances(b, x))) for x in (a.lows, a.highs, inside) if len(x))


def whole_density(mu, s):
    edges = (-math.inf, *mu.breakpoints, math.inf)
    lo_buf, hi_buf = np.empty_like(s.lows), np.empty_like(s.highs)
    total = 0.0
    for c, a, b in zip((mu.outside, *mu.values, mu.outside), edges, edges[1:]):
        i, j = np.searchsorted(s.highs, a), np.searchsorted(s.lows, b, side="right")
        if i < j:
            lo = np.clip(s.lows[i:j], a, b, out=lo_buf[: j - i])
            hi = np.clip(s.highs[i:j], a, b, out=hi_buf[: j - i])
            total += c * float(np.cumsum(np.subtract(hi, lo, out=hi), out=hi)[-1])
    return total


def bits(*xs):
    """The bit patterns of floats and float arrays, so that -0.0 and 0.0 differ."""
    return [np.asarray(x, dtype=float).view(np.uint64).tolist() for x in xs]


class TestConstruction:
    def test_interval_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError, match="finite and ordered"):
            IntervalSet([1.0], [0.0])

    def test_interval_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite and ordered"):
            IntervalSet([0.0], [float("inf")])
        with pytest.raises(ValueError, match="finite and ordered"):
            IntervalSet([float("nan")], [1.0])

    def test_degenerate_interval_allowed(self):
        s = IntervalSet([2.0], [2.0])
        assert s == point_set([2.0]) and set_to_obj(s) == [2.0] and lebesgue(s) == 0.0

    def test_interval_set_rejects_overlapping_components(self):
        with pytest.raises(ValueError, match="separated by positive gaps"):
            IntervalSet([0.0, 0.5], [1.0, 2.0])

    def test_point_set_requires_strict_increase(self):
        with pytest.raises(ValueError, match="separated by positive gaps"):
            IntervalSet([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(EmptySetError):
            point_set(())

    def test_point_set_helper_sorts_and_dedupes(self):
        s = point_set([3.0, 1.0, 3.0, 2.0])
        assert s.lows.tolist() == [1.0, 2.0, 3.0]


class TestNormalize:
    def test_disjoint_kept(self):
        s = normalize([(2.0, 3.0), (0.0, 1.0)])
        assert set_to_obj(s) == [[0.0, 1.0], [2.0, 3.0]]

    def test_touching_merged(self):
        s = normalize([(0.0, 1.0), (1.0, 2.0)])
        assert set_to_obj(s) == [[0.0, 2.0]]

    def test_gap_within_tolerance_merged(self):
        s = normalize([(0.0, 1.0), (1.0 + 5e-13, 2.0)])
        assert len(s) == 1

    def test_gap_beyond_tolerance_kept(self):
        s = normalize([(0.0, 1.0), (1.0 + 5e-12, 2.0)])
        assert len(s) == 2

    def test_contained_component_absorbed(self):
        s = normalize([(0.0, 4.0), (1.0, 2.0)])
        assert set_to_obj(s) == [[0.0, 4.0]]

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            normalize([])
        with pytest.raises(EmptySetError, match="cannot normalize an empty collection of intervals"):
            intervals.interval_union([], [])

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_or_nan_tol_refused(self, tol):
        # -1 would store the overlapping [0, 2] and [1.5, 3] unchecked, NaN would merge [0, 1] and [2, 3]
        with pytest.raises(ValueError, match="merge tolerance"):
            normalize([(0.0, 2.0), (1.5, 3.0)], tol)
        with pytest.raises(ValueError, match="merge tolerance"):
            normalize([(0.0, 1.0), (2.0, 3.0)], tol)


class TestFatten:
    def test_single_interval(self):
        s = fatten(iset((0.0, 1.0)), 0.5)
        assert set_to_obj(s) == [[-0.5, 1.5]]

    def test_gap_closes_exactly_at_half_width(self):
        s = fatten(iset((0.0, 1.0), (2.0, 3.0)), 0.5)
        assert set_to_obj(s) == [[-0.5, 3.5]]

    def test_gap_stays_open_below_half_width(self):
        s = fatten(iset((0.0, 1.0), (2.0, 3.0)), 0.49)
        assert len(s) == 2

    def test_points_chain_into_one_component(self):
        s = fatten(point_set([0.0, 0.5, 1.0]), 0.25)
        assert set_to_obj(s) == [[-0.25, 1.25]]
        assert components(s) == (1, 1.5)

    def test_zero_radius_on_points_gives_degenerate_intervals(self):
        s = fatten(point_set([0.0, 1.0]), 0.0)
        assert pairs_of(s) == [[0.0, 0.0], [1.0, 1.0]] and s == point_set([0.0, 1.0])
        assert lebesgue(s) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidRadiusError):
            fatten(iset((0.0, 1.0)), -1e-9)


class TestLebesgue:
    def test_interval_sum(self):
        assert lebesgue(iset((0.0, 1.0), (2.0, 3.5))) == 2.5

    def test_points_are_null(self):
        assert lebesgue(point_set([0.0, 1.0, 2.0])) == 0.0


class TestDistances:
    def test_distance_to_set_inside_and_outside(self):
        s = iset((0.0, 1.0), (3.0, 4.0))
        assert intervals._distances(s, np.array([0.5]))[0] == 0.0
        assert intervals._distances(s, np.array([2.0]))[0] == 1.0
        assert intervals._distances(s, np.array([-2.0]))[0] == 2.0
        assert intervals._distances(s, np.array([5.0]))[0] == 1.0

    def test_directed_asymmetry(self):
        a = iset((0.0, 2.0))
        b = iset((0.0, 1.0), (3.0, 4.0))
        assert directed_distance(a, b) == 1.0
        assert directed_distance(b, a) == 2.0
        assert hausdorff_distance(a, b) == 2.0

    def test_grid_against_interval(self):
        # n+1 grid points are 1/(2n)-dense in [0, 1]
        n = 4
        g = point_set([j / n for j in range(n + 1)])
        assert hausdorff_distance(g, iset((0.0, 1.0))) == 1 / (2 * n)

    def test_points_inside_interval(self):
        pts = point_set([0.0, 0.5, 1.0])
        full = iset((0.0, 1.0))
        assert directed_distance(pts, full) == 0.0
        assert directed_distance(full, pts) == 0.25

    def test_identical_sets_at_distance_zero(self):
        s = iset((0.0, 1.0), (2.0, 2.5))
        assert hausdorff_distance(s, s) == 0.0


class TestMetricProperties:
    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            a, b, c = (random_compact_set(rng) for _ in range(3))
            dab = hausdorff_distance(a, b)
            dbc = hausdorff_distance(b, c)
            dac = hausdorff_distance(a, c)
            assert dac <= dab + dbc + 1e-12

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            a, b = random_compact_set(rng), random_compact_set(rng)
            assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
            assert hausdorff_distance(a, a) == 0.0

    def test_mutual_inclusion_at_the_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            a, b = random_compact_set(rng), random_compact_set(rng)
            d = hausdorff_distance(a, b)
            assert contains_set(fatten(b, d), a, tol=1e-12)
            assert contains_set(fatten(a, d), b, tol=1e-12)
            if d > 1e-3:
                shrunk = d * (1 - 1e-6)
                both = contains_set(fatten(b, shrunk), a, tol=0.0) and contains_set(
                    fatten(a, shrunk), b, tol=0.0
                )
                assert not both


class TestFatteningAlgebra:
    def test_two_step_equals_one_step(self):
        rng = np.random.default_rng(10)
        for _ in range(120):
            a = random_compact_set(rng)
            d1, d2 = rng.uniform(0.0, 1.0, size=2)
            two = fatten(fatten(a, d1), d2)
            one = fatten(a, d1 + d2)
            assert hausdorff_distance(two, one) <= 1e-9
            assert abs(lebesgue(two) - lebesgue(one)) <= 1e-9

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = random_compact_set(rng)
            d1 = rng.uniform(0.0, 0.5)
            d2 = d1 + rng.uniform(0.0, 0.5)
            assert contains_set(fatten(a, d2), fatten(a, d1), tol=1e-12)

    def test_zero_radius_is_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = random_interval_set(rng)
            assert sets_equal(fatten(a, 0.0), a, tol=0.0)

    def test_measure_growth_bounded_by_component_count(self):
        rng = np.random.default_rng(13)
        for _ in range(80):
            a = random_compact_set(rng)
            delta = rng.uniform(0.0, 1.0)
            q, _ = components(a)
            assert lebesgue(fatten(a, delta)) <= lebesgue(a) + 2 * q * delta + 1e-12


class TestOracleAgreement:
    def test_hausdorff_matches_brute_force_grid(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a, b = random_compact_set(rng), random_compact_set(rng)
            exact = hausdorff_distance(a, b)
            approx = oracle_hausdorff(a, b, spacing=1e-5)
            assert abs(exact - approx) <= 2e-5

    def test_hausdorff_matches_brute_force_grid_across_gaps(self):
        # b is a with holes cut out, or a point sample of a that keeps its ends, so the
        # distance is attained at the midpoint of a gap of b inside a, never at an end of a
        rng = np.random.default_rng(17)
        pairs = [(iset((0.0, 1.0)), iset((0.0, 0.2), (0.8, 1.0)))]
        for _ in range(24):
            lo = float(rng.uniform(-4.0, 3.0))
            hi = lo + float(rng.uniform(0.5, 2.0))
            inner = np.sort(rng.uniform(lo, hi, size=2 * int(rng.integers(1, 4)))).tolist()
            if rng.random() < 0.5:
                b = iset(*zip([lo] + inner[1::2], inner[::2] + [hi]))
            else:
                b = point_set([lo, *inner, hi])
            pairs.append((iset((lo, hi)), b))
        for a, b in pairs:
            exact = hausdorff_distance(a, b)
            assert exact > 0.0
            assert abs(exact - oracle_hausdorff(a, b, spacing=1e-5)) <= 2e-5

    def test_hausdorff_near_the_float_maximum(self):
        # the sum of the ends of b's gap overflows; the pair scaled to [1, 1.75] is within the oracle's reach
        a, b = iset((1e308, 1.75e308)), iset((1e308, 1.1e308), (1.7e308, 1.75e308))
        small_a, small_b = iset((1.0, 1.75)), iset((1.0, 1.1), (1.7, 1.75))
        approx = oracle_hausdorff(small_a, small_b, spacing=1e-5)
        assert abs(hausdorff_distance(small_a, small_b) - approx) <= 2e-5
        assert hausdorff_distance(a, b) == pytest.approx(approx * 1e308, rel=1e-4)
        assert not contains_set(b, a)
        # a finite sum keeps the bits of (lo + hi) / 2, which lo / 2 + hi / 2 would change for subnormals
        lo, hi = np.array([5e-324, 1.1e308]), np.array([1e-323, 1.7e308])
        assert intervals._midpoints(lo, hi).tolist() == [(5e-324 + 1e-323) / 2, 1.1e308 / 2 + 1.7e308 / 2]


class TestLoopReferences:
    def test_normalize_matches_merge_loop(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            k = int(rng.integers(1, 40))
            # coarse grid endpoints make ties, touching and nested intervals common
            lo = rng.integers(0, 20, size=k) / 4.0
            hi = lo + rng.integers(0, 6, size=k) / 4.0
            tol = float(rng.choice([0.0, 1e-12, 0.25]))
            pairs = list(zip(lo.tolist(), hi.tolist()))
            s = normalize(pairs, tol)
            assert pairs_of(s) == [list(p) for p in ref_normalize(pairs, tol)]
            assert lebesgue(s) == sum(h - l for l, h in ref_normalize(pairs, tol))

    def test_distances_match_candidate_loop_and_oracle(self):
        rng = np.random.default_rng(16)
        pairs = [(random_compact_set(rng), random_compact_set(rng)) for _ in range(300)]
        # points sitting exactly on gap midpoints, and interval/point mixes
        pairs += [
            (point_set([0.5]), point_set([0.0, 1.0])),
            (iset((0.0, 0.0), (1.0, 1.0)), point_set([0.5, 2.0])),
            (iset((0.25, 0.75)), point_set([0.0, 1.0])),
            (point_set([0.0, 1.0]), iset((0.5, 0.5))),
        ]
        for i, (a, b) in enumerate(pairs):
            d = hausdorff_distance(a, b)
            assert d == ref_hausdorff(a, b)
            assert directed_distance(a, b) == ref_directed(a, b)
            if i < 25:
                assert abs(d - oracle_hausdorff(a, b, spacing=1e-5)) <= 2e-5
            for x in rng.uniform(-5.0, 5.0, size=4).tolist() + [float(a.lows[0])]:
                assert intervals._distances(b, np.array([x]))[0] == ref_distance(b, x)


class TestSortedPath:
    """interval_union skips its sort when the lows strictly increase and its running maximum when
    the highs do not decrease.  The same pairs reversed always take the sort, and the merge loop
    takes neither shortcut: each gives the same arrays."""

    @staticmethod
    def pairs(rng, kind, k):
        steps = rng.choice([1e-12, 0.25, 1.0], size=k)
        if kind == "increasing":  # strictly increasing lows, nondecreasing highs; gaps of about tol, 0 or less
            lows = np.cumsum(steps)
            return lows, lows + rng.choice([0.0, 1e-12, 0.25, 1.0])
        if kind == "tied":
            lows = np.sort(rng.integers(0, k // 2 + 1, size=k) / 4.0)
            return lows, lows + rng.integers(0, 4, size=k) / 4.0
        lows = np.cumsum(steps)  # nested: wide intervals swallow the next ones, so the highs are not monotone
        highs = lows + rng.choice([0.0, 1e-12, 0.25, 3.0], size=k)
        if kind == "shuffled":
            order = rng.permutation(k)
            return lows[order], highs[order]
        return lows, highs

    @pytest.mark.parametrize("tol", [0.0, intervals.DEFAULT_TOL])
    @pytest.mark.parametrize("kind", ["increasing", "tied", "nested", "shuffled"])
    def test_sorted_input_matches_reversed_and_merge_loop(self, kind, tol):
        rng = np.random.default_rng(17)
        paths = set()
        for _ in range(100):
            lows, highs = self.pairs(rng, kind, int(rng.integers(2, 60)))
            paths.add(((np.diff(lows) > 0).all(), (np.diff(highs) >= 0).all()))
            u = intervals.interval_union(lows, highs, tol)
            v = intervals.interval_union(lows[::-1], highs[::-1], tol)
            assert u.lows.tobytes() == v.lows.tobytes() and u.highs.tobytes() == v.highs.tobytes()
            assert pairs_of(u) == [list(p) for p in ref_normalize(zip(lows.tolist(), highs.tolist()), tol)]
        # (the sort is skipped, the maximum is skipped) on the path each kind is there to reach
        want = {"increasing": (True, True), "tied": (False, False), "nested": (True, False), "shuffled": (False, False)}
        assert want[kind] in paths


class TestBlockwise:
    """Every pass over endpoints runs over blocks of intervals._BLOCK of them; with blocks of 1, 2, 3
    and 7 endpoints, sets of up to 50 components span many blocks, and each result has the bits of
    the whole-array reference and raises its errors."""

    DENSITY = PiecewiseDensity(breakpoints=(-1.0, 0.0, 0.5, 2.0), values=(0.3, 1.0, 2.5), outside=0.25)

    @pytest.fixture(params=[1, 2, 3, 7], autouse=True)
    def block(self, request, monkeypatch):
        monkeypatch.setattr(intervals, "_BLOCK", request.param)

    @staticmethod
    def random_set(rng, k):
        # steps of 0, about DEFAULT_TOL and more: touching, tol-close and separate components, and points
        steps = rng.choice([0.0, 1e-12, 2e-12, 0.125, 1.0], size=2 * k) * rng.uniform(0.5, 1.5, size=2 * k)
        ends = np.cumsum(steps) - rng.uniform(0.0, 2.0 * k)
        lows, highs = ends[0::2], ends[1::2]
        return intervals.interval_union(lows, lows if rng.random() < 0.3 else highs, 0.0)

    def test_one_endpoint_check_per_operation(self, monkeypatch):
        # a union checks its input once, whatever the blocks; a fattening of a canonical set checks its
        # shifted endpoints only when one of its outermost two is not finite
        s = self.random_set(np.random.default_rng(29), 40)
        calls = []
        check = intervals._check_endpoints
        monkeypatch.setattr(intervals, "_check_endpoints", lambda *args: calls.append(args) or check(*args))
        intervals.interval_union(s.lows, s.highs)
        assert len(calls) == 1
        fatten(s, 0.5)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="must be finite"):
            fatten(s, math.inf)
        assert len(calls) == 2

    def test_set_passes_match_whole_arrays(self):
        rng = np.random.default_rng(19)
        for k in range(1, 51):
            s = self.random_set(rng, k)
            assert bits(lebesgue(s), *components(s)[1:]) == bits(whole_lebesgue(s), *whole_components(s)[1:])
            assert components(s)[0] == len(s)
            assert bits(self.DENSITY.measure_of(s)) == bits(whole_density(self.DENSITY, s))
            for delta in (0.0, 5e-13, 1e-12, 0.0625, float(rng.uniform(0.0, 2.0))):
                f = fatten(s, delta)
                assert bits(f.lows, f.highs) == bits(*whole_fatten(s, delta))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, math.log(2.0) / math.log(3.0), 2.0])
    def test_content_matches_whole_arrays(self, alpha):
        rng = np.random.default_rng(22)
        for k in range(1, 51):
            s = self.random_set(rng, k)
            assert bits(hausdorff_content_upper(s, alpha)) == bits(whole_content(s, alpha))

    @pytest.mark.parametrize("tol", [0.0, intervals.DEFAULT_TOL])
    @pytest.mark.parametrize("kind", ["increasing", "tied", "nested", "shuffled"])
    def test_union_matches_whole_arrays(self, kind, tol):
        rng = np.random.default_rng(20)
        for k in range(1, 51):
            lows, highs = TestSortedPath.pairs(rng, kind, k)
            u = intervals.interval_union(lows, highs, tol)
            assert bits(u.lows, u.highs) == bits(*whole_union(lows, highs, tol))

    def test_distances_match_whole_arrays(self):
        rng = np.random.default_rng(21)
        for k in range(1, 51):
            a, b = self.random_set(rng, k), self.random_set(rng, int(rng.integers(1, 51)))
            xs = rng.uniform(a.lo - 1.0, a.hi + 1.0, size=k)
            assert bits(intervals._distances(b, xs)) == bits(whole_distances(b, xs))
            assert bits(directed_distance(a, b), directed_distance(b, a)) == bits(whole_directed(a, b), whole_directed(b, a))
        for _ in range(10):
            a, b = random_compact_set(rng), random_compact_set(rng)
            assert abs(hausdorff_distance(a, b) - oracle_hausdorff(a, b)) <= 2e-5

    def test_rounding_tie_between_shifted_lows(self, monkeypatch):
        # 1 and 1 + 2^-52 are neighbours; shifted by 4 both round to -3.0, and the fattening merges
        # them in its one pass, neither sorting them nor handing them to the union
        lows = np.array([-10.0, -8.0, -6.0, -4.0, 1.0, 1.0 + 2.0**-52, 5.0])
        highs = np.array([-9.0, -7.0, -5.0, -3.0, 1.0, 1.0 + 2.0**-52, 6.0])
        a = IntervalSet(lows, highs)
        assert (lows - 4.0)[4] == (lows - 4.0)[5]
        want = {delta: bits(*whole_fatten(a, delta)) for delta in (4.0, 0.25)}

        def refused(*args, **kwargs):
            raise AssertionError("fatten sorted its shifted endpoints or merged them a second time")

        monkeypatch.setattr(intervals, "interval_union", refused)
        monkeypatch.setattr(np, "lexsort", refused)
        for delta in (4.0, 0.25):
            f = fatten(a, delta)
            assert bits(f.lows, f.highs) == want[delta]

    def test_random_ties_between_shifted_lows(self):
        # runs of neighbouring floats, as points or as intervals one float wide, shifted by radii of
        # up to 2^20 of their spacings: rounding ties many shifted lows, at every block boundary too
        rng = np.random.default_rng(23)
        ties = 0
        for _ in range(400):
            x = float(rng.uniform(-4.0, 4.0))
            ulp = abs(float(np.spacing(x)))
            ends = x + ulp * np.arange(int(rng.integers(2, 41)))
            ends = np.unique(np.concatenate((ends, rng.uniform(-6.0, 6.0, size=int(rng.integers(0, 4))))))
            a = IntervalSet(ends, ends) if rng.random() < 0.5 else IntervalSet(ends[0:-1:2], ends[1::2])
            delta = float(rng.choice([0.0, 0.5, 3.0, 17.0]) + ulp * rng.integers(0, 2**20))
            ties += int(((a.lows[1:] - delta) == (a.lows[:-1] - delta)).any())
            f = fatten(a, delta)
            assert bits(f.lows, f.highs) == bits(*whole_fatten(a, delta))
        assert ties >= 100

    def test_signed_zeros(self):
        # -0.0 - 0.0 is -0.0 and -0.0 + 0.0 is 0.0, shifted before or after the gather
        sets = [IntervalSet([-0.0, 1.0], [-0.0, 2.0]), IntervalSet([-1.0], [-0.0]), IntervalSet([-2.0, -0.0], [-1.0, 0.0])]
        for s in sets:
            for delta in (0.0, 0.5, 1.0):
                f = fatten(s, delta)
                assert bits(f.lows, f.highs) == bits(*whole_fatten(s, delta))
            assert bits(lebesgue(s), components(s)[1]) == bits(whole_lebesgue(s), whole_components(s)[1])
            assert bits(directed_distance(s, sets[0])) == bits(whole_directed(s, sets[0]))

    @pytest.mark.parametrize(
        "lows, highs, delta",
        [
            ([0.0, 2.0, 4.0], [1.0, 3.0, 5.0], math.nan),
            ([-1e308, 0.0, 2.0, 4.0], [-1e308, 1.0, 3.0, 5.0], 1e308),  # -inf in the first block
            ([0.0, 2e307, 4e307, 6e307, 1e308], [0.0, 2e307, 4e307, 6e307, 1e308], 8e307),  # inf in the last block
            ([0.0, 1.0, 2.0, 1e308], [0.5, 1.5, 2.5, 1e308], 1e308),  # the lows tie first, then the union finds inf
        ],
    )
    def test_errors_match_whole_arrays(self, lows, highs, delta):
        a = IntervalSet(lows, highs)
        with np.errstate(over="ignore"), pytest.raises(ValueError) as whole:
            whole_fatten(a, delta)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=re.escape(str(whole.value))):
            fatten(a, delta)


class TestArrayPaths:
    def test_cantor_hausdorff_is_subquadratic(self):
        # 65 536 against 32 768 components; the pairwise candidate scan took
        # tens of seconds here.  Endpoints built by repeated thirds drift by
        # a few 1e-10 relative, hence the tolerance on the closed form.
        a = cantor_approximation(16).set
        b = cantor_approximation(15).set
        t0 = time.perf_counter()
        d = hausdorff_distance(a, b)
        elapsed = time.perf_counter() - t0
        assert d == pytest.approx(3.0**-16 / 2.0, rel=1e-9)
        assert elapsed < 2.0

    def test_hausdorff_holds_one_block_of_temporaries(self):
        # its candidates are evaluated a block at a time, with no copy of either set: 16 times the
        # components hold no more than a few blocks' worth of temporaries
        peaks = []
        for level in (14, 18):
            a, b = cantor_approximation(level).set, cantor_approximation(level - 1).set
            tracemalloc.start()
            try:
                hausdorff_distance(a, b)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_content_holds_one_block_of_temporaries(self):
        # one block's widths and their powers, 16 B per endpoint of a block; the whole-array sum held
        # 16 B per component, 4.19 MB at Cantor level 18
        s = cantor_approximation(18).set
        tracemalloc.start()
        try:
            hausdorff_content_upper(s, math.log(2.0) / math.log(3.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * intervals._BLOCK + 2**14

    @pytest.mark.parametrize(
        "mu",
        [
            Lebesgue(),
            PiecewiseDensity(breakpoints=(0.0, 0.5, 1.0), values=(1.0, 2.0), outside=0.5),
            AtomicMeasure(atoms=(0.0, 0.5, 1.0), weights=(1.0, 2.0, 3.0)),
        ],
        ids=["lebesgue", "density", "atomic"],
    )
    def test_measure_and_distance_build_no_interval_objects(self, mu):
        # the arrays are the only form of a set: the module defines one set class and no per-component class
        classes = {name for name, v in vars(intervals).items() if isinstance(v, type) and not issubclass(v, Exception)}
        assert classes == {"IntervalSet"}
        records = [cantor_approximation(n) for n in range(1, 9)]
        report = fattened_measure_sequence(records, mu)
        assert report.rows[-1].q == 256
        assert hausdorff_distance(records[-1].set, records[-2].set) > 0.0
        assert hausdorff_content_upper(records[-1].set, math.log(2.0) / math.log(3.0)) == pytest.approx(1.0, abs=1e-9)

    def test_views_match_arrays(self):
        s = iset((2.0, 3.0), (0.0, 1.0))
        assert s.lows.tolist() == [0.0, 2.0] and s.highs.tolist() == [1.0, 3.0]
        assert (s.lo, s.hi) == (0.0, 3.0) and len(s) == 2
        p = point_set([1.0, 0.0])
        assert p.lows is p.highs and p.lows.tolist() == [0.0, 1.0]
        with pytest.raises(ValueError):
            s.lows[0] = 5.0
        with pytest.raises(TypeError):
            iter(s)

    def test_constructor_checks_canonical_form(self):
        lows, highs = [0.0, 2.0], [1.0, 3.0]
        s = IntervalSet(lows, highs)
        assert s == iset((0.0, 1.0), (2.0, 3.0))
        lows[0] = -1.0  # the set holds its own copy
        assert s.lo == 0.0
        with pytest.raises(ValueError):
            IntervalSet([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            IntervalSet([2.0, 0.0], [3.0, 1.0])
        with pytest.raises(ValueError):
            IntervalSet([0.0], [float("nan")])
        with pytest.raises(ValueError):
            IntervalSet([0.0, 2.0], [1.0])
        with pytest.raises(EmptySetError):
            IntervalSet([], [])


class TestSerialization:
    def test_interval_round_trip(self):
        s = iset((0.0, 1.0), (2.0, 3.0))
        assert set_from_obj(set_to_obj(s)) == s

    def test_point_round_trip(self):
        p = point_set([0.5, 1.5])
        assert set_from_obj(set_to_obj(p)) == p

    def test_json_text_round_trip(self):
        s = iset((0.25, 0.75))
        text = json.dumps(set_to_obj(s))
        assert set_from_obj(json.loads(text)) == s

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            set_from_obj([])

    def test_mixed_content_rejected(self):
        with pytest.raises(ValueError):
            set_from_obj([1.0, [2.0, 3.0]])

    def test_points_parse_as_point_set(self):
        s = set_from_obj([3.0, 1.0])
        assert s == point_set([1.0, 3.0]) and s.lows is s.highs
        assert s.lows.tolist() == [1.0, 3.0]

    def test_close_points_round_trip_exactly(self):
        # as pairs, normalize would merge points within DEFAULT_TOL of each other
        for p in (point_set([0.0, 5e-13, 1e-12]), IntervalSet([0.0, 5e-13, 1e-12], [0.0, 5e-13, 1e-12])):
            assert set_to_obj(p) == [0.0, 5e-13, 1e-12]
            back = set_from_obj(json.loads(json.dumps(set_to_obj(p))))
            assert back == p and len(back) == 3

    def test_degenerate_intervals_go_out_flat(self):
        s = normalize([(1.0, 1.0), (0.0, 0.0)])
        assert set_to_obj(s) == [0.0, 1.0] and set_from_obj(set_to_obj(s)) == s
        assert set_to_obj(iset((0.0, 0.0), (1.0, 2.0))) == [[0.0, 0.0], [1.0, 2.0]]


class TestPointSets:
    """A finite point set is an IntervalSet whose components are all degenerate."""

    def test_equals_and_hashes_as_degenerate_intervals(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            xs = rng.uniform(-4.0, 4.0, size=int(rng.integers(1, 9))).tolist()
            p, q = point_set(xs), normalize([(x, x) for x in xs])
            assert p == q and hash(p) == hash(q)

    def test_grid_set_has_zero_content(self):
        g = grid_approximation(4).set
        assert type(g) is IntervalSet and g == point_set([0.0, 0.25, 0.5, 0.75, 1.0])
        assert hausdorff_content_upper(g, 0.5) == 0.0


# value -> the int the one integer rule reads it as, or None where it refuses it
INTEGERS = {
    "int": (3, 3),
    "integral-float": (3.0, 3),
    "numpy-int64": (np.int64(3), 3),
    "integral-decimal": (Decimal(4), 4),
    "int-beyond-floats": (10**400, 10**400),
    "list": ([3, 4.0], [3, 4]),
    "bool": (True, None),
    "numpy-bool": (np.True_, None),
    "string": ("3", None),
    "fraction-float": (2.5, None),
    "fraction-float64": (np.float64(2.5), None),
    "inf": (math.inf, None),
    "nan": (math.nan, None),
    "fraction": (Fraction(5, 2), None),
}


@pytest.mark.parametrize("value, expected", INTEGERS.values(), ids=INTEGERS.keys())
def test_integer_rule(value, expected):
    if expected is None:
        with pytest.raises(ValueError, match=f"^k must be an integer, got {re.escape(repr(value))}$"):
            intervals._int(value, "k")
    else:
        got = intervals._int(value, "k")
        assert got == expected
        assert all(type(n) is int for n in (got if isinstance(got, list) else [got]))
