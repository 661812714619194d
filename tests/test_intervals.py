import json
import math
import time
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from conftest import oracle_hausdorff, random_compact_set, random_interval_set

from specapprox import (
    AtomicMeasure,
    EmptySetError,
    IntervalSet,
    InvalidRadiusError,
    Lebesgue,
    PiecewiseDensity,
    PointSet,
    cantor_approximation,
    components,
    contains_set,
    directed_distance,
    fatten,
    fattened_measure_sequence,
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
    if isinstance(b, PointSet):
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
    if isinstance(a, PointSet):
        cands = a.lows.tolist()
    else:
        cands = [e for lo, hi in zip(a.lows.tolist(), a.highs.tolist()) for e in (lo, hi)]
        cands += [m for m in mids if ref_distance(a, m) == 0.0]
    return max(ref_distance(b, x) for x in cands)


def ref_hausdorff(a, b):
    return max(ref_directed(a, b), ref_directed(b, a))


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
        assert set_to_obj(s) == [[2.0, 2.0]] and lebesgue(s) == 0.0

    def test_interval_set_rejects_overlapping_components(self):
        with pytest.raises(ValueError, match="separated by positive gaps"):
            IntervalSet([0.0, 0.5], [1.0, 2.0])

    def test_point_set_requires_strict_increase(self):
        with pytest.raises(ValueError):
            PointSet((0.0, 0.0))
        with pytest.raises(EmptySetError):
            PointSet(())

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
        assert set_to_obj(s) == [[0.0, 0.0], [1.0, 1.0]]
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
            assert set_to_obj(s) == [list(p) for p in ref_normalize(pairs, tol)]
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
            assert set_to_obj(u) == [list(p) for p in ref_normalize(zip(lows.tolist(), highs.tolist()), tol)]
        # (the sort is skipped, the maximum is skipped) on the path each kind is there to reach
        want = {"increasing": (True, True), "tied": (False, False), "nested": (True, False), "shuffled": (False, False)}
        assert want[kind] in paths


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
        # the arrays are the only form of a set: the module defines no per-component class
        classes = {name for name, v in vars(intervals).items() if isinstance(v, type) and not issubclass(v, Exception)}
        assert classes == {"_SortedSet", "IntervalSet", "PointSet"}
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
        assert isinstance(s, PointSet)
        assert s.lows.tolist() == [1.0, 3.0]
