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
    Interval,
    IntervalSet,
    InvalidRadiusError,
    Lebesgue,
    PiecewiseDensity,
    PointSet,
    as_intervals,
    cantor_approximation,
    components,
    contains_point,
    contains_set,
    directed_distance,
    distance_to_set,
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
    if isinstance(b, PointSet):
        pts = b.points
        i = bisect_left(pts, x)
        best = math.inf
        if i < len(pts):
            best = pts[i] - x
        if i > 0:
            best = min(best, x - pts[i - 1])
        return best
    ivs = b.intervals
    i = bisect_right([iv.lo for iv in ivs], x) - 1
    if i >= 0 and x <= ivs[i].hi:
        return 0.0
    best = math.inf
    if i >= 0:
        best = x - ivs[i].hi
    if i + 1 < len(ivs):
        best = min(best, ivs[i + 1].lo - x)
    return best


def ref_directed(a, b):
    if isinstance(b, PointSet):
        mids = [(p + q) / 2.0 for p, q in zip(b.points, b.points[1:])]
    else:
        mids = [(p.hi + q.lo) / 2.0 for p, q in zip(b.intervals, b.intervals[1:])]
    if isinstance(a, PointSet):
        cands = list(a.points)
    else:
        cands = [e for iv in a.intervals for e in (iv.lo, iv.hi)]
        cands += [m for m in mids if ref_distance(a, m) == 0.0]
    return max(ref_distance(b, x) for x in cands)


def ref_hausdorff(a, b):
    return max(ref_directed(a, b), ref_directed(b, a))


class TestConstruction:
    def test_interval_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_interval_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Interval(0.0, float("inf"))
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_degenerate_interval_allowed(self):
        assert Interval(2.0, 2.0).length == 0.0

    def test_interval_set_rejects_overlapping_components(self):
        with pytest.raises(ValueError):
            IntervalSet((Interval(0.0, 1.0), Interval(0.5, 2.0)))

    def test_point_set_requires_strict_increase(self):
        with pytest.raises(ValueError):
            PointSet((0.0, 0.0))
        with pytest.raises(EmptySetError):
            PointSet(())

    def test_point_set_helper_sorts_and_dedupes(self):
        s = point_set([3.0, 1.0, 3.0, 2.0])
        assert s.points == (1.0, 2.0, 3.0)


class TestNormalize:
    def test_disjoint_kept(self):
        s = normalize([(2.0, 3.0), (0.0, 1.0)])
        assert [(iv.lo, iv.hi) for iv in s] == [(0.0, 1.0), (2.0, 3.0)]

    def test_touching_merged(self):
        s = normalize([(0.0, 1.0), (1.0, 2.0)])
        assert [(iv.lo, iv.hi) for iv in s] == [(0.0, 2.0)]

    def test_gap_within_tolerance_merged(self):
        s = normalize([(0.0, 1.0), (1.0 + 5e-13, 2.0)])
        assert len(s) == 1

    def test_gap_beyond_tolerance_kept(self):
        s = normalize([(0.0, 1.0), (1.0 + 5e-12, 2.0)])
        assert len(s) == 2

    def test_contained_component_absorbed(self):
        s = normalize([(0.0, 4.0), (1.0, 2.0)])
        assert [(iv.lo, iv.hi) for iv in s] == [(0.0, 4.0)]

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            normalize([])


class TestFatten:
    def test_single_interval(self):
        s = fatten(iset((0.0, 1.0)), 0.5)
        assert [(iv.lo, iv.hi) for iv in s] == [(-0.5, 1.5)]

    def test_gap_closes_exactly_at_half_width(self):
        s = fatten(iset((0.0, 1.0), (2.0, 3.0)), 0.5)
        assert [(iv.lo, iv.hi) for iv in s] == [(-0.5, 3.5)]

    def test_gap_stays_open_below_half_width(self):
        s = fatten(iset((0.0, 1.0), (2.0, 3.0)), 0.49)
        assert len(s) == 2

    def test_points_chain_into_one_component(self):
        s = fatten(point_set([0.0, 0.5, 1.0]), 0.25)
        assert [(iv.lo, iv.hi) for iv in s] == [(-0.25, 1.25)]
        assert components(s) == (1, 1.5)

    def test_zero_radius_on_points_gives_degenerate_intervals(self):
        s = fatten(point_set([0.0, 1.0]), 0.0)
        assert [(iv.lo, iv.hi) for iv in s] == [(0.0, 0.0), (1.0, 1.0)]
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
        assert distance_to_set(s, 0.5) == 0.0
        assert distance_to_set(s, 2.0) == 1.0
        assert distance_to_set(s, -2.0) == 2.0
        assert distance_to_set(s, 5.0) == 1.0

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
            q, _ = components(as_intervals(a))
            assert lebesgue(fatten(a, delta)) <= lebesgue(as_intervals(a)) + 2 * q * delta + 1e-12


class TestOracleAgreement:
    def test_hausdorff_matches_brute_force_grid(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a, b = random_compact_set(rng), random_compact_set(rng)
            exact = hausdorff_distance(a, b)
            approx = oracle_hausdorff(a, b, spacing=1e-5)
            assert abs(exact - approx) <= 2e-5


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
                assert distance_to_set(b, x) == ref_distance(b, x)


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
    def test_measure_and_distance_build_no_interval_objects(self, monkeypatch, mu):
        def forbid(self):
            raise AssertionError("an Interval object was built")

        monkeypatch.setattr(Interval, "__post_init__", forbid)
        records = [cantor_approximation(n) for n in range(1, 9)]
        report = fattened_measure_sequence(records, mu)
        assert report.rows[-1].q == 256
        assert hausdorff_distance(records[-1].set, records[-2].set) > 0.0
        assert hausdorff_content_upper(records[-1].set, math.log(2.0) / math.log(3.0)) == pytest.approx(1.0, abs=1e-9)

    def test_views_match_arrays(self):
        s = iset((2.0, 3.0), (0.0, 1.0))
        assert s.intervals == (Interval(0.0, 1.0), Interval(2.0, 3.0))
        assert list(s) == list(s.intervals)
        assert s.lows.tolist() == [0.0, 2.0] and s.highs.tolist() == [1.0, 3.0]
        p = point_set([1.0, 0.0])
        assert p.lows is p.highs and list(p) == [0.0, 1.0]
        with pytest.raises(ValueError):
            s.lows[0] = 5.0

    def test_from_arrays_checks_canonical_form(self):
        assert IntervalSet.from_arrays([0.0, 2.0], [1.0, 3.0]) == iset((0.0, 1.0), (2.0, 3.0))
        with pytest.raises(ValueError):
            IntervalSet.from_arrays([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            IntervalSet.from_arrays([0.0], [float("nan")])
        with pytest.raises(EmptySetError):
            IntervalSet.from_arrays([], [])


class TestMembership:
    def test_contains_point_with_tolerance(self):
        s = iset((0.0, 1.0))
        assert contains_point(s, 1.0)
        assert contains_point(s, 1.0 + 5e-13)
        assert not contains_point(s, 1.1)


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
        assert s.points == (1.0, 3.0)
