import csv
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import oracle_measure, random_compact_set, random_interval_set, random_point_set

from specapprox import (
    ApproximationRecord,
    AtomicMeasure,
    ConvergenceReport,
    Lebesgue,
    PiecewiseDensity,
    cantor_approximation,
    corollary,
    fatten,
    fattened_measure_sequence,
    grid_approximation,
    measure,
    normalize,
    point_set,
    semicontinuity_check,
    set_to_obj,
)
from specapprox.convergence import CSV_COLUMNS


def iset(*pairs):
    return normalize(pairs)


class TestMeasures:
    def test_lebesgue(self):
        assert measure(Lebesgue(), iset((0.0, 1.0), (2.0, 3.5))) == 2.5

    def test_lebesgue_of_points_vanishes(self):
        assert measure(Lebesgue(), point_set([0.0, 1.0])) == 0.0

    def test_density_clips_to_support(self):
        mu = PiecewiseDensity(breakpoints=(0.0, 1.0), values=(2.0,))
        assert measure(mu, iset((-1.0, 0.5))) == pytest.approx(1.0)

    def test_density_outside_value(self):
        mu = PiecewiseDensity(breakpoints=(0.0, 1.0), values=(2.0,), outside=1.0)
        # one unit outside at density 1 plus half a unit inside at density 2
        assert measure(mu, iset((-1.0, 0.5))) == pytest.approx(2.0)

    def test_density_multi_piece(self):
        mu = PiecewiseDensity(breakpoints=(0.0, 1.0, 2.0), values=(1.0, 3.0))
        assert measure(mu, iset((0.5, 1.5))) == pytest.approx(0.5 + 1.5)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            PiecewiseDensity(breakpoints=(0.0,), values=())
        with pytest.raises(ValueError):
            PiecewiseDensity(breakpoints=(0.0, 1.0), values=(-1.0,))
        with pytest.raises(ValueError):
            PiecewiseDensity(breakpoints=(1.0, 0.0), values=(1.0,))
        with pytest.raises(ValueError, match="need one density value per piece"):
            PiecewiseDensity(breakpoints=(0.0, 1.0, 2.0), values=(1.0,))

    # NaN failed every order check, so each of these was taken: a NaN atom measured 0.0
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: PiecewiseDensity(breakpoints=(0.0, x), values=(1.0,)),
            lambda x: PiecewiseDensity(breakpoints=(0.0, 1.0), values=(x,)),
            lambda x: PiecewiseDensity(breakpoints=(0.0, 1.0), values=(1.0,), outside=x),
            lambda x: AtomicMeasure(atoms=(0.5, x), weights=(1.0, 1.0)),
            lambda x: AtomicMeasure(atoms=(0.5,), weights=(x,)),
        ],
        ids=["breakpoints", "values", "outside", "atoms", "weights"],
    )
    def test_non_finite_parameter_refused(self, build, bad):
        with pytest.raises(ValueError, match="must be finite"):
            build(bad)

    def test_atoms_on_endpoints_count(self):
        mu = AtomicMeasure(atoms=(0.0, 1.0, 2.0), weights=(1.0, 1.0, 1.0))
        assert measure(mu, iset((0.5, 2.0))) == 2.0
        assert measure(mu, iset((0.0, 0.0))) == 1.0

    def test_atoms_in_point_sets(self):
        mu = AtomicMeasure(atoms=(0.0, 1.0), weights=(0.5, 0.25))
        assert measure(mu, point_set([1.0, 3.0])) == 0.25

    def test_atomic_validation(self):
        with pytest.raises(ValueError):
            AtomicMeasure(atoms=(0.0, 1.0), weights=(1.0,))
        with pytest.raises(ValueError):
            AtomicMeasure(atoms=(0.0,), weights=(0.0,))
        with pytest.raises(ValueError, match="atoms must be strictly increasing"):
            AtomicMeasure(atoms=(1.0, 0.0), weights=(1.0, 1.0))

    def test_additivity_over_disjoint_components(self):
        rng = np.random.default_rng(21)
        mu = PiecewiseDensity(breakpoints=(-5.0, 0.0, 5.0), values=(1.5, 0.5), outside=2.0)
        for _ in range(30):
            a = random_interval_set(rng, lo=-4.0, hi=-1.0)
            b = random_interval_set(rng, lo=1.0, hi=4.0)
            joint = normalize(set_to_obj(a) + set_to_obj(b))
            assert measure(mu, joint) == pytest.approx(measure(mu, a) + measure(mu, b), abs=1e-12)

    def test_monotone_under_fattening(self):
        rng = np.random.default_rng(22)
        mu = AtomicMeasure(atoms=tuple(np.linspace(-4, 4, 17)), weights=(1.0,) * 17)
        for _ in range(30):
            a = random_interval_set(rng)
            assert measure(mu, fatten(a, 0.3)) >= measure(mu, a)


def random_density(rng, lo=-3.0, hi=3.0) -> PiecewiseDensity:
    breakpoints = np.unique(rng.uniform(lo, hi, size=int(rng.integers(2, 6))))
    values = rng.uniform(0.0, 3.0, size=len(breakpoints) - 1)
    return PiecewiseDensity(tuple(breakpoints.tolist()), tuple(values.tolist()), float(rng.uniform(0.1, 2.0)))


def random_atoms(rng, s) -> AtomicMeasure:
    """Atoms on some of the set's endpoints and at random points; dyadic weights, so every sum is exact."""
    ends = np.concatenate((s.lows, s.highs))
    atoms = np.unique(np.concatenate((rng.choice(ends, size=3), rng.uniform(-5.0, 5.0, size=3))))
    weights = rng.integers(1, 16, size=len(atoms)) / 8
    return AtomicMeasure(tuple(atoms.tolist()), tuple(weights.tolist()))


def full_pass_density(mu, s) -> float:
    """Each piece clipped over every component, not only those meeting it, which add exact zeros."""
    edges = (-math.inf, *mu.breakpoints, math.inf)
    total = 0.0
    for c, a, b in zip((mu.outside, *mu.values, mu.outside), edges, edges[1:]):
        total += c * float(np.cumsum(np.clip(s.highs, a, b) - np.clip(s.lows, a, b))[-1])
    return total


def assert_density_within_bound(mu, s):
    """|computed - exact| <= (n + P) * 2^-52 * exact for n components and P pieces, outside ones included:
    each nonnegative term is rounded once, then in one sum of n, one product and one sum of P."""
    exact = oracle_measure(mu, s)
    pieces = len(mu.values) + 2
    assert abs(Fraction(measure(mu, s)) - exact) <= (len(s) + pieces) * Fraction(2**-52) * exact
    assert measure(mu, s) == full_pass_density(mu, s)


class TestMeasureOracle:
    """Density and atomic measures against the exact rational oracle of conftest."""

    def test_density_on_random_sets(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            s = random_compact_set(rng) if rng.random() < 0.5 else random_interval_set(rng, max_components=40)
            assert_density_within_bound(random_density(rng), s)

    def test_density_on_components_straddling_breakpoints(self):
        mu = PiecewiseDensity(breakpoints=(0.0, 0.1, 0.7, 1.0), values=(3.0, 0.3, 1.1), outside=0.7)
        # one component over every breakpoint, and components each straddling one of them
        for pairs in ([(-0.2, 1.3)], [(-0.05, 0.05), (0.09, 0.2), (0.65, 0.75), (0.95, 1.01)]):
            assert_density_within_bound(mu, normalize(pairs))

    @pytest.mark.parametrize("lo, hi", [(-9.0, -4.0), (4.0, 9.0)], ids=["left", "right"])
    def test_density_on_sets_outside_the_breakpoints(self, lo, hi):
        rng = np.random.default_rng(42)
        mu = PiecewiseDensity(breakpoints=(-3.0, 0.5, 3.0), values=(2.0, 0.0), outside=0.3)
        for _ in range(20):
            s = random_interval_set(rng, lo=lo, hi=hi - 0.5, max_components=10)
            assert_density_within_bound(mu, s)
            assert measure(mu, s) > 0.0

    def test_atomic_on_random_sets_equals_the_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            s = random_compact_set(rng) if rng.random() < 0.5 else random_interval_set(rng, max_components=40)
            mu = random_atoms(rng, s)
            assert measure(mu, s) == oracle_measure(mu, s)

    def test_atomic_on_endpoints_counts_each_atom_once(self):
        s = normalize([(0.0, 1.0), (2.0, 3.0)])
        mu = AtomicMeasure(atoms=(-1.0, 0.0, 1.0, 1.5, 2.0, 3.0, 3.5), weights=(1.0, 0.5, 0.25, 8.0, 0.125, 2.0, 4.0))
        assert measure(mu, s) == oracle_measure(mu, s) == 2.875
        points = random_point_set(np.random.default_rng(44))
        mu = AtomicMeasure(atoms=tuple(points.lows.tolist()), weights=(0.25,) * len(points))
        assert measure(mu, points) == oracle_measure(mu, points) == 0.25 * len(points)

    def test_atomic_sums_left_to_right_in_atom_order(self):
        # a compensated sum (Python's sum() from 3.12 on) would give the correctly rounded 1 + 2^-52
        mu = AtomicMeasure(atoms=(0.0, 1.0, 2.0), weights=(1.0, 1e-16, 1e-16))
        assert measure(mu, normalize([(0.0, 2.0)])) == 1.0
        assert float(oracle_measure(mu, normalize([(0.0, 2.0)]))) == 1.0 + 2**-52

    # two points 5e-13 apart, within DEFAULT_TOL, were once measured as the merged interval [0, 5e-13]
    def test_points_closer_than_the_merge_tolerance_have_no_length(self):
        points = point_set([0.0, 5e-13])
        assert measure(Lebesgue(), points) == 0.0
        assert measure(PiecewiseDensity(breakpoints=(-1.0, 1.0), values=(1.0,), outside=1.0), points) == 0.0

    def test_atom_between_close_points_gets_no_weight(self):
        points = point_set([0.0, 5e-13])
        assert measure(AtomicMeasure(atoms=(2.5e-13,), weights=(1.0,)), points) == 0.0
        assert measure(AtomicMeasure(atoms=(2.5e-13, 5e-13), weights=(1.0, 0.5)), points) == 0.5

    def test_atomic_allocates_nothing_per_component(self):
        s = cantor_approximation(16).set
        mu = AtomicMeasure(atoms=(0.0, 0.5, 1.0), weights=(1.0, 2.0, 4.0))
        tracemalloc.start()
        try:
            assert measure(mu, s) == 5.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096, f"{peak} bytes for 3 atoms over {len(s)} components"

    def test_density_holds_two_buffers(self):
        s = cantor_approximation(16).set
        mu = PiecewiseDensity(breakpoints=(0.0, 0.5, 1.0), values=(1.0, 3.0))
        tracemalloc.start()
        try:
            measure(mu, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * s.lows.nbytes + 4096


class TestApproximationRecord:
    def test_from_set_fills_shape_data(self):
        rec = ApproximationRecord.from_set(iset((0.0, 1.0), (2.0, 2.5)), delta=0.1)
        assert rec.q == 2
        assert rec.r == 1.0
        assert rec.delta == 0.1

    def test_point_set_record(self):
        rec = ApproximationRecord.from_set(point_set([0.0, 1.0, 2.0]), delta=0.5)
        assert rec.q == 3
        assert rec.r == 0.0


class TestFattenedMeasureSequence:
    def test_grid_rows_follow_closed_form(self):
        records = [grid_approximation(n) for n in range(1, 41)]
        report = fattened_measure_sequence(records, Lebesgue())
        for n, row in zip(range(1, 41), report.rows):
            assert row.mu_raw == 0.0
            assert row.mu_fattened == pytest.approx(1.0 + 1.0 / n, abs=1e-12)
            assert row.q_times_delta == pytest.approx((n + 1) / (2.0 * n), abs=1e-12)

    def test_cantor_rows_follow_merged_closed_form(self):
        # fattening by 3^-n merges sibling pairs: 2^(n-1) components of
        # length 5 * 3^-n, so the fattened measure is 2.5 * (2/3)^n
        records = [cantor_approximation(n) for n in range(1, 9)]
        report = fattened_measure_sequence(records, Lebesgue())
        for n, row in zip(range(1, 9), report.rows):
            assert row.mu_raw == pytest.approx((2.0 / 3.0) ** n, abs=1e-12)
            assert row.mu_fattened == pytest.approx(2.5 * (2.0 / 3.0) ** n, abs=1e-12)

    def test_convergence_flag_on_stable_tail(self):
        records = [grid_approximation(n) for n in (100, 110, 120, 130)]
        report = fattened_measure_sequence(records, Lebesgue(), tail=3, tail_tol=1e-2)
        assert report.summary["converged"]
        assert report.summary["estimate"] == pytest.approx(1.0 + 1.0 / 130)

    def test_no_convergence_flag_on_moving_tail(self):
        records = [grid_approximation(n) for n in (1, 2, 3)]
        report = fattened_measure_sequence(records, Lebesgue(), tail=3, tail_tol=1e-3)
        assert not report.summary["converged"]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            fattened_measure_sequence([], Lebesgue())

    def test_records_read_by_index_last_first(self):
        reads = []

        class Steps:
            __len__ = lambda self: 4
            __getitem__ = lambda self, i: reads.append(i) or cantor_approximation(i + 1)

        rows = fattened_measure_sequence(Steps(), Lebesgue()).rows
        assert reads == [3, 0, 1, 2] and [row.n for row in rows] == [1, 2, 3, 4]
        with pytest.raises(TypeError):  # a generator has no len()
            fattened_measure_sequence((cantor_approximation(n) for n in range(1, 5)), Lebesgue())

    @pytest.mark.parametrize("tail", [0, -2])
    def test_tail_below_one_rejected(self, tail):
        # rows[-tail:] took all 7 rows at tail 0 and 5 of them at -2, and the summary reported that tail
        records = [cantor_approximation(n) for n in range(1, 8)]
        with pytest.raises(ValueError, match=f"tail must be >= 1, got {tail}"):
            fattened_measure_sequence(records, Lebesgue(), tail=tail)


class TestReportSerialization:
    def test_report_of_no_rows_refused(self):
        with pytest.raises(ValueError, match="need at least one step"):
            ConvergenceReport.build([], tail=3, tail_tol=1e-3)

    def test_csv_header_and_determinism(self, tmp_path):
        records = [cantor_approximation(n) for n in range(1, 6)]
        report = fattened_measure_sequence(records, Lebesgue())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report.write_csv(p1)
        report.write_csv(p2)
        text = p1.read_text()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert text == p2.read_text()

    def test_csv_values_round_trip_at_15_digits(self, tmp_path):
        records = [cantor_approximation(n) for n in range(1, 6)]
        report = fattened_measure_sequence(records, Lebesgue())
        path = tmp_path / "r.csv"
        report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for parsed, row in zip(rows, report.rows):
            assert float(parsed["mu_fattened"]) == pytest.approx(row.mu_fattened, rel=1e-14)
            assert int(parsed["q"]) == row.q

    def test_json_report_structure(self, tmp_path):
        records = [grid_approximation(n) for n in (1, 2)]
        report = fattened_measure_sequence(records, Lebesgue())
        path = tmp_path / "r.json"
        report.write_json(path)
        import json

        obj = json.loads(path.read_text())
        assert set(obj) == {"rows", "summary"}
        assert obj["rows"][0]["n"] == 1
        assert "estimate" in obj["summary"]


class TestSemicontinuity:
    def test_no_sets_refused(self):
        with pytest.raises(ValueError, match="need at least one set"):
            semicontinuity_check([], iset((0.0, 1.0)), Lebesgue())

    def test_growing_exhaustion_passes(self):
        sets = [iset((0.0, 1.0 - 1.0 / n)) for n in range(2, 30)]
        rep = semicontinuity_check(sets, iset((0.0, 1.0)), Lebesgue())
        assert rep.passed
        assert rep.mu_limit == 1.0

    def test_mass_escaping_the_limit_fails(self):
        sets = [iset((0.0, 1.0))] * 10
        rep = semicontinuity_check(sets, iset((0.0, 0.5)), Lebesgue())
        assert not rep.passed
        assert rep.tail_max == 1.0

    def test_decreasing_fattenings_pass_with_default_slack(self):
        limit = iset((0.0, 1.0))
        sets = [fatten(limit, 1.0 / n) for n in range(5, 60)]
        rep = semicontinuity_check(sets, limit, Lebesgue())
        assert rep.passed


class TestCorollaryCriterion:
    def test_cantor_products_vanish(self):
        records = [cantor_approximation(n) for n in range(1, 13)]
        rep = corollary(fattened_measure_sequence(records, Lebesgue()).rows)
        assert rep["flag"]
        assert rep["products_tail"][-1] == pytest.approx((2.0 / 3.0) ** 12, abs=1e-12)
        assert rep["estimate"] == pytest.approx((2.0 / 3.0) ** 12, abs=1e-12)

    @pytest.mark.parametrize("tail", [0, -2])
    def test_tail_below_one_rejected(self, tail):
        # rows[-tail:] returned all 7 products at tail 0
        rows = fattened_measure_sequence([cantor_approximation(n) for n in range(1, 8)], Lebesgue()).rows
        with pytest.raises(ValueError, match=f"tail must be >= 1, got {tail}"):
            corollary(rows, tail=tail)

    def test_grid_products_stall_at_one_half(self):
        records = [grid_approximation(n) for n in range(1, 40)]
        rep = corollary(fattened_measure_sequence(records, Lebesgue()).rows)
        assert not rep["flag"]
        assert rep["estimate"] is None
        assert rep["products_tail"][-1] == pytest.approx(0.5, abs=0.02)
