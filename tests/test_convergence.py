import csv
import math

import numpy as np
import pytest
from conftest import random_interval_set

from specapprox import (
    ApproximationRecord,
    AtomicMeasure,
    Lebesgue,
    PiecewiseDensity,
    cantor_approximation,
    corollary,
    fatten,
    fattened_measure_sequence,
    grid_approximation,
    indicator_convergence_probe,
    measure,
    normalize,
    point_set,
    semicontinuity_check,
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

    def test_additivity_over_disjoint_components(self):
        rng = np.random.default_rng(21)
        mu = PiecewiseDensity(breakpoints=(-5.0, 0.0, 5.0), values=(1.5, 0.5), outside=2.0)
        for _ in range(30):
            a = random_interval_set(rng, lo=-4.0, hi=-1.0)
            b = random_interval_set(rng, lo=1.0, hi=4.0)
            joint = normalize(list(a.intervals) + list(b.intervals))
            assert measure(mu, joint) == pytest.approx(measure(mu, a) + measure(mu, b), abs=1e-12)

    def test_monotone_under_fattening(self):
        rng = np.random.default_rng(22)
        mu = AtomicMeasure(atoms=tuple(np.linspace(-4, 4, 17)), weights=(1.0,) * 17)
        for _ in range(30):
            a = random_interval_set(rng)
            assert measure(mu, fatten(a, 0.3)) >= measure(mu, a)


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


class TestReportSerialization:
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

    def test_grid_products_stall_at_one_half(self):
        records = [grid_approximation(n) for n in range(1, 40)]
        rep = corollary(fattened_measure_sequence(records, Lebesgue()).rows)
        assert not rep["flag"]
        assert rep["estimate"] is None
        assert rep["products_tail"][-1] == pytest.approx(0.5, abs=0.02)


class TestIndicatorProbe:
    def test_cantor_probes(self):
        records = [cantor_approximation(n) for n in range(1, 10)]
        limit = records[-1].set
        out = indicator_convergence_probe(records, limit, probes=[0.25, 0.5, 2.0])
        by_x = {r.x: r for r in out}
        assert by_x[0.25].agrees and by_x[0.25].limit_indicator == 1
        assert by_x[0.5].agrees and by_x[0.5].limit_indicator == 0
        assert by_x[2.0].agrees and by_x[2.0].limit_indicator == 0

    def test_disagreement_is_reported(self):
        records = [ApproximationRecord.from_set(iset((0.0, 1.0)), delta=0.0)] * 4
        out = indicator_convergence_probe(records, iset((2.0, 3.0)), probes=[0.5])
        assert not out[0].agrees
