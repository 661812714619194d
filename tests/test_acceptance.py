"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line on the real terminal (bypassing
capture) so a full run reads as a checklist.  Tolerances and budgets are
part of the contract; do not loosen them to make a failing run green.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import oracle_hausdorff, random_compact_set, random_potential

from specapprox import (
    Lebesgue,
    band_spectrum,
    bandwidth_bound,
    cantor_approximation,
    contains_set,
    convergents,
    corollary,
    cover_from_eigenvalues,
    dim_bound_direct,
    dim_bound_last,
    eigenvalues,
    estimate_measure_via_fibers,
    fatten,
    fattened_measure_sequence,
    fiber_eigenvalues,
    free_potential,
    grid_approximation,
    hausdorff_content_upper,
    hausdorff_distance,
    lebesgue,
    almost_mathieu,
    normalize,
    semicontinuity_check,
    sets_equal,
)
from specapprox.cli import main
from specapprox.dimension import CoverStats

CANTOR_DIM = math.log(2) / math.log(3)


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"FAIL criterion {num}: {label}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {num}: {label}")


def test_criterion_01_grid_family(capsys):
    with criterion(capsys, 1, "grid approximations: distances, fattened measures, limit"):
        start = time.perf_counter()
        unit = normalize([(0.0, 1.0)])
        records = [grid_approximation(n) for n in range(1, 101)]
        for n, rec in zip(range(1, 101), records):
            d = hausdorff_distance(rec.set, unit)
            assert abs(d - 1.0 / (2 * n)) <= 1e-12
            assert rec.delta == pytest.approx(d, abs=1e-15)
        report = fattened_measure_sequence(records, Lebesgue())
        for n, row in zip(range(1, 101), report.rows):
            assert row.mu_fattened == pytest.approx(1.0 + 1.0 / n, abs=1e-12)
        assert abs(report.rows[-1].mu_fattened - 1.0) <= 1e-2 + 1e-12
        for n in (2, 10, 40):
            solid = grid_approximation(n, 0.5)
            assert lebesgue(solid.set) == pytest.approx(0.5, abs=1e-15)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_fattening_and_metric(capsys):
    with criterion(capsys, 2, "fattening algebra and metric against brute force"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            a = random_compact_set(rng)
            d1, d2 = rng.uniform(0.0, 0.6, size=2)
            two_step = fatten(fatten(a, d1), d2)
            assert sets_equal(two_step, fatten(a, d1 + d2), tol=1e-9)
        for _ in range(200):
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
        for _ in range(100):
            a, b = random_compact_set(rng), random_compact_set(rng)
            assert hausdorff_distance(a, b) == pytest.approx(
                oracle_hausdorff(a, b), abs=2e-5
            )


def test_criterion_03_middle_thirds(capsys):
    with criterion(capsys, 3, "middle-thirds covers: decay, semicontinuity, products"):
        start = time.perf_counter()
        records = [cantor_approximation(n) for n in range(1, 13)]
        report = fattened_measure_sequence(records, Lebesgue())
        fat = [row.mu_fattened for row in report.rows]
        assert all(x > y for x, y in zip(fat, fat[1:]))
        assert fat[-1] < 0.02
        check = semicontinuity_check(
            [rec.set for rec in records], records[-1].set, Lebesgue(), tolerance=0.02
        )
        assert check.passed
        crit = corollary(report.rows)
        assert crit["flag"]
        assert crit["estimate"] == pytest.approx((2.0 / 3.0) ** 12, rel=1e-9)
        assert time.perf_counter() - start < 1.0


def test_criterion_04_dimension_bounds(capsys):
    with criterion(capsys, 4, "dimension bounds and critical content on nested covers"):
        records = [cantor_approximation(n) for n in range(1, 13)]
        st = CoverStats(
            n=tuple(range(1, 13)),
            q=tuple(r.q for r in records),
            delta=tuple(r.delta for r in records),
            r=tuple(r.r for r in records),
            mu_fattened=tuple(lebesgue(fatten(r.set, r.delta)) for r in records),
        )
        for fit in (dim_bound_last(st), dim_bound_direct(st)):
            assert 0.625 < fit.estimate < 0.640
            assert fit.residual < 1e-6
        for rec in records:
            content = hausdorff_content_upper(rec.set, CANTOR_DIM)
            assert content == pytest.approx(1.0, abs=1e-6)


def test_criterion_05_free_bands_1d(capsys):
    with criterion(capsys, 5, "free one-dimensional bands, width bounds, fiber covers"):
        start = time.perf_counter()
        for p in (1, 2, 3, 4, 8, 16, 32, 64):
            v = free_potential(1, p)
            bs = band_spectrum(v)
            u = bs.union()
            assert len(u) == 1
            assert u.lo == pytest.approx(-2.0, abs=1e-8)
            assert u.hi == pytest.approx(2.0, abs=1e-8)
            assert max(bs.widths()) <= 4 * math.pi / p + 1e-8

            r = bandwidth_bound(p)
            evs0 = fiber_eigenvalues(v, 0.0)
            evs_half = fiber_eigenvalues(v, 0.5)
            both = cover_from_eigenvalues(np.concatenate([evs0, evs_half]), 0.0, r)
            assert lebesgue(both) == pytest.approx(4.0 + 8 * math.pi / p, abs=1e-6)

            single = lebesgue(cover_from_eigenvalues(evs0, 0.0, r))
            if p % 2 == 0:
                assert single == pytest.approx(4.0 + 8 * math.pi / p, abs=1e-6)
            elif p == 1:
                assert single == pytest.approx(8 * math.pi, abs=1e-6)
            elif p == 3:
                assert single == pytest.approx(3.0 + 8 * math.pi / 3, abs=1e-6)
        assert time.perf_counter() - start < 5.0


def test_criterion_06_free_bands_2d(capsys):
    with criterion(capsys, 6, "free two-dimensional bands on a phase grid"):
        start = time.perf_counter()
        v = free_potential(2, (8, 8))
        bs = band_spectrum(v, grid_points=64)
        u = bs.union()
        assert hausdorff_distance(u, normalize([(-4.0, 4.0)])) <= bs.error_bound
        limit = bandwidth_bound((8, 8)) + 2 * bs.error_bound
        assert max(bs.widths()) <= limit
        assert time.perf_counter() - start < 60.0


def _charpoly_roots(h):
    # cofactor expansion of det(H - x I) over polynomial entries; the
    # route shares no code with the Hermitian eigensolver
    def poly_det(m):
        if len(m) == 1:
            return m[0][0]
        acc = np.zeros(1, dtype=complex)
        for j in range(len(m)):
            minor = [[row[k] for k in range(len(m)) if k != j] for row in m[1:]]
            term = np.convolve(m[0][j], poly_det(minor))
            acc = np.polyadd(acc, (-1) ** j * term)
        return acc

    n = h.shape[0]
    entries = [
        [np.array([-(1.0 if i == j else 0.0), h[i, j]], dtype=complex) for j in range(n)]
        for i in range(n)
    ]
    return np.sort(np.roots(poly_det(entries)).real)


def test_criterion_07_eigensolver(capsys):
    with criterion(capsys, 7, "eigensolver residuals and characteristic-polynomial oracle"):
        rng = np.random.default_rng(107)
        for k in range(200):
            n = int(rng.integers(2, 51))
            x = rng.normal(size=(n, n))
            if k % 2:
                x = x + 1j * rng.normal(size=(n, n))
            h = (x + x.conj().T) / 2
            ev = eigenvalues(h)
            w, vec = np.linalg.eigh(h)
            scale = max(1.0, float(np.max(np.abs(w))))
            assert np.max(np.abs(ev - w)) <= 1e-8 * scale
            residual = np.max(np.abs(h @ vec - vec * ev[np.newaxis, :]))
            assert residual <= 1e-8 * scale
        for k in range(60):
            n = int(rng.integers(2, 5))
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (x + x.conj().T) / 2
            ev = eigenvalues(h)
            scale = max(1.0, float(np.max(np.abs(ev))))
            assert np.max(np.abs(_charpoly_roots(h) - ev)) <= 1e-8 * scale


def test_criterion_08_fiber_covers(capsys):
    with criterion(capsys, 8, "single-fiber covers contain full band unions"):
        rng = np.random.default_rng(108)
        for _ in range(200):
            v = random_potential(rng, dim=1, max_period=32)
            u = band_spectrum(v).union()
            r = bandwidth_bound(v.periods)
            for phi in (0.0, 0.3, 0.5):
                cov = cover_from_eigenvalues(fiber_eigenvalues(v, phi), 0.0, r)
                assert contains_set(cov, u, tol=1e-9)
            for delta in (1e-9, 0.1):
                assert contains_set(fatten(u, delta), u, tol=0.0)


def test_criterion_09_quasiperiodic_convergents(capsys):
    with criterion(capsys, 9, "quasiperiodic approximants: measures along convergents"):
        start = time.perf_counter()
        convs = convergents([0] + [1] * 14, 12)
        assert convs[-1].denominator == 233
        pots = [almost_mathieu(0.5, c) for c in convs]
        report = estimate_measure_via_fibers(
            pots, 0.0, Lebesgue(), deltas=[0.0] * len(pots)
        )
        raws = [row.mu_raw for row in report.rows]
        assert abs(raws[-1] - 2.0) < 0.1
        assert all(y <= x + 1e-3 for x, y in zip(raws, raws[1:]))
        for row in report.rows:
            assert row.mu_fattened >= row.mu_raw - 1e-12
        assert time.perf_counter() - start < 120.0


def test_criterion_10_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "command-line runs are byte-stable"):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": {"name": "cantor"},
                    "n_min": 1,
                    "n_max": 10,
                    "output_csv": str(tmp_path / "out.csv"),
                    "output_json": str(tmp_path / "out.json"),
                }
            )
        )
        assert main(["measure", "--config", str(cfg_path)]) == 0
        csv_first = (tmp_path / "out.csv").read_bytes()
        json_first = (tmp_path / "out.json").read_bytes()
        assert main(["measure", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out.csv").read_bytes() == csv_first
        assert (tmp_path / "out.json").read_bytes() == json_first
