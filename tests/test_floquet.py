import math

import numpy as np
import pytest
from conftest import random_potential

from specapprox import (
    Lebesgue,
    NotHermitianError,
    PeriodicPotential,
    almost_mathieu,
    band_spectrum,
    bandwidth_bound,
    build_fiber,
    contains_set,
    cover_from_bands,
    cover_from_eigenvalues,
    eigenvalues,
    estimate_measure_via_fibers,
    fiber_eigenvalues,
    fibonacci_word,
    free_potential,
    lebesgue,
    normalize,
    proxy_deltas,
    sampled_stabilizer_contains,
    stabilizer_contains,
)
from specapprox.floquet import _fibers, _solve_block
from specapprox.intervals import InvalidRadiusError

# ---------------------------------------------------------------------------
# fiber construction
# ---------------------------------------------------------------------------


def dense_fiber(potential, phase):
    """Reference assembly, site by site: dense real base and wrap matrices,
    then base + sum_j (z_j * W_j + conj(z_j) * W_j^T)."""
    q, periods = potential.q, potential.periods
    base = np.zeros((q, q))
    wraps = [np.zeros((q, q)) for _ in periods]
    for site in np.ndindex(*periods):
        i = potential.index(site)
        base[i, i] = potential.value(site)
        for j in range(potential.dim):
            ahead = list(site)
            ahead[j] += 1
            if site[j] + 1 < periods[j]:
                base[i, potential.index(ahead)] += 1.0
            else:
                wraps[j][i, potential.index(ahead)] += 1.0
            behind = list(site)
            behind[j] -= 1
            if site[j] - 1 >= 0:
                base[i, potential.index(behind)] += 1.0
    h = base.astype(complex)
    for w, phi in zip(wraps, np.atleast_1d(phase)):
        z = np.exp(2j * np.pi * float(phi))
        h += z * w + np.conj(z) * w.T
    return h


class TestHopAssembly:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_dense_reference_bitwise(self, dim):
        # every period (pair) from 1 to 6: period 1 wraps onto itself, period 2 wraps onto an interior bond
        rng = np.random.default_rng(30 + dim)
        for periods in np.ndindex(*(6,) * dim):
            periods = tuple(p + 1 for p in periods)
            cell = tuple(float(x) for x in rng.uniform(-3, 3, size=math.prod(periods)))
            v = PeriodicPotential(dim=dim, periods=periods, cell=cell)
            phases = [np.full(dim, t) for t in (0.0, 0.5, 0.25)] + list(rng.uniform(0, 1, size=(3, dim)))
            stack = _fibers(v, phases)
            assert stack.shape == (len(phases), v.q, v.q)
            for m, phi in zip(stack, phases):
                np.testing.assert_array_equal(m, dense_fiber(v, phi))
            np.testing.assert_array_equal(build_fiber(v, phases[-1]), stack[-1])


class TestBuildFiber:
    def test_period_one_is_twice_cosine(self):
        v = free_potential(1, 1)
        for phi in (0.0, 0.125, 0.3, 0.5, 0.9):
            m = build_fiber(v, phi)
            assert m.shape == (1, 1)
            assert m[0, 0] == pytest.approx(2 * math.cos(2 * math.pi * phi), abs=1e-14)

    def test_period_two_accumulates_interior_and_wrap(self):
        v = free_potential(1, 2)
        m = build_fiber(v, 0.3)
        z = np.exp(-2j * np.pi * 0.3)
        assert m[0, 1] == pytest.approx(1 + z, abs=1e-14)
        assert m[1, 0] == pytest.approx(1 + np.conj(z), abs=1e-14)

    def test_period_two_special_phases(self):
        v = free_potential(1, 2)
        np.testing.assert_allclose(build_fiber(v, 0.0), [[0, 2], [2, 0]], atol=1e-15)
        np.testing.assert_allclose(build_fiber(v, 0.5), np.zeros((2, 2)), atol=1e-15)

    def test_potential_sits_on_diagonal(self):
        v = PeriodicPotential(dim=1, periods=(3,), cell=(1.0, -2.0, 0.5))
        m = build_fiber(v, 0.2)
        np.testing.assert_allclose(np.diag(m).real, [1.0, -2.0, 0.5])

    def test_two_dimensional_free_block_structure(self):
        v = free_potential(2, (2, 2))
        e = fiber_eigenvalues(v, (0.0, 0.0))
        np.testing.assert_allclose(e, [-4.0, 0.0, 0.0, 4.0], atol=1e-12)

    def test_exactly_hermitian_by_construction(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            v = random_potential(rng, dim=1, max_period=16)
            phi = rng.uniform(0, 1)
            m = build_fiber(v, phi)
            assert np.max(np.abs(m - m.conj().T)) == 0.0
        for _ in range(10):
            v = random_potential(rng, dim=2, max_period=4)
            m = build_fiber(v, rng.uniform(0, 1, size=2))
            assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_gauge_periodicity(self):
        v = free_potential(1, 5)
        # dyadic phases reduce exactly
        np.testing.assert_array_equal(build_fiber(v, 0.25), build_fiber(v, 1.25))
        # generic phases reduce up to representation error
        np.testing.assert_allclose(build_fiber(v, 0.3), build_fiber(v, 1.3), atol=1e-13)

    def test_phase_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_fiber(free_potential(2, (2, 2)), (0.1, 0.2, 0.3))


class TestPotentialValidation:
    def test_dimension_restricted(self):
        with pytest.raises(ValueError):
            PeriodicPotential(dim=3, periods=(2, 2, 2), cell=(0.0,) * 8)

    def test_cell_size_must_match(self):
        with pytest.raises(ValueError):
            PeriodicPotential(dim=1, periods=(3,), cell=(0.0, 0.0))

    def test_value_reduces_mod_periods(self):
        v = PeriodicPotential(dim=1, periods=(3,), cell=(1.0, 2.0, 3.0))
        assert v.value((4,)) == 2.0
        assert v.value((-1,)) == 3.0


class TestEigenvalues:
    def test_sorted_output(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = (x + x.conj().T) / 2
        e = eigenvalues(h)
        assert np.all(np.diff(e) >= 0)

    def test_rejects_asymmetry(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]])
        with pytest.raises(NotHermitianError):
            eigenvalues(m)

    def test_rejects_nan(self):
        # NaN > tol is False, so a plain threshold test would let this through
        with pytest.raises(NotHermitianError):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))

    def test_lipschitz_in_phase(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            v = random_potential(rng, dim=1, max_period=12)
            p1, p2 = rng.uniform(0, 1, size=2)
            gap = min(abs(p1 - p2), 1 - abs(p1 - p2))
            diff = np.abs(fiber_eigenvalues(v, p1) - fiber_eigenvalues(v, p2))
            assert diff.max() <= 4 * math.pi * gap + 1e-9
        for _ in range(8):
            v = random_potential(rng, dim=2, max_period=4)
            a = rng.uniform(0, 1, size=2)
            b = rng.uniform(0, 1, size=2)
            gap = max(min(abs(x - y), 1 - abs(x - y)) for x, y in zip(a, b))
            diff = np.abs(fiber_eigenvalues(v, a) - fiber_eigenvalues(v, b))
            assert diff.max() <= 4 * math.pi * 2 * gap + 1e-9


# ---------------------------------------------------------------------------
# band spectra
# ---------------------------------------------------------------------------


class TestBandSpectrum:
    def test_free_period_four_bands(self):
        bs = band_spectrum(free_potential(1, 4))
        s2 = math.sqrt(2.0)
        expect = [(-2.0, -s2), (-s2, 0.0), (0.0, s2), (s2, 2.0)]
        for (lo, hi), (elo, ehi) in zip(bs.bands, expect):
            assert lo == pytest.approx(elo, abs=1e-12)
            assert hi == pytest.approx(ehi, abs=1e-12)
        u = bs.union()
        assert len(u) == 1
        assert (u.lo, u.hi) == (pytest.approx(-2.0, abs=1e-12), pytest.approx(2.0, abs=1e-12))

    def test_bandwidth_bound_formula(self):
        assert bandwidth_bound(4) == pytest.approx(math.pi)
        assert bandwidth_bound((8, 8)) == pytest.approx(math.pi)
        assert bandwidth_bound((2,)) == pytest.approx(2 * math.pi)
        with pytest.raises(ValueError):
            bandwidth_bound(0)

    def test_widths_respect_uniform_bound_random_1d(self):
        rng = np.random.default_rng(34)
        for _ in range(160):
            v = random_potential(rng, dim=1, max_period=32)
            bs = band_spectrum(v)
            limit = bandwidth_bound(v.periods) + 2 * bs.error_bound
            assert max(bs.widths()) <= limit

    def test_widths_respect_uniform_bound_random_2d(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            v = random_potential(rng, dim=2, max_period=6)
            bs = band_spectrum(v, strategy="grid", grid_points=16)
            limit = bandwidth_bound(v.periods) + 2 * bs.error_bound
            assert max(bs.widths()) <= limit

    def test_exact_matches_fine_grid(self):
        rng = np.random.default_rng(36)
        for _ in range(12):
            v = random_potential(rng, dim=1, max_period=16)
            exact = band_spectrum(v, strategy="exact_1d")
            grid = band_spectrum(v, strategy="grid", grid_points=256)
            for (a, b), (c, d) in zip(exact.bands, grid.bands):
                assert abs(a - c) <= grid.error_bound
                assert abs(b - d) <= grid.error_bound

    def test_grid_error_bound_value(self):
        v = free_potential(2, (2, 2))
        bs = band_spectrum(v, strategy="grid", grid_points=32)
        lips = 4 * math.pi * 2 / (2 * 32)
        assert bs.error_bound == pytest.approx(lips, rel=1e-6)

    def test_exact_strategy_rejects_2d(self):
        with pytest.raises(ValueError):
            band_spectrum(free_potential(2, (2, 2)), strategy="exact_1d")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            band_spectrum(free_potential(1, 2), strategy="fft")

    def test_solve_block_matches_single_fibers(self):
        rng = np.random.default_rng(37)
        v = random_potential(rng, dim=2, max_period=3)
        phases = [tuple(rng.uniform(0, 1, size=2)) for _ in range(5)]
        block = _solve_block(v, phases)
        for row, phi in zip(block, phases):
            np.testing.assert_array_equal(row, fiber_eigenvalues(v, phi))

    def test_exact_bands_are_min_max_of_two_fibers(self):
        rng = np.random.default_rng(39)
        for _ in range(40):
            v = random_potential(rng, dim=1, max_period=24)
            e0, e1 = fiber_eigenvalues(v, 0.0), fiber_eigenvalues(v, 0.5)
            bands = band_spectrum(v, strategy="exact_1d").bands
            assert bands == tuple((float(min(a, b)), float(max(a, b))) for a, b in zip(e0, e1))

    def test_workers_do_not_change_results(self):
        v = free_potential(2, (3, 3))
        a = band_spectrum(v, strategy="grid", grid_points=16)
        b = band_spectrum(v, strategy="grid", grid_points=16, workers=4)
        assert a.bands == b.bands


# ---------------------------------------------------------------------------
# covers and the measure pipeline
# ---------------------------------------------------------------------------


class TestCovers:
    def test_band_cover_fattens_and_merges(self):
        bands = normalize([(0.0, 1.0), (2.0, 3.0)])
        cov = cover_from_bands(bands, 0.25)
        assert [(iv.lo, iv.hi) for iv in cov] == [(-0.25, 1.25), (1.75, 3.25)]
        assert len(cover_from_bands(bands, 0.5)) == 1

    def test_eigenvalue_cover_radii(self):
        cov = cover_from_eigenvalues([0.0, 1.0], delta=0.1, radius=0.2)
        flat = [x for iv in cov for x in (iv.lo, iv.hi)]
        assert flat == pytest.approx([-0.3, 0.3, 0.7, 1.3])
        merged = cover_from_eigenvalues([0.0, 1.0], delta=0.3, radius=0.2)
        assert [(iv.lo, iv.hi) for iv in merged] == [(-0.5, 1.5)]

    def test_negative_radii_rejected(self):
        with pytest.raises(InvalidRadiusError):
            cover_from_bands(normalize([(0.0, 1.0)]), -0.1)
        with pytest.raises(InvalidRadiusError):
            cover_from_eigenvalues([0.0], delta=0.0, radius=-1.0)

    def test_single_phase_cover_contains_spectrum(self):
        rng = np.random.default_rng(38)
        for _ in range(50):
            v = random_potential(rng, dim=1, max_period=24)
            union = band_spectrum(v).union()
            r = bandwidth_bound(v.periods)
            for phi in (0.0, rng.uniform(0, 1), 0.5):
                cov = cover_from_eigenvalues(fiber_eigenvalues(v, phi), 0.0, r)
                assert contains_set(cov, union, tol=1e-9)

    def test_band_fattening_contains_spectrum(self):
        v = almost_mathieu(0.9, (3, 8))
        union = band_spectrum(v).union()
        for delta in (1e-9, 0.05, 1.0):
            assert contains_set(cover_from_bands(union, delta), union, tol=0.0)


class TestProxyDeltas:
    def test_against_last(self):
        unions = [normalize([(0.0, 1.0 + 1.0 / n)]) for n in range(1, 5)]
        deltas = proxy_deltas(unions)
        assert deltas[-1] == 0.0
        assert deltas[0] == pytest.approx(1.0 - 0.25)
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))


class TestMeasurePipeline:
    def test_free_family_closed_form(self):
        pots = [free_potential(1, 2**n) for n in range(1, 8)]
        report = estimate_measure_via_fibers(
            pots, 0.0, Lebesgue(), deltas=[0.0] * len(pots)
        )
        for row, v in zip(report.rows, pots):
            p = v.periods[0]
            assert row.mu_raw == pytest.approx(4.0, abs=1e-9)
            assert row.mu_fattened == pytest.approx(4.0 + 8 * math.pi / p, abs=1e-9)
            assert row.q == p
            assert row.r == pytest.approx(4 * math.pi / p)
        assert report.summary["delta_mode"] == "analytic"
        assert report.summary["band_estimate"] == pytest.approx(4.0, abs=1e-9)

    def test_proxy_mode_flags_and_decreases(self):
        convs = [(1, 2), (2, 5), (5, 12), (12, 29), (29, 70)]
        pots = [almost_mathieu(0.4, c) for c in convs]
        report = estimate_measure_via_fibers(pots, 0.0, Lebesgue(), deltas="proxy")
        assert report.summary["delta_mode"] == "proxy"
        assert report.rows[-1].delta == 0.0
        assert "note" in report.summary
        for row in report.rows:
            assert row.mu_fattened >= row.mu_raw - 1e-12

    def test_explicit_deltas_length_checked(self):
        with pytest.raises(ValueError):
            estimate_measure_via_fibers(
                [free_potential(1, 2)], 0.0, Lebesgue(), deltas=[0.1, 0.2]
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_measure_via_fibers(
                [free_potential(1, 2), free_potential(2, (2, 2))], 0.0, Lebesgue(), deltas=[0.0, 0.0]
            )


# ---------------------------------------------------------------------------
# stabilizers
# ---------------------------------------------------------------------------


class TestStabilizers:
    def test_full_period_always_fixes(self):
        v = almost_mathieu(0.5, (3, 7))
        assert stabilizer_contains(v, (7,))
        assert stabilizer_contains(v, (14,))
        assert stabilizer_contains(v, (0,))

    def test_free_potential_fixed_by_everything(self):
        v = free_potential(1, 6)
        assert all(stabilizer_contains(v, (m,)) for m in range(6))

    def test_two_dimensional_shifts(self):
        v = PeriodicPotential(dim=2, periods=(2, 2), cell=(1.0, 0.0, 1.0, 0.0))
        assert stabilizer_contains(v, (1, 0))
        assert not stabilizer_contains(v, (0, 1))

    def test_sampled_window_verdict(self):
        word = fibonacci_word(10)
        vals = [1.0 if c == "a" else 0.0 for c in word]
        # the infinite word is aperiodic; small shifts fail on the window
        assert not sampled_stabilizer_contains(vals, (1,))
        assert not sampled_stabilizer_contains(vals, (5,))
        # a genuinely periodic sample passes
        assert sampled_stabilizer_contains([1.0, 2.0] * 10, (2,))

    def test_sampled_shift_must_fit_window(self):
        with pytest.raises(ValueError):
            sampled_stabilizer_contains([1.0, 2.0], (2,))
