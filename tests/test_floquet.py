import math

import numpy as np
import pytest
import scipy.linalg
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
    fibonacci_potential,
    fibonacci_word,
    free_potential,
    lebesgue,
    normalize,
    proxy_deltas,
    sampled_stabilizer_contains,
    stabilizer_contains,
)
from specapprox import floquet
from specapprox.floquet import (
    _CHUNK,
    _band_storage,
    _band_sweep,
    _fibers,
    _phase_set,
    _solve_block,
    _solved_row,
    _solver_bound,
    check_fiber_stack,
)
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


def full_mesh(m, dim):
    """Every phase of the M^d grid, conjugate pairs included, in row-major order."""
    return np.stack([g.ravel() for g in np.meshgrid(*[np.arange(m) / m] * dim, indexing="ij")], axis=1)


def use_complex_full_sweep(monkeypatch):
    """Make floquet solve as it did before banded 1-d fibers, real fibers,
    halved grids and reuse: every fiber a complex dense matrix from the dense
    reference, solved by eigvalsh, every grid the full mesh, and the cover
    phase of the measure pipeline solved on its own."""
    phase_set = floquet._phase_set

    def full_phase_set(strategy, dim, grid_points):
        phases, lips = phase_set(strategy, dim, grid_points)
        return (phases if lips == 0.0 else full_mesh(int(grid_points), dim)), lips

    def dense_solve(v, phases, real=None):  # complex, whatever arithmetic the sweep picked
        return np.linalg.eigvalsh(np.stack([dense_fiber(v, p) for p in np.reshape(phases, (-1, v.dim))]))

    monkeypatch.setattr(floquet, "_phase_set", full_phase_set)
    monkeypatch.setattr(floquet, "_solve_block", dense_solve)
    monkeypatch.setattr(floquet, "_solved_row", lambda sweep, phi: None)


@pytest.fixture
def solved(monkeypatch):
    """(solver, matrix count, dtype) of every call to np.linalg.eigvalsh
    ("dense") and scipy.linalg.eigvals_banded ("banded")."""
    calls = []

    def counting(name, solve):
        def call(a, *args, **kwargs):
            a = np.asarray(a)
            calls.append((name, math.prod(a.shape[:-2]), a.dtype))
            return solve(a, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", counting("dense", np.linalg.eigvalsh))
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", counting("banded", scipy.linalg.eigvals_banded))
    return calls


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


def zigzag(q):
    """Sites 0, q-1, 1, q-2, 2, ... of a ring of q sites."""
    order, lo, hi = [], 0, q - 1
    while lo <= hi:
        order += [lo, hi] if lo < hi else [lo]
        lo, hi = lo + 1, hi - 1
    return order


class TestBandStorage:
    def test_bands_of_zigzag_dense_fibers_bitwise(self):
        # periods 1 (self-wrap on the diagonal) and 2 (a bond both interior and wrap) are the special cases
        rng = np.random.default_rng(70)
        for q in range(1, 7):
            v = PeriodicPotential(dim=1, periods=(q,), cell=tuple(float(x) for x in rng.uniform(-3, 3, size=q)))
            for phases in ([[0.0], [0.5]], [[0.0], [0.5], [rng.uniform(0, 1)], [0.25]]):
                order = zigzag(q)
                dense = _fibers(v, phases)[:, order][:, :, order]
                u = min(2, q - 1)
                i, j = np.triu_indices(q)
                near = j - i <= u
                assert not dense[:, i[~near], j[~near]].any()  # bandwidth u in zig-zag order
                ref = np.zeros((len(phases), u + 1, q), dtype=dense.dtype)
                ref[:, u + i[near] - j[near], j[near]] = dense[:, i[near], j[near]]
                band = _band_storage(v, phases)
                assert band.dtype == dense.dtype
                np.testing.assert_array_equal(band.view(np.uint64), ref.view(np.uint64))

    def test_banded_eigenvalues_match_dense(self):
        rng = np.random.default_rng(71)
        phases = [[0.0], [0.3], [0.5]]
        pots = [random_potential(rng, dim=1, max_period=32) for _ in range(60)]
        pots += [fibonacci_potential(n, c) for n in range(1, 14) for c in (1.0, 2.5)]
        for v in pots:
            dense = np.linalg.eigvalsh(_fibers(v, phases))
            np.testing.assert_allclose(_solve_block(v, phases), dense, rtol=0, atol=_solver_bound(v))
        for n in (14, 15, 16):  # real fibers only: the dense complex solve at q = 1597 is slow
            v = fibonacci_potential(n, 2.0)
            dense = np.linalg.eigvalsh(_fibers(v, [[0.0], [0.5]]))
            np.testing.assert_allclose(_solve_block(v, [[0.0], [0.5]]), dense, rtol=0, atol=_solver_bound(v))

    def test_period_one_storage_has_one_row(self):
        # a 1 x 1 fiber stored in more than one row comes back from eigvals_banded as [0.]
        v = PeriodicPotential(dim=1, periods=(1,), cell=(2.7,))
        assert _band_storage(v, [[0.0], [0.3]]).shape == (2, 1, 1)
        for phi in (0.0, 0.3, 0.5):
            assert fiber_eigenvalues(v, phi) == pytest.approx([2.7 + 2 * math.cos(2 * math.pi * phi)], abs=1e-15)


class TestRealFibers:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_half_integer_phases_are_real_parts_of_dense_reference(self, dim):
        rng = np.random.default_rng(40 + dim)
        corners = [np.array(c) / 2.0 for c in np.ndindex(*(2,) * dim)]  # {0, 1/2}^d
        for periods in np.ndindex(*(6,) * dim):
            periods = tuple(p + 1 for p in periods)
            cell = tuple(float(x) for x in rng.uniform(-3, 3, size=math.prod(periods)))
            v = PeriodicPotential(dim=dim, periods=periods, cell=cell)
            stack = _fibers(v, corners)
            assert stack.dtype == np.float64
            for m, phi in zip(stack, corners):
                ref = dense_fiber(v, phi)
                np.testing.assert_array_equal(m, ref.real)
                assert np.abs(ref.imag).max() <= 2.5e-16  # sin(pi) rounded
                assert build_fiber(v, phi).dtype == np.float64
            # one phase off {0, 1/2}^d makes the whole block complex
            assert _fibers(v, corners + [np.full(dim, 0.25)]).dtype == np.complex128

    def test_real_fibers_solved_in_real_arithmetic(self, solved):
        v = almost_mathieu(0.9, (3, 8))
        band_spectrum(v, strategy="exact_1d")
        fiber_eigenvalues(v, 0.5)
        fiber_eigenvalues(v, 0.3)
        assert solved == [("banded", 1, np.float64)] * 3 + [("banded", 1, np.complex128)]


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

    def test_chunked_sweep_equals_one_block(self):
        v1 = random_potential(np.random.default_rng(41), dim=1, max_period=6)
        # at 256 points the second block is phi = 1/2 alone, real on its own but not in this sweep
        for v, grid_points in [(free_potential(2, (3, 3)), 16), (v1, 258), (v1, 256)]:
            phases, evs, _ = _band_sweep(v, "grid", grid_points)
            assert _CHUNK < len(phases) <= 2 * _CHUNK  # two blocks
            np.testing.assert_array_equal(evs, _solve_block(v, phases))


class TestConjugateHalvedGrid:
    CASES = [(1, 2), (1, 7), (1, 8), (2, 2), (2, 5), (2, 6), (2, 16)]

    @pytest.mark.parametrize("dim,m", CASES)
    def test_one_phase_of_each_conjugate_pair(self, dim, m):
        phases, lips = _phase_set("grid", dim, m)
        assert len(phases) == (m**dim + (2**dim if m % 2 == 0 else 1)) // 2
        assert lips == 4.0 * math.pi * dim / (2.0 * m)
        k = {tuple(x) for x in np.rint(phases * m).astype(int)}
        conj = {tuple(-np.array(x) % m) for x in k}
        mesh = {tuple(x) for x in np.rint(full_mesh(m, dim) * m).astype(int)}
        assert k | conj == mesh
        assert len(k & conj) == len(phases) * 2 - m**dim  # only the self-conjugate phases overlap

    @pytest.mark.parametrize("dim,m", CASES)
    def test_bands_match_full_mesh(self, dim, m):
        rng = np.random.default_rng(60 + 10 * dim + m)
        for _ in range(6):
            v = random_potential(rng, dim=dim, max_period=8 if dim == 1 else 4)
            evs = np.linalg.eigvalsh(np.stack([dense_fiber(v, p) for p in full_mesh(m, dim)]))
            bs = band_spectrum(v, strategy="grid", grid_points=m)
            mesh_bands = np.stack([evs.min(axis=0), evs.max(axis=0)], axis=1)
            np.testing.assert_allclose(bs.bands, mesh_bands, rtol=0, atol=_solver_bound(v))
            assert bs.error_bound == 4.0 * math.pi * dim / (2.0 * m) + _solver_bound(v)


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


class TestSweepReuse:
    @pytest.mark.parametrize("phase,real_solves,complex_solves", [(0.0, 2, 0), (0.5, 2, 0), (0.3, 2, 1)])
    def test_exact_1d_solves_per_step(self, solved, phase, real_solves, complex_solves):
        pots = [fibonacci_potential(n, 2.0) for n in range(1, 9)]
        estimate_measure_via_fibers(pots, phase, Lebesgue(), deltas="proxy")
        assert {s for s, _, _ in solved} == {"banded"}
        assert sum(c for _, c, t in solved if t == np.float64) == real_solves * len(pots)
        assert sum(c for _, c, t in solved if t == np.complex128) == complex_solves * len(pots)

    @pytest.mark.parametrize("phase,extra", [((0.75, 0.5), 0), ((0.0, 0.125), 0), ((0.3, 0.1), 1)])
    def test_grid_solves_per_step(self, solved, phase, extra):
        pots = [free_potential(2, (p, p)) for p in (1, 2, 3)]
        estimate_measure_via_fibers(pots, phase, Lebesgue(), deltas="proxy", grid_points=8)
        assert {s for s, _, _ in solved} == {"dense"}
        assert sum(c for _, c, _ in solved) == (len(_phase_set("grid", 2, 8)[0]) + extra) * len(pots)

    def test_reused_rows_match_fresh_solves(self):
        rng = np.random.default_rng(41)
        for dim, strategy, phis in (
            (1, "exact_1d", [(0.0,), (0.5,)]),
            (1, "grid", [(0.0,), (0.25,), (0.75,), (0.625,)]),
            (2, "grid", [(0.0, 0.0), (0.25, 0.5), (0.75, 0.5), (0.5, 0.875), (0.125, 0.0)]),
        ):
            for _ in range(10):
                v = random_potential(rng, dim=dim, max_period=12 if dim == 1 else 4)
                sweep = _band_sweep(v, strategy, 8)
                for phi in phis:
                    np.testing.assert_allclose(
                        _solved_row(sweep, phi), fiber_eigenvalues(v, phi), rtol=0, atol=_solver_bound(v)
                    )
                assert _solved_row(sweep, (0.3,) * dim) is None


class TestAgreementWithComplexFullSweep:
    """Real fibers, halved grids and reuse move outputs only within the solver
    bound eps = _solver_bound: band edges and eigenvalues by eps, so a union
    moves by eps in Hausdorff distance and a proxy delta by 2 eps; a measure
    of c components by 2 c eps for the band union and by 2 c (eps + 2 eps)
    for the covers, whose radii hold delta; q * delta by 2 q eps."""

    @staticmethod
    def components(v):
        return len(band_spectrum(v).union())

    @pytest.mark.parametrize("phase", [0.0, 0.3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fibonacci_proxy_pipeline(self, monkeypatch, solved, seed, phase):
        coupling = float(np.random.default_rng(seed).uniform(1.0, 3.0))
        pots = [fibonacci_potential(n, coupling) for n in range(1, 14)]
        comps = [self.components(v) for v in pots]
        new = estimate_measure_via_fibers(pots, phase, Lebesgue(), deltas="proxy")
        use_complex_full_sweep(monkeypatch)
        solved.clear()
        old = estimate_measure_via_fibers(pots, phase, Lebesgue(), deltas="proxy")
        assert solved and all(s == "dense" and t == np.complex128 for s, _, t in solved)  # not banded against banded
        comps = [max(c, self.components(v)) for c, v in zip(comps, pots)]
        eps = max(_solver_bound(v) for v in pots)
        for a, b, c in zip(new.rows, old.rows, comps):
            assert abs(a.delta - b.delta) <= 2 * eps
            assert abs(a.mu_raw - b.mu_raw) <= 2 * c * eps
            assert abs(a.mu_fattened - b.mu_fattened) <= 2 * a.q * 3 * eps  # q balls
            assert abs(a.q_times_delta - b.q_times_delta) <= 2 * a.q * eps
        for x, y, c in zip(new.summary["band_fattened"], old.summary["band_fattened"], comps):
            assert abs(x - y) <= 2 * c * 3 * eps

    @pytest.mark.parametrize("seed", [1, 2])
    def test_two_dimensional_grid_bands(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        v = PeriodicPotential(dim=2, periods=(12, 12), cell=tuple(float(x) for x in rng.uniform(-2, 2, size=144)))
        new = band_spectrum(v, strategy="grid", grid_points=16)
        use_complex_full_sweep(monkeypatch)
        old = band_spectrum(v, strategy="grid", grid_points=16)
        np.testing.assert_allclose(new.bands, old.bands, rtol=0, atol=_solver_bound(v))
        assert new.error_bound == old.error_bound


class TestFiberSizeGuard:
    def test_estimate_at_a_trillion_sites(self):
        with pytest.raises(ValueError, match=r"need 8\.000e\+24 bytes"):
            check_fiber_stack(10**12)
        with pytest.raises(ValueError, match=r"need 3\.200e\+25 bytes"):
            check_fiber_stack(10**12, count=2, itemsize=16)
        assert check_fiber_stack(100, count=2, itemsize=16) == 2 * 100 * 100 * 16

    def test_free_potential_refused_before_its_cell(self):
        # q = 10^24: the cell alone is too large for a tuple
        with pytest.raises(ValueError, match=r"need 8\.000e\+48 bytes"):
            free_potential(2, (10**12, 10**12))

    def test_fibers_refused_before_the_stack(self, monkeypatch):
        v = free_potential(2, (2, 5))
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 2 * 10 * 10 * 8)
        assert _fibers(v, [[0.0, 0.5], [0.5, 0.0]]).shape == (2, 10, 10)  # two real fibers fit
        with pytest.raises(ValueError, match=r"need 3\.200e\+3 bytes"):
            _fibers(v, [[0.25, 0.0], [0.5, 0.5]])  # two complex ones do not
        with pytest.raises(ValueError, match=r"need 1\.600e\+4 bytes"):
            band_spectrum(v, strategy="grid", grid_points=4)  # 10 phases in one complex block

    def test_one_dimensional_cells_charged_their_band_arrays(self, monkeypatch):
        with pytest.raises(ValueError, match=r"1 banded 3 x 1000000000000 fiber\(s\) need 2\.400e\+13 bytes"):
            check_fiber_stack(10**12, banded=True)
        assert check_fiber_stack(100, count=2, itemsize=16, banded=True) == 2 * 3 * 100 * 16
        with pytest.raises(ValueError, match=r"need 2\.400e\+13 bytes"):
            free_potential(1, 10**12)
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 2 * 3 * 100 * 8)
        v = free_potential(1, 100)  # its dense fiber, 8.0e4 bytes, would not fit
        assert len(band_spectrum(v, strategy="exact_1d").bands) == 100  # two real banded fibers fit
        with pytest.raises(ValueError, match=r"need 1\.440e\+4 bytes"):
            band_spectrum(v, strategy="grid", grid_points=4)  # three complex ones do not
        with pytest.raises(ValueError, match=r"need 7\.200e\+3 bytes"):
            free_potential(1, 300)


def fibonacci_trace(level, coupling, e):
    """x_n = tr T_n(E) / 2 at level n and its E-derivative, by the trace map
    x_{n+1} = 2 x_n x_{n-1} - x_{n-2} from x_{-1} = 1, x_0 = E/2, x_1 = (E - V)/2."""
    xm, x0, x1 = np.ones_like(e), e / 2, (e - coupling) / 2
    dm, d0, d1 = np.zeros_like(e), np.full_like(e, 0.5), np.full_like(e, 0.5)
    for _ in range(level - 1):
        xm, x0, x1, dm, d0, d1 = x0, x1, 2 * x1 * x0 - xm, d0, d1, 2 * (d1 * x0 + x1 * d0) - dm
    return x1, d1


class TestDeepOracles:
    """References that need no dense solve, for 1-d cells beyond its reach."""

    @pytest.fixture(autouse=True)
    def no_dense_fibers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a 1-d solve built a dense fiber")

        monkeypatch.setattr(floquet, "_fibers", refuse)

    @pytest.mark.parametrize("p,q", [(987, 1597), (4181, 6765)])
    def test_almost_mathieu_subcritical_measure(self, p, q):
        # |sigma(p/q)| -> 4 - 4 lambda for lambda < 1 (Last 1994; Avila-Krikorian 2006)
        v = almost_mathieu(0.5, (p, q))
        assert abs(lebesgue(band_spectrum(v).union()) - 2.0) <= 1e-10

    @pytest.mark.parametrize(
        "levels,coupling", [(range(1, 17), 1.0), (range(1, 17), 4.0), ([20], 2.0)], ids=["1-16", "1-16-strong", "20"]
    )
    def test_fibonacci_band_edges_solve_trace_map(self, levels, coupling):
        # the fiber at phase phi has its eigenvalues where x_n = cos(2 pi phi): +1 at 0, -1 at 1/2
        for n in levels:
            v = fibonacci_potential(n, coupling)
            phases, evs, _ = _band_sweep(v, "exact_1d", 64)
            for phi, row in zip(phases[:, 0], evs):
                x, dx = fibonacci_trace(n, coupling, row)
                assert np.all(np.abs(x - math.cos(2 * math.pi * phi)) <= np.abs(dx) * _solver_bound(v))


def loop_stabilizer_contains(potential, shift, atol=0.0):
    """Reference: the per-site loop that stabilizer_contains replaced; value() reduces each site mod the periods."""
    for site in np.ndindex(*potential.periods):
        moved = tuple(s + m for s, m in zip(site, shift))
        if abs(potential.value(moved) - potential.value(site)) > atol:
            return False
    return True


class TestStabilizers:
    def test_matches_site_loop(self):
        rng = np.random.default_rng(71)
        verdicts = set()
        for dim in (1, 2):
            for _ in range(40):
                # a random block tiled over the cell, so that multiples of the block fix it,
                # plus noise that tolerance 1e-8 forgives and tolerance 0 does not
                block = rng.integers(1, 4, size=dim)
                cell = np.tile(rng.uniform(-3.0, 3.0, size=block), rng.integers(1, 4, size=dim))
                cell += rng.choice([0.0, 1e-9]) * rng.uniform(-1.0, 1.0, size=cell.shape)
                v = PeriodicPotential(dim=dim, periods=cell.shape, cell=tuple(cell.ravel().tolist()))
                period = np.array(v.periods)
                shifts = [0 * block, block, -block, period + block, -3 * period - block]
                shifts += list(rng.integers(-3 * period, 3 * period + 1, size=(4, dim)))
                for shift in shifts:
                    shift = tuple(int(m) for m in shift)
                    for atol in (0.0, 1e-8):
                        verdict = stabilizer_contains(v, shift, atol)
                        assert verdict == loop_stabilizer_contains(v, shift, atol)
                        verdicts.add(verdict)
        assert verdicts == {False, True}

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
