import collections
import ctypes
import math
import re
import sys
import threading
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import scipy.linalg
from conftest import random_potential

from specapprox import (
    BandSpectrum,
    Lebesgue,
    NotHermitianError,
    PeriodicPotential,
    almost_mathieu,
    band_spectrum,
    bandwidth_bound,
    build_fiber,
    contains_set,
    cover_from_eigenvalues,
    eigenvalues,
    estimate_measure_via_fibers,
    fatten,
    fiber_eigenvalues,
    fibonacci_potential,
    free_potential,
    lebesgue,
    normalize,
    proxy_deltas,
    set_to_obj,
)
from specapprox import floquet
from specapprox.floquet import (
    _band_storage,
    _block_size,
    _fibers,
    _grid,
    _phase_factors,
    _phase_set,
    _solve_block,
    _solver_bound,
    _spectrum,
    _sweep,
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
        i = np.ravel_multi_index(site, periods)
        base[i, i] = potential.cell[i]
        for j in range(potential.dim):
            ahead = list(site)
            ahead[j] += 1
            if site[j] + 1 < periods[j]:
                base[i, np.ravel_multi_index(ahead, periods)] += 1.0
            else:
                wraps[j][i, np.ravel_multi_index(ahead, periods, mode="wrap")] += 1.0
            behind = list(site)
            behind[j] -= 1
            if site[j] - 1 >= 0:
                base[i, np.ravel_multi_index(behind, periods)] += 1.0
    h = base.astype(complex)
    for w, phi in zip(wraps, np.atleast_1d(phase)):
        z = np.exp(2j * np.pi * float(phi))
        h += z * w + np.conj(z) * w.T
    return h


def full_mesh(m, dim):
    """Every phase of the M^d grid, conjugate pairs included, in row-major order."""
    return np.stack([g.ravel() for g in np.meshgrid(*[np.arange(m) / m] * dim, indexing="ij")], axis=1)


def use_complex_full_sweep(monkeypatch):
    """Make floquet solve as it did before banded 1-d fibers, real fibers
    and halved grids: every fiber a complex dense matrix from the dense
    reference, solved by eigvalsh, and every grid the full mesh."""
    phase_set = floquet._phase_set

    def full_phase_set(dim, grid_points):
        return phase_set(dim, grid_points) if dim == 1 else full_mesh(int(grid_points), dim)

    def dense_sweep(v, phases, cover=None, single=False):  # complex double, whatever arithmetic the sweep would pick
        evs = np.stack([np.linalg.eigvalsh(dense_fiber(v, p)) for p in np.reshape(phases, (-1, v.dim))])
        eigs = None if cover is None else np.linalg.eigvalsh(dense_fiber(v, cover))
        return np.stack((evs.min(axis=0), evs.max(axis=0)), axis=1), eigs

    monkeypatch.setattr(floquet, "_phase_set", full_phase_set)
    monkeypatch.setattr(floquet, "_sweep", dense_sweep)
    monkeypatch.setattr(floquet, "_single_term", lambda v, grid_points: 0.0)  # so no bound adds a single term


def whole_solve_phases(potential, *phase_sets):
    """The row-stacking sweep that the fold replaced: the eigenvalue rows at the phases of each k x d set in
    ``phase_sets``, in order, each set cut into blocks of one phase in 1-d and 8 in 2-d, each block solved
    real when all its phases are in {0, 1/2}^d, and every row kept."""
    size = 1 if potential.dim == 1 else 8
    sets = [np.asarray(phases, dtype=float).reshape(-1, potential.dim) for phases in phase_sets]
    blocks = [phases[i : i + size] for phases in sets for i in range(0, len(phases), size)]
    return np.vstack([_solve_block(potential, _phase_factors(block, potential.dim)) for block in blocks])


def whole_sweep(potential, phases, cover=None):
    """_sweep's (bands, eigenvalues) from the stacked rows of whole_solve_phases: the row at the cover
    phase or its conjugate, else the cover's own first set, left out of the bands."""
    phases = np.reshape(phases, (-1, potential.dim))
    at = [] if cover is None else [list(cover), [-c % 1.0 for c in cover]]
    hits = [i for i, p in enumerate(phases.tolist()) if p in at]
    evs = whole_solve_phases(potential, *([[cover]] if cover is not None and not hits else []), phases)
    swept = evs[len(evs) - len(phases) :]
    eigs = None if cover is None else swept[hits[0]] if hits else evs[0]
    return np.stack((swept.min(axis=0), swept.max(axis=0)), axis=1), eigs


def bits(*arrays):
    """The arrays' bytes as uint64 words, for comparisons that tell -0.0 from 0.0."""
    return [np.ascontiguousarray(a, dtype=np.float64).view(np.uint64) for a in arrays]


def workspace_bytes(q, dtype=complex):
    """Bytes of the workspace, and of its lengths, that a _DenseSolver of fibers of q sites in ``dtype`` holds
    once numpy's LAPACK has been asked for it: none where numpy's eigvalsh solves the blocks."""
    solver = floquet._DenseSolver(q, 1, np.dtype(dtype))
    solver(free_potential(2, (1, q)), _phase_factors([(0.25, 0.5) if dtype == complex else (0.5, 0.5)], 2))
    return sum(a.nbytes for arrays in solver.workspace.values() for a in arrays)


@pytest.fixture
def solved(monkeypatch):
    """(solver, matrix count, dtype) of every block a 2-d sweep's solver, floquet._DenseSolver, solves and of
    every call to np.linalg.eigvalsh ("dense"), and of every call to the banded solver,
    floquet._banded_eigvals ("banded")."""
    calls = []

    def counting(name, solve):
        def call(a, *args, **kwargs):
            a = np.asarray(a)
            calls.append((name, math.prod(a.shape[:-2]), a.dtype))
            return solve(a, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", counting("dense", np.linalg.eigvalsh))
    monkeypatch.setattr(floquet, "_banded_eigvals", counting("banded", floquet._banded_eigvals))
    if floquet._lapack("dsyevd", "zheevd") is not None:  # else the solver calls eigvalsh, counted above
        dense = floquet._DenseSolver.__call__

        def solve(solver, v, z):
            calls.append(("dense", len(z), z.dtype))
            return dense(solver, v, z)

        monkeypatch.setattr(floquet._DenseSolver, "__call__", solve)
    return calls


def hop_scatter(potential: PeriodicPotential, z):
    """The hops of the fibers with phase factors ``z`` (k x d), as scatters
    (rows, cols, values) that add up, in order, onto the potential on the
    diagonal.

    Interior hops contribute 1 in both directions.  A hop that crosses the
    cell boundary forward along axis j carries z_j and its reverse conj(z_j),
    added to what is already there: at period 2 a bond is both interior and
    boundary.  At period 1 a site wraps onto itself; z_j + conj(z_j) goes onto
    the diagonal as one term, rounded as in the dense form z*W + conj(z)*W^T.
    """
    sites = np.arange(potential.q).reshape(potential.periods)
    coords = np.indices(potential.periods)
    for j, p in enumerate(potential.periods):
        ahead = np.roll(sites, -1, axis=j)
        inside = coords[j] < p - 1
        yield sites[inside], ahead[inside], 1.0
        yield ahead[inside], sites[inside], 1.0
        src, dst, zj = sites[~inside], ahead[~inside], z[:, j, None]
        if p == 1:
            yield src, dst, zj + np.conj(zj)
        else:
            yield src, dst, zj
            yield dst, src, np.conj(zj)


def scattered_fibers(potential, z):
    """The fibers as the potential on the diagonal plus the scatters of hop_scatter, with int64 index
    arrays: the bitwise reference for the rings of _fibers."""
    diag = np.arange(potential.q)
    h = np.zeros((len(z), potential.q, potential.q), dtype=z.dtype)
    h[:, diag, diag] = potential.cell
    for rows, cols, w in hop_scatter(potential, z):
        h[:, rows, cols] += w
    return h


class TestHopAssembly:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_dense_reference_bitwise(self, dim):
        # every period (pair) from 1 to 6: period 1 wraps onto itself, period 2 wraps onto an interior bond; at
        # periods (1, 1) enough random phases tell the order in which both rings add onto the diagonal
        rng = np.random.default_rng(30 + dim)
        for periods in np.ndindex(*(6,) * dim):
            periods = tuple(p + 1 for p in periods)
            cell = tuple(float(x) for x in rng.uniform(-3, 3, size=math.prod(periods)))
            v = PeriodicPotential(dim=dim, periods=periods, cell=cell)
            phases = [np.full(dim, t) for t in (0.0, 0.5, 0.25)] + list(rng.uniform(0, 1, size=(16, dim)))
            stack = _fibers(v, _phase_factors(phases, dim))
            assert stack.shape == (len(phases), v.q, v.q)
            for m, phi in zip(stack, phases):
                np.testing.assert_array_equal(m, dense_fiber(v, phi))
            np.testing.assert_array_equal(build_fiber(v, phases[-1]), stack[-1])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rings_equal_the_hop_scatter_bitwise(self, dim):
        # assert_array_equal takes -0.0 for 0.0: only the bits show an assembly that adds +0.0 to the diagonal
        rng = np.random.default_rng(40 + dim)
        for periods in np.ndindex(*(6,) * dim):
            periods = tuple(p + 1 for p in periods)
            cell = rng.uniform(-3, 3, size=math.prod(periods))
            cell[rng.uniform(size=cell.size) < 0.4] = -0.0
            cell[0] = -0.0
            v = PeriodicPotential(dim=dim, periods=periods, cell=cell)
            # real, complex, and a real phase solved complex beside a complex one
            for phases in ([[0.0] * dim, [0.5] * dim], rng.uniform(0, 1, size=(3, dim)), [[0.0] * dim, [0.3] * dim]):
                z = _phase_factors(phases, dim)
                stack, ref = _fibers(v, z), scattered_fibers(v, z)
                assert stack.dtype == ref.dtype and stack.shape == ref.shape
                np.testing.assert_array_equal(stack.view(np.uint64), ref.view(np.uint64), err_msg=f"{periods}")
                fiber = build_fiber(v, phases[-1])  # the last phase alone picks the same arithmetic
                np.testing.assert_array_equal(fiber.view(np.uint64), ref[-1].view(np.uint64))


def zigzag(q):
    """Sites 0, q-1, 1, q-2, 2, ... of a ring of q sites."""
    order, lo, hi = [], 0, q - 1
    while lo <= hi:
        order += [lo, hi] if lo < hi else [lo]
        lo, hi = lo + 1, hi - 1
    return order


def scattered_band_storage(potential, z):
    """Band storage scattered from the hops of hop_scatter through the zig-zag positions of the sites, with
    int64 index arrays and masks: the reference for the closed form of _band_storage."""
    q = potential.q
    u = min(2, q - 1)
    sites = np.arange(q)
    pos = np.minimum(2 * sites, 2 * (q - 1 - sites) + 1)
    band = np.zeros((len(z), q, u + 1), dtype=z.dtype).transpose(0, 2, 1)
    band[:, u, pos] = potential.cell
    for rows, cols, w in hop_scatter(potential, z):
        i, j = pos[rows], pos[cols]
        up = i <= j
        band[:, u + i[up] - j[up], j[up]] += w
    return band


class TestBandStorage:
    def test_bands_of_zigzag_dense_fibers_bitwise(self):
        # periods 1 (self-wrap on the diagonal) and 2 (a bond both interior and wrap) are the special cases
        rng = np.random.default_rng(70)
        for q in range(1, 7):
            v = PeriodicPotential(dim=1, periods=(q,), cell=tuple(float(x) for x in rng.uniform(-3, 3, size=q)))
            for phases in ([[0.0], [0.5]], [[0.0], [0.5], [rng.uniform(0, 1)], [0.25]]):
                order = zigzag(q)
                z = _phase_factors(phases, 1)
                dense = _fibers(v, z)[:, order][:, :, order]
                u = min(2, q - 1)
                i, j = np.triu_indices(q)
                near = j - i <= u
                assert not dense[:, i[~near], j[~near]].any()  # bandwidth u in zig-zag order
                ref = np.zeros((len(phases), u + 1, q), dtype=dense.dtype)
                ref[:, u + i[near] - j[near], j[near]] = dense[:, i[near], j[near]]
                band = _band_storage(v, z)
                assert band.dtype == dense.dtype
                assert all(b.flags.f_contiguous for b in band)  # as LAPACK takes it, with no copy
                np.testing.assert_array_equal(np.ascontiguousarray(band).view(np.uint64), ref.view(np.uint64))

    def test_closed_form_equals_the_hop_scatter_bitwise(self):
        rng = np.random.default_rng(74)
        for q in [*range(1, 31), 987, 1597]:
            v = PeriodicPotential(dim=1, periods=(q,), cell=rng.uniform(-3, 3, size=q))
            for phases in ([[0.0], [0.5]], [[0.3]], [[0.0], [rng.uniform(0, 1)], [0.5]]):  # real, complex, mixed
                z = _phase_factors(phases, 1)
                band, ref = _band_storage(v, z), scattered_band_storage(v, z)
                assert band.dtype == ref.dtype and band.shape == ref.shape
                bits = [np.ascontiguousarray(b).view(np.uint64) for b in (band, ref)]
                np.testing.assert_array_equal(*bits, err_msg=f"q={q}, phases={phases}")

    def test_two_real_fibers_hold_only_their_band_storage(self):
        # 2 x 3 x 8 = 48 bytes per site; the hop scatter's int64 index arrays and masks took about 140
        v = fibonacci_potential(18, 2.0)
        z = _phase_factors([[0.0], [0.5]], 1)
        _band_storage(v, z)  # imports and caches come first
        tracemalloc.start()
        try:
            band = _band_storage(v, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert band.dtype == np.float64 and band.shape == (2, 3, v.q)
        assert peak <= 60 * v.q

    def test_banded_eigenvalues_match_dense(self):
        rng = np.random.default_rng(71)
        phases = [[0.0], [0.3], [0.5]]
        pots = [random_potential(rng, dim=1, max_period=32) for _ in range(60)]
        pots += [fibonacci_potential(n, c) for n in range(1, 14) for c in (1.0, 2.5)]
        for v in pots:
            dense = np.linalg.eigvalsh(_fibers(v, _phase_factors(phases, 1)))
            banded = _solve_block(v, _phase_factors(phases, 1))
            np.testing.assert_allclose(banded, dense, rtol=0, atol=_solver_bound(v))
        for n in (14, 15, 16):  # real fibers only: the dense complex solve at q = 1597 is slow
            v = fibonacci_potential(n, 2.0)
            z = _phase_factors([[0.0], [0.5]], 1)
            dense = np.linalg.eigvalsh(_fibers(v, z))
            np.testing.assert_allclose(_solve_block(v, z), dense, rtol=0, atol=_solver_bound(v))

    def test_period_one_storage_has_one_row(self):
        # a 1 x 1 fiber stored in more than one row comes back from eigvals_banded as [0.]
        v = PeriodicPotential(dim=1, periods=(1,), cell=(2.7,))
        assert _band_storage(v, _phase_factors([[0.0], [0.3]], 1)).shape == (2, 1, 1)
        for phi in (0.0, 0.3, 0.5):
            assert fiber_eigenvalues(v, phi) == pytest.approx([2.7 + 2 * math.cos(2 * math.pi * phi)], abs=1e-15)


class TestNumpyLapack:
    """The banded solver from numpy's own LAPACK against its fallback, scipy.linalg.eigvals_banded."""

    @pytest.fixture
    def solve(self):
        if floquet._lapack("dsbev", "zhbev") is None:
            pytest.skip("numpy exports no ILP64 dsbev/zhbev: the solver is scipy's")
        return floquet._banded_eigvals

    def test_rows_bitwise_equal_to_scipy(self, solve):
        rng = np.random.default_rng(90)
        pots = [PeriodicPotential(dim=1, periods=(q,), cell=rng.uniform(-3, 3, q)) for q in [*range(1, 13), 50, 987]]
        pots += [fibonacci_potential(n, 1.5) for n in (14, 16)]
        for v in pots:
            for phases in ([[0.0], [0.5]], [[0.13], [0.77]]):  # dsbev, then zhbev
                for band in _band_storage(v, _phase_factors(phases, 1)):
                    want = scipy.linalg.eigvals_banded(band)  # from a copy
                    got = solve(band)  # in place
                    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=f"q={v.q}")

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_no_convergence_is_lin_alg_error(self, solve, dtype):
        # a NaN on the diagonal keeps LAPACK's QL iteration from converging: info > 0
        band = np.asfortranarray(np.array([[0.0, 1.0, 1.0, 1.0], [2.0, np.nan, 3.0, 4.0]], dtype=dtype))
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            solve(band)


class TestRealFibers:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_half_integer_phases_are_real_parts_of_dense_reference(self, dim):
        rng = np.random.default_rng(40 + dim)
        corners = [np.array(c) / 2.0 for c in np.ndindex(*(2,) * dim)]  # {0, 1/2}^d
        for periods in np.ndindex(*(6,) * dim):
            periods = tuple(p + 1 for p in periods)
            cell = tuple(float(x) for x in rng.uniform(-3, 3, size=math.prod(periods)))
            v = PeriodicPotential(dim=dim, periods=periods, cell=cell)
            stack = _fibers(v, _phase_factors(corners, dim))
            assert stack.dtype == np.float64
            for m, phi in zip(stack, corners):
                ref = dense_fiber(v, phi)
                np.testing.assert_array_equal(m, ref.real)
                assert np.abs(ref.imag).max() <= 2.5e-16  # sin(pi) rounded
                assert build_fiber(v, phi).dtype == np.float64
            # one phase off {0, 1/2}^d makes the whole block complex
            assert _fibers(v, _phase_factors(corners + [np.full(dim, 0.25)], dim)).dtype == np.complex128

    def test_real_fibers_solved_in_real_arithmetic(self, solved):
        v = almost_mathieu(0.9, (3, 8))
        band_spectrum(v)
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

    # np.asarray(phase, dtype=float) read "0.3" as 0.3 and True as 0, and a NaN reached LAPACK as LinAlgError
    @pytest.mark.parametrize(
        "phase",
        ["0.3", True, np.True_, math.nan, -math.inf, 10**400, (0.3, "0.1"), [True, 0.2], np.array([0.1, np.nan])],
        ids=["string", "bool", "numpy-bool", "nan", "-inf", "huge-int", "string-item", "bool-item", "nan-item"],
    )
    def test_phase_not_a_finite_real_refused_before_any_fiber(self, monkeypatch, phase):
        def no_fiber(*args):
            raise AssertionError("built a fiber")

        monkeypatch.setattr(floquet, "_fibers", no_fiber)
        monkeypatch.setattr(floquet, "_sweep", no_fiber)
        calls = (build_fiber, fiber_eigenvalues, lambda v, phi: estimate_measure_via_fibers([v], phi, Lebesgue()))
        refusal = "^phase must be finite real numbers, got " + re.escape(repr(phase))
        for v in (fibonacci_potential(4, 1.0), free_potential(2, (2, 2))):
            for call in calls:
                with pytest.raises(ValueError, match=refusal):
                    call(v, phase)

    def test_numeric_phases_kept(self):
        v = free_potential(2, (2, 3))
        want = fiber_eigenvalues(v, (0.25, 0.0))
        for phase in ([0.25, 0], np.array([0.25, 0.0]), (np.float32(0.25), np.int64(1)), np.array([1.25, 2.0])):
            np.testing.assert_array_equal(fiber_eigenvalues(v, phase), want)
            np.testing.assert_array_equal(build_fiber(v, phase), build_fiber(v, (0.25, 0.0)))
        np.testing.assert_array_equal(build_fiber(v, np.float32(0.5)), build_fiber(v, (0.5, 0.5)))


class TestPotentialValidation:
    def test_dimension_restricted(self):
        with pytest.raises(ValueError):
            PeriodicPotential(dim=3, periods=(2, 2, 2), cell=(0.0,) * 8)

    def test_one_integer_period_per_axis(self):
        with pytest.raises(ValueError, match="need one period per axis"):
            PeriodicPotential(dim=2, periods=(3,), cell=(0.0,) * 3)
        with pytest.raises(ValueError, match="^periods must be an integer, got 2.5$"):
            PeriodicPotential(dim=1, periods=(2.5,), cell=(0.0, 0.0))
        with pytest.raises(ValueError, match="^periods must be positive integers$"):
            PeriodicPotential(dim=1, periods=(0,), cell=())

    # a boolean got through as an integer: periods (True, 2) built a 1 x 2 cell, which band_spectrum solved, and
    # dim=True passed ``in (1, 2)``; a string period raised TypeError from its comparison with 1
    NOT_INTEGERS = {
        "bool-period": ((2, (True, 2), [0.5, 1.0]), "periods must be an integer, got True"),
        "bool-dim": ((True, (2,), [0.5, 1.0]), "dim must be an integer, got True"),
        "string-period": ((1, ("2",), [0.5, 1.0]), "periods must be an integer, got '2'"),
    }

    @pytest.mark.parametrize("args, message", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_dimension_and_periods_read_by_the_integer_rule(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PeriodicPotential(*args)

    def test_integral_dimension_stored_as_an_int(self):
        v = PeriodicPotential(dim=2.0, periods=(1, np.int64(2)), cell=(0.5, 1.0))
        assert type(v.dim) is int and v == PeriodicPotential(dim=2, periods=(1, 2), cell=(0.5, 1.0))

    def test_cell_size_must_match(self):
        with pytest.raises(ValueError):
            PeriodicPotential(dim=1, periods=(3,), cell=(0.0, 0.0))
        with pytest.raises(ValueError, match="cell must hold 4 values"):
            PeriodicPotential(dim=2, periods=(2, 2), cell=[[0.0, 1.0], [2.0, 3.0]])

    def test_cell_volume_is_exact(self):
        # np.prod wrapped in int64: 2^64 sites became q = 0, and this empty cell was accepted
        with pytest.raises(ValueError, match="cell must hold 18446744073709551616 values, got 0"):
            PeriodicPotential(dim=2, periods=(2**32, 2**32), cell=())
        with pytest.raises(ValueError, match="cell must hold 13835058055282163712 values, got 1"):
            PeriodicPotential(dim=2, periods=(3, 2**62), cell=(0.0,))

    def test_cell_is_a_read_only_float64_array(self):
        v = PeriodicPotential(dim=1, periods=(3,), cell=(1, 0.5, -2))
        assert v.cell.dtype == np.float64 and v.cell.tolist() == [1.0, 0.5, -2.0]
        with pytest.raises(ValueError):
            v.cell[0] = 7.0
        with pytest.raises(ValueError, match="finite"):
            PeriodicPotential(dim=1, periods=(2,), cell=(0.0, math.inf))
        assert v == PeriodicPotential(dim=1, periods=(3,), cell=np.array([1.0, 0.5, -2.0]))
        assert v != PeriodicPotential(dim=1, periods=(3,), cell=(1.0, 0.5, -2.5))
        assert v != PeriodicPotential(dim=2, periods=(1, 3), cell=(1.0, 0.5, -2.0))

    def test_periods_stored_as_a_tuple_of_ints(self):
        # float periods were kept, and the fibers' scatter then raised a TypeError
        v = PeriodicPotential(dim=2, periods=(2.0, np.int64(3)), cell=np.zeros(6))
        assert v.periods == (2, 3) and all(type(p) is int for p in v.periods)
        assert band_spectrum(v, grid_points=4) == band_spectrum(free_potential(2, (2, 3)), grid_points=4)
        # a list of periods compared unequal to the same tuple
        assert PeriodicPotential(dim=1, periods=[3], cell=(1.0, 0.5, -2.0)).periods == (3,)
        assert PeriodicPotential(dim=1, periods=[3], cell=(1.0, 0.5, -2.0)) == PeriodicPotential(
            dim=1, periods=(3,), cell=(1.0, 0.5, -2.0)
        )


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
        # gauge-spread bound: moving phi_j by t moves every ordered eigenvalue by at most 4 sin(pi t / p_j)
        rng = np.random.default_rng(33)
        cells = [random_potential(rng, dim=1, max_period=12) for _ in range(25)]
        cells += [random_potential(rng, dim=2, max_period=4) for _ in range(10)]
        for periods in [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 5)]:
            cell = tuple(float(x) for x in rng.uniform(-3, 3, size=math.prod(periods)))
            cells.append(PeriodicPotential(dim=len(periods), periods=periods, cell=cell))
        for v in cells:
            for step in range(8):
                a = rng.uniform(0, 1, size=v.dim)
                b = rng.uniform(0, 1, size=v.dim)
                if step % 2:  # along one axis only
                    b = np.where(np.arange(v.dim) == rng.integers(v.dim), b, a)
                t = np.minimum(np.abs(a - b), 1 - np.abs(a - b))
                bound = sum(4 * math.sin(math.pi * tj / p) for tj, p in zip(t, v.periods))
                diff = np.abs(fiber_eigenvalues(v, a) - fiber_eigenvalues(v, b))
                assert diff.max() <= bound + _solver_bound(v)


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

    # int() read each of these: it solved the 8-point grid but certified it with the 8.9-point Lipschitz term, and it
    # took 2.7 as the period 2 and True as 1
    NON_INTEGERS = {
        "grid-points": (lambda: band_spectrum(free_potential(2, (2, 2)), grid_points=8.9), "grid_points"),
        "fiber-run-grid-points": (
            lambda: estimate_measure_via_fibers([free_potential(2, (2, 2))], 0.3, Lebesgue(), [0.0], grid_points=8.9),
            "grid_points",
        ),
        "bound-fraction": (lambda: bandwidth_bound([2.7]), "periods"),
        "bound-bool": (lambda: bandwidth_bound([True]), "periods"),
    }

    @pytest.mark.parametrize("call, name", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
    def test_non_integer_refused(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()

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
            bs = band_spectrum(v, grid_points=16)
            limit = bandwidth_bound(v.periods) + 2 * bs.error_bound
            assert max(bs.widths()) <= limit

    def test_exact_matches_fine_grid(self):
        rng = np.random.default_rng(36)
        for _ in range(12):
            v = random_potential(rng, dim=1, max_period=16)
            exact = band_spectrum(v)
            grid = _spectrum(v, _sweep(v, _grid(1, 256))[0], 256)
            bound = grid.error_bound + 4 * math.pi / (2 * 256 * v.periods[0])  # a 1-d sweep adds no Lipschitz term
            for (a, b), (c, d) in zip(exact.bands, grid.bands):
                assert abs(a - c) <= bound
                assert abs(b - d) <= bound

    def test_grid_error_bound_value(self, fallback):
        v = free_potential(2, (2, 5))
        lips = 4 * math.pi / (2 * 32 * 2) + 4 * math.pi / (2 * 32 * 5)
        # (q + SINGLE_TOL_SITES) * eps32 * norm where numpy exports ssyevd/cheevd and the grid is solved in single
        single = (10 + 64) * 2.0**-23 * 4 if floquet._lapack("ssyevd", "cheevd") else 0.0
        assert band_spectrum(v, grid_points=32).error_bound == pytest.approx(lips + single, rel=1e-6)
        fallback("ssyevd", "cheevd")
        assert band_spectrum(v, grid_points=32).error_bound == pytest.approx(lips, rel=1e-6)

    def test_solve_block_matches_single_fibers(self):
        rng = np.random.default_rng(37)
        v = random_potential(rng, dim=2, max_period=3)
        phases = [tuple(rng.uniform(0, 1, size=2)) for _ in range(5)]
        block = _solve_block(v, _phase_factors(phases, 2))
        for row, phi in zip(block, phases):
            np.testing.assert_array_equal(row, fiber_eigenvalues(v, phi))

    def test_exact_bands_are_min_max_of_two_fibers(self):
        rng = np.random.default_rng(39)
        for _ in range(40):
            v = random_potential(rng, dim=1, max_period=24)
            e0, e1 = fiber_eigenvalues(v, 0.0), fiber_eigenvalues(v, 0.5)
            bands = band_spectrum(v).bands
            assert bands.dtype == np.float64 and bands.shape == (v.q, 2) and not bands.flags.writeable
            assert np.array_equal(bands, np.column_stack((np.minimum(e0, e1), np.maximum(e0, e1))))

    def test_equality_compares_bands_and_bound(self):
        s = band_spectrum(free_potential(1, 3))
        assert s == band_spectrum(free_potential(1, 3))
        assert s != BandSpectrum(s.bands, 2 * s.error_bound) and s != BandSpectrum(s.bands + 1.0, s.error_bound)
        assert s != s.bands

    def test_chunked_sweep_equals_one_block(self):
        # a 2-d sweep's blocks of _block_size give the bands and rows of one block of all its phases, which
        # are solved complex, as the whole grid is
        v = free_potential(2, (5, 5))
        phases = _grid(2, 16)
        k = _block_size(2, v.q)
        assert len(phases) > 2 * k and len(phases) % k  # several blocks and a short tail
        whole = _solve_block(v, _phase_factors(phases, 2))
        assert whole.dtype == np.float64 and _phase_factors(phases, 2).dtype == np.complex128
        ref = np.stack((whole.min(axis=0), whole.max(axis=0)), axis=1)
        np.testing.assert_array_equal(*bits(_sweep(v, phases)[0], ref))
        for row in (0, k - 1, k, len(phases) - 1):
            np.testing.assert_array_equal(*bits(_sweep(v, phases, tuple(phases[row]))[1], whole[row]))
        # a 1-d sweep's blocks are single phases: each row is the fiber's at its phase, real at 0 and 1/2
        v = random_potential(np.random.default_rng(41), dim=1, max_period=6)
        phases = _grid(1, 258)
        rows = np.stack([fiber_eigenvalues(v, phi) for phi in phases])
        ref = np.stack((rows.min(axis=0), rows.max(axis=0)), axis=1)
        np.testing.assert_array_equal(*bits(_sweep(v, phases)[0], ref))
        for row in (0, 1, len(phases) - 1):
            np.testing.assert_array_equal(*bits(_sweep(v, phases, tuple(phases[row]))[1], rows[row]))
        assert phases[[0, -1]].tolist() == [[0.0], [0.5]]
        np.testing.assert_array_equal(rows[[0, -1]], _solve_block(v, _phase_factors([[0.0], [0.5]], 1)))


class TestConjugateHalvedGrid:
    CASES = [(1, 2), (1, 7), (1, 8), (2, 2), (2, 5), (2, 6), (2, 16)]

    @pytest.mark.parametrize("dim,m", CASES)
    def test_one_phase_of_each_conjugate_pair(self, dim, m):
        phases = _grid(dim, m)
        assert len(phases) == (m**dim + (2**dim if m % 2 == 0 else 1)) // 2
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
            bs = _spectrum(v, _sweep(v, _grid(dim, m))[0], m)
            mesh_bands = np.stack([evs.min(axis=0), evs.max(axis=0)], axis=1)
            np.testing.assert_allclose(bs.bands, mesh_bands, rtol=0, atol=_solver_bound(v))
            # a 1-d sweep counts its phases as exact
            lips = sum(4.0 * math.pi / (2.0 * m * p) for p in v.periods) if dim == 2 else 0.0
            assert bs.error_bound == lips + _solver_bound(v)

    def test_every_block_of_a_grid_of_three_or_more_points_is_complex(self, monkeypatch):
        # a 2-d block takes its whole set's arithmetic: at q = 80 (blocks of 3) the grid of 4 ends in a
        # block of (1/2, 1/2) alone, and at q = 144 (blocks of 1) the four real phases are blocks of their own
        dtypes = []

        def recording(v, z, out=None):
            dtypes.append(z.dtype)
            return np.zeros((len(z), v.q))

        monkeypatch.setattr(floquet, "_solve_block", recording)
        assert [_block_size(2, q) for q in (80, 144)] == [3, 1] and len(_grid(2, 4)) % 3 == 1
        for periods in ((1, 80), (3, 3), (12, 12)):
            v = free_potential(2, periods)
            for m in range(3, 41):
                dtypes.clear()
                _sweep(v, _grid(2, m))
                assert set(dtypes) == {np.dtype(np.complex128)}, (periods, m)
            dtypes.clear()
            _sweep(v, _grid(2, 2))  # four real phases: a real set
            assert set(dtypes) == {np.dtype(np.float64)}


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's BLAS thread count; the count is put back afterwards."""
    threads = floquet._blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread count here")
    get, put = threads
    before = get()
    yield get, put
    put(before)


class TestBlasThreadSymbols:
    """numpy's OpenBLAS thread functions are found under the spelling of numpy 2 wheels, of numpy 1
    wheels (every symbol suffixed 64_) or of an unsuffixed build, tried in that order."""

    SPELLINGS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")

    @pytest.mark.parametrize(
        "exported, found",
        [
            (SPELLINGS, SPELLINGS[0]),
            (SPELLINGS[1:], SPELLINGS[1]),
            (SPELLINGS[2:], SPELLINGS[2]),
            ((SPELLINGS[0], SPELLINGS[2]), SPELLINGS[0]),
            ((), None),
        ],
        ids=["all", "numpy-1-wheel", "unsuffixed", "numpy-2-wheel", "none"],
    )
    def test_lookup_order(self, monkeypatch, exported, found):
        def symbol(name):
            def f(*args):
                return None

            f.__name__ = name
            return f

        names = [spelling.format(op) for spelling in exported for op in ("get", "set")]
        library = types.SimpleNamespace(**{name: symbol(name) for name in names})
        monkeypatch.setattr(ctypes, "CDLL", lambda path: library)
        floquet._numpy_symbols.cache_clear()
        try:
            threads = floquet._blas_threads()
        finally:
            floquet._numpy_symbols.cache_clear()  # the next lookup opens numpy's own library again
        if found is None:
            assert threads is None
        else:
            assert [f.__name__ for f in threads] == [found.format("get"), found.format("set")]
            assert threads[0].restype is ctypes.c_int and threads[1].argtypes == [ctypes.c_int]


class TestSplitBlocks:
    """A 2-d sweep is streamed in blocks of _block_size phases, each built and
    solved by one of as many worker threads as numpy's BLAS has, with BLAS
    pinned to one thread meanwhile."""

    @pytest.mark.parametrize("workers", [None, 3])  # None: as many as BLAS has here
    def test_rows_equal_one_unsplit_solve(self, monkeypatch, solved, workers):
        if workers is not None:
            monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: workers, lambda n: None))
        rng = np.random.default_rng(70)
        for periods in ((4, 4), (3, 5), (5, 5)):  # blocks of 64, 73 and 27
            v = PeriodicPotential(dim=2, periods=periods, cell=rng.uniform(-3, 3, size=math.prod(periods)))
            solved.clear()
            phases = _phase_set(2, 16)
            bands = _sweep(v, phases)[0]  # 130 phases: full blocks of k and a tail
            k = _block_size(2, v.q)
            assert 130 // k and 130 % k
            tail = [130 % k] if 130 % k else []
            assert sorted(c for _, c, _ in solved) == sorted(tail + [k] * (130 // k))  # whatever the worker count
            whole = np.linalg.eigvalsh(_fibers(v, np.exp(2j * np.pi * phases)))
            ref = np.stack((whole.min(axis=0), whole.max(axis=0)), axis=1)
            np.testing.assert_allclose(bands, ref, rtol=0, atol=_solver_bound(v))
            phi = tuple(rng.uniform(0, 1, size=2))
            one = np.linalg.eigvalsh(_fibers(v, _phase_factors([phi], 2)))[0]
            np.testing.assert_allclose(fiber_eigenvalues(v, phi), one, rtol=0, atol=_solver_bound(v))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_streamed_rows_equal_one_stacked_solve(self, monkeypatch, workers):
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: workers, lambda n: None))
        builders = set()
        fibers = floquet._fibers

        def recording(*args):
            builders.add(threading.get_ident())
            return fibers(*args)

        monkeypatch.setattr(floquet, "_fibers", recording)
        rng = np.random.default_rng(72)
        # 5, 841, 2050, 4 (all real), 13, 41 and 20 phases: one short block, full blocks and a tail, or blocks of
        # one fiber at q = 144
        cells = [((3, 5), 3), ((1, 7), 41), ((2, 2), 64), ((5, 4), 2), ((12, 12), 5), ((6, 6), 9), ((9, 9), 6)]
        for periods, m in cells:
            v = PeriodicPotential(dim=2, periods=periods, cell=tuple(rng.uniform(-2, 2, size=math.prod(periods))))
            builders.clear()
            phases = _phase_set(2, m)
            bands = _sweep(v, phases)[0]
            blocks = -(-len(phases) // _block_size(2, v.q))
            assert (threading.get_ident() in builders) == (min(workers, blocks) == 1)  # workers build their blocks
            whole = np.linalg.eigvalsh(fibers(v, _phase_factors(phases, 2)))
            np.testing.assert_array_equal(*bits(bands, np.stack((whole.min(axis=0), whole.max(axis=0)), axis=1)))

    def test_blas_pinned_to_one_thread_and_restored(self, monkeypatch, blas_threads):
        get, put = blas_threads
        put(3)
        inside = []
        solve = floquet._DenseSolver.__call__

        def recording(solver, v, z):
            inside.append(get())
            return solve(solver, v, z)

        monkeypatch.setattr(floquet._DenseSolver, "__call__", recording)
        band_spectrum(free_potential(2, (3, 3)), grid_points=8)
        assert inside and set(inside) == {1}
        assert get() == 3

    def test_blas_threads_restored_after_failed_solve(self, monkeypatch, blas_threads):
        get, put = blas_threads
        put(2)

        def failing(solver, v, z):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(floquet._DenseSolver, "__call__", failing)
        with pytest.raises(np.linalg.LinAlgError):
            band_spectrum(free_potential(2, (3, 3)), grid_points=8)
        assert get() == 2

    @pytest.mark.parametrize("reachable", [True, False])
    def test_one_thread_or_no_count_starts_no_worker(self, monkeypatch, blas_threads, reachable):
        get, put = blas_threads
        v = random_potential(np.random.default_rng(71), dim=2, max_period=4)
        put(2)
        expect = band_spectrum(v, grid_points=8)
        if reachable:
            put(1)
        else:
            monkeypatch.setattr(floquet, "_blas_threads", lambda: None)

        def refused(thread):
            raise AssertionError("a worker thread was started")

        monkeypatch.setattr(threading.Thread, "start", refused)
        assert band_spectrum(v, grid_points=8) == expect
        assert get() == (1 if reachable else 2)


class TestFoldAgainstWholeRows:
    """The fold's bands and cover rows equal, bit for bit, those of the row-stacking sweep it replaced,
    whole_solve_phases: min and max are exact, and every 2-d grid of three or more points was solved
    complex in every block of 8, as the fold solves its whole set."""

    @pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: request.param, lambda n: None))
        return request.param

    @staticmethod
    def assert_fold_equals_whole(v, phases, cover):
        bands, eigs = _sweep(v, phases, cover)
        want_bands, want_eigs = whole_sweep(v, phases, cover)
        assert bands.shape == want_bands.shape and eigs.shape == want_eigs.shape
        np.testing.assert_array_equal(*bits(bands, want_bands), err_msg=f"{v.periods}, {len(phases)} phases")
        np.testing.assert_array_equal(*bits(eigs, want_eigs), err_msg=f"{v.periods}, cover {cover}")

    @classmethod
    def assert_rows_equal(cls, v, phases, rows):
        # each row is found at its phase and, but for 0 and 1/2, at its conjugate, which is off the set
        for row in rows:
            cls.assert_fold_equals_whole(v, phases, tuple(phases[row]))
            cls.assert_fold_equals_whole(v, phases, tuple(-phases[row] % 1.0))

    # q = 63, 64, 90 and 144 take blocks of 5, 4, 3 and 1: below and above q = 128, from where a block is one
    # fiber, and each unlike the reference's blocks of 8
    @pytest.mark.parametrize("periods", [(7, 9), (8, 8), (9, 10), (12, 12)])
    def test_cells_about_the_block_boundary(self, workers, periods):
        rng = np.random.default_rng(sum(periods))
        v = PeriodicPotential(dim=2, periods=periods, cell=rng.uniform(-2, 2, size=math.prod(periods)))
        k = _block_size(2, v.q)
        # 4 real phases; 13 and 34 complex ones, which end in a short tail block at every k here but 1
        for m in (2, 5, 8):
            phases = _grid(2, m)
            assert m == 2 or k == 1 or len(phases) % k
            self.assert_rows_equal(v, phases, {0, min(k, len(phases) - 1), len(phases) - 1})
            self.assert_fold_equals_whole(v, phases, (0.3, 0.1))  # complex, off the grid
            self.assert_fold_equals_whole(v, phases, (0.5, 0.5) if m % 2 else (0.1, 0.5))  # real or complex, off it

    def test_random_cells(self, workers):
        rng = np.random.default_rng(82)
        for _ in range(20):
            v = random_potential(rng, dim=2, max_period=5)
            for m in (2, 3, 8):
                phases = _grid(2, m)
                self.assert_rows_equal(v, phases, [int(rng.integers(len(phases)))])
                self.assert_fold_equals_whole(v, phases, tuple(rng.uniform(0, 1, size=2)))
        for _ in range(20):
            v = random_potential(rng, dim=1, max_period=40)
            # the real pair, a complex set, and a grid that mixes both
            for phases in (_phase_set(1, 64), rng.uniform(0, 1, size=(3, 1)), _grid(1, 9), _grid(1, 8)):
                self.assert_rows_equal(v, phases, [int(rng.integers(len(phases)))])
            self.assert_fold_equals_whole(v, _phase_set(1, 64), (0.3,))

    def test_measure_run_off_the_sweep(self, monkeypatch, workers):
        # at phase 0.3 each 1-d step solves its cover fiber in a block of its own, left out of the bands
        pots = [fibonacci_potential(n, 2.0) for n in range(1, 12)]
        for v in pots:
            self.assert_fold_equals_whole(v, _phase_set(1, 64), (0.3,))
        new = estimate_measure_via_fibers(pots, 0.3, Lebesgue(), deltas="proxy")
        monkeypatch.setattr(floquet, "_sweep", whole_sweep)
        old = estimate_measure_via_fibers(pots, 0.3, Lebesgue(), deltas="proxy")

        def fields(report):
            rows = [[r.delta, r.q, r.r, r.mu_raw, r.mu_fattened, r.q_times_delta] for r in report.rows]
            return rows, report.summary["band_fattened"]

        for got, want in zip(fields(new), fields(old)):
            np.testing.assert_array_equal(*bits(got, want))


@pytest.fixture
def lapack():
    """numpy's own dsyevd and zheevd, which a 2-d sweep's solver calls; the test is skipped where they are absent."""
    lapack = floquet._lapack("dsyevd", "zheevd")
    if lapack is None:
        pytest.skip("numpy exports no ILP64 dsyevd/zheevd: the blocks are solved by eigvalsh")
    return lapack


@pytest.fixture
def fallback(monkeypatch):
    """hide(*routines) makes _lapack find none of numpy's own LAPACK ``routines``, every one it looks up when none
    are named, as on a numpy with no ILP64 names; BLAS's thread symbols are still found.  _lapack's cache is
    cleared at each hide and after the test."""
    symbols = floquet._numpy_symbols

    def hide(*routines):
        hidden = set(routines or floquet._LAPACK_ARGS)

        def found(templates, names):
            return None if hidden & set(names) else symbols(templates, names)

        monkeypatch.setattr(floquet, "_numpy_symbols", found)
        floquet._lapack.cache_clear()

    yield hide
    floquet._lapack.cache_clear()  # the next lookup finds numpy's own LAPACK again


def watched(solve, ticked):
    """``solve``, with a plain Python counter thread that waits until each call is about to start; whether it ran
    before the call returned goes into ``ticked``.  From the start to the return the calling thread runs no
    Python and holds the GIL unless the call lets go of it, with no forced switch while the interval is 5 s."""

    def call(*args):
        go, ticks = threading.Event(), []
        counter = threading.Thread(target=lambda: (go.wait(), ticks.append(1)))
        counter.start()
        go.set()
        result = solve(*args)
        ticked.append(bool(ticks))
        counter.join(10)
        assert not counter.is_alive()
        return result

    return call


class TestDenseSolver:
    """A sweep worker's 2-d solver calls numpy's own dsyevd or zheevd on each fiber of a block, as numpy's
    eigvalsh calls them, so its rows are eigvalsh's bit for bit; each call lets go of the GIL, which is what
    lets the workers' solves run side by side.  Where numpy exports no ILP64 names, eigvalsh solves each block."""

    # random cells with an axis of period 1 or 2, then q = 4, 16, 36, 63, 64, 144 and 256
    CELLS = [(1, 5), (2, 7), (9, 1), (6, 2), (1, 1), (2, 2), (4, 4), (6, 6), (7, 9), (8, 8), (12, 12), (16, 16)]

    @pytest.mark.parametrize("periods", CELLS, ids=str)
    def test_rows_bitwise_equal_to_eigvalsh(self, lapack, periods):
        rng = np.random.default_rng(math.prod(periods))
        v = PeriodicPotential(dim=2, periods=periods, cell=rng.uniform(-3, 3, size=math.prod(periods)))
        k = _block_size(2, v.q)
        solver = floquet._DenseSolver(v.q, k, np.dtype(complex))
        # one solver takes a full complex block, the real corners, as a complex sweep's real cover block would be,
        # and a short tail: the rows of each are eigvalsh's, after the blocks before it have used the same arrays
        corners = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)][: min(4, k)]
        blocks = [rng.uniform(0, 1, size=(k, 2)), corners, rng.uniform(0, 1, size=(max(1, k // 3), 2))]
        for phases in blocks:
            z = _phase_factors(phases, 2)
            want = np.linalg.eigvalsh(_fibers(v, z))
            np.testing.assert_array_equal(*bits(solver(v, z), want), err_msg=f"{len(z)} phases, {z.dtype}")

    def test_fallback_gives_the_same_bands(self, fallback):
        # the 12 x 12 cell's blocks are one fiber of numpy's zheevd, and with the fallback four of eigvalsh's;
        # with every LAPACK name hidden, the 1-d cell's fibers are solved by scipy's eigvals_banded too.  The
        # fallback solves in double, where these grids would be single: its bands are the double sweep's
        rng = np.random.default_rng(96)
        cells = [free_potential(2, (2, 3)), random_potential(rng, dim=2, max_period=9), fibonacci_potential(10, 1.5)]
        cells.append(PeriodicPotential(dim=2, periods=(12, 12), cell=rng.uniform(-2, 2, size=144)))
        expect = [_spectrum(v, _sweep(v, floquet._phase_set(v.dim, 8))[0], 8) for v in cells]
        assert _block_size(2, 144) == (4 if floquet._lapack("dsyevd", "zheevd") is None else 1)
        for hidden in (("dsyevd", "zheevd", "ssyevd", "cheevd"), ()):
            fallback(*hidden)
            assert floquet._lapack("dsyevd", "zheevd") is None and _block_size(2, 144) == 4
            assert (floquet._lapack("dsbev", "zhbev") is None) == (not hidden)
            for v, want in zip(cells, expect):
                np.testing.assert_array_equal(*bits(band_spectrum(v, grid_points=8).bands, want.bands))

    def test_single_query_rounded_down_is_rounded_up(self, monkeypatch):
        # a float32 workspace length above 2^24 may come back one ulp low: here each of cheevd's work and rwork
        # lengths is stubbed one ulp low, which puts rwork's, exactly its minimum q, below it without the ulp back
        if (single := floquet._lapack("ssyevd", "cheevd")) is None:
            pytest.skip("numpy exports no ILP64 ssyevd/cheevd: every sweep is double")

        def rounded_down(routine):
            def call(*args):
                routine(*args)
                spaces = args[6:-3]  # work, lwork, [rwork, lrwork,] iwork, liwork
                if all(ctypes.c_int64.from_address(n).value == -1 for n in spaces[1::2]):
                    for address in spaces[:-2:2]:  # the float32 cells at the start of work and rwork
                        cell = ctypes.c_float.from_address(address)
                        cell.value = np.nextafter(np.float32(cell.value), np.float32(-np.inf))

            call.__name__ = routine.__name__
            return call

        rng = np.random.default_rng(16)
        v = PeriodicPotential(dim=2, periods=(4, 4), cell=rng.uniform(-2, 2, size=16))
        z = _phase_factors(rng.uniform(0, 1, size=(2, 2)), 2, single=True)
        want = floquet._DenseSolver(16, 2, np.dtype(np.complex64))(v, z).copy()
        monkeypatch.setattr(floquet, "_lapack", lambda *names: tuple(map(rounded_down, single)))
        np.testing.assert_array_equal(floquet._DenseSolver(16, 2, np.dtype(np.complex64))(v, z), want)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_no_convergence_is_lin_alg_error(self, lapack, dtype):
        # NaN hops keep LAPACK's QL iteration from converging: info > 0
        v = free_potential(2, (2, 3))
        z = np.full((1, 2), np.nan, dtype=dtype)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge: 5 off-diagonals remain"):
            floquet._DenseSolver(v.q, 1, z.dtype)(v, z)

    def test_info_checked(self, lapack):
        for routine in lapack:
            assert floquet._check(routine, 0) is None
            with pytest.raises(np.linalg.LinAlgError, match=f"{routine.__name__} did not converge: 3 off-diagonals"):
                floquet._check(routine, 3)
            with pytest.raises(RuntimeError, match=f"{routine.__name__} was passed an illegal argument 5"):
                floquet._check(routine, -5)


class TestGilRelease:
    """A sweep worker's solver lets go of the GIL in each fiber's LAPACK call of a 2-d block of _block_size
    fibers, which is what lets the workers' solves run side by side, whatever the block's size and precision;
    so does eigvalsh where it solves each block, on a numpy with no ILP64 names, which it does only on more than
    500 eigenvalues."""

    @staticmethod
    def assert_ticks_inside(q, watch, single=False, real=False):
        """A counter thread ticks inside some solve that ``watch(ticked)`` has wrapped in ``watched``, while a
        _DenseSolver solves a block of _block_size(2, q) fibers of a random cell again and again: complex unless
        ``real`` (phases in {0, 1/2}^2), in single precision if ``single``."""
        rng, side, k = np.random.default_rng(q), math.isqrt(q), _block_size(2, q)
        v = PeriodicPotential(dim=2, periods=(side, side), cell=rng.uniform(-2, 2, size=q))
        phases = rng.integers(0, 2, size=(k, 2)) / 2 if real else rng.uniform(0, 1, size=(k, 2))
        z = _phase_factors(phases, 2, single=single)
        solver = floquet._DenseSolver(q, k, np.dtype(np.complex64 if single else complex))
        solver(v, z)  # the workspace query comes first
        ticked = []
        watch(ticked)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5.0)
        try:
            start = time.perf_counter()
            while not any(ticked) and time.perf_counter() - start < 2.0:
                solver(v, z)
        finally:
            sys.setswitchinterval(interval)
        assert any(ticked)

    @pytest.mark.parametrize("q", [16, 36, 144])
    def test_block_solve_releases_the_gil(self, lapack, monkeypatch, q):
        def watch(ticked):
            monkeypatch.setattr(floquet, "_lapack", lambda *names: (lapack[0], watched(lapack[1], ticked)))

        self.assert_ticks_inside(q, watch)

    @pytest.mark.parametrize("routine", ["ssyevd", "cheevd"])
    @pytest.mark.parametrize("q", [16, 36, 144])
    def test_single_block_solve_releases_the_gil(self, monkeypatch, routine, q):
        if (single := floquet._lapack("ssyevd", "cheevd")) is None:
            pytest.skip("numpy exports no ILP64 ssyevd/cheevd: every sweep is double")

        def watch(ticked):
            pair = zip(single, ("ssyevd", "cheevd"))
            wrapped = tuple(watched(f, ticked) if name == routine else f for f, name in pair)
            monkeypatch.setattr(floquet, "_lapack", lambda *names: wrapped)

        self.assert_ticks_inside(q, watch, single=True, real=routine == "ssyevd")

    # eigvalsh holds the GIL on the fast path's blocks of 13 fibers at q = 36, 4 at q = 64 and 1 at q = 144
    @pytest.mark.parametrize("q", [36, 64, 144])
    def test_fallback_block_solve_releases_the_gil(self, fallback, monkeypatch, q):
        fallback("dsyevd", "zheevd")

        def watch(ticked):
            monkeypatch.setattr(np.linalg, "eigvalsh", watched(np.linalg.eigvalsh, ticked))

        self.assert_ticks_inside(q, watch)


class TestConcurrentBands:
    """A 1-d sweep builds and solves each fiber's band storage on one of as
    many worker threads as numpy's BLAS has, with BLAS pinned to one thread
    meanwhile; sweeps started from several threads run one at a time."""

    @pytest.fixture
    def fast_switching(self):
        """The interpreter switches threads every microsecond, so workers interleave as often as they can."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("phases", [_phase_set(1, 64), _grid(1, 64)], ids=["real-pair", "grid-of-33"])
    @pytest.mark.parametrize("workers", [1, 2, 3])  # 3: more workers than a 2-core host has cores
    def test_rows_equal_serial_band_solves_bitwise(self, monkeypatch, fast_switching, workers, phases):
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: workers, lambda n: None))
        builders, solvers = set(), set()
        storage, banded = floquet._band_storage, floquet._banded_eigvals

        def recording_storage(*args):
            builders.add(threading.get_ident())
            return storage(*args)

        def recording_solve(band):
            solvers.add(threading.get_ident())
            return banded(band)

        monkeypatch.setattr(floquet, "_band_storage", recording_storage)
        monkeypatch.setattr(floquet, "_banded_eigvals", recording_solve)
        rng = np.random.default_rng(73)
        pots = [random_potential(rng, dim=1, max_period=40) for _ in range(6)]
        pots += [free_potential(1, 1), fibonacci_potential(14, 2.0)]
        for v in pots:
            bands, eigs = _sweep(v, phases, tuple(phases[-1]))
            serial = np.stack([banded(band) for phi in phases for band in storage(v, _phase_factors([phi], 1))])
            ref = np.stack((serial.min(axis=0), serial.max(axis=0)), axis=1)
            assert bands.dtype == np.float64 and bands.shape == (v.q, 2)
            np.testing.assert_array_equal(*bits(bands, ref), err_msg=f"q={v.q}")
            np.testing.assert_array_equal(*bits(eigs, serial[-1]), err_msg=f"q={v.q}")
        assert builders == solvers  # each fiber's storage is built by the worker that solves it
        assert (solvers == {threading.get_ident()}) == (workers == 1)

    def test_concurrent_folds_lose_no_row(self, monkeypatch, fast_switching):
        # a stand-in solve hands out precomputed rows of 40000 values, so four workers spend their time
        # folding side by side, where numpy's minimum and maximum run without the GIL: the lock alone keeps
        # every row in the bands
        rows = np.random.default_rng(75).standard_normal((64, 40_000))
        stand_in = iter(rows)
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: 4, lambda n: None))
        monkeypatch.setattr(floquet, "_solve_block", lambda v, z, out=None: next(stand_in)[None])
        bands = _sweep(free_potential(1, rows.shape[1]), _grid(1, 126))[0]  # 64 phases
        np.testing.assert_array_equal(bands, np.stack((rows.min(axis=0), rows.max(axis=0)), axis=1))

    def test_solve_counts_independent_of_call_order(self, monkeypatch, solved):
        pots = [fibonacci_potential(n, 2.0) for n in range(1, 10)]
        counts = []
        for workers in (1, 3):
            monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: workers, lambda n: None))
            solved.clear()
            estimate_measure_via_fibers(pots, 0.3, Lebesgue(), deltas="proxy")
            _sweep(pots[-1], _grid(1, 64))  # 33 phases, 0 and 1/2 among them
            counts.append(collections.Counter(solved))
        assert counts[0] == counts[1]
        real, complex_ = np.dtype(np.float64), np.dtype(np.complex128)
        assert counts[0] == {("banded", 1, real): 2 * len(pots) + 2, ("banded", 1, complex_): len(pots) + 31}

    def test_a_sweep_started_meanwhile_reads_and_restores_the_unpinned_count(self, monkeypatch):
        # sweeps from two threads interleaved get, put(1), get, put(n), put(1): BLAS was left on one thread
        count, read, second_read = [2], [], threading.Event()

        def get():
            read.append(count[0])
            if len(read) == 2:
                second_read.set()
            return count[0]

        monkeypatch.setattr(floquet, "_blas_threads", lambda: (get, lambda n: count.__setitem__(0, n)))
        v, solve_block, first, second = fibonacci_potential(6, 2.0), floquet._solve_block, threading.Lock(), []

        def waiting(*args):
            if first.acquire(blocking=False):  # the first block starts a second sweep and waits for it to read
                second.append(threading.Thread(target=_sweep, args=(v, [[0.0], [0.5]])))
                second[0].start()
                second_read.wait(0.3)
            return solve_block(*args)

        monkeypatch.setattr(floquet, "_solve_block", waiting)
        _sweep(v, [[0.0], [0.5]])
        second[0].join(10)
        assert not second[0].is_alive()
        assert read == [2, 2] and count == [2]

    def test_sweeps_from_more_threads_than_cores_leave_the_count_as_found(self, monkeypatch, fast_switching):
        count, read = [2], []

        def get():
            read.append(count[0])
            return count[0]

        monkeypatch.setattr(floquet, "_blas_threads", lambda: (get, lambda n: count.__setitem__(0, n)))
        v, w = fibonacci_potential(8, 2.0), free_potential(2, (3, 3))

        def sweeps():
            for _ in range(10):
                _sweep(v, [[0.0], [0.5]])
                _sweep(w, _grid(2, 4))

        threads = [threading.Thread(target=sweeps) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(read) == 80 and set(read) == {2} and count == [2]

    def test_blas_pinned_and_restored_after_a_failed_band(self, monkeypatch, blas_threads):
        get, put = blas_threads
        put(2)
        inside = []

        def failing(band):
            inside.append((threading.get_ident(), get()))
            raise np.linalg.LinAlgError("dsbev did not converge")

        monkeypatch.setattr(floquet, "_banded_eigvals", failing)
        with pytest.raises(np.linalg.LinAlgError):
            band_spectrum(fibonacci_potential(8, 1.0))
        assert inside and all(thread != threading.get_ident() and n == 1 for thread, n in inside)
        assert get() == 2

    @pytest.mark.parametrize("reachable", [True, False])
    def test_one_thread_or_no_count_starts_no_worker(self, monkeypatch, blas_threads, reachable):
        get, put = blas_threads
        v = fibonacci_potential(12, 1.5)
        put(2)
        expect = band_spectrum(v)
        if reachable:
            put(1)
        else:
            monkeypatch.setattr(floquet, "_blas_threads", lambda: None)

        def refused(thread):
            raise AssertionError("a worker thread was started")

        monkeypatch.setattr(threading.Thread, "start", refused)
        monkeypatch.setattr(floquet, "_pool", refused)
        assert band_spectrum(v) == expect
        assert get() == (1 if reachable else 2)


# ---------------------------------------------------------------------------
# covers and the measure pipeline
# ---------------------------------------------------------------------------


class TestCovers:
    def test_band_cover_fattens_and_merges(self):
        bands = normalize([(0.0, 1.0), (2.0, 3.0)])
        cov = fatten(bands, 0.25)
        assert set_to_obj(cov) == [[-0.25, 1.25], [1.75, 3.25]]
        assert len(fatten(bands, 0.5)) == 1

    def test_eigenvalue_cover_radii(self):
        cov = cover_from_eigenvalues([0.0, 1.0], delta=0.1, radius=0.2)
        flat = [x for pair in set_to_obj(cov) for x in pair]
        assert flat == pytest.approx([-0.3, 0.3, 0.7, 1.3])
        merged = cover_from_eigenvalues([0.0, 1.0], delta=0.3, radius=0.2)
        assert set_to_obj(merged) == [[-0.5, 1.5]]

    def test_negative_radii_rejected(self):
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
            assert contains_set(fatten(union, delta), union, tol=0.0)


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

    def test_no_potentials_refused(self):
        with pytest.raises(ValueError, match="need at least one step"):
            estimate_measure_via_fibers([], 0.0, Lebesgue())

    def test_explicit_deltas_length_checked(self):
        with pytest.raises(ValueError):
            estimate_measure_via_fibers(
                [free_potential(1, 2)], 0.0, Lebesgue(), deltas=[0.1, 0.2]
            )

    def test_deltas_of_any_sequence_type(self):
        # comparing a numpy array with "proxy" gives an array, whose truth value is ambiguous
        pots = [fibonacci_potential(n, 1.0) for n in (3, 4, 5)]
        want = estimate_measure_via_fibers(pots, 0.3, Lebesgue(), deltas=[0.1, 0.05, 0.0])
        for deltas in (np.array([0.1, 0.05, 0.0]), (0.1, 0.05, 0.0), [np.float64(0.1), 0.05, np.int64(0)]):
            got = estimate_measure_via_fibers(pots, 0.3, Lebesgue(), deltas=deltas)
            assert (got.rows, got.summary) == (want.rows, want.summary)
        with pytest.raises(ValueError, match="one finite nonnegative delta per"):  # only "proxy" names the proxy
            estimate_measure_via_fibers(pots, 0.3, Lebesgue(), deltas="pro")

    # float() read True as 1.0 and "0.1" as 0.1
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, True, np.True_, "0.1"])
    def test_explicit_deltas_refused_before_any_solve(self, bad):
        class Unread(list):  # refused before any potential is read, so before any solve
            def __getitem__(self, i):
                raise AssertionError("read a potential")

        pots = Unread(fibonacci_potential(n, 1.0) for n in (3, 4, 5))
        with pytest.raises(ValueError, match="one finite nonnegative delta per step"):
            estimate_measure_via_fibers(pots, 0.0, Lebesgue(), deltas=[bad, 0.1, 0.1])

    # the delta source decides only where each delta comes from: a proxy run's own deltas, declared, give its rows
    @pytest.mark.parametrize("phase", [0.0, 0.3])
    def test_proxy_deltas_declared_give_the_proxy_run(self, phase):
        pots = [fibonacci_potential(n, 1.0) for n in range(3, 8)]
        proxy = estimate_measure_via_fibers(pots, phase, Lebesgue(), deltas="proxy")
        explicit = estimate_measure_via_fibers(pots, phase, Lebesgue(), deltas=[row.delta for row in proxy.rows])
        assert explicit.rows == proxy.rows
        assert explicit.summary == {**proxy.summary, "delta_mode": "analytic"}

    @pytest.mark.parametrize("phase", [(0.3, 0.1), (0.25, 0.5)], ids=["off-grid", "on-grid"])
    def test_proxy_deltas_declared_give_the_2d_proxy_covers(self, phase):
        # an explicit 2-d run sweeps no grid, so it has no band union and no band estimates
        pots = [free_potential(2, (p, p)) for p in (2, 4)]
        proxy = estimate_measure_via_fibers(pots, phase, Lebesgue(), deltas="proxy", grid_points=8)
        deltas = [row.delta for row in proxy.rows]
        explicit = estimate_measure_via_fibers(pots, phase, Lebesgue(), deltas=deltas, grid_points=8)
        assert [(r.delta, r.mu_fattened) for r in explicit.rows] == [(r.delta, r.mu_fattened) for r in proxy.rows]
        assert "band_fattened" in proxy.summary and "band_fattened" not in explicit.summary

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_measure_via_fibers(
                [free_potential(1, 2), free_potential(2, (2, 2))], 0.0, Lebesgue(), deltas=[0.0, 0.0]
            )


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
        assert sum(c for _, c, _ in solved) == (len(_phase_set(2, 8)) + extra) * len(pots)

    FIB = [fibonacci_potential(n, 2.0) for n in range(1, 7)]
    FREE_2D = [free_potential(2, (p, p)) for p in (1, 2, 3)]

    @pytest.mark.parametrize(
        "pots, phase, deltas",
        [(FIB, 0.3, "proxy"), (FIB, 0.5, [0.1] * 6), (FREE_2D, (0.3, 0.1), "proxy"), (FREE_2D, (0.3, 0.1), [0.1] * 3)],
        ids=["1d-proxy-off-sweep", "1d-explicit-on-sweep", "2d-proxy-off-grid", "2d-explicit"],
    )
    def test_one_sweep_per_step(self, monkeypatch, pots, phase, deltas):
        # the cover phase joins the step's sweep; no fiber is solved beside it
        sweeps = []
        solve = floquet._sweep
        monkeypatch.setattr(floquet, "_sweep", lambda v, *args: sweeps.append(v) or solve(v, *args))
        monkeypatch.setattr(floquet, "fiber_eigenvalues", None)
        estimate_measure_via_fibers(pots, phase, Lebesgue(), deltas=deltas, grid_points=8)
        assert sweeps == [pots[-1], *pots[:-1]]

    @pytest.mark.parametrize(
        "deltas, held", [("proxy", [0, 1, 1, 1, 1]), ([0.1] * 5, [0] * 5)], ids=["proxy", "explicit"]
    )
    def test_only_a_proxy_run_holds_the_finest_union(self, monkeypatch, deltas, held):
        # each proxy delta is a union's distance to the finest, swept first; an explicit run holds no union past its
        # row.  ``held`` counts the unions alive at each sweep
        unions, alive, union, solve = [], [], BandSpectrum.union, floquet._sweep

        def sweep(*args):
            alive.append(sum(ref() is not None for ref in unions))
            return solve(*args)

        monkeypatch.setattr(BandSpectrum, "union", lambda s: unions.append(weakref.ref((u := union(s)).lows)) or u)
        monkeypatch.setattr(floquet, "_sweep", sweep)
        estimate_measure_via_fibers([fibonacci_potential(n, 1.0) for n in range(3, 8)], 0.3, Lebesgue(), deltas=deltas)
        assert alive == held

    def test_cover_phase_solved_in_a_block_of_its_own(self, solved):
        # a 2-point grid is 4 real phases; phi = (0.3, 0.1) in their block would make it complex
        estimate_measure_via_fibers([free_potential(2, (2, 3))], (0.3, 0.1), Lebesgue(), deltas="proxy", grid_points=2)
        assert sorted(solved, key=str) == [("dense", 1, np.complex128), ("dense", 4, np.float64)]

    def test_reused_rows_match_fresh_solves(self, monkeypatch, solved):
        # the cover eigenvalues of a one-step run: reused from the sweep at phi or -phi, solved afresh elsewhere
        covered = []
        cover = floquet.cover_from_eigenvalues
        monkeypatch.setattr(
            floquet, "cover_from_eigenvalues", lambda eigs, *radii: covered.append(eigs) or cover(eigs, *radii)
        )
        rng = np.random.default_rng(41)
        for dim, phis in (
            (1, [(0.0,), (0.5,)]),
            (2, [(0.0, 0.0), (0.25, 0.5), (0.75, 0.5), (0.5, 0.875), (0.125, 0.0)]),
        ):
            for _ in range(10):
                v = random_potential(rng, dim=dim, max_period=12 if dim == 1 else 4)
                for phi in phis + [(0.3,) * dim]:
                    solved.clear()
                    covered.clear()
                    estimate_measure_via_fibers([v], phi, Lebesgue(), grid_points=8)
                    fresh = sum(c for _, c, _ in solved) - len(_phase_set(dim, 8))
                    assert fresh == (phi == (0.3,) * dim)
                    np.testing.assert_allclose(covered[0], fiber_eigenvalues(v, phi), rtol=0, atol=_solver_bound(v))


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
        monkeypatch.setattr(floquet, "_single_term", lambda v, grid_points: 0.0)  # pins the double sweep
        new = band_spectrum(v, grid_points=16)
        use_complex_full_sweep(monkeypatch)
        old = band_spectrum(v, grid_points=16)
        np.testing.assert_allclose(new.bands, old.bands, rtol=0, atol=_solver_bound(v))
        assert new.error_bound == old.error_bound


class TestSinglePrecision:
    """band_spectrum solves a 2-d grid in single precision where (q + SINGLE_TOL_SITES) * eps32 * norm is below
    SINGLE_SHARE of the grid's Lipschitz term, and adds that term to its error bound: every band edge lies within
    the term of the double sweep's.  Over the threshold, and in 1-d, it is the double sweep bit for bit."""

    # cells and grids that other tests solve, up to a 24 x 24 cell at a coarse grid; grid 2's phases are real
    CASES = [((2, 2), 64), ((3, 5), 3), ((5, 5), 16), ((6, 6), 9), ((12, 12), 5), ((16, 16), 2), ((24, 24), 3)]

    @staticmethod
    def double(v, m):
        return _spectrum(v, _sweep(v, _phase_set(v.dim, m))[0], m)

    @pytest.mark.parametrize("periods, m", CASES, ids=str)
    def test_edges_within_the_term_of_the_double_edges(self, periods, m):
        if floquet._lapack("ssyevd", "cheevd") is None:
            pytest.skip("numpy exports no ILP64 ssyevd/cheevd: every sweep is double")
        rng = np.random.default_rng(math.prod(periods))
        v = PeriodicPotential(dim=2, periods=periods, cell=rng.uniform(-2, 2, size=math.prod(periods)))
        single, double = band_spectrum(v, grid_points=m), self.double(v, m)
        term = single.error_bound - double.error_bound
        assert np.abs(single.bands - double.bands).max() <= term
        np.testing.assert_array_equal(single.bands.astype(np.float32), single.bands)  # solved in single
        assert term == pytest.approx((v.q + 64) * 2.0**-23 * (4 + np.abs(v.cell).max()))
        assert term < 0.01 * (double.error_bound - _solver_bound(v))  # below 1% of the Lipschitz term

    def test_over_the_threshold_and_in_one_dimension_the_double_sweep(self):
        # potentials of about 1e3 and 1e5 put the term at 2.2% and 103% of these grids' Lipschitz terms
        rng = np.random.default_rng(38)
        cells = [PeriodicPotential(dim=2, periods=(4, 4), cell=rng.uniform(-1e3, 1e3, size=16))]
        cells.append(PeriodicPotential(dim=2, periods=(2, 2), cell=(1e5, -1e5, 3.0, 0.5)))
        cells += [random_potential(rng, dim=1, max_period=24) for _ in range(8)]
        for v in cells:
            assert floquet._single_term(v, 8) == 0.0
            got, want = band_spectrum(v, grid_points=8), self.double(v, 8)
            np.testing.assert_array_equal(*bits(got.bands, want.bands))
            assert got.error_bound == want.error_bound


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

    def test_fibers_refused_before_the_stack(self, monkeypatch, fallback):
        v, w = free_potential(2, (2, 5)), free_potential(2, (10, 10))
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 2 * 10 * 10 * 8)
        assert _fibers(v, _phase_factors([[0.0, 0.5], [0.5, 0.0]], 2)).shape == (2, 10, 10)  # two real fibers fit
        with pytest.raises(ValueError, match=r"need 3\.200e\+3 bytes"):
            _fibers(v, _phase_factors([[0.25, 0.0], [0.5, 0.5]], 2))  # two complex ones do not
        # a sweep is charged what its workers can hold at once, before any fiber is built or BLAS pinned
        pinned = []
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: 3, pinned.append))
        monkeypatch.setattr(floquet, "_fibers", None)
        with pytest.raises(ValueError, match=r"need 1\.600e\+4 bytes"):
            _sweep(v, _grid(2, 4))  # 10 complex phases, fewer than 3 blocks
        with pytest.raises(ValueError, match=r"need 9\.600e\+5 bytes"):
            _sweep(w, _grid(2, 8))  # 34 complex phases, 3 workers' blocks of 2 fibers of 100 sites
        # band_spectrum solves these grids in single precision where numpy exports ssyevd/cheevd: complex64 fibers,
        # 8 bytes an entry; else, and with those hidden, in double, as the sweeps above
        single = floquet._lapack("ssyevd", "cheevd") is not None
        for charges in (("8.000e+3", "4.800e+5") if single else ("1.600e+4", "9.600e+5"), ("1.600e+4", "9.600e+5")):
            with pytest.raises(ValueError, match=rf"need {re.escape(charges[0])} bytes"):
                band_spectrum(v, grid_points=4)
            with pytest.raises(ValueError, match=rf"need {re.escape(charges[1])} bytes"):
                band_spectrum(w, grid_points=8)
            fallback("ssyevd", "cheevd")
        assert pinned == []

    def test_fallback_blocks_charged(self, monkeypatch, fallback):
        # where eigvalsh solves the blocks, a 12 x 12 cell's is 4 fibers, not 1: 2 workers hold 8 complex fibers
        fallback("dsyevd", "zheevd", "ssyevd", "cheevd")
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: 2, lambda n: None))
        v = PeriodicPotential(dim=2, periods=(12, 12), cell=np.random.default_rng(84).uniform(-2, 2, size=144))
        expect = band_spectrum(v, grid_points=8)
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 8 * 144**2 * 16 - 1)
        with pytest.raises(ValueError, match=r"8 dense 144 x 144 fiber\(s\) need 2\.654e\+6 bytes"):
            band_spectrum(v, grid_points=8)
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 8 * 144**2 * 16)
        assert band_spectrum(v, grid_points=8) == expect

    def test_phase_grid_refused_before_its_indices(self, monkeypatch):
        def no_arange(*args, **kwargs):
            raise AssertionError("the phase grid was built")

        monkeypatch.setattr(np, "arange", no_arange)  # the grid's first array
        v = PeriodicPotential(dim=2, periods=(1, 1), cell=[0.0])
        grid = "the mask, int64 indices and phases of the"
        with pytest.raises(ValueError, match=rf"{grid} 100000\^2 phase grid need 1\.700e\+11 bytes"):
            band_spectrum(v, grid_points=100000)
        # 9 steps, 9 mask entries, then 5 kept phases: their indices and phases
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 8 * 9 + 9 + 16 * 5 - 1)
        with pytest.raises(ValueError, match=rf"{grid} 9\^1 phase grid need 1\.610e\+2 bytes"):
            _grid(1, 9)
        monkeypatch.undo()
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 8 * 9 + 9 + 16 * 5)
        assert len(_grid(1, 9)) == 5

    def test_eigenvalue_rows_not_charged(self, monkeypatch):
        # 33 phases of a 1-d grid of 64: 8 workers' banded fibers at once take 3.84e4 bytes; the sweep keeps
        # no row per phase, so the 5.28e4 bytes that 33 rows and their stack took are not charged
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: 8, lambda n: None))
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 8 * 3 * 100 * 16)
        v = free_potential(1, 100)
        bands = _sweep(v, _grid(1, 64))[0]
        np.testing.assert_array_equal(*bits(bands, whole_sweep(v, _grid(1, 64))[0]))
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 8 * 3 * 100 * 16 - 1)
        with pytest.raises(ValueError, match=r"8 banded 3 x 100 fiber\(s\) need 3\.840e\+4 bytes"):
            _sweep(v, _grid(1, 64))

    def test_one_dimensional_cells_charged_their_band_arrays(self, monkeypatch):
        with pytest.raises(ValueError, match=r"1 banded 3 x 1000000000000 fiber\(s\) need 2\.400e\+13 bytes"):
            check_fiber_stack(10**12, banded=True)
        assert check_fiber_stack(100, count=2, itemsize=16, banded=True) == 2 * 3 * 100 * 16
        # the builder charges the cell what a run over it holds, 240 bytes per site (models.SITE_BYTES)
        with pytest.raises(ValueError, match=r"need 2\.400e\+14 bytes"):
            free_potential(1, 10**12)
        v = free_potential(1, 100)
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", 2 * 3 * 100 * 8)  # v's dense fiber, 8.0e4 bytes, would not fit
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: 3, lambda n: None))  # one fiber per worker
        assert len(band_spectrum(v).bands) == 100  # two real banded fibers fit
        with pytest.raises(ValueError, match=r"need 1\.440e\+4 bytes"):
            _sweep(v, _grid(1, 4))  # the three of _grid(1, 4), charged as complex, do not
        with pytest.raises(ValueError, match=r"need 7\.200e\+4 bytes"):
            free_potential(1, 300)


class TestSweepMemory:
    WORKERS = 2

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: self.WORKERS, lambda n: None))

    @staticmethod
    def traced_peak(call, warm_up):
        warm_up()  # imports and caches come first
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sweep_holds_only_the_workers_blocks(self):
        rng = np.random.default_rng(80)
        v = PeriodicPotential(dim=2, periods=(12, 12), cell=tuple(float(x) for x in rng.uniform(-2, 2, size=144)))
        expect = band_spectrum(v, grid_points=16)  # 130 phases
        spectrum, peak = self.traced_peak(lambda: band_spectrum(v, grid_points=16), lambda: None)
        assert spectrum == expect
        # each worker's one fiber, its zheevd workspace, and O(q) per worker: its rows, a block's rings, the bands
        assert _block_size(2, v.q) == 1
        assert peak <= self.WORKERS * (v.q**2 * 16 + workspace_bytes(v.q) + 1024 * v.q)
        assert peak < 130 * v.q**2 * 16 / 4  # far below the sweep's 130 fibers held at once

    def test_sweep_holds_no_row_per_phase(self):
        # 5002 phases of a 6 x 6 cell: one copy of their eigenvalue rows is 1.44 MB
        v = PeriodicPotential(dim=2, periods=(6, 6), cell=np.random.default_rng(81).uniform(-2, 2, size=36))
        phases = _grid(2, 100)
        (bands, _), peak = self.traced_peak(lambda: _sweep(v, phases), lambda: _sweep(v, _grid(2, 8)))
        assert bands.shape == (v.q, 2)
        # the workers' blocks of 13 fibers, their workspaces and O(q) terms, then the phases' blocks, views of 13
        # phases each
        k = _block_size(2, v.q)
        assert peak <= self.WORKERS * (k * v.q**2 * 16 + workspace_bytes(v.q) + 1024 * v.q) + 32 * len(phases)
        assert peak < len(phases) * v.q * 8  # less than one copy of the rows


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
            bands, eigs = _sweep(v, [[0.0]], cover=(0.5,))  # side by side: phi = 0 in the bands, 1/2 the cover
            for phi, row in ((0.0, bands[:, 0]), (0.5, eigs)):
                x, dx = fibonacci_trace(n, coupling, row)
                assert np.all(np.abs(x - math.cos(2 * math.pi * phi)) <= np.abs(dx) * _solver_bound(v))
