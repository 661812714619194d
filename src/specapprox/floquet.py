"""Band spectra of periodic discrete Schrodinger operators on Z^d, d <= 2.

The operator acts by nearest-neighbor hopping plus a periodic on-site
potential.  Restricting to twisted-periodic boundary conditions over one
fundamental cell gives a q x q Hermitian fiber matrix H(phi), q the cell
volume, where phi collects one total Floquet phase per axis: crossing the
cell boundary along axis j multiplies the wavefunction by exp(2*pi*i*phi_j).
The spectrum of the full operator is the union over phases of the fiber
spectra, and the range of the i-th ordered eigenvalue over phases is the
i-th band.

Fibers are assembled from hop index arrays: the sites of the cell are
numbered in row-major order, a roll along each axis gives every site's
forward neighbour, and a coordinate mask splits the hops inside the cell
from the ones that wrap around its boundary.  Any number of phases is
assembled at once, real symmetric (float64) when every phase lies in
{0, 1/2}^d, where each wrap carries z = +-1, else complex; a band sweep
makes that choice once for all its phases.  The same hops fill two
storages.  A 1-d fiber is a cyclic tridiagonal matrix; with its sites taken
in zig-zag order 0, q-1, 1, q-2, ... it has bandwidth 2, so it is held as
3 x q upper band storage and solved by LAPACK's banded eigensolver
(scipy.linalg.eigvals_banded): O(q) memory and no q x q matrix.  2-d
fibers are dense q x q stacks, solved by batched eigvalsh.

The two evaluation strategies are phase sets.  For d = 1 the band edges are
attained exactly at the periodic and antiperiodic fibers (phi = 0 and 1/2),
since the discriminant sweeps monotonically between its extreme values on
each band.  In general a phase grid gives edges up to a rigorous Lipschitz
error: moving one phase by t changes each eigenvalue by at most 4*pi*t, so
a grid of M points per axis localizes every edge to within
(sum_j 4*pi) / (2*M) plus eigensolver error.  The potential is real, so
H(-phi) = conj H(phi) shares the spectrum of H(phi), and the grid solves
one phase of each conjugate pair.

The uniform bandwidth bound sum_j 4*pi/p_j turns fiber eigenvalues at any
single phase into a cover of the whole spectrum by intervals of known
radius, which is what the measure-estimation pipeline at the bottom of this
module exploits; it reuses the band sweep's eigenvalues at that phase or
its conjugate when the sweep solved either.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .convergence import ConvergenceReport, Measure1D, measure, report_row
from .intervals import (
    DEFAULT_TOL,
    IntervalSet,
    InvalidRadiusError,
    fatten,
    hausdorff_distance,
    interval_union,
    normalize,
)

HERMITICITY_TOL = 1e-12
# Backward-stable dense eigensolver: eigenvalue error is a small multiple of
# machine epsilon times the matrix norm.  1e-12 * norm is a generous ceiling
# for the matrix sizes in scope (q <= a few thousand).
SOLVER_TOL_FACTOR = 1e-12

# Phases solved per block: a dense 2-d block holds _CHUNK * q^2 * 16 bytes.
_CHUNK = 128

# Grid points per axis of the grid strategy when a caller names none.
DEFAULT_GRID_POINTS = 64

# Nothing larger than the machine's physical memory can be held.
MAX_FIBER_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if hasattr(os, "sysconf") else 2**36


class NotHermitianError(ValueError):
    """Matrix handed to the eigensolver was not Hermitian."""


@dataclass(frozen=True)
class PeriodicPotential:
    """Real potential sampled over one fundamental cell.

    ``cell`` holds the values over the cell prod(periods) in row-major
    order: for d = 2 the site (n1, n2) has index n1 * periods[1] + n2.
    """

    dim: int
    periods: tuple[int, ...]
    cell: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dim}")
        if len(self.periods) != self.dim:
            raise ValueError("need one period per axis")
        if any(p < 1 or p != int(p) for p in self.periods):
            raise ValueError("periods must be positive integers")
        if len(self.cell) != self.q:
            raise ValueError(f"cell must hold {self.q} values, got {len(self.cell)}")
        if any(not math.isfinite(v) for v in self.cell):
            raise ValueError("cell values must be finite")

    @property
    def q(self) -> int:
        return int(np.prod(self.periods))

    def index(self, site) -> int:
        reduced = tuple(int(s) % p for s, p in zip(site, self.periods))
        return int(np.ravel_multi_index(reduced, self.periods))

    def value(self, site) -> float:
        return self.cell[self.index(site)]


@dataclass(frozen=True)
class BandSpectrum:
    """Ordered band intervals plus a rigorous band-edge error bound."""

    bands: tuple[tuple[float, float], ...]
    error_bound: float

    def union(self, tol: float = DEFAULT_TOL) -> IntervalSet:
        return normalize(self.bands, tol)

    def widths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in self.bands)


def stabilizer_contains(potential: PeriodicPotential, shift, atol: float = 0.0) -> bool:
    """Whether translating by the integer vector ``shift`` fixes the potential."""
    shift = tuple(int(s) for s in np.atleast_1d(shift))
    if len(shift) != potential.dim:
        raise ValueError("shift must have one entry per axis")
    cell = np.reshape(potential.cell, potential.periods)
    # site n of the rolled cell holds the value at n + shift
    moved = np.roll(cell, tuple(-m % p for m, p in zip(shift, potential.periods)), axis=tuple(range(potential.dim)))
    return bool(np.all(np.abs(moved - cell) <= atol))


def sampled_stabilizer_contains(values, shift, atol: float = 0.0) -> bool:
    """Shift-invariance of a finite sample window; the verdict only covers
    the overlap of the window with its shifted copy."""
    arr = np.asarray(values, dtype=float)
    shift = tuple(int(s) for s in np.atleast_1d(shift))
    if arr.ndim != len(shift):
        raise ValueError("shift must have one entry per array axis")
    sl_a, sl_b = [], []
    for m, size in zip(shift, arr.shape):
        if abs(m) >= size:
            raise ValueError("shift exceeds the sampled window")
        if m >= 0:
            sl_a.append(slice(m, size))
            sl_b.append(slice(0, size - m))
        else:
            sl_a.append(slice(0, size + m))
            sl_b.append(slice(-m, size))
    return bool(np.all(np.abs(arr[tuple(sl_a)] - arr[tuple(sl_b)]) <= atol))


def _phase_tuple(phase, dim: int) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(phase, dtype=float))
    if arr.size == 1 and dim > 1:
        arr = np.full(dim, arr[0])
    if arr.size != dim:
        raise ValueError(f"need {dim} phase components, got {arr.size}")
    return tuple(float(p) % 1.0 for p in arr)


def check_bytes(need, what: str):
    """``need``, the bytes ``what`` takes; ValueError with the estimate if over MAX_FIBER_BYTES."""
    if need > MAX_FIBER_BYTES:
        raise ValueError(f"{what} need {Decimal(need):.3e} bytes, memory holds {Decimal(MAX_FIBER_BYTES):.3e}")
    return need


def check_fiber_stack(q, count: int = 1, itemsize: int = 8, banded: bool = False) -> int:
    """Bytes of ``count`` fibers of q sites, dense q x q or banded 3 x q; ValueError if over MAX_FIBER_BYTES."""
    rows = 3 if banded else q
    return check_bytes(count * rows * q * itemsize, f"{count} {'banded' if banded else 'dense'} {rows} x {q} fiber(s)")


def _phase_factors(phases, dim: int, real: bool | None = None) -> np.ndarray:
    """z = exp(2*pi*i*phi) for the k x d ``phases``; float64 when ``real``, by default when
    every phase is 0 or 1/2, where z = +-1 is the real part of the complex z."""
    phases = np.asarray(phases, dtype=float).reshape(-1, dim)
    z = np.exp(2j * np.pi * phases)
    if real is None:
        real = np.isin(phases, (0.0, 0.5)).all()
    return z.real if real else z


def _hops(potential: PeriodicPotential, z):
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


def _fibers(potential: PeriodicPotential, phases, real: bool | None = None) -> np.ndarray:
    """Stack of Hermitian q x q fibers, one per row of the k x d ``phases``;
    real when ``real`` (by default when every phase is 0 or 1/2), so that it
    is the real part of the complex stack."""
    z = _phase_factors(phases, potential.dim, real)
    check_fiber_stack(potential.q, len(z), z.itemsize)
    diag = np.arange(potential.q)
    h = np.zeros((len(z), potential.q, potential.q), dtype=z.dtype)
    h[:, diag, diag] = potential.cell
    for rows, cols, w in _hops(potential, z):
        h[:, rows, cols] += w
    return h


def _band_storage(potential: PeriodicPotential, phases, real: bool | None = None) -> np.ndarray:
    """Upper band storage of the 1-d fibers at the k ``phases``, k x (u+1) x q.

    The sites are taken in zig-zag order 0, q-1, 1, q-2, ...: the ring's
    hops then reach 2 positions and its wrap 1, so each fiber has u =
    min(2, q-1) bands above the diagonal, and entry (i, j), i <= j, of the
    reordered fiber sits at row u + i - j of column j.  ``real`` is as for _fibers.
    """
    z = _phase_factors(phases, 1, real)
    q = potential.q
    check_fiber_stack(q, len(z), z.itemsize, banded=True)
    u = min(2, q - 1)  # eigvals_banded returns wrong eigenvalues from storage with more rows than q
    sites = np.arange(q)
    pos = np.minimum(2 * sites, 2 * (q - 1 - sites) + 1)
    band = np.zeros((len(z), u + 1, q), dtype=z.dtype)
    band[:, u, pos] = potential.cell
    for rows, cols, w in _hops(potential, z):
        i, j = pos[rows], pos[cols]
        up = i <= j
        band[:, u + i[up] - j[up], j[up]] += w
    return band


def build_fiber(potential: PeriodicPotential, phase) -> np.ndarray:
    """Hermitian q x q fiber matrix at the given total Floquet phase(s).

    Interior hops contribute 1; hops crossing the cell boundary along axis j
    carry exp(+-2*pi*i*phase_j).  Phases are reduced mod 1.  The fiber is
    float64 at phases in {0, 1/2}^d, where it is real symmetric.
    """
    return _fibers(potential, _phase_tuple(phase, potential.dim))[0]


def eigenvalues(matrix, check_tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Sorted eigenvalues of a Hermitian matrix.

    Raises :class:`NotHermitianError` when the largest asymmetry
    |M - M*| exceeds ``check_tol`` or is NaN.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = np.max(np.abs(m - m.conj().T))
    if not asym <= check_tol:
        raise NotHermitianError(f"matrix asymmetry {asym:.3e} exceeds {check_tol:.3e}")
    return np.linalg.eigvalsh(m)


def fiber_eigenvalues(potential: PeriodicPotential, phase) -> np.ndarray:
    """Sorted eigenvalues of the fiber at the given phase(s), solved as the band sweep solves it."""
    return _solve_block(potential, [_phase_tuple(phase, potential.dim)])[0]


def bandwidth_bound(periods) -> float:
    """Uniform bound sum_j 4*pi/p_j on the width of every band."""
    periods = tuple(int(p) for p in np.atleast_1d(periods))
    if any(p < 1 for p in periods):
        raise ValueError("periods must be positive integers")
    return float(sum(4.0 * math.pi / p for p in periods))


def _solver_bound(potential: PeriodicPotential) -> float:
    # operator norm bound: 2 per axis of hopping plus the largest potential value
    norm = 2.0 * potential.dim + max(abs(v) for v in potential.cell)
    return SOLVER_TOL_FACTOR * max(1.0, norm)


def _solve_block(potential, phase_block, real: bool | None = None):
    """Eigenvalue rows of the fibers at a block of phases: banded in 1-d, a batched dense stack in 2-d."""
    if potential.dim == 2:
        return np.linalg.eigvalsh(_fibers(potential, phase_block, real))
    from scipy.linalg import eigvals_banded  # here, not at the top: importing it costs 0.2-0.3 s

    return np.stack([eigvals_banded(band) for band in _band_storage(potential, phase_block, real)])


def _phase_set(strategy: str | None, dim: int, grid_points: int):
    """Phases (k x dim) a strategy solves and its Lipschitz term; None is exact_1d in 1-d, else grid."""
    if strategy is None:
        strategy = "exact_1d" if dim == 1 else "grid"
    if strategy == "exact_1d":
        if dim != 1:
            raise ValueError("exact_1d strategy applies to one-dimensional potentials only")
        return np.array([[0.0], [0.5]]), 0.0
    if strategy == "grid":
        m = int(grid_points)
        if m < 2:
            raise ValueError("grid strategy needs at least 2 points per axis")
        # spec H(-phi) = spec H(phi): keep the index vector k of each pair {k, -k mod m} that comes first
        k = np.indices((m,) * dim).reshape(dim, -1)
        keep = np.arange(m**dim) <= np.ravel_multi_index(-k % m, (m,) * dim)
        return k[:, keep].T / m, 4.0 * math.pi * dim / (2.0 * m)
    raise ValueError(f"unknown strategy {strategy!r}")


def _band_sweep(potential, strategy, grid_points):
    """The strategy's phases, their eigenvalue rows and the band spectrum they give."""
    phases, lips = _phase_set(strategy, potential.dim, grid_points)
    # one arithmetic for all blocks, so that the rows do not depend on how the phases fall into blocks
    real = np.isrealobj(_phase_factors(phases, potential.dim))
    evs = np.vstack([_solve_block(potential, phases[i : i + _CHUNK], real) for i in range(0, len(phases), _CHUNK)])
    bands = tuple((float(lo), float(hi)) for lo, hi in zip(evs.min(axis=0), evs.max(axis=0)))
    return phases, evs, BandSpectrum(bands=bands, error_bound=lips + _solver_bound(potential))


def band_spectrum(
    potential: PeriodicPotential,
    strategy: str | None = "exact_1d",
    grid_points: int = DEFAULT_GRID_POINTS,
) -> BandSpectrum:
    """Band intervals of the periodic operator: the per-index min/max of the
    fiber eigenvalues over the strategy's phase set.

    strategy="exact_1d" (d = 1 only): the periodic and antiperiodic fibers,
    both real; the i-th band is exactly the interval between the i-th
    ordered eigenvalues of the two, up to eigensolver error.

    strategy="grid": ``grid_points`` equispaced phases per axis (one of each
    conjugate pair); the error bound adds the Lipschitz term (sum_j 4*pi) *
    half grid spacing.

    strategy=None: exact_1d in one dimension, grid otherwise.
    """
    return _band_sweep(potential, strategy, grid_points)[2]


def _solved_row(sweep, phi):
    """Eigenvalues a band sweep found at phi or at -phi mod 1 (the same spectrum), or None."""
    phases, evs, _ = sweep
    hit = (phases == phi).all(axis=1) | (phases == np.negative(phi) % 1.0).all(axis=1)
    return evs[hit.argmax()] if hit.any() else None


def cover_from_bands(union: IntervalSet, delta: float) -> IntervalSet:
    """Band union fattened by delta; covers the limit spectrum whenever
    delta dominates the Hausdorff distance to it."""
    return fatten(union, delta)


def cover_from_eigenvalues(eigs, delta: float, radius: float, tol: float = DEFAULT_TOL) -> IntervalSet:
    """Balls of radius delta + radius around fiber eigenvalues, merged.

    With radius >= the uniform bandwidth bound, the balls cover the whole
    periodic spectrum; delta extends the cover to anything within Hausdorff
    distance delta of it.  Each ball has diameter 2 * (delta + radius).
    """
    if delta < 0 or radius < 0:
        raise InvalidRadiusError("cover radii must be nonnegative")
    e = np.atleast_1d(np.asarray(eigs, dtype=float))
    return interval_union(e - (delta + radius), e + (delta + radius), tol)


def proxy_deltas(unions) -> list[float]:
    """Hausdorff distances of each spectrum against the finest one computed.

    Stand-in for the unobservable distance to the limit; the last entry is
    zero by construction.  Results carry meaning only as far as the finest
    approximant is trusted.
    """
    unions = list(unions)
    last = unions[-1]
    return [hausdorff_distance(u, last) for u in unions]


def estimate_measure_via_fibers(
    potentials,
    phase,
    mu: Measure1D,
    deltas="proxy",
    strategy: str | None = None,
    grid_points: int = DEFAULT_GRID_POINTS,
    tail: int = 3,
    tail_tol: float = 1e-3,
) -> ConvergenceReport:
    """Measure estimation along a sequence of periodic approximants.

    For each potential the fiber at ``phase`` is solved and the measure of
    the ball cover of radius delta_n + r_n around its eigenvalues is
    recorded (column ``mu_fattened``); r_n is the bandwidth bound and q_n
    the cell volume.  ``deltas`` is either an explicit list of distance
    bounds or "proxy", which computes band spectra and uses the Hausdorff
    distance of each against the finest approximant.  Band spectra are
    computed in proxy mode and in one dimension; then the raw measure of the
    band union is recorded too, and the summary carries the band-fattening
    estimates for comparison.
    """
    potentials = list(potentials)
    if not potentials:
        raise ValueError("need at least one potential")
    dim = potentials[0].dim
    if any(v.dim != dim for v in potentials):
        raise ValueError("potentials must share a dimension")
    _phase_set(strategy, dim, grid_points)  # a bad strategy fails before any solve

    proxy = deltas == "proxy"
    if not proxy:
        delta_list = [float(d) for d in deltas]
        if len(delta_list) != len(potentials):
            raise ValueError("need one delta per potential")
    phi = _phase_tuple(phase, dim)
    sweeps = [_band_sweep(v, strategy, grid_points) for v in potentials] if proxy or dim == 1 else []
    unions = [spectrum.union() for _, _, spectrum in sweeps]
    if proxy:
        delta_list = proxy_deltas(unions)

    rows = []
    for n, (v, delta) in enumerate(zip(potentials, delta_list), start=1):
        r = bandwidth_bound(v.periods)
        row = _solved_row(sweeps[n - 1], phi) if sweeps else None
        eigs = fiber_eigenvalues(v, phase) if row is None else row
        raw = unions[n - 1] if sweeps else None
        rows.append(report_row(n, delta, v.q, r, mu, cover_from_eigenvalues(eigs, delta, r), raw))
    report = ConvergenceReport.build(rows, tail, tail_tol, delta_mode="proxy" if proxy else "analytic", phase=list(phi))
    if sweeps:
        band_fattened = [measure(mu, cover_from_bands(u, delta)) for u, delta in zip(unions, delta_list)]
        report.summary.update(band_fattened=band_fattened, band_estimate=band_fattened[-1])
    return report
