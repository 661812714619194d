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
assembled into one stack of fibers.

The two evaluation strategies are phase sets.  For d = 1 the band edges are
attained exactly at the periodic and antiperiodic fibers (phi = 0 and 1/2),
since the discriminant sweeps monotonically between its extreme values on
each band.  In general a phase grid gives edges up to a rigorous Lipschitz
error: moving one phase by t changes each eigenvalue by at most 4*pi*t, so
a grid of M points per axis localizes every edge to within
(sum_j 4*pi) / (2*M) plus eigensolver error.

The uniform bandwidth bound sum_j 4*pi/p_j turns fiber eigenvalues at any
single phase into a cover of the whole spectrum by intervals of known
radius, which is what the measure-estimation pipeline at the bottom of this
module exploits.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .convergence import ConvergenceReport, Measure1D, ReportRow, _summary, measure
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

_CHUNK = 128


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
    for site in np.ndindex(*potential.periods):
        moved = tuple(s + m for s, m in zip(site, shift))
        if abs(potential.value(moved) - potential.value(site)) > atol:
            return False
    return True


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


def _fibers(potential: PeriodicPotential, phases) -> np.ndarray:
    """Stack of Hermitian q x q fibers, one per row of the k x d ``phases``.

    The potential sits on the diagonal and interior hops contribute 1 in
    both directions.  A hop that crosses the cell boundary forward along
    axis j carries z = exp(2*pi*i*phase_j) and its reverse carries conj(z),
    added to what is already there: at period 2 a bond is both interior and
    boundary.  At period 1 a site wraps onto itself; z + conj(z) goes onto
    the diagonal as one term, rounded as in the dense form z*W + conj(z)*W^T.
    """
    periods = potential.periods
    phases = np.asarray(phases, dtype=float).reshape(-1, potential.dim)
    sites = np.arange(potential.q).reshape(periods)
    coords = np.indices(periods)
    h = np.zeros((len(phases), potential.q, potential.q), dtype=complex)
    h[:, sites.ravel(), sites.ravel()] = potential.cell
    for j, p in enumerate(periods):
        ahead = np.roll(sites, -1, axis=j)
        inside = coords[j] < p - 1
        h[:, sites[inside], ahead[inside]] = 1.0
        h[:, ahead[inside], sites[inside]] = 1.0
        z = np.exp(2j * np.pi * phases[:, j])[:, None]
        src, dst = sites[~inside], ahead[~inside]
        if p == 1:
            h[:, src, dst] += z + np.conj(z)
        else:
            h[:, src, dst] += z
            h[:, dst, src] += np.conj(z)
    return h


def build_fiber(potential: PeriodicPotential, phase) -> np.ndarray:
    """Hermitian q x q fiber matrix at the given total Floquet phase(s).

    Interior hops contribute 1; hops crossing the cell boundary along axis j
    carry exp(+-2*pi*i*phase_j).  Phases are reduced mod 1.
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
    return eigenvalues(build_fiber(potential, phase))


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


def _solve_block(potential, phase_block):
    return np.linalg.eigvalsh(_fibers(potential, phase_block))


def _eigenvalue_sweep(potential, phases, workers=None) -> np.ndarray:
    blocks = [phases[i : i + _CHUNK] for i in range(0, len(phases), _CHUNK)]
    if workers is not None and workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda b: _solve_block(potential, b), blocks))
    else:
        parts = [_solve_block(potential, b) for b in blocks]
    return np.vstack(parts)


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
        axes = [np.arange(m) / m] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        phases = np.stack([g.ravel() for g in mesh], axis=1)
        return phases, 4.0 * math.pi * dim / (2.0 * m)
    raise ValueError(f"unknown strategy {strategy!r}")


def band_spectrum(
    potential: PeriodicPotential,
    strategy: str | None = "exact_1d",
    grid_points: int = 64,
    workers: int | None = None,
) -> BandSpectrum:
    """Band intervals of the periodic operator: the per-index min/max of the
    fiber eigenvalues over the strategy's phase set.

    strategy="exact_1d" (d = 1 only): the periodic and antiperiodic fibers;
    the i-th band is exactly the interval between the i-th ordered
    eigenvalues of the two, up to eigensolver error.

    strategy="grid": ``grid_points`` equispaced phases per axis; the error
    bound adds the Lipschitz term (sum_j 4*pi) * half grid spacing.

    strategy=None: exact_1d in one dimension, grid otherwise.
    """
    phases, lips = _phase_set(strategy, potential.dim, grid_points)
    evs = _eigenvalue_sweep(potential, phases, workers=workers)
    bands = tuple(
        (float(lo), float(hi)) for lo, hi in zip(evs.min(axis=0), evs.max(axis=0))
    )
    return BandSpectrum(bands=bands, error_bound=lips + _solver_bound(potential))


def cover_from_bands(bands, delta: float, tol: float = DEFAULT_TOL) -> IntervalSet:
    """Fatten band intervals by delta and merge; covers the limit spectrum
    whenever delta dominates the Hausdorff distance to it."""
    if delta < 0:
        raise InvalidRadiusError(f"cover fattening must be nonnegative, got {delta}")
    if isinstance(bands, IntervalSet):
        return fatten(bands, delta, tol)
    if isinstance(bands, BandSpectrum):
        bands = bands.bands
    return normalize(((lo - delta, hi + delta) for lo, hi in bands), tol)


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
    grid_points: int = 64,
    tail: int = 3,
    tail_tol: float = 1e-3,
    workers: int | None = None,
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
    unions = None
    if proxy or dim == 1:
        unions = [
            band_spectrum(v, strategy=strategy, grid_points=grid_points, workers=workers).union()
            for v in potentials
        ]
    if proxy:
        delta_list = proxy_deltas(unions)

    rows = []
    band_fattened = []
    for n, (v, delta) in enumerate(zip(potentials, delta_list), start=1):
        r = bandwidth_bound(v.periods)
        eigs = fiber_eigenvalues(v, phase)
        cover = cover_from_eigenvalues(eigs, delta, r)
        fat = measure(mu, cover)
        if unions is not None:
            raw = measure(mu, unions[n - 1])
            band_fattened.append(measure(mu, cover_from_bands(unions[n - 1], delta)))
        else:
            raw = math.nan
        rows.append(
            ReportRow(
                n=n,
                delta=delta,
                q=v.q,
                r=r,
                mu_raw=raw,
                mu_fattened=fat,
                q_times_delta=v.q * delta,
            )
        )

    summary = _summary(
        rows, tail, tail_tol, delta_mode="proxy" if proxy else "analytic", phase=list(_phase_tuple(phase, dim))
    )
    if band_fattened:
        summary["band_fattened"] = band_fattened
        summary["band_estimate"] = band_fattened[-1]
    return ConvergenceReport(rows=rows, summary=summary)
