"""Band spectra of periodic discrete Schrodinger operators on Z^d, d <= 2.

The operator acts by nearest-neighbor hopping plus a periodic on-site
potential.  Restricting to twisted-periodic boundary conditions over one
fundamental cell gives a q x q Hermitian fiber matrix H(phi), q the cell
volume, where phi collects one total Floquet phase per axis: crossing the
cell boundary along axis j multiplies the wavefunction by exp(2*pi*i*phi_j).
The spectrum of the full operator is the union over phases of the fiber
spectra, and the range of the i-th ordered eigenvalue over phases is the
i-th band.

Any number of phases is assembled at once, real symmetric (float64) when
every phase lies in {0, 1/2}^d, where each wrap carries z = +-1, else
complex.  A 1-d fiber is a cyclic tridiagonal matrix; with its sites taken
in zig-zag order 0, q-1, 1, q-2, ... it has bandwidth 2, so it is written
from slices of the cell into 3 x q upper band storage and solved by
LAPACK's banded eigensolver, dsbev or zhbev, from the LAPACK numpy links
(scipy.linalg.eigvals_banded where numpy exports no ILP64 names for them):
O(q) memory and no q x q matrix.  2-d fibers are dense q x q stacks, the
potential on the diagonal plus each axis's ring of hops, solved by batched
eigvalsh.
A sweep cuts its phases into blocks, one phase in 1-d and a few in 2-d, and
each block is built and solved, real or complex as its own phases are, by
one of as many worker threads as numpy's BLAS has, from a pool started once
per process, with BLAS pinned to one thread: BLAS threads buy nothing in
solves this small or this sequential.  So the fibers of a 1-d sweep, and
the fiber at a measure run's cover phase, are solved side by side.

The dimension picks the phase set.  For d = 1 the band edges are attained
exactly at the periodic and antiperiodic fibers (phi = 0 and 1/2), since
the discriminant sweeps monotonically between its extreme values on each
band, so a 1-d sweep solves those two.  For d = 2 a phase grid gives edges
up to a rigorous Lipschitz error.  After a gauge transform that spreads the
boundary phase of axis j over its p_j bonds, moving phi_j by t moves the
fiber by c*S_j + h.c., S_j the cyclic shift and |c| = 2*sin(pi*t/p_j), so
by Weyl's inequality every ordered eigenvalue moves by at most
4*sin(pi*t/p_j): a grid of M points per axis localizes every edge to within
sum_j 4*pi / (2*M*p_j) plus eigensolver error.  The potential is real, so
H(-phi) = conj H(phi) shares the spectrum of H(phi), and the grid solves
one phase of each conjugate pair.  The phase set depends only on d and M,
so a run builds it once for all its cells.

The uniform bandwidth bound sum_j 4*pi/p_j turns fiber eigenvalues at any
single phase into a cover of the whole spectrum by intervals of known
radius, which is what the measure-estimation pipeline at the bottom of this
module exploits; each step is one sweep, which reuses its eigenvalues at
that phase or its conjugate or else solves the phase in a block of its own,
and a run holds one step at a time beside the finest step's union.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .convergence import DEFAULT_TAIL, DEFAULT_TAIL_TOL, ConvergenceReport, Measure1D, measure, report_row
from .intervals import IntervalSet, InvalidRadiusError, fatten, hausdorff_distance, interval_union

HERMITICITY_TOL = 1e-12
# Backward-stable dense eigensolver: eigenvalue error is a small multiple of
# machine epsilon times the matrix norm.  1e-12 * norm is a generous ceiling
# for the matrix sizes in scope (q <= a few thousand).
SOLVER_TOL_FACTOR = 1e-12

# Phases per block: a 2-d sweep holds at most workers * _CHUNK * q^2 * 16 bytes of fibers.
_CHUNK = 8

_BLAS_LOCK = threading.Lock()  # held by a sweep from reading BLAS's thread count to restoring it

# Grid points per axis of a 2-d phase grid when a caller names none.
DEFAULT_GRID_POINTS = 64

# Nothing larger than the machine's physical memory can be held.
MAX_FIBER_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if hasattr(os, "sysconf") else 2**36


class NotHermitianError(ValueError):
    """Matrix handed to the eigensolver was not Hermitian."""


@dataclass(frozen=True)
class PeriodicPotential:
    """Real potential sampled over one fundamental cell.

    ``cell`` is a read-only float64 array of the values over the cell
    prod(periods) in row-major order: for d = 2 the site (n1, n2) has index
    n1 * periods[1] + n2.  A float64 array is taken as it is, not copied,
    and made read-only.
    """

    dim: int
    periods: tuple[int, ...]
    cell: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dim}")
        if len(self.periods) != self.dim:
            raise ValueError("need one period per axis")
        if any(p < 1 or p != int(p) for p in self.periods):
            raise ValueError("periods must be positive integers")
        object.__setattr__(self, "periods", tuple(int(p) for p in self.periods))
        cell = np.asarray(self.cell, dtype=float)
        if cell.shape != (self.q,):
            raise ValueError(f"cell must hold {self.q} values, got {cell.size}")
        if not np.isfinite(cell).all():
            raise ValueError("cell values must be finite")
        cell.flags.writeable = False
        object.__setattr__(self, "cell", cell)

    def __eq__(self, other) -> bool:
        same = type(other) is type(self) and (self.dim, self.periods) == (other.dim, other.periods)
        return same and np.array_equal(self.cell, other.cell)

    @property
    def q(self) -> int:
        return math.prod(self.periods)  # exact: np.prod wraps in int64


@dataclass(frozen=True, eq=False)  # the __eq__ below compares the array; an array field has no hash
class BandSpectrum:
    """Ordered bands, a read-only (n, 2) float64 array of [lo, hi] rows, plus a rigorous band-edge error bound."""

    bands: np.ndarray
    error_bound: float

    def __eq__(self, other) -> bool:
        same = type(other) is type(self) and self.error_bound == other.error_bound
        return same and np.array_equal(self.bands, other.bands)

    def union(self) -> IntervalSet:
        return interval_union(self.bands[:, 0], self.bands[:, 1])

    def widths(self) -> np.ndarray:
        return self.bands[:, 1] - self.bands[:, 0]


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


def _phase_factors(phases, dim: int) -> np.ndarray:
    """z = exp(2*pi*i*phi) for the k x d ``phases``; float64 when every phase is 0 or 1/2,
    where z = +-1 is the real part of the complex z."""
    phases = np.asarray(phases, dtype=float).reshape(-1, dim)
    z = np.exp(2j * np.pi * phases)
    return z.real if np.isin(phases, (0.0, 0.5)).all() else z


def _add_ring(out: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Add into the k x p x p ``out`` the ring of p sites with the k phase factors ``z``: 1 between neighbours, then
    z on the wrap p-1 -> 0 and conj(z) back; at p = 1 z + conj(z) on the diagonal, as z*W + conj(z)*W^T rounds it."""
    p = out.shape[-1]
    if p == 1:
        out[:, 0, 0] += z + np.conj(z)
        return out
    for neighbours in (out[:, :-1, 1:], out[:, 1:, :-1]):
        diagonal = np.einsum("kii->ki", neighbours)  # a writeable view: (i, i+1), then (i+1, i)
        diagonal += 1.0
    out[:, p - 1, 0] += z
    out[:, 0, p - 1] += np.conj(z)
    return out


def _fibers(potential: PeriodicPotential, z: np.ndarray) -> np.ndarray:
    """Stack of Hermitian q x q fibers V + R1 (x) I + I (x) R2, one per row of the k x d phase factors ``z``, in
    their dtype; axis j's ring of hops R_j goes into the stack in 1-d, in 2-d into a ring of -0.0, an exact identity."""
    k, q = len(z), potential.q
    check_fiber_stack(q, k, z.itemsize)
    h = np.zeros((k, q, q), dtype=z.dtype)
    h.reshape(k, q * q)[:, :: q + 1] = potential.cell
    if potential.dim == 1:
        return _add_ring(h, z[:, 0])
    (p1, p2), cube = potential.periods, h.reshape(k, *potential.periods, *potential.periods)
    rings = [_add_ring(np.full((k, p, p), -0.0, dtype=z.dtype), z[:, j]) for j, p in enumerate((p1, p2))]
    for n in range(p2):  # R1 (x) I: sites (a, n) and (b, n) at [:, a, n, b, n]
        cube[:, :, n, :, n] += rings[0]
    for n in range(p1):  # I (x) R2
        cube[:, n, :, n, :] += rings[1]
    return h


def _band_storage(potential: PeriodicPotential, z: np.ndarray) -> np.ndarray:
    """Upper band storage of the 1-d fibers with the k x 1 phase factors ``z``, k x (u+1) x q,
    each fiber a Fortran-contiguous (u+1) x q array that LAPACK can overwrite in place.

    The sites are taken in zig-zag order 0, q-1, 1, q-2, ...: the ring's
    hops then reach 2 positions and its wrap 1, so each fiber has u =
    min(2, q-1) bands above the diagonal, and entry (i, j), i <= j, of the
    reordered fiber sits at row u + i - j of column j.  It is written from
    slices of the cell: the diagonal interleaves its first half with its second
    reversed, every pair 2 apart is a hop within a half, the bond between the
    halves sits at (q-2, q-1) and the wrap at (0, 1).  The dtype is z's.
    """
    q, z = potential.q, z[:, 0]
    u = min(2, q - 1)  # eigvals_banded returns wrong eigenvalues from storage with more rows than q
    band = np.zeros((len(z), q, u + 1), dtype=z.dtype).transpose(0, 2, 1)  # each fiber Fortran-contiguous
    band[:, u, 0::2] = potential.cell[: (q + 1) // 2]
    band[:, u, 1::2] = potential.cell[: (q - 1) // 2 : -1]
    if q == 1:  # the site wraps onto itself, as in _add_ring
        band[:, 0, 0] += z + np.conj(z)
        return band
    band[:, 0, 2:] = 1.0
    band[:, u - 1, q - 1] += 1.0  # at q = 2 the bond between the halves is the wrap's, added in _add_ring's order
    band[:, u - 1, 1] += np.conj(z)
    return band


def build_fiber(potential: PeriodicPotential, phase) -> np.ndarray:
    """Hermitian q x q fiber matrix at the given total Floquet phase(s).

    Interior hops contribute 1; hops crossing the cell boundary along axis j
    carry exp(+-2*pi*i*phase_j).  Phases are reduced mod 1.  The fiber is
    float64 at phases in {0, 1/2}^d, where it is real symmetric.
    """
    return _fibers(potential, _phase_factors(_phase_tuple(phase, potential.dim), potential.dim))[0]


def eigenvalues(matrix) -> np.ndarray:
    """Sorted eigenvalues of a Hermitian matrix.

    Raises :class:`NotHermitianError` when the largest asymmetry
    |M - M*| exceeds ``HERMITICITY_TOL`` or is NaN.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = np.max(np.abs(m - m.conj().T))
    if not asym <= HERMITICITY_TOL:
        raise NotHermitianError(f"matrix asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.3e}")
    return np.linalg.eigvalsh(m)


def fiber_eigenvalues(potential: PeriodicPotential, phase) -> np.ndarray:
    """Sorted eigenvalues of the fiber at the given phase(s), solved as the band sweep solves it."""
    return _solve_phases(potential, [_phase_tuple(phase, potential.dim)])[0]


def bandwidth_bound(periods) -> float:
    """Uniform bound sum_j 4*pi/p_j on the width of every band."""
    periods = tuple(int(p) for p in np.atleast_1d(periods))
    if any(p < 1 for p in periods):
        raise ValueError("periods must be positive integers")
    return float(sum(4.0 * math.pi / p for p in periods))


def _solver_bound(potential: PeriodicPotential) -> float:
    # operator norm bound: 2 per axis of hopping plus the largest potential value
    norm = 2.0 * potential.dim + float(np.abs(potential.cell).max())
    return SOLVER_TOL_FACTOR * max(1.0, norm)


@functools.cache  # each CDLL handle makes a class, freed only by the cycle collector
def _numpy_symbols(templates: tuple[str, ...], names: tuple[str, ...]):
    """The functions ``names`` of numpy's linear-algebra library, spelled by the first of ``templates``
    that resolves them all, or None.  The library's dependency scope holds numpy's BLAS and LAPACK."""
    import ctypes

    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for template in templates:
        found = tuple(getattr(lib, template.format(name), None) for name in names)
        if None not in found:
            return found
    return None


def _blas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None where its symbols are not found: numpy 2
    wheels spell them scipy_openblas_get_num_threads64_, numpy 1 wheels openblas_get_num_threads64_."""
    import ctypes

    templates = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")
    found = _numpy_symbols(templates, ("get", "set"))
    if found is None:
        return None
    get, put = found
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache  # one solver per process: workers call it once per block
def _banded_eigvals():
    """Solver of one Hermitian band in upper storage, a Fortran-contiguous (u+1) x q array that it may
    overwrite, for its ascending eigenvalues.  It is numpy's own LAPACK, dsbev for a real band and
    zhbev for a complex one, where numpy exports them under ILP64 names (the 64_ suffix: 64-bit
    integers); elsewhere scipy.linalg.eigvals_banded, imported only then: that costs 0.3 s and 28 MB."""
    found = _numpy_symbols(("scipy_{}_64_", "{}_64_"), ("dsbev", "zhbev"))
    if found is None:
        from scipy.linalg import eigvals_banded

        return eigvals_banded
    import ctypes

    int64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    # jobz, uplo, n, kd, ab, ldab, w, z, ldz, work, [rwork,] info, then the hidden lengths of jobz and uplo
    head = [ctypes.c_char_p] * 2 + [int64, int64, ptr, int64, ptr, ptr, int64, ptr]
    tail = [int64] + [ctypes.c_size_t] * 2
    dsbev, zhbev = found
    dsbev.argtypes, dsbev.restype = head + tail, None
    zhbev.argtypes, zhbev.restype = head + [ptr] + tail, None

    def solve(band):
        real = not np.iscomplexobj(band)
        ab = np.asfortranarray(band, dtype=float if real else complex)  # not a copy of _band_storage's fibers
        rows, q = ab.shape
        w, info = np.empty(q), ctypes.c_int64()
        rwork = np.empty(max(1, 3 * q - 2))  # dsbev's work, zhbev's rwork
        lapack, work = (dsbev, [rwork]) if real else (zhbev, [np.empty(q, complex), rwork])
        n, kd, ldab, ldz = (ctypes.byref(ctypes.c_int64(v)) for v in (q, rows - 1, rows, 1))
        spaces = [a.ctypes.data for a in work]  # the arrays stay referenced by work through the call
        lapack(b"N", b"U", n, kd, ab.ctypes.data, ldab, w.ctypes.data, None, ldz, *spaces, info, 1, 1)
        if info.value > 0:
            raise np.linalg.LinAlgError(f"{lapack.__name__} did not converge: {info.value} off-diagonals remain")
        if info.value < 0:
            raise RuntimeError(f"{lapack.__name__} was passed an illegal argument {-info.value}")
        return w

    return solve


def _solve_block(potential, phases):
    """Eigenvalue rows of the fibers at a block of k x d phases, real when every phase is in
    {0, 1/2}^d: banded in 1-d, one batched dense eigvalsh in 2-d."""
    z = _phase_factors(phases, potential.dim)
    if potential.dim == 2:
        return np.linalg.eigvalsh(_fibers(potential, z))
    solve = _banded_eigvals()  # each band is scratch: LAPACK overwrites it
    return np.stack([solve(band) for band in _band_storage(potential, z)])


@functools.cache  # a pool per sweep costs more than the solves of a small sweep
def _pool(n: int):
    """n worker threads for the solves of every sweep, started once and idle between sweeps."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(n)


def _solve_phases(potential, *phase_sets):
    """Eigenvalue rows at the phases of each k x d set in ``phase_sets``, in order.  Each set is cut
    into blocks, one phase in 1-d and _CHUNK in 2-d, each built and solved by one worker, real when
    all its phases are in {0, 1/2}^d; the workers are as many threads as numpy's BLAS has (LAPACK
    releases the GIL), with BLAS pinned to one thread meanwhile.  What they can hold at once, and
    the rows, held as blocks and as their stack, are charged before any fiber is built."""
    size = 1 if potential.dim == 1 else _CHUNK
    sets = [np.asarray(phases, dtype=float).reshape(-1, potential.dim) for phases in phase_sets]
    blocks = [phases[i : i + size] for phases in sets for i in range(0, len(phases), size)]
    count = sum(map(len, sets))
    itemsize = 8 if all(np.isin(phases, (0.0, 0.5)).all() for phases in sets) else 16
    get, put = _blas_threads() or (lambda: 1, lambda n: None)
    with _BLAS_LOCK:  # a sweep started meanwhile would read the pinned 1 and restore it
        n = get()
        check_fiber_stack(potential.q, min(count, n * size), itemsize, banded=potential.dim == 1)
        check_bytes(2 * count * potential.q * 8, f"{count} eigenvalue rows of {potential.q} and their stack")
        fan = _pool(n).map if n > 1 else map
        put(1)
        try:
            return np.vstack(list(fan(lambda block: _solve_block(potential, block), blocks)))
        finally:
            put(n)


def _check_grid(dim: int, m: int) -> None:
    """ValueError unless the m^dim phase grid has 2 points per axis and its arrays, all that _grid
    holds at once, fit in memory."""
    if m < 2:
        raise ValueError("a phase grid needs at least 2 points per axis")
    kept = (m**dim + (2**dim if m % 2 == 0 else 1)) // 2  # the pairs, and the 2^d or 1 self-conjugate k
    check_bytes(8 * m + m**dim + 16 * dim * kept, f"the mask, int64 indices and phases of the {m}^{dim} phase grid")


def _grid(dim: int, m: int) -> np.ndarray:
    """Phases k/m (k x dim) of the m^dim grid, one of each conjugate pair {k, -k mod m}: the one
    first in row-major order.  Its arrays, all that it holds at once, are charged before any is built."""
    _check_grid(dim, m)
    step = np.arange(-m, m, 2)  # k_j - c_j for c_j = -k_j mod m: 2 k_j - m, but 0 at k_j = 0
    step[0] = 0
    # k comes first iff sum_j (k_j - c_j) m^(d-1-j) <= 0; the mask is freed once its indices are found
    index = np.nonzero(step[:, None] * m <= -step if dim == 2 else step <= 0)
    phases = np.stack(index, axis=1, dtype=float)
    phases /= m
    return phases


def _phase_set(dim: int, grid_points: int) -> np.ndarray:
    """Phases (k x dim) a band sweep solves: the periodic and antiperiodic fibers in 1-d,
    which give every band edge exactly, and the grid of ``grid_points`` per axis in 2-d."""
    return np.array([[0.0], [0.5]]) if dim == 1 else _grid(dim, int(grid_points))


def _spectrum(potential, evs, grid_points) -> BandSpectrum:
    """Band spectrum of the eigenvalue rows ``evs`` of a sweep over _phase_set.
    A 2-d error bound adds the Lipschitz term of the grid of ``grid_points`` per axis."""
    bands = np.stack((evs.min(axis=0), evs.max(axis=0)), axis=1)
    bands.flags.writeable = False
    lips = 0.0 if potential.dim == 1 else sum(4.0 * math.pi / (2.0 * grid_points * p) for p in potential.periods)
    return BandSpectrum(bands=bands, error_bound=lips + _solver_bound(potential))


def band_spectrum(potential: PeriodicPotential, grid_points: int = DEFAULT_GRID_POINTS) -> BandSpectrum:
    """Band intervals of the periodic operator: the per-index min/max of the
    fiber eigenvalues over the phase set of its dimension.

    In 1-d: the periodic and antiperiodic fibers, both real; the i-th band
    is exactly the interval between the i-th ordered eigenvalues of the
    two, up to eigensolver error.  ``grid_points`` is not used.

    In 2-d: ``grid_points`` equispaced phases per axis (one of each
    conjugate pair); the error bound adds the Lipschitz term
    sum_j 4*pi/p_j times half the grid spacing, p_j the period along axis j.
    """
    return _spectrum(potential, _solve_phases(potential, _phase_set(potential.dim, grid_points)), grid_points)


def cover_from_bands(union: IntervalSet, delta: float) -> IntervalSet:
    """Band union fattened by delta; covers the limit spectrum whenever
    delta dominates the Hausdorff distance to it."""
    return fatten(union, delta)


def cover_from_eigenvalues(eigs, delta: float, radius: float) -> IntervalSet:
    """Balls of radius delta + radius around fiber eigenvalues, merged.

    With radius >= the uniform bandwidth bound, the balls cover the whole
    periodic spectrum; delta extends the cover to anything within Hausdorff
    distance delta of it.  Each ball has diameter 2 * (delta + radius).
    """
    if delta < 0 or radius < 0:
        raise InvalidRadiusError("cover radii must be nonnegative")
    e = np.atleast_1d(np.asarray(eigs, dtype=float))
    return interval_union(e - (delta + radius), e + (delta + radius))


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
    grid_points: int = DEFAULT_GRID_POINTS,
    tail: int = DEFAULT_TAIL,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ConvergenceReport:
    """Measure estimation along a sequence of periodic approximants.

    For each potential the fiber at ``phase`` is solved and the measure of
    the ball cover of radius delta_n + r_n around its eigenvalues is
    recorded (column ``mu_fattened``); r_n is the bandwidth bound and q_n
    the cell volume.  ``deltas`` is either an explicit list of distance
    bounds or "proxy", which uses the Hausdorff distance of each band union
    against the finest approximant's.  Band spectra are computed in proxy
    mode and in one dimension, all over one phase set; then the raw measure
    of the band union is recorded too, and the summary carries the
    band-fattening estimates for comparison.  Each potential is read once,
    by index, the last first, and dropped with its row.
    """
    if not len(potentials):
        raise ValueError("need at least one potential")
    proxy = deltas == "proxy"
    if not proxy and (len(deltas := [float(d) for d in deltas]) != len(potentials) or any(d < 0 for d in deltas)):
        raise ValueError("need one nonnegative delta per potential")  # before any potential is read
    last = potentials[-1]  # read first: every proxy delta needs its band union
    dim, phi = last.dim, _phase_tuple(phase, last.dim)
    if not (sweep := proxy or dim == 1):  # phi alone, but a grid_points no sweep could take is refused
        _check_grid(dim, int(grid_points))
    phases = _phase_set(dim, grid_points) if sweep else np.array([phi])
    # the sweep's row at phi or -phi mod 1 (the same spectrum), else phi's own block, first: its solve is the slowest
    hit = (phases == phi).all(axis=1) | (phases == np.negative(phi) % 1.0).all(axis=1)
    cover, row = ((), hit.argmax()) if hit.any() else (([phi],), 0)

    def solve(v):  # (q, r, eigenvalues at phi, band union or None) of a potential, which is not kept
        if v.dim != dim:
            raise ValueError("potentials must share a dimension")
        evs = _solve_phases(v, *cover, phases)
        union = _spectrum(v, evs[len(cover) :], grid_points).union() if sweep else None
        return v.q, bandwidth_bound(v.periods), evs[row], union
    held, last, band_fattened = solve(last), None, []

    def step_row(n):
        q, r, eigs, union = held if n == len(potentials) else solve(potentials[n - 1])
        delta = hausdorff_distance(union, held[3]) if proxy else deltas[n - 1]
        if sweep:
            band_fattened.append(measure(mu, cover_from_bands(union, delta)))
        return report_row(n, delta, q, r, mu, cover_from_eigenvalues(eigs, delta, r), union)
    rows = map(step_row, range(1, len(potentials) + 1))  # map keeps no step between calls
    report = ConvergenceReport.build(rows, tail, tail_tol, delta_mode="proxy" if proxy else "analytic", phase=list(phi))
    if sweep:
        report.summary.update(band_fattened=band_fattened, band_estimate=band_fattened[-1])
    return report
