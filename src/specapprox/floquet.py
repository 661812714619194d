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
(scipy.linalg.eigvals_banded, which holds the GIL, where numpy exports no
ILP64 names for them): O(q) memory and no q x q matrix.  2-d fibers are dense
q x q stacks, the potential on the diagonal plus each axis's ring of hops,
each solved where it was built by the dense eigensolver of the same LAPACK,
dsyevd or zheevd, as numpy's eigvalsh calls it (by eigvalsh itself where numpy
exports no ILP64 names), or ssyevd or cheevd on fibers built in single
precision.  Every call into numpy's LAPACK releases the GIL.
A sweep cuts its phases into blocks, one phase in 1-d and in 2-d the fewest
fibers that hold 2^14 entries, one fiber from q = 128 up (where eigvalsh
solves them, at least 500 // q + 1, the fewest on which it lets go of the
GIL), taken in turn by as many worker threads as numpy's BLAS has, from a
pool started once per process, with BLAS pinned to one thread: BLAS threads
buy nothing in solves this small or this sequential.  A worker builds its 2-d
blocks in a buffer of its own.  Each block folds into the per-index min and
max of the eigenvalues, the bands, so no row per phase is kept.  The fibers
of a 1-d sweep, and the fiber at a measure run's cover phase, are solved side
by side, but for scipy's, which take turns.

The dimension picks the phase set.  For d = 1 the band edges are attained
exactly at the periodic and antiperiodic fibers (phi = 0 and 1/2), since
the discriminant sweeps monotonically between its extreme values on each
band, so a 1-d sweep solves those two.  For d = 2 a phase grid gives edges
up to a rigorous Lipschitz error.  After a gauge transform that spreads the
boundary phase of axis j over its p_j bonds, moving phi_j by t moves the
fiber by c*S_j + h.c., S_j the cyclic shift and |c| = 2*sin(pi*t/p_j), so
by Weyl's inequality every ordered eigenvalue moves by at most
4*sin(pi*t/p_j): a grid of M points per axis localizes every edge to within
sum_j 4*pi / (2*M*p_j) plus eigensolver error, 1e-12 times the norm in
double.  band_spectrum solves a grid in single precision where (q + 64) *
eps32 * norm, eps32 = 2^-23, is below 1% of its Lipschitz term, and adds
that to its bound; a finer grid, a 1-d sweep and a measure run solve in
double, as where numpy exports no ILP64 ssyevd/cheevd.  The potential is
real, so H(-phi) = conj H(phi) shares the spectrum of H(phi), and the grid
solves one phase of each conjugate pair.  The phase set depends only on d
and M, so a run builds it once for all its cells.

The uniform bandwidth bound sum_j 4*pi/p_j turns fiber eigenvalues at any
single phase into a cover of the whole spectrum by intervals of known
radius, which is what the measure-estimation pipeline at the bottom of this
module exploits; each step is one sweep, which reuses its eigenvalues at
that phase or its conjugate or else solves the phase in a block of its own,
and the measure run loop of ``convergence`` holds one step at a time, and
in proxy mode the finest step's union, against which every delta is taken.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .convergence import DEFAULT_TAIL, DEFAULT_TAIL_TOL, ConvergenceReport, Measure1D, _run, _Steps
from .intervals import IntervalSet, InvalidRadiusError, _int, _is_real, fatten, hausdorff_distance, interval_union

HERMITICITY_TOL = 1e-12
# Backward-stable dense eigensolver: eigenvalue error is a small multiple of
# machine epsilon times the matrix norm.  1e-12 * norm is a generous ceiling
# for the matrix sizes in scope (q <= a few thousand).
SOLVER_TOL_FACTOR = 1e-12
# A 2-d sweep of fibers of q sites solved in single precision errs by at most (q + SINGLE_TOL_SITES) * eps32 * norm,
# eps32 = 2^-23, covering each fiber's rounding to single and the solve's backward error.  Against double solves,
# numpy 2.4's ssyevd and cheevd erred on 27000 random cells of q = 1 to 576 (x86-64, OpenBLAS) by at most
# 7 * eps32 * norm at q = 4, 19 at q = 36, 40 at q = 144 and 58 at q = 576: the term is 5 to 11 times that.  A sweep
# goes single only where the term is below SINGLE_SHARE of its grid's Lipschitz term.
SINGLE_TOL_SITES = 64
SINGLE_SHARE = 0.01

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
        if (dim := _int(self.dim, "dim")) not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {dim}")
        if len(self.periods) != dim:
            raise ValueError("need one period per axis")
        periods = tuple(_int(p, "periods") for p in self.periods)
        if any(p < 1 for p in periods):
            raise ValueError("periods must be positive integers")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "periods", periods)
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
    """Ordered bands, a read-only (n, 2) float64 array of [lo, hi] rows, plus a rigorous band-edge error bound,
    which holds a single-precision solver term where band_spectrum solved a 2-d grid in single precision."""

    bands: np.ndarray
    error_bound: float

    def __eq__(self, other) -> bool:
        same = type(other) is type(self) and self.error_bound == other.error_bound
        return same and np.array_equal(self.bands, other.bands)

    def union(self) -> IntervalSet:
        return interval_union(self.bands[:, 0], self.bands[:, 1])

    def widths(self) -> np.ndarray:
        return self.bands[:, 1] - self.bands[:, 0]


def _item(x):
    """``x``, or the Python number a numpy number holds, for :func:`_is_real`'s rule."""
    return x.item() if isinstance(x, np.generic) else x


def _phase_tuple(phase, dim: int) -> tuple[float, ...]:
    """``phase``, one number for every axis or one per axis, as ``dim`` components in [0, 1).

    Each component must be a real number by :func:`_is_real`'s rule, a numpy number taken as the
    Python one it holds: booleans (numpy's too), strings, NaN and infinities raise ValueError."""
    comps = [_item(p) for p in np.ravel(np.asarray(phase, dtype=object))]
    if not all(_is_real(p) for p in comps):
        raise ValueError(f"phase must be finite real numbers, got {phase!r}")
    if len(comps) == 1 and dim > 1:
        comps *= dim
    if len(comps) != dim:
        raise ValueError(f"need {dim} phase components, got {len(comps)}")
    return tuple(float(p) % 1.0 for p in comps)


def check_bytes(need, what: str):
    """``need``, the bytes ``what`` takes; ValueError with the estimate if over MAX_FIBER_BYTES."""
    if need > MAX_FIBER_BYTES:
        raise ValueError(f"{what} need {Decimal(need):.3e} bytes, memory holds {Decimal(MAX_FIBER_BYTES):.3e}")
    return need


def check_fiber_stack(q, count: int = 1, itemsize: int = 8, banded: bool = False) -> int:
    """Bytes of ``count`` fibers of q sites, dense q x q or banded 3 x q; ValueError if over MAX_FIBER_BYTES."""
    rows = 3 if banded else q
    return check_bytes(count * rows * q * itemsize, f"{count} {'banded' if banded else 'dense'} {rows} x {q} fiber(s)")


def _phase_factors(phases, dim: int, real: bool = True, single: bool = False) -> np.ndarray:
    """z = exp(2*pi*i*phi) for the k x d ``phases``; real when ``real`` and every phase is 0 or 1/2, where z = +-1
    is the real part of the complex z; float64/complex128, or rounded once to float32/complex64 when ``single``."""
    phases = np.asarray(phases, dtype=float).reshape(-1, dim)
    z = np.exp(2j * np.pi * phases)
    z = z.real if real and np.isin(phases, (0.0, 0.5)).all() else z
    return z.astype(np.float32 if z.dtype.kind == "f" else np.complex64) if single else z


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


def _fibers(potential: PeriodicPotential, z: np.ndarray, out=None) -> np.ndarray:
    """Stack of Hermitian q x q fibers V + R1 (x) I + I (x) R2, one per row of the k x d phase factors ``z``, in
    their dtype, from the flat buffer ``out`` if given; axis j's ring of hops R_j goes into the stack in 1-d, in
    2-d into a ring of -0.0, an exact identity."""
    k, q = len(z), potential.q
    check_fiber_stack(q, k, z.itemsize)
    h = (np.empty(k * q * q, z.dtype) if out is None else out.view(z.dtype)[: k * q * q]).reshape(k, q, q)
    h.fill(0.0)
    if potential.dim == 1:
        h.reshape(k, q * q)[:, :: q + 1] = potential.cell
        return _add_ring(h, z[:, 0])
    (p1, p2), cube = potential.periods, h.reshape(k, *potential.periods, *potential.periods)
    rings = [_add_ring(np.full((k, p, p), -0.0, dtype=z.dtype), z[:, j]) for j, p in enumerate((p1, p2))]
    # R1 (x) I, at [:, a, n, b, n], and I (x) R2, at [:, n, a, n, b], meet only on the diagonal, so each is written
    # whole through a view as its sum with the 0.0 there, and the diagonal last as V + R1 + R2: numpy buffers an
    # in-place add through such a view, up to 136 kB, where a write takes nothing
    np.einsum("kanbn->kabn", cube)[...] = rings[0][..., None] + 0.0
    np.einsum("knanb->knab", cube)[...] = rings[1][:, None] + 0.0
    diagonal = potential.cell.reshape(p1, p2) + np.einsum("kaa->ka", rings[0])[:, :, None]
    diagonal += np.einsum("knn->kn", rings[1])[:, None]
    h.reshape(k, q * q)[:, :: q + 1] = diagonal.reshape(k, q)
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
    """Sorted eigenvalues of the fiber at the given phase(s), solved as a double-precision band sweep solves it."""
    return _sweep(potential, [phi := _phase_tuple(phase, potential.dim)], phi)[1]


def bandwidth_bound(periods) -> float:
    """Uniform bound sum_j 4*pi/p_j on the width of every band; a period that is not an integer is refused."""
    periods = tuple(_int(p, "periods") for p in np.atleast_1d(periods))
    if any(p < 1 for p in periods):
        raise ValueError("periods must be positive integers")
    return float(sum(4.0 * math.pi / p for p in periods))


def _norm(potential: PeriodicPotential) -> float:
    """Bound on every fiber's operator norm, at least 1: 2 per axis of hopping plus the largest potential value."""
    return max(1.0, 2.0 * potential.dim + float(np.abs(potential.cell).max()))


def _solver_bound(potential: PeriodicPotential) -> float:
    return SOLVER_TOL_FACTOR * _norm(potential)


@functools.cache  # each CDLL handle makes a class, freed only by the cycle collector
def _numpy_symbols(templates: tuple[str, ...], names: tuple[str, ...]):
    """The functions ``names`` of numpy's linear-algebra library, spelled by the first of ``templates``
    that resolves them all, or None.  The library's dependency scope holds numpy's BLAS and LAPACK."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for template in templates:
        found = tuple(getattr(lib, template.format(name), None) for name in names)
        if None not in found:
            return found
    return None


def _blas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None where its symbols are not found: numpy 2
    wheels spell them scipy_openblas_get_num_threads64_, numpy 1 wheels openblas_get_num_threads64_."""
    templates = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")
    found = _numpy_symbols(templates, ("get", "set"))
    if found is None:
        return None
    get, put = found
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# How many arguments each LAPACK routine called here takes after jobz and uplo, info the last.
_LAPACK_ARGS = {"dsbev": 9, "zhbev": 10, "dsyevd": 9, "zheevd": 11, "ssyevd": 9, "cheevd": 11}


@functools.cache  # one lookup per pair of routines
def _lapack(real: str, complex_: str):
    """numpy's own LAPACK routines ``real`` and ``complex_``, where numpy exports them under ILP64 names (the 64_
    suffix: 64-bit integers), else None.  Each takes jobz and uplo, then the address of every other argument, info
    last and every integer an int64, then the hidden lengths of jobz and uplo; _check reads its info."""
    found = _numpy_symbols(("scipy_{}_64_", "{}_64_"), (real, complex_))
    for routine, name in zip(found or (), (real, complex_)):
        routine.argtypes = [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * _LAPACK_ARGS[name] + [ctypes.c_size_t] * 2
        routine.restype = None
    return found


def _check(routine, info: int) -> None:
    """Raise unless ``info``, what the LAPACK ``routine`` returned in it, is 0."""
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} did not converge: {info} off-diagonals remain")
    if info < 0:
        raise RuntimeError(f"{routine.__name__} was passed an illegal argument {-info}")


def _banded_eigvals(band):
    """Ascending eigenvalues of one Hermitian band in upper storage, a Fortran-contiguous (u+1) x q array that
    may be overwritten.  It is solved by numpy's own LAPACK, dsbev for a real band and zhbev for a complex one,
    where numpy exports them (_lapack); elsewhere by scipy.linalg.eigvals_banded, imported only then: that costs
    0.3 s and 28 MB, and it holds the GIL, so a sweep's workers take its bands one at a time."""
    lapack = _lapack("dsbev", "zhbev")
    if lapack is None:
        from scipy.linalg import eigvals_banded

        return eigvals_banded(band)
    real = not np.iscomplexobj(band)
    ab = np.asfortranarray(band, dtype=float if real else complex)  # not a copy of _band_storage's fibers
    rows, q = ab.shape
    w, ints = np.empty(q), np.array([q, rows - 1, rows, 1, 0], np.int64)  # n, kd, ldab, ldz and info
    rwork = np.empty(max(1, 3 * q - 2))  # dsbev's work, zhbev's rwork
    work = [rwork] if real else [np.empty(q, complex), rwork]
    n, kd, ldab, ldz, info = (ints.ctypes.data + 8 * j for j in range(5))
    routine = lapack[not real]
    spaces = [a.ctypes.data for a in work]  # the arrays stay referenced by work through the call
    routine(b"N", b"U", n, kd, ab.ctypes.data, ldab, w.ctypes.data, None, ldz, *spaces, info, 1, 1)
    _check(routine, int(ints[4]))
    return w


class _DenseSolver:
    """One sweep worker's solver of 2-d blocks of up to k fibers of q sites.  It builds each block in its own
    buffer and solves each fiber there as numpy's eigvalsh does: numpy's own dsyevd for a real block and zheevd
    for a complex one, or ssyevd and cheevd where ``dtype`` is single, jobz 'N' and uplo 'L' on the C-order fiber,
    which is Hermitian, with the workspace that a query asks for, each call's arguments made once per dtype.  The
    eigenvalues go into its own rows, of ``dtype``'s precision, which its next block overwrites.  Where numpy
    exports no ILP64 names, each block is solved by numpy's eigvalsh."""

    def __init__(self, q: int, k: int, dtype):
        self.buffer, self.rows = np.empty(k * q * q, dtype), np.empty((k, q), np.finfo(dtype).dtype)
        self.info = ctypes.c_int64()
        self.workspace, self.arguments = {}, {}  # by dtype: the arrays a query sized, and each fiber's call

    def __call__(self, potential, z):
        fibers = _fibers(potential, z, self.buffer)
        lapack = _lapack(*(("ssyevd", "cheevd") if self.rows.itemsize == 4 else ("dsyevd", "zheevd")))
        if lapack is None:
            return np.linalg.eigvalsh(fibers)
        routine = lapack[fibers.dtype.kind == "c"]
        if fibers.dtype not in self.arguments:
            self._prepare(routine, fibers.dtype)
        for args in self.arguments[fibers.dtype][: len(z)]:
            routine(*args)
            _check(routine, self.info.value)
        return self.rows[: len(z)]

    def _prepare(self, routine, dtype):
        """The arguments of ``routine`` on each fiber of the buffer in ``dtype``: n = lda = q, then work, [rwork,]
        and iwork, each with its length, in int64 cells, sized by a query with every length at -1."""
        k, q = self.rows.shape
        kinds = [dtype, self.rows.dtype, np.dtype(np.int64)] if dtype.kind == "c" else [dtype, np.dtype(np.int64)]
        ints, spaces = np.array([q] + [-1] * len(kinds), np.int64), [np.empty(1, kind) for kind in kinds]

        def arguments(i):  # jobz, uplo, n, a, lda, w, each space and its length, info, and the hidden lengths
            sized = [x for j, a in enumerate(spaces) for x in (a.ctypes.data, ints.ctypes.data + 8 * (j + 1))]
            a = self.buffer.ctypes.data + i * q * q * dtype.itemsize
            n, w, info = ints.ctypes.data, self.rows[i].ctypes.data, ctypes.addressof(self.info)
            return b"N", b"L", n, a, n, w, *sized, info, 1, 1

        routine(*arguments(0))  # the query: each space's first entry holds the length it asks for
        _check(routine, self.info.value)
        # one ulp up: a float32 length above 2^24 may have been rounded down
        ints[1:] = [int(np.nextafter(a[0].real, np.inf)) for a in spaces]
        spaces = [np.empty(m, kind) for m, kind in zip(ints[1:], kinds)]
        self.workspace[dtype] = [ints, *spaces]  # referenced while the addresses are in use
        self.arguments[dtype] = [arguments(i) for i in range(k)]


def _solve_block(potential, z, solver=None):
    """Eigenvalue rows of the fibers with a block of k x d phase factors ``z``, in their dtype: banded in 1-d, in
    2-d by ``solver``, a sweep worker's _DenseSolver, or else a new one; the worker's next block overwrites them."""
    if potential.dim == 2:
        return (solver or _DenseSolver(potential.q, len(z), z.dtype))(potential, z)
    return np.stack([_banded_eigvals(band) for band in _band_storage(potential, z)])  # each band is scratch


def _block_size(dim: int, q: int) -> int:
    """Phases per block: one in 1-d, and in 2-d the fewest fibers that hold 2^14 entries, one from q = 128 up,
    so that a block's build, a few dozen numpy calls whatever its size, is small beside its solves.  Where numpy
    exports no ILP64 dsyevd/zheevd (_lapack), a block is solved by eigvalsh, which lets go of the GIL only on
    more than 500 eigenvalues, so it holds at least 500 // q + 1 fibers."""
    fewest = -(-(2**14) // q**2)
    return 1 if dim == 1 else fewest if _lapack("dsyevd", "zheevd") else max(fewest, 500 // q + 1)


@functools.cache  # a pool per sweep costs more than the solves of a small sweep
def _pool(n: int):
    """n worker threads for the solves of every sweep, started once and idle between sweeps."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(n)


def _sweep(potential, phases, cover=None, single=False):
    """(bands, eigenvalues): the n x 2 per-index min and max of the eigenvalues over the k x d ``phases``, and
    the eigenvalues at the phase ``cover``, if given: the row at cover or -cover mod 1 (the same spectrum), else
    cover solved first in a block of its own, left out of the bands.  Blocks of _block_size phases, real when
    their set is in {0, 1/2}^d (in 1-d, their one phase), are taken in turn by as many worker threads as numpy's
    BLAS has, with BLAS pinned to one thread; each worker has a _DenseSolver in 2-d.  A 2-d sweep that is
    ``single`` builds and solves its fibers in float32/complex64.  Each block folds into the float64 bands row by
    row, exact in any order, the first row held as both edges until a second arrives.  The workers' fibers are
    charged, in their itemsize, before any is made."""
    dim, q, size = potential.dim, potential.q, _block_size(potential.dim, potential.q)
    phases = np.asarray(phases, dtype=float).reshape(-1, dim)
    real = dim == 1 or np.isin(phases, (0.0, 0.5)).all()  # a 2-d block may be real only where its set is
    row, blocks = None, [(i, phases[i : i + size]) for i in range(0, len(phases), size)]
    if cover is not None:  # a row of the sweep, else the one row of a block at -1
        hit = (phases == cover).all(axis=1) | (phases == np.negative(cover) % 1.0).all(axis=1)
        row, blocks = (int(hit.argmax()), blocks) if hit.any() else (-1, [(-1, np.reshape(cover, (1, dim)))] + blocks)
    kinds = (np.float32, np.complex64) if single else (np.float64, np.complex128)
    dtype = np.dtype(kinds[not all(np.isin(block, (0.0, 0.5)).all() for _, block in blocks)])
    bands, eigs, lock, todo = None, None, threading.Lock(), iter(blocks)  # a list iterator hands each block out once

    def fold(i, evs):  # the rows of the block at phases[i] into the bands, and the one at ``row`` into eigs
        nonlocal bands, eigs
        if row in range(i, i + len(evs)):
            eigs = evs[row - i].astype(float)  # a copy: the worker's next block overwrites its rows
        with lock:  # row by row, as a reduction folds them
            for e in evs if i >= 0 else ():
                if bands is None:  # the first row is both edges until a second arrives, not (q, 2) beside the solves
                    bands = e.astype(float)
                    continue
                if bands.ndim == 1:
                    bands = np.stack((bands, bands), axis=1)
                np.minimum(bands[:, 0], e, out=bands[:, 0])
                np.maximum(bands[:, 1], e, out=bands[:, 1])

    def work(solver):  # None, or what stopped the worker, for the calling thread to raise once all have stopped
        try:
            for i, block in todo:
                fold(i, _solve_block(potential, _phase_factors(block, dim, real or i < 0, single), solver))
        except Exception as error:
            blocks.clear()  # the other workers take no more
            return error

    get, put = _blas_threads() or (lambda: 1, lambda n: None)
    with _BLAS_LOCK:  # a sweep started meanwhile would read the pinned 1 and restore it
        n = get()
        workers, k = min(n, len(blocks)), max(len(block) for _, block in blocks)
        check_fiber_stack(q, workers * k, dtype.itemsize, banded=dim == 1)
        solvers = [_DenseSolver(q, k, dtype) if dim == 2 else None for _ in range(workers)]  # 1-d storage is per block
        fan = _pool(n).map if workers > 1 else map
        put(1)
        try:
            errors = [error for error in fan(work, solvers) if error]  # each worker stops before BLAS is restored
        finally:
            put(n)
    if errors:
        raise errors[0]
    return (bands if bands.ndim == 2 else np.stack((bands, bands), axis=1)), eigs


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
    return np.array([[0.0], [0.5]]) if dim == 1 else _grid(dim, grid_points)


def _lipschitz(potential, grid_points) -> float:
    """The Lipschitz term of the grid of ``grid_points`` per axis, sum_j 4*pi/p_j times half its spacing; 0 in 1-d."""
    return 0.0 if potential.dim == 1 else sum(4.0 * math.pi / (2.0 * grid_points * p) for p in potential.periods)


def _single_term(potential, grid_points) -> float:
    """The solver term of a 2-d sweep over the grid of ``grid_points`` per axis in single precision,
    (q + SINGLE_TOL_SITES) * eps32 * norm, where it is below SINGLE_SHARE of the grid's Lipschitz term and numpy
    exports ssyevd/cheevd (its eigvalsh solves complex64 no faster than complex128); else 0.0, for a double sweep."""
    term = (potential.q + SINGLE_TOL_SITES) * float(np.finfo(np.float32).eps) * _norm(potential)
    return term if term < SINGLE_SHARE * _lipschitz(potential, grid_points) and _lapack("ssyevd", "cheevd") else 0.0


def _spectrum(potential, bands, grid_points, single=0.0) -> BandSpectrum:
    """Band spectrum of the ``bands`` of a sweep over _phase_set, which it makes read-only.  A 2-d error bound adds
    the Lipschitz term of the grid of ``grid_points`` per axis, and ``single``, _single_term of a single sweep."""
    bands.flags.writeable = False
    return BandSpectrum(bands=bands, error_bound=_lipschitz(potential, grid_points) + _solver_bound(potential) + single)


def band_spectrum(potential: PeriodicPotential, grid_points: int = DEFAULT_GRID_POINTS) -> BandSpectrum:
    """Band intervals of the periodic operator: the per-index min/max of the
    fiber eigenvalues over the phase set of its dimension.

    In 1-d: the periodic and antiperiodic fibers, both real; the i-th band
    is exactly the interval between the i-th ordered eigenvalues of the
    two, up to eigensolver error.  ``grid_points`` is not used.

    In 2-d: ``grid_points`` equispaced phases per axis (one of each
    conjugate pair); the error bound adds the Lipschitz term
    sum_j 4*pi/p_j times half the grid spacing, p_j the period along axis j.
    Where (q + SINGLE_TOL_SITES) * eps32 * norm, q the cell volume, eps32 =
    2^-23 and norm the fibers' norm bound, is below SINGLE_SHARE (1%) of
    that term, the fibers are solved in single precision and the error
    bound adds it too; elsewhere, and in 1-d, they are solved in double.
    A ``grid_points`` that is not an integer is refused in either dimension.
    """
    m = _int(grid_points, "grid_points")
    phases, single = _phase_set(potential.dim, m), _single_term(potential, m)  # the grid is checked first
    return _spectrum(potential, _sweep(potential, phases, single=single > 0)[0], m, single)


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
    by index, the last first, and dropped with its row.  A ``grid_points``
    that is not an integer is refused in either dimension, and a phase or
    delta that is a boolean, a string, NaN or infinite is refused.
    """
    grid_points = _int(grid_points, "grid_points")
    if not len(potentials):
        raise ValueError("need at least one potential")
    proxy = isinstance(deltas, str) and deltas == "proxy"
    if not proxy and (
        len(deltas := [_item(d) for d in deltas]) != len(potentials) or not all(_is_real(d) and d >= 0 for d in deltas)
    ):
        raise ValueError("need one finite nonnegative delta per potential")  # before any potential is read
    held = [potentials[-1]]  # read first, for the dimension that picks the phase set; the run's first step takes it
    dim, phi = held[0].dim, _phase_tuple(phase, held[0].dim)
    if not (sweep := proxy or dim == 1):  # phi alone, but a grid_points no sweep could take is refused
        _check_grid(dim, grid_points)
    phases = _phase_set(dim, grid_points) if sweep else np.array([phi])

    def step(i):  # (band union or None, delta, q, r, ball cover) of potential i, which is not kept
        v = held.pop() if held else potentials[i]
        if v.dim != dim:
            raise ValueError("potentials must share a dimension")
        bands, eigs = _sweep(v, phases, phi)  # phi off the sweep is solved first: its solve is the slowest
        r, union = bandwidth_bound(v.periods), _spectrum(v, bands, grid_points).union() if sweep else None
        return union, None if proxy else float(deltas[i]), v.q, r, lambda delta: cover_from_eigenvalues(eigs, delta, r)
    steps, mode = _Steps(step, range(len(potentials))), "proxy" if proxy else "analytic"
    report, fattened = _run(steps, mu, tail, tail_tol, proxy, delta_mode=mode, phase=list(phi))
    if sweep:
        report.summary.update(band_fattened=fattened, band_estimate=fattened[-1])
    return report
