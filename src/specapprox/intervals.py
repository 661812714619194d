"""Canonical arithmetic on compact subsets of the real line.

A compact set is an :class:`IntervalSet`, a sorted union of disjoint
closed intervals held as two sorted read-only float64 endpoint arrays
``lows`` and ``highs``; a finite point set is one whose components are
all degenerate, with one array as both.  Merging is a sort plus a running
maximum, each skipped where the endpoints are in order already, and
Lebesgue measure a sum of lengths.  Hausdorff distance reduces to
evaluating a piecewise-linear distance function at finitely many candidate
points, each located by binary search: O((n+m) log(n+m)) for n and m
components, with no grid discretization on the exact paths.

Every O(n) pass over endpoints runs over blocks of ``_BLOCK`` of them, so an
operation holds its input, its output and one block of temporaries.

Merges, inclusion and equality use the absolute tolerance ``DEFAULT_TOL``
so that eigenvalue-level noise from downstream pipelines does not flip them.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

DEFAULT_TOL = 1e-12

_FLOAT_MAX = float(np.finfo(float).max)

# Endpoints per block of a pass; at 2^13 a pass is as fast as over whole arrays.
_BLOCK = 2**13


class EmptySetError(ValueError):
    """An operation produced or received an empty set."""


class InvalidRadiusError(ValueError):
    """Fattening radius was negative."""


def _blocks(n: int):
    """Slices that cut range(n) into runs of ``_BLOCK``, the last one shorter."""
    return (slice(i, i + _BLOCK) for i in range(0, n, _BLOCK))


def _all_pairs(op, later: np.ndarray, earlier: np.ndarray) -> bool:
    """Whether op(later[i + 1], earlier[i]) holds for every i."""
    return all(op(later[1:][s], earlier[:-1][s]).all() for s in _blocks(len(later) - 1))


def _check_endpoints(lows: np.ndarray, highs: np.ndarray) -> None:
    if lows.ndim != 1 or lows.shape != highs.shape:
        raise ValueError("endpoint arrays must be one-dimensional and of equal length")
    for s in _blocks(len(lows)):
        bad = ~(np.isfinite(lows[s]) & np.isfinite(highs[s]) & (lows[s] <= highs[s]))
        if bad.any():
            i = s.start + int(np.argmax(bad))
            raise ValueError(f"interval endpoints must be finite and ordered, got [{lows[i]}, {highs[i]}]")


class IntervalSet:
    """Canonical finite union of closed intervals, held as two sorted
    read-only float64 endpoint arrays ``lows`` and ``highs``.

    Components are sorted and separated by strictly positive gaps: the
    constructor checks that the endpoint arrays are, and merges nothing.
    Build other input through :func:`normalize` or :func:`interval_union`,
    and a finite point set, whose components are degenerate, through
    :func:`point_set`.
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows, highs):
        self._checked(np.array(lows, dtype=float), np.array(highs, dtype=float))

    def _checked(self, lows: np.ndarray, highs: np.ndarray) -> "IntervalSet":
        if lows.size == 0:
            raise EmptySetError("IntervalSet must not be empty")
        _check_endpoints(lows, highs)
        if not _all_pairs(np.greater, lows, highs):
            raise ValueError("components must be sorted and separated by positive gaps")
        return self._store(lows, highs)

    def _store(self, lows: np.ndarray, highs: np.ndarray) -> "IntervalSet":
        lows.flags.writeable = highs.flags.writeable = False
        self.lows, self.highs = lows, highs
        return self

    @property
    def lo(self) -> float:
        return float(self.lows[0])

    @property
    def hi(self) -> float:
        return float(self.highs[-1])

    def __len__(self) -> int:
        return len(self.lows)

    def __eq__(self, other) -> bool:
        same = type(other) is type(self)
        return same and np.array_equal(self.lows, other.lows) and np.array_equal(self.highs, other.highs)

    def __repr__(self) -> str:
        return f"IntervalSet({set_to_obj(self)!r})"


def point_set(values) -> IntervalSet:
    """The finite set of ``values``, sorted and without repeats: one array held as both ``lows`` and ``highs``."""
    pts = np.unique(np.fromiter(values, dtype=float))
    return IntervalSet.__new__(IntervalSet)._checked(pts, pts)


def interval_union(lows, highs, tol: float = DEFAULT_TOL) -> IntervalSet:
    """Canonical union of the closed intervals [lows[i], highs[i]].

    Sorts by (lo, hi) and merges components that overlap, touch, or leave a
    gap of at most ``tol``: a new component starts where a left endpoint
    exceeds the running maximum of the right endpoints before it by more
    than ``tol``.  Strictly increasing lows are in that order already and
    are not sorted, and nondecreasing highs are their own running maximum;
    either way the result is what the sort and the maximum give.  Raises
    :class:`EmptySetError` on empty input, and ``ValueError`` unless
    ``tol >= 0``.
    """
    if not tol >= 0:  # a negative tol keeps overlaps apart, a NaN one merges everything
        raise ValueError(f"merge tolerance must be nonnegative, got {tol}")
    lows, highs = np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)
    if lows.size == 0:
        raise EmptySetError("cannot normalize an empty collection of intervals")
    _check_endpoints(lows, highs)
    if not _all_pairs(np.greater, lows, lows):
        order = np.lexsort((highs, lows))
        lows, highs = lows[order], highs[order]
    reach = highs if _all_pairs(np.greater_equal, highs, highs) else np.maximum.accumulate(highs)
    return IntervalSet.__new__(IntervalSet)._store(*_merge(lows, reach, 0.0, tol))  # canonical by construction


def _merge(lows: np.ndarray, highs: np.ndarray, delta: float, tol: float):
    """The lows that start and the highs that end the components of the union of the intervals
    [lows[i] - delta, highs[i] + delta], unshifted, for finite nondecreasing shifted lows and highs.

    A component starts where a shifted low exceeds the shifted high before it by more than ``tol``.
    Each block of pairs of neighbours is shifted and compared on its own."""
    first = np.empty(len(lows), dtype=bool)
    first[0] = True
    for s in _blocks(max(len(lows) - 1, 1)):
        lo, hi = lows[s.start : s.stop + 1] - delta, highs[s.start : s.stop + 1] + delta
        np.greater(lo[1:], np.add(hi[:-1], tol, out=hi[:-1]), out=first[s.start + 1 : s.stop + 1])
        del lo, hi  # before the next block is made
    starts = lows[first]
    first[:-1] = first[1:]  # now marks the last interval of each component
    first[-1] = True
    return starts, highs[first]


def normalize(pairs, tol: float = DEFAULT_TOL) -> IntervalSet:
    """Canonicalize an iterable of (lo, hi) pairs; see :func:`interval_union`."""
    pairs = list(pairs)
    if not pairs:
        raise EmptySetError("cannot normalize an empty collection of intervals")
    lows, highs = np.array(pairs, dtype=float).T  # ValueError unless (lo, hi) pairs
    return interval_union(lows, highs, tol)


def fatten(a: IntervalSet, delta: float) -> IntervalSet:
    """Closed delta-neighborhood: union of [x - delta, x + delta] over x in a.

    delta = 0 is the identity but for components within ``DEFAULT_TOL``
    of each other, which merge.  Negative delta raises :class:`InvalidRadiusError`.

    One merge pass over the shifted endpoints, with no sort: rounding is
    monotone, so the shifted lows and highs of a canonical set never
    decrease.  Where rounding ties two shifted lows, a stable sort would
    leave them in place and they merge, as the tied low lies below the high
    before it.  The lows and highs that bound components are shifted after
    they are gathered.  For the same reason every shifted endpoint is finite
    when the outermost two are, so only those are checked up front.
    """
    if delta < 0:
        raise InvalidRadiusError(f"fattening radius must be nonnegative, got {delta}")
    if not (-_FLOAT_MAX <= a.lo - delta and a.hi + delta <= _FLOAT_MAX):  # also false for a NaN delta
        _check_endpoints(a.lows - delta, a.highs + delta)  # raises at the first bad index
    starts, ends = _merge(a.lows, a.highs, delta, DEFAULT_TOL)
    starts -= delta
    ends += delta
    return IntervalSet.__new__(IntervalSet)._store(starts, ends)


def _sum(terms, *arrays) -> float:
    """Sum of terms(*blocks) over the blocks of ``arrays``, left to right like a plain loop: the
    running total joins each block's first term.  ``terms`` returns a fresh array, which is summed
    in place and freed before the next block's is made."""
    total = 0.0
    for s in _blocks(len(arrays[0])):
        t = terms(*(x[s] for x in arrays))
        t[0] += total
        total = np.cumsum(t, out=t)[-1]
        del t
    return float(total)


def lebesgue(a: IntervalSet) -> float:
    """Total length of the components (zero for point sets).

    Summed left to right like a plain loop; ``np.sum`` adds pairwise and can
    move the last digits.
    """
    return _sum(np.subtract, a.highs, a.lows)


def components(a: IntervalSet) -> tuple[int, float]:
    """(component count, largest component diameter)."""
    return len(a), max(float(np.max(a.highs[s] - a.lows[s])) for s in _blocks(len(a)))


def _distances(b: IntervalSet, xs: np.ndarray) -> np.ndarray:
    """Distance from each entry of xs to b, one binary search per point: the
    point lies in the component before the first one starting right of it,
    or in the gap between the two; before the first component there is none
    below it, and after the last none above."""
    j = np.searchsorted(b.lows, xs, side="right")
    below = np.where(j > 0, b.highs.take(j - 1, mode="clip"), -np.inf)
    above = np.where(j < len(b), b.lows.take(j, mode="clip"), np.inf)
    return np.where(xs <= below, 0.0, np.minimum(xs - below, above - xs))


def _midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(lo + hi) / 2, and lo / 2 + hi / 2 only where the sum overflows: halving first would round
    some subnormal midpoints differently."""
    with np.errstate(over="ignore"):
        mids = np.add(lo, hi) / 2.0
    big = np.isinf(mids)
    mids[big] = lo[big] / 2.0 + hi[big] / 2.0
    return mids


def directed_distance(a: IntervalSet, b: IntervalSet) -> float:
    """sup over points of a of the distance to b.

    The distance-to-b function is piecewise linear with slope +-1, with
    local maxima only at midpoints of b's gaps, so the supremum over a is
    attained at a component endpoint of a or at a gap midpoint of b lying
    inside a.  Evaluating those finitely many candidates is exact; they are
    evaluated a block at a time.
    """
    ends = (x[s] for x in (a.lows, a.highs) for s in _blocks(len(a)))
    mids = (_midpoints(b.highs[:-1][s], b.lows[1:][s]) for s in _blocks(len(b) - 1))
    inside = (m[_distances(a, m) == 0.0] for m in mids)
    return float(max(np.max(_distances(b, x), initial=0.0) for x in itertools.chain(ends, inside)))


def hausdorff_distance(a: IntervalSet, b: IntervalSet) -> float:
    """max of the two directed distances; a metric on nonempty compact sets."""
    return max(directed_distance(a, b), directed_distance(b, a))


def contains_set(outer: IntervalSet, inner: IntervalSet, tol: float = DEFAULT_TOL) -> bool:
    """Whether inner lies in the tol-neighborhood of outer.

    Equivalent to directed_distance(inner, outer) <= tol, which is the
    fattening characterization of inclusion; exact for tol = 0.
    """
    return directed_distance(inner, outer) <= tol


def sets_equal(a: IntervalSet, b: IntervalSet, tol: float = DEFAULT_TOL) -> bool:
    return hausdorff_distance(a, b) <= tol


def set_to_obj(a: IntervalSet):
    """JSON-ready form: [x, ...] when every component is a point, else [[lo, hi], ...].

    Points go out flat because :func:`set_from_obj` reads pairs through
    :func:`normalize`, which would merge points within ``DEFAULT_TOL``.
    """
    return a.lows.tolist() if (a.lows == a.highs).all() else np.column_stack((a.lows, a.highs)).tolist()


def _is_real(x) -> bool:
    """Whether a JSON value is a real number: an int or a float, not a bool, that a float holds.
    NaN, infinities and ints beyond the float range, which float() would overflow on, are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and -_FLOAT_MAX <= x <= _FLOAT_MAX


def _item(x):
    """``x``, or the Python number a numpy number holds, for :func:`_is_real`'s rule."""
    return x.item() if isinstance(x, np.generic) else x


def _int(value, name: str):
    """``value``, or each item of a list ``value``, as the int it equals, the package's one integer rule: booleans
    (numpy's too), strings, non-numbers and infinite, NaN or fractional numbers raise ValueError naming ``name``."""
    if isinstance(value, list):
        return [_int(v, name) for v in value]
    with contextlib.suppress(OverflowError, TypeError, ValueError):  # int() of inf, NaN, bad text or a non-number
        if not isinstance(value, (bool, np.bool_)) and (n := int(value)) == value:  # no string equals an int
            return n
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """``value`` as a float, the package's one real-number rule: what :func:`_is_real` refuses (booleans, strings,
    NaN, infinities and ints beyond the float range, which float() would take) raises ValueError naming ``name``."""
    if _is_real(value := _item(value)):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _real_array(items: list):
    """``items`` as a float array when :func:`_is_real` holds for every one, else None.

    float() overflows on an int far beyond the float range but rounds one just beyond it to the float
    maximum, so the items converted to that, to an infinity or to NaN are the ones tested one by one."""
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, items))):
        return None
    try:
        values = np.array(items, dtype=float)
    except OverflowError:
        return None
    edge = np.flatnonzero(~(np.abs(values) < _FLOAT_MAX))
    return values if all(_is_real(items[i]) for i in edge) else None


def set_from_obj(obj) -> IntervalSet:
    """Parse the JSON form: a flat list of real numbers is a point set, a list of [lo, hi] pairs is normalized.

    The numbers are checked as one array, not one by one: :func:`_is_real`'s class test runs once per
    distinct type of the items (or of the pairs' items), then one float conversion and one pass over
    the array leave to its range test only the items converted to NaN, an infinity or the float maximum."""
    if not isinstance(obj, list) or not obj:
        raise EmptySetError("compact set JSON must be a nonempty list")
    if (points := _real_array(obj)) is not None:
        points = np.unique(points)  # sorted, without repeats and finite: canonical, as point_set makes it
        return IntervalSet.__new__(IntervalSet)._store(points, points)
    if all(issubclass(t, (list, tuple)) for t in set(map(type, obj))) and set(map(len, obj)) == {2}:
        if (ends := _real_array(list(itertools.chain.from_iterable(obj)))) is not None:
            return interval_union(ends[0::2], ends[1::2])
    raise ValueError("compact set JSON must be a list of real numbers or of [lo, hi] pairs of them")
