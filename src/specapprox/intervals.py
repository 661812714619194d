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

Merges, inclusion and equality use the absolute tolerance ``DEFAULT_TOL``
so that eigenvalue-level noise from downstream pipelines does not flip them.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-12

_FLOAT_MAX = float(np.finfo(float).max)


class EmptySetError(ValueError):
    """An operation produced or received an empty set."""


class InvalidRadiusError(ValueError):
    """Fattening radius was negative."""


def _check_endpoints(lows: np.ndarray, highs: np.ndarray) -> None:
    if lows.ndim != 1 or lows.shape != highs.shape:
        raise ValueError("endpoint arrays must be one-dimensional and of equal length")
    bad = ~(np.isfinite(lows) & np.isfinite(highs) & (lows <= highs))
    if bad.any():
        i = int(np.argmax(bad))
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
        if (lows[1:] <= highs[:-1]).any():
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

    def __hash__(self) -> int:
        return hash((tuple(self.lows.tolist()), tuple(self.highs.tolist())))

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
    either way the result is what the sort and the maximum give.  So unions
    of sorted sets, such as fattenings, skip both unless rounding ties two
    lows.  Raises :class:`EmptySetError` on empty input.
    """
    lows, highs = np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)
    if lows.size == 0:
        raise EmptySetError("cannot normalize an empty collection of intervals")
    _check_endpoints(lows, highs)
    if not (lows[1:] > lows[:-1]).all():
        order = np.lexsort((highs, lows))
        lows, highs = lows[order], highs[order]
    reach = highs if (highs[1:] >= highs[:-1]).all() else np.maximum.accumulate(highs)
    first = np.concatenate(([True], lows[1:] > reach[:-1] + tol))
    last = np.append(first[1:], True)
    return IntervalSet.__new__(IntervalSet)._store(lows[first], reach[last])  # canonical by construction


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
    """
    if delta < 0:
        raise InvalidRadiusError(f"fattening radius must be nonnegative, got {delta}")
    return interval_union(a.lows - delta, a.highs + delta)


def lebesgue(a: IntervalSet) -> float:
    """Total length of the components (zero for point sets).

    Summed left to right like a plain loop; ``np.sum`` adds pairwise and can
    move the last digits.
    """
    return float(np.cumsum(a.highs - a.lows)[-1])


def components(a: IntervalSet) -> tuple[int, float]:
    """(component count, largest component diameter)."""
    return len(a), float(np.max(a.highs - a.lows))


def _distances(b: IntervalSet, xs: np.ndarray) -> np.ndarray:
    """Distance from each entry of xs to b, one binary search per point: the
    point lies in the component before the first one starting right of it,
    or in the gap between the two."""
    j = np.searchsorted(b.lows, xs, side="right")
    below = np.concatenate(([-np.inf], b.highs))[j]
    above = np.concatenate((b.lows, [np.inf]))[j]
    return np.where(xs <= below, 0.0, np.minimum(xs - below, above - xs))


def directed_distance(a: IntervalSet, b: IntervalSet) -> float:
    """sup over points of a of the distance to b.

    The distance-to-b function is piecewise linear with slope +-1, with
    local maxima only at midpoints of b's gaps, so the supremum over a is
    attained at a component endpoint of a or at a gap midpoint of b lying
    inside a.  Evaluating those finitely many candidates is exact.
    """
    mids = (b.highs[:-1] + b.lows[1:]) / 2.0
    inside = mids[_distances(a, mids) == 0.0]
    return max(float(np.max(_distances(b, x))) for x in (a.lows, a.highs, inside) if len(x))  # part by part: holds less


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


def set_from_obj(obj) -> IntervalSet:
    """Parse the JSON form: a flat list of real numbers is a point set, a list of [lo, hi] pairs is normalized."""
    if not isinstance(obj, list) or not obj:
        raise EmptySetError("compact set JSON must be a nonempty list")
    if all(_is_real(x) for x in obj):
        return point_set(obj)
    if all(isinstance(x, (list, tuple)) and len(x) == 2 and _is_real(x[0]) and _is_real(x[1]) for x in obj):
        return normalize(obj)
    raise ValueError("compact set JSON must be a list of real numbers or of [lo, hi] pairs of them")
