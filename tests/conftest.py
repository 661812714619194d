"""Shared generators, the brute-force distance oracle and the exact measure oracle.

The distance oracle deliberately avoids the library's candidate-point
algorithm: it samples each set on a uniform grid and takes max-of-min
distances with plain numpy, so agreement between the two is a real
cross-check.  The measure oracle works in exact rationals, one component
at a time.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from specapprox import AtomicMeasure, IntervalSet, PeriodicPotential, normalize, point_set


def random_interval_set(rng, lo=-4.0, hi=4.0, max_components=6, max_len=0.5) -> IntervalSet:
    k = int(rng.integers(1, max_components + 1))
    starts = rng.uniform(lo, hi, size=k)
    lengths = rng.uniform(0.0, max_len, size=k)
    return normalize([(s, s + w) for s, w in zip(starts, lengths)])


def random_point_set(rng, lo=-4.0, hi=4.0, max_points=8) -> IntervalSet:
    k = int(rng.integers(1, max_points + 1))
    return point_set(rng.uniform(lo, hi, size=k))


def random_compact_set(rng):
    if rng.random() < 0.7:
        return random_interval_set(rng)
    return random_point_set(rng)


def random_potential(rng, dim=1, max_period=32, amplitude=3.0) -> PeriodicPotential:
    if dim == 1:
        periods = (int(rng.integers(1, max_period + 1)),)
    else:
        periods = tuple(int(p) for p in rng.integers(1, max_period + 1, size=dim))
    q = int(np.prod(periods))
    cell = tuple(float(v) for v in rng.uniform(-amplitude, amplitude, size=q))
    return PeriodicPotential(dim=dim, periods=periods, cell=cell)


def is_points(s) -> bool:
    """Whether every component of s is degenerate."""
    return bool((s.lows == s.highs).all())


def _samples(s, spacing):
    if is_points(s):
        return s.lows
    parts = []
    for lo, hi in zip(s.lows.tolist(), s.highs.tolist()):
        k = max(2, int(np.ceil((hi - lo) / spacing)) + 1)
        parts.append(np.linspace(lo, hi, k))
    return np.concatenate(parts)


def _pointwise_distance(xs, s):
    if is_points(s):
        return np.min(np.abs(xs[:, None] - s.lows[None, :]), axis=1)
    d = np.full(xs.shape, np.inf)
    for lo, hi in zip(s.lows.tolist(), s.highs.tolist()):
        d = np.minimum(d, np.maximum.reduce([lo - xs, xs - hi, np.zeros_like(xs)]))
    return d


def oracle_directed(a, b, spacing=1e-5) -> float:
    return float(_pointwise_distance(_samples(a, spacing), b).max())


def oracle_hausdorff(a, b, spacing=1e-5) -> float:
    return max(oracle_directed(a, b, spacing), oracle_directed(b, a, spacing))


def oracle_measure(mu, s) -> Fraction:
    """mu(s) in exact rationals from the set's float endpoints, component by component and piece by
    piece: a point set's points stay apart, and an atom counts when lo <= atom <= hi for some component."""
    pairs = [(Fraction(lo), Fraction(hi)) for lo, hi in zip(s.lows.tolist(), s.highs.tolist())]
    if isinstance(mu, AtomicMeasure):
        return sum(Fraction(w) for a, w in zip(mu.atoms, mu.weights) if any(lo <= a <= hi for lo, hi in pairs))
    bp = [Fraction(b) for b in mu.breakpoints]
    # finite stand-ins for -inf and +inf: no component reaches past them
    edges = [min(bp[0], pairs[0][0]), *bp, max(bp[-1], pairs[-1][1])]
    densities = [mu.outside, *mu.values, mu.outside]
    return sum(
        Fraction(c) * max(Fraction(0), min(hi, b) - max(lo, a))
        for lo, hi in pairs
        for c, a, b in zip(densities, edges, edges[1:])
    )
