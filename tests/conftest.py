"""Shared generators and the brute-force distance oracle.

The oracle deliberately avoids the library's candidate-point algorithm: it
samples each set on a uniform grid and takes max-of-min distances with
plain numpy, so agreement between the two is a real cross-check.
"""

from __future__ import annotations

import numpy as np

from specapprox import IntervalSet, PeriodicPotential, PointSet, normalize, point_set


def random_interval_set(rng, lo=-4.0, hi=4.0, max_components=6, max_len=0.5) -> IntervalSet:
    k = int(rng.integers(1, max_components + 1))
    starts = rng.uniform(lo, hi, size=k)
    lengths = rng.uniform(0.0, max_len, size=k)
    return normalize([(s, s + w) for s, w in zip(starts, lengths)])


def random_point_set(rng, lo=-4.0, hi=4.0, max_points=8) -> PointSet:
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


def _samples(s, spacing):
    if isinstance(s, PointSet):
        return s.lows
    parts = []
    for lo, hi in zip(s.lows.tolist(), s.highs.tolist()):
        k = max(2, int(np.ceil((hi - lo) / spacing)) + 1)
        parts.append(np.linspace(lo, hi, k))
    return np.concatenate(parts)


def _pointwise_distance(xs, s):
    if isinstance(s, PointSet):
        return np.min(np.abs(xs[:, None] - s.lows[None, :]), axis=1)
    d = np.full(xs.shape, np.inf)
    for lo, hi in zip(s.lows.tolist(), s.highs.tolist()):
        d = np.minimum(d, np.maximum.reduce([lo - xs, xs - hi, np.zeros_like(xs)]))
    return d


def oracle_directed(a, b, spacing=1e-5) -> float:
    return float(_pointwise_distance(_samples(a, spacing), b).max())


def oracle_hausdorff(a, b, spacing=1e-5) -> float:
    return max(oracle_directed(a, b, spacing), oracle_directed(b, a, spacing))
