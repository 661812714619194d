"""Upper bounds on Hausdorff dimension from cover statistics.

Two estimators, both reading the same tabulated statistics (component
counts q_n, distance bounds delta_n, diameter bounds r_n, fattened
measures):

* ``dim_bound_last``: a decay exponent beta with
  mu_fattened ~ q^(-beta) forces dimension <= 1/(1 + beta).
* ``dim_bound_direct``: covers by q_n intervals of diameter 2*delta_n + r_n
  with q_n ~ (2*delta_n + r_n)^(-alpha) force dimension <= alpha.

Both fit the exponent by least squares on log-log data over a tail window,
so the outputs are estimates of the theoretical bounds, not certificates;
the fit residual is reported so callers can judge how power-law-like the
data actually is.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .intervals import IntervalSet, _sum, normalize


class InsufficientDataError(ValueError):
    """Too few tail rows to fit an exponent."""


class NotApplicableError(ValueError):
    """Estimator preconditions not met by the provided statistics."""


@dataclass(frozen=True)
class CoverStats:
    """Per-step cover statistics, aligned by index."""

    n: tuple[int, ...]
    q: tuple[int, ...]
    delta: tuple[float, ...]
    r: tuple[float, ...]
    mu_fattened: tuple[float, ...]

    def __post_init__(self):
        k = len(self.n)
        if not all(len(t) == k for t in (self.q, self.delta, self.r, self.mu_fattened)):
            raise ValueError("all stat columns must have equal length")
        for name in ("delta", "r", "mu_fattened"):
            for x in getattr(self, name):
                if not math.isfinite(x):
                    raise ValueError(f"stats column {name} holds a non-finite value: {x}")
        if not all(c > 0 for c in self.q):  # their logs are fitted
            raise ValueError("component counts must be positive")

    def __len__(self) -> int:
        return len(self.n)

    @classmethod
    def from_rows(cls, rows) -> "CoverStats":
        n, q, delta, r, mu = [], [], [], [], []
        for row in rows:
            n.append(int(row["n"]))
            q.append(int(row["q"]))
            delta.append(float(row["delta"]))
            r.append(float(row["r"]))
            mu.append(float(row["mu_fattened"]))
        return cls(n=tuple(n), q=tuple(q), delta=tuple(delta), r=tuple(r), mu_fattened=tuple(mu))

    @classmethod
    def from_csv(cls, path) -> "CoverStats":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = {"n", "q", "delta", "r", "mu_fattened"} - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"stats CSV missing columns: {sorted(missing)}")
            return cls.from_rows(reader)


def hausdorff_content_upper(cover, alpha: float) -> float:
    """sum of diam^alpha over the canonicalized cover components.

    Canonicalizing first (merging overlaps) can only lower the sum for
    alpha <= 1, so the result still upper-bounds the alpha-content at scale
    max diam; a raw cover of (lo, hi) pairs is merged where pairs overlap
    or touch, with no tolerance.  alpha must be positive.
    """
    if not alpha > 0:  # NaN too
        raise ValueError(f"content exponent must be positive, got {alpha}")
    if not isinstance(cover, IntervalSet):
        cover = normalize(cover, 0.0)
    return _sum(lambda h, lo: (h - lo) ** alpha, cover.highs, cover.lows)  # summed left to right, as lebesgue


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares exponent over the tail window, with RMS log residual."""

    estimate: float
    slope: float
    residual: float
    window: tuple[int, int]


def _tail_window(stats: CoverStats, tail_fraction: float) -> tuple[int, int]:
    """(row count k, window length w) of the fit; w is at least 3 and at most k."""
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    k = len(stats)
    w = max(3, math.ceil(k * tail_fraction))
    if k < 3 or w > k:
        raise InsufficientDataError(f"need at least 3 tail rows, have {k}")
    return k, w


def _fit_line(x, y) -> tuple[float, float, float]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    coeffs = np.polyfit(x, y, 1)
    fitted = np.polyval(coeffs, x)
    rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return float(coeffs[0]), float(coeffs[1]), rms


def dim_bound_last(stats: CoverStats, tail_fraction: float = 0.5) -> ExponentFit:
    """Dimension bound 1/(1 + beta) from measure decay against q.

    beta is minus the fitted slope of log mu_fattened against log q over
    the tail window (default: last half, at least 3 rows), clamped at 0 so
    the bound stays in (0, 1].
    """
    k, w = _tail_window(stats, tail_fraction)
    q = stats.q[k - w :]
    mu = stats.mu_fattened[k - w :]
    if any(b <= a for a, b in zip(q, q[1:])):
        raise NotApplicableError("component counts must be strictly increasing")
    if any(m <= 0 for m in mu):
        raise NotApplicableError("fattened measures must be positive to fit a decay exponent")
    slope, _, rms = _fit_line(np.log(np.asarray(q, float)), np.log(np.asarray(mu, float)))
    beta = max(0.0, -slope)
    return ExponentFit(estimate=1.0 / (1.0 + beta), slope=slope, residual=rms, window=(k - w, k))


def dim_bound_direct(stats: CoverStats, tail_fraction: float = 0.5) -> ExponentFit:
    """Dimension bound alpha from cover counts against cover diameters.

    alpha is the fitted slope of log q against -log(2*delta + r) over the
    tail window, clamped at 0.  Requires the diameter bounds r to vanish
    along the tail (strictly decreasing, or already below 1e-9).
    """
    k, w = _tail_window(stats, tail_fraction)
    q = stats.q[k - w :]
    delta = stats.delta[k - w :]
    r = stats.r[k - w :]
    decreasing = all(b < a for a, b in zip(r, r[1:]))
    if not decreasing and r[-1] > 1e-9:
        raise NotApplicableError("diameter bounds r must decrease toward 0 along the tail")
    diam = [2.0 * d + rr for d, rr in zip(delta, r)]
    if any(x <= 0 for x in diam):
        raise NotApplicableError("cover diameters must be positive")
    if any(b >= a for a, b in zip(diam, diam[1:])):
        raise NotApplicableError("cover diameters must decrease along the tail")
    slope, _, rms = _fit_line(-np.log(np.asarray(diam, float)), np.log(np.asarray(q, float)))
    alpha = max(0.0, slope)
    return ExponentFit(estimate=alpha, slope=slope, residual=rms, window=(k - w, k))
