"""Measure evaluation along approximating sequences of compact sets.

The central objects are approximation records (a compact set together with
its declared Hausdorff-distance bound to the limit) and convergence reports
whose rows track raw and fattened measures step by step.  Fattening each
set by its own distance bound is what makes the fattened column converge to
the measure of the limit set even when the raw column does not; the report
summaries expose the standard finite-data diagnostics for that mechanism.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .intervals import IntervalSet, _sum, components, fatten, hausdorff_distance, lebesgue

# Finite-data slack used by the pass/fail diagnostics below.  Decreasing-to-
# limit sequences should pass at realistic horizons, which needs tolerance of
# the gap between the observed tail and the limit.
DEFAULT_DIAGNOSTIC_TOL = 0.05
DEFAULT_TAIL = 3
DEFAULT_TAIL_TOL = 1e-3

FINITE_HORIZON_NOTE = (
    "tail diagnostics certify stability over the computed rows only; "
    "the limiting hypotheses are not checkable from finite data"
)


@dataclass(frozen=True)
class Lebesgue:
    """Length measure on the line."""

    def measure_of(self, s: IntervalSet) -> float:
        return lebesgue(s)


@dataclass(frozen=True)
class PiecewiseDensity:
    """Absolutely continuous measure with a piecewise-constant density.

    ``values[i]`` is the density on [breakpoints[i], breakpoints[i+1]];
    ``outside`` applies beyond the breakpoint range.  Densities must be
    nonnegative so the measure is locally finite and monotone.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    outside: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.breakpoints, *self.values, self.outside))):  # NaN fails every order check below
            raise ValueError("breakpoints, density values and outside must be finite")
        if len(self.breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        if len(self.values) != len(self.breakpoints) - 1:
            raise ValueError("need one density value per piece")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if b <= a:
                raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in self.values) or self.outside < 0:
            raise ValueError("densities must be nonnegative")

    def measure_of(self, s: IntervalSet) -> float:
        """Sum over the pieces, outside ones included, of the density times the length of ``s`` clipped
        to the piece, summed left to right a block at a time.  Components that miss a piece would add
        exact zeros, so only those that meet it are clipped."""
        edges = (-math.inf, *self.breakpoints, math.inf)
        total = 0.0
        for c, a, b in zip((self.outside, *self.values, self.outside), edges, edges[1:]):
            i, j = np.searchsorted(s.highs, a), np.searchsorted(s.lows, b, side="right")  # those meeting [a, b]
            if i < j:
                total += c * _sum(
                    lambda h, lo: np.subtract(w := h.clip(a, b), lo.clip(a, b), out=w), s.highs[i:j], s.lows[i:j]
                )
        return total


@dataclass(frozen=True)
class AtomicMeasure:
    """Purely atomic measure; atoms sitting on component endpoints count."""

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.atoms, *self.weights))):  # NaN fails every order check below
            raise ValueError("atoms and weights must be finite")
        if not self.atoms or len(self.atoms) != len(self.weights):
            raise ValueError("need one positive weight per atom")
        for a, b in zip(self.atoms, self.atoms[1:]):
            if b <= a:
                raise ValueError("atoms must be strictly increasing")
        if any(w <= 0 for w in self.weights):
            raise ValueError("atom weights must be positive")

    def measure_of(self, s: IntervalSet) -> float:
        """Sum, left to right in atom order, of the weights of the atoms that lie in the last
        component starting at or left of them; an uncovered atom adds an exact 0."""
        atoms = np.array(self.atoms)
        j = np.searchsorted(s.lows, atoms, side="right") - 1
        covered = (j >= 0) & (atoms <= s.highs[j])
        return float(np.cumsum(np.where(covered, self.weights, 0.0))[-1])


Measure1D = Lebesgue | PiecewiseDensity | AtomicMeasure


def measure(mu: Measure1D, a: IntervalSet) -> float:
    """Measure of a compact set as it is (closed components, atoms on edges count): the degenerate
    components of a point set are never merged, so it has length 0 and holds only the atoms at its points."""
    return mu.measure_of(a)


@dataclass(frozen=True)
class ApproximationRecord:
    """One approximation step: the set, its distance bound, and its shape data.

    ``delta`` is the declared (bound on the) Hausdorff distance to the limit,
    ``q`` the component count and ``r`` the largest component diameter.
    """

    set: IntervalSet
    delta: float
    q: int
    r: float

    @classmethod
    def from_set(cls, a: IntervalSet, delta: float) -> "ApproximationRecord":
        q, r = components(a)
        return cls(set=a, delta=float(delta), q=q, r=r)


@dataclass(frozen=True)
class ReportRow:
    n: int
    delta: float
    q: int
    r: float
    mu_raw: float
    mu_fattened: float
    q_times_delta: float

    def __post_init__(self):
        # the columns a dimension fit reads; mu_raw is NaN where no band union was computed
        for name in ("delta", "r", "mu_fattened"):
            if not math.isfinite(value := getattr(self, name)):
                raise FloatingPointError(f"step {self.n}: {name} is {value}, not finite")


CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


@dataclass
class ConvergenceReport:
    rows: list[ReportRow]
    summary: dict = field(default_factory=dict)

    @classmethod
    def build(cls, rows, tail: int, tail_tol: float, **extra) -> "ConvergenceReport":
        """Report of ``rows`` whose summary holds the tail diagnostics of the
        fattened column; ``extra`` keys precede the note."""
        rows = list(rows)
        if not rows:
            raise ValueError("need at least one step")
        if tail < 1:  # rows[-tail:] would take every row at 0 and drop rows below it
            raise ValueError(f"tail must be >= 1, got {tail}")
        tail = min(tail, len(rows))
        window = [r.mu_fattened for r in rows[-tail:]]
        spread = max(window) - min(window)
        diagnostics = {"estimate": rows[-1].mu_fattened, "converged": spread < tail_tol, "tail_spread": spread}
        return cls(rows, {**diagnostics, "tail": tail, "rows": len(rows), **extra, "note": FINITE_HORIZON_NOTE})

    def write_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, map(astuple, self.rows))

    def to_obj(self) -> dict:
        return {"rows": [asdict(r) for r in self.rows], "summary": self.summary}

    def write_json(self, path) -> None:
        write_json(path, self.to_obj())


def write_csv(path, header, rows) -> None:
    """CSV with a header line; floats get 15 significant digits (nan, inf and -inf as words)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(x, ".15g") if isinstance(x, float) else x for x in row] for row in rows)


def write_json(path, obj) -> None:
    """``obj`` as JSON indented by 2, with a final newline; non-finite floats as NaN/Infinity."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def corollary(rows, tail: int = DEFAULT_TAIL, tolerance: float = DEFAULT_DIAGNOSTIC_TOL) -> dict:
    """Vanishing-product corollary of report rows: once q_n * delta_n stays below ``tolerance``
    over the last ``tail`` rows, the raw measure of the last step is trusted as the estimate."""
    if not rows:
        raise ValueError("need at least one step")
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    products = [row.q_times_delta for row in rows[-tail:]]
    flag = all(p < tolerance for p in products)
    last_raw = rows[-1].mu_raw
    return {"flag": flag, "products_tail": products, "estimate": last_raw if flag and math.isfinite(last_raw) else None}


@dataclass(frozen=True)
class _Steps:
    """A measure run's steps, step i made by ``build(items[i])`` when it is read and not kept."""
    build: Callable
    items: Sequence
    __len__ = lambda self: len(self.items)
    __getitem__ = lambda self, i: self.build(self.items[i])


def _run(steps, mu: Measure1D, tail: int, tail_tol: float, proxy: bool = False, **extra):
    """(report, fattened) of a measure run, the one loop of every measure pipeline.  Step n, ``steps[n - 1]``, is
    (set or None, delta, q, r, cover or None): row n holds mu of the set (mu_raw, NaN where there is none) and of
    cover(delta), or with no cover of the set fattened by delta (mu_fattened); fattened[n - 1] is mu of the fattened
    set (None with no set).  With ``proxy`` each delta is the Hausdorff distance of the set to the finest, the last
    step's, the one set kept past its row.  ``steps`` is read by index, each step once, the last first, so that its
    build, the largest, is the run's size check; every other step is gone before the next is read."""
    if not len(steps):
        raise ValueError("need at least one step")
    finest = None

    def row(n):
        nonlocal finest
        a, delta, q, r, cover = steps[n - 1]
        if proxy:
            finest = a if finest is None else finest
            delta = hausdorff_distance(a, finest)
        fattened = None if a is None else measure(mu, fatten(a, delta))
        mu_raw = math.nan if a is None else measure(mu, a)
        mu_cover = fattened if cover is None else measure(mu, cover(delta))
        return ReportRow(n, delta, q, r, mu_raw, mu_cover, q * delta), fattened
    last = row(len(steps))
    rows, fattened = zip(*map(row, range(1, len(steps))), last)  # map keeps no step between calls
    return ConvergenceReport.build(rows, tail, tail_tol, **extra), list(fattened)


def fattened_measure_sequence(
    records, mu: Measure1D, tail: int = DEFAULT_TAIL, tail_tol: float = DEFAULT_TAIL_TOL
) -> ConvergenceReport:
    """Raw and fattened measures along a sequence of approximation records.

    Each set is fattened by its own declared delta before measuring.  The
    summary declares convergence when the last ``tail`` fattened values vary
    by less than ``tail_tol`` and reports the final fattened value as the
    estimate.  ``records`` is read by index, so it needs ``len()`` and
    indexing (a list or a tuple; a generator raises TypeError): each record
    is read once, the last first, and dropped with its row.
    """
    return _run(_Steps(lambda rec: (rec.set, rec.delta, rec.q, rec.r, None), records), mu, tail, tail_tol)[0]


@dataclass(frozen=True)
class SemicontinuityReport:
    mu_limit: float
    tail_measures: tuple[float, ...]
    tail_max: float
    passed: bool


def semicontinuity_check(
    sets, limit: IntervalSet, mu: Measure1D, tolerance: float = DEFAULT_DIAGNOSTIC_TOL
) -> SemicontinuityReport:
    """Check mu(limit) >= (tail max of raw measures) - tolerance.

    Upper semicontinuity of measure along Hausdorff-convergent sequences
    bounds limsup mu(A_n) by mu(limit); the tail max over the last
    DEFAULT_TAIL raw measures is the finite-data stand-in for the limsup.
    """
    values = [measure(mu, a) for a in sets]
    if not values:
        raise ValueError("need at least one set")
    window = tuple(values[-DEFAULT_TAIL:])
    tail_max = max(window)
    mu_limit = measure(mu, limit)
    return SemicontinuityReport(
        mu_limit=mu_limit,
        tail_measures=window,
        tail_max=tail_max,
        passed=mu_limit >= tail_max - tolerance,
    )
