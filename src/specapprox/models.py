"""Generators for the standard approximation families.

Continued-fraction convergents, the model potentials (free, almost-Mathieu,
Fibonacci substitution), and two synthetic set sequences (middle-thirds
Cantor approximants, uniform grids on the unit interval) used to exercise
the convergence and dimension machinery on cases with known answers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .convergence import ApproximationRecord
from .floquet import PeriodicPotential, check_fiber_stack
from .intervals import IntervalSet, PointSet, normalize, point_set


def convergents(cf_terms, count: int) -> list[Fraction]:
    """First ``count`` convergents of the continued fraction [a0; a1, a2, ...].

    ``cf_terms`` lists the partial quotients, leading term a0 >= 0 and the
    rest positive.  For numbers in [0, 1) (a0 = 0) the trivial convergent
    0/1 is omitted, so the golden-mean terms [0, 1, 1, 1, ...] yield
    1/1, 1/2, 2/3, 3/5, ...
    """
    terms = [int(t) for t in cf_terms]
    if not terms:
        raise ValueError("need at least one partial quotient")
    if terms[0] < 0 or any(t < 1 for t in terms[1:]):
        raise ValueError("partial quotients must be positive (leading term may be 0)")
    if count < 1:
        raise ValueError("count must be positive")
    skip_trivial = terms[0] == 0
    needed = count + 1 if skip_trivial else count
    if len(terms) < needed:
        raise ValueError(f"need {needed} partial quotients for {count} convergents, have {len(terms)}")
    p_prev, p = 1, terms[0]
    q_prev, q = 0, 1
    out = [Fraction(p, q)]
    for a in terms[1:needed]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append(Fraction(p, q))
    if skip_trivial:
        out = out[1:]
    return out


def free_potential(dim: int, periods) -> PeriodicPotential:
    """Zero potential with the declared periodicity; bands are explicit."""
    if dim not in (1, 2):  # before the cell, which is as large as the periods say
        raise ValueError(f"dimension must be 1 or 2, got {dim}")
    if isinstance(periods, int):
        periods = (periods,)
    periods = tuple(int(p) for p in periods)
    q = math.prod(periods)
    check_fiber_stack(q)  # before the cell: any solve of it needs at least one real q x q fiber
    return PeriodicPotential(dim=dim, periods=periods, cell=(0.0,) * q)


def almost_mathieu(coupling: float, frequency, offset: float = 0.0) -> PeriodicPotential:
    """Cosine potential 2 * coupling * cos(2*pi*(n*p/q + offset)) on Z.

    ``frequency`` is a Fraction or (p, q) pair; the reduced denominator is
    the period.  Rational frequencies make the operator periodic, so the
    spectra of convergent frequencies approximate the quasiperiodic one.
    """
    if not isinstance(frequency, Fraction):
        p, q = frequency
        frequency = Fraction(int(p), int(q))
    q = frequency.denominator
    cell = tuple(
        2.0 * coupling * math.cos(2.0 * math.pi * (n * frequency.numerator / q + offset))
        for n in range(q)
    )
    return PeriodicPotential(dim=1, periods=(q,), cell=cell)


def fibonacci_word(level: int) -> str:
    """Substitution a -> ab, b -> a, starting from "a" at level 1."""
    if level < 1:
        raise ValueError("level must be >= 1")
    word = "a"
    for _ in range(level - 1):
        word = "".join("ab" if c == "a" else "a" for c in word)
    return word


def fibonacci_potential(level: int, coupling: float) -> PeriodicPotential:
    """Periodized Fibonacci substitution word, a -> coupling, b -> 0."""
    word = fibonacci_word(level)
    cell = tuple(coupling if c == "a" else 0.0 for c in word)
    return PeriodicPotential(dim=1, periods=(len(word),), cell=cell)


def cantor_approximation(level: int) -> ApproximationRecord:
    """Level-``level`` middle-thirds cover: 2^level intervals of length 3^-level.

    The declared distance bound is the conservative 3^-level (the true
    Hausdorff distance to the limit set is 3^-(level+1) / 2).
    """
    if not 0 <= level <= 40:
        raise ValueError("level must lie in [0, 40]")
    lows, highs = np.zeros(1), np.ones(1)
    for _ in range(level):
        # each [lo, hi] is replaced, in place, by [lo, lo + w] and [hi - w, hi]
        w = (highs - lows) / 3.0
        lows, highs = np.column_stack((lows, highs - w)).ravel(), np.column_stack((lows + w, highs)).ravel()
    scale = 3.0 ** (-level)
    s = IntervalSet.from_arrays(lows, highs)
    return ApproximationRecord(set=s, delta=scale, q=len(s), r=scale)


def grid_approximation(n: int, solid_to: float | None = None) -> ApproximationRecord:
    """Uniform grid {j/n : 0 <= j <= n} with distance bound 1/(2n) to [0, 1].

    With ``solid_to`` = alpha in (0, 1], the segment [0, alpha] is welded on,
    giving a sequence whose raw Lebesgue measure stays at alpha while the
    fattened one still converges to 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = [j / n for j in range(n + 1)]
    delta = 1.0 / (2.0 * n)
    if solid_to is None:
        a: PointSet | IntervalSet = point_set(pts)
    else:
        alpha = float(solid_to)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("solid_to must lie in (0, 1]")
        raw = [(0.0, alpha)] + [(x, x) for x in pts if x > alpha]
        a = normalize(raw)
    return ApproximationRecord.from_set(a, delta)
