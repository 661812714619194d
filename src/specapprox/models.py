"""Generators for the standard approximation families.

Continued-fraction convergents, the model potentials (free, almost-Mathieu,
Fibonacci substitution), and two synthetic set sequences (middle-thirds
Cantor approximants, uniform grids on the unit interval) used to exercise
the convergence and dimension machinery on cases with known answers.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, Context, Decimal, localcontext
from fractions import Fraction

import numpy as np

from .convergence import ApproximationRecord
from .floquet import PeriodicPotential, check_bytes, check_fiber_stack
from .intervals import _FLOAT_MAX, IntervalSet, PointSet, interval_union

# The sizes of deep levels overflow floats and the default decimal context; this one holds them.
_SIZES = Context(Emax=MAX_EMAX, traps=[])


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
    check_fiber_stack(q, banded=dim == 1)  # before the cell: any solve of it needs at least one real fiber
    return PeriodicPotential(dim=dim, periods=periods, cell=np.zeros(q))


def almost_mathieu(coupling: float, frequency, offset: float = 0.0) -> PeriodicPotential:
    """Cosine potential 2 * coupling * cos(2*pi*(n*p/q + offset)) on Z.

    ``frequency`` is a Fraction or (p, q) pair; the reduced denominator is
    the period.  Rational frequencies make the operator periodic, so the
    spectra of convergent frequencies approximate the quasiperiodic one.
    A frequency whose phase n * p / q overflows a float at some site is refused.
    """
    if not isinstance(frequency, Fraction):
        p, q = frequency
        if int(q) == 0:
            raise ValueError("frequency denominator must be nonzero")
        frequency = Fraction(int(p), int(q))
    q = frequency.denominator
    if abs(frequency.numerator) * (q - 1) > int(_FLOAT_MAX) * q:  # true division would overflow
        raise ValueError(f"frequency numerator is too large: n * p / q overflows a float at site n = {q - 1}")
    check_fiber_stack(q, banded=True)  # before the cell, as in free_potential
    cell = np.fromiter(
        (2.0 * coupling * math.cos(2.0 * math.pi * (n * frequency.numerator / q + offset)) for n in range(q)),
        dtype=float,
        count=q,
    )
    return PeriodicPotential(dim=1, periods=(q,), cell=cell)


def _word_length(level: int) -> Decimal:
    """F_{level+1}, the length of the level-``level`` Fibonacci word by Binet's formula, in _SIZES."""
    root5 = Decimal(5).sqrt()
    return (((1 + root5) / 2) ** (level + 1) / root5).to_integral_value()


def fibonacci_potential(level: int, coupling: float) -> PeriodicPotential:
    """Periodized Fibonacci substitution word, a -> coupling, b -> 0.

    The level-n word w_n = w_{n-1} w_{n-2} (w_1 = a, w_2 = ab) has F_{n+1}
    letters, about golden^(n+1) / sqrt(5); a level whose banded fiber would
    not fit in memory is refused before its cell is allocated.  The cell is
    filled in place: w_{n-2} is a prefix of w_{n-1}, so each level appends a
    copy of a prefix of what is already there.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    with localcontext(_SIZES):
        letters = _word_length(level)
        check_fiber_stack(letters, banded=True)
    q = int(letters)
    cell = np.empty(q)
    cell[:2] = (coupling, 0.0)[:q]
    done, prev = 2, 1
    while done < q:
        cell[done : done + prev] = cell[:prev]
        done, prev = done + prev, done
    return PeriodicPotential(dim=1, periods=(q,), cell=cell)


def cantor_approximation(level: int) -> ApproximationRecord:
    """Level-``level`` middle-thirds cover: 2^level intervals of length 3^-level.

    The declared distance bound is the conservative 3^-level (the true
    Hausdorff distance to the limit set is 3^-(level+1) / 2).
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    with localcontext(_SIZES):  # the last split holds both levels' lows and highs: about 40 bytes per interval
        check_bytes(40 * Decimal(2) ** level, f"the 2^{level} intervals of middle-thirds level {level}")
    lows, highs = np.zeros(1), np.ones(1)
    for _ in range(level):
        # each [lo, hi] is replaced, in place, by [lo, lo + w] and [hi - w, hi]
        w = (highs - lows) / 3.0
        lows, highs = np.column_stack((lows, highs - w)).ravel(), np.column_stack((lows + w, highs)).ravel()
    scale = 3.0 ** (-level)
    s = IntervalSet(lows, highs)
    return ApproximationRecord(set=s, delta=scale, q=len(s), r=scale)


def grid_approximation(n: int, solid_to: float | None = None) -> ApproximationRecord:
    """Uniform grid {j/n : 0 <= j <= n} with distance bound 1/(2n) to [0, 1].

    With ``solid_to`` = alpha in (0, 1], the segment [0, alpha] is welded on,
    giving a sequence whose raw Lebesgue measure stays at alpha while the
    fattened one still converges to 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _FLOAT_MAX:  # alpha * n would overflow
        raise ValueError(f"grid level must lie in the float range, got {Decimal(n):.3e}")
    alpha = None if solid_to is None else float(solid_to)
    if alpha is not None and not 0.0 < alpha <= 1.0:
        raise ValueError("solid_to must lie in (0, 1]")
    # measured peaks: 19 bytes per point for the grid, its point set and the set's checks, or 17 per
    # point plus 58 per point j/n > alpha welded on, whose intervals are merged
    above = 0 if alpha is None else n - math.floor(alpha * n)
    check_bytes(24 * (n + 1) + 64 * above, f"the {n + 1} points of grid level {n}")
    delta = 1.0 / (2.0 * n)
    if alpha is None:
        return ApproximationRecord.from_set(PointSet(np.arange(n + 1) / n), delta)
    pts = np.arange(n + 1) / n
    welded = pts[pts > alpha]
    return ApproximationRecord.from_set(interval_union(np.append(0.0, welded), np.append(alpha, welded)), delta)
