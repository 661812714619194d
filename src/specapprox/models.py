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


def check_free(dim: int, periods) -> tuple[int, ...]:
    """The periods of a free potential as a tuple of ints, or ValueError if its cell could not be solved.

    ``periods`` may hold Decimals, such as sizes in _SIZES, which are sized before any is made an int.
    """
    if dim not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dim}")
    periods = (periods,) if isinstance(periods, int) else tuple(periods)
    check_fiber_stack(math.prod(periods), banded=dim == 1)  # any solve of the cell needs at least one real fiber
    return tuple(int(p) for p in periods)


def free_periods(dim: int, base: int, n: int) -> list[int]:
    """[base^n] * dim, the periods of step n of a free measure run, or ValueError if its cell could not be
    solved; sized in _SIZES first, since at an n whose cell no memory holds base^n is itself slow to compute."""
    with localcontext(_SIZES):
        check_free(dim, [Decimal(base) ** n] * dim)
    return [base**n] * dim


def free_potential(dim: int, periods) -> PeriodicPotential:
    """Zero potential with the declared periodicity; bands are explicit."""
    periods = check_free(dim, periods)
    return PeriodicPotential(dim=dim, periods=periods, cell=np.zeros(math.prod(periods)))


def check_almost_mathieu(frequency) -> Fraction:
    """An almost-Mathieu frequency as a Fraction, or ValueError if its cell could not be solved."""
    if not isinstance(frequency, Fraction):
        p, q = frequency
        if int(q) == 0:
            raise ValueError("frequency denominator must be nonzero")
        frequency = Fraction(int(p), int(q))
    check_fiber_stack(frequency.denominator, banded=True)
    return frequency


def almost_mathieu(coupling: float, frequency, offset: float = 0.0) -> PeriodicPotential:
    """Cosine potential 2 * coupling * cos(2*pi*(n*p/q + offset)) on Z.

    ``frequency`` is a Fraction or (p, q) pair; the reduced denominator is
    the period.  Rational frequencies make the operator periodic, so the
    spectra of convergent frequencies approximate the quasiperiodic one.
    The numerator is reduced mod q before the float phase n * (p mod q) / q,
    so frequencies equal mod 1 give the same cell bit for bit, at any size.
    """
    frequency = check_almost_mathieu(frequency)
    q = frequency.denominator
    p = frequency.numerator % q
    cell = np.fromiter(
        (2.0 * coupling * math.cos(2.0 * math.pi * (n * p / q + offset)) for n in range(q)),
        dtype=float,
        count=q,
    )
    return PeriodicPotential(dim=1, periods=(q,), cell=cell)


def _word_length(level: int) -> Decimal:
    """F_{level+1}, the length of the level-``level`` Fibonacci word by Binet's formula, in _SIZES."""
    root5 = Decimal(5).sqrt()
    return (((1 + root5) / 2) ** (level + 1) / root5).to_integral_value()


def check_fibonacci(level: int) -> int:
    """F_{level+1}, the sites of a Fibonacci level, or ValueError if its banded fiber would not fit."""
    if level < 1:
        raise ValueError("level must be >= 1")
    with localcontext(_SIZES):
        letters = _word_length(level)
        check_fiber_stack(letters, banded=True)
    return int(letters)


def fibonacci_potential(level: int, coupling: float) -> PeriodicPotential:
    """Periodized Fibonacci substitution word, a -> coupling, b -> 0.

    The level-n word w_n = w_{n-1} w_{n-2} (w_1 = a, w_2 = ab) has F_{n+1}
    letters, about golden^(n+1) / sqrt(5); a level whose banded fiber would
    not fit in memory is refused before its cell is allocated.  The cell is
    filled in place: w_{n-2} is a prefix of w_{n-1}, so each level appends a
    copy of a prefix of what is already there.
    """
    q = check_fibonacci(level)
    cell = np.empty(q)
    cell[:2] = (coupling, 0.0)[:q]
    done, prev = 2, 1
    while done < q:
        cell[done : done + prev] = cell[:prev]
        done, prev = done + prev, done
    return PeriodicPotential(dim=1, periods=(q,), cell=cell)


def check_cantor(level: int) -> None:
    """ValueError unless ``level`` >= 0 and a measure run up to it fits in memory."""
    if level < 0:
        raise ValueError("level must be >= 0")
    with localcontext(_SIZES):  # a measure run's peak, at its last level: measured 42 bytes per interval
        check_bytes(48 * Decimal(2) ** level, f"the 2^{level} intervals of middle-thirds level {level}")


def cantor_approximation(level: int) -> ApproximationRecord:
    """Level-``level`` middle-thirds cover: 2^level intervals of length 3^-level.

    The declared distance bound is the conservative 3^-level (the true
    Hausdorff distance to the limit set is 3^-(level+1) / 2).
    """
    check_cantor(level)
    # the intervals of level k sit at every 2^(level - k)-th index of the final arrays: [lo, hi] is
    # split, in place, into [lo, lo + w] at its own index and [hi - w, hi] halfway to the next one
    lows, highs = np.empty(2**level), np.empty(2**level)
    lows[0], highs[0] = 0.0, 1.0
    for k in range(level, 0, -1):
        step, half = 2**k, 2 ** (k - 1)
        lo, hi, new_lo, new_hi = lows[::step], highs[::step], lows[half::step], highs[half::step]
        new_hi[:] = hi
        w = np.divide(np.subtract(hi, lo, out=new_lo), 3.0, out=new_lo)  # (hi - lo) / 3, held in new_lo
        np.add(lo, w, out=hi)
        np.subtract(new_hi, w, out=new_lo)
    scale = 3.0 ** (-level)
    s = IntervalSet.__new__(IntervalSet)._checked(lows, highs)  # the set's checks, without its constructor's copy
    return ApproximationRecord(set=s, delta=scale, q=len(s), r=scale)


def check_grid(n: int, solid_to: float | None = None) -> None:
    """ValueError unless ``n`` >= 1 lies in the float range, ``solid_to`` in (0, 1], and a measure run up to
    level n fits in memory."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _FLOAT_MAX:  # alpha * n would overflow
        raise ValueError(f"grid level must lie in the float range, got {Decimal(n):.3e}")
    if solid_to is not None and not 0.0 < float(solid_to) <= 1.0:
        raise ValueError("solid_to must lie in (0, 1]")
    # a measure run's peak, at its last level, measured: 42 bytes per point; with alpha, the larger of
    # 17 per point (the builder's) and 8 per point plus 42 per point j/n > alpha welded on
    above = 0 if solid_to is None else n - math.floor(float(solid_to) * n)
    check_bytes((48 if solid_to is None else 24) * (n + 1) + 48 * above, f"the {n + 1} points of grid level {n}")


def grid_approximation(n: int, solid_to: float | None = None) -> ApproximationRecord:
    """Uniform grid {j/n : 0 <= j <= n} with distance bound 1/(2n) to [0, 1].

    With ``solid_to`` = alpha in (0, 1], the segment [0, alpha] is welded on,
    giving a sequence whose raw Lebesgue measure stays at alpha while the
    fattened one still converges to 1.
    """
    check_grid(n, solid_to)
    delta = 1.0 / (2.0 * n)
    if solid_to is None:
        return ApproximationRecord.from_set(PointSet(np.arange(n + 1) / n), delta)
    alpha = float(solid_to)
    pts = np.arange(n + 1) / n
    welded = pts[pts > alpha]
    return ApproximationRecord.from_set(interval_union(np.append(0.0, welded), np.append(alpha, welded)), delta)
