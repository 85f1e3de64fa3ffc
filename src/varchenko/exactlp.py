"""Fourier-Motzkin feasibility with back-substitution, over the integers.

A point strictly inside a set of strict inequalities on a flat (given by
an origin and a basis) is found by Fourier-Motzkin elimination with
strictness tracking; elimination keeps its stages, so a feasible system
also yields an explicit rational point by back-substitution
(`integer_strict_point`).  Constraints, bases and points are integers: a
point x is held as (P, D), an integer vector and a positive denominator
with x = P / D in lowest terms.  Only the back-substitution works in
`fractions.Fraction`; no floating point is involved.  The rational
interface (`strict_point`) with its constraint types (`Vector`,
`Constraint`), the Gaussian equality solver (`LinearSystem`,
`solve_equalities`) and the sign-pattern test built on them
(`feasible_strict`) are test references in tests/reference.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, lcm
from operator import mul
from typing import Optional, Sequence

# x = P / D with D > 0 and gcd(P..., D) = 1
Point = tuple[tuple[int, ...], int]


def _primitive(coeffs: Sequence[int], rhs: int) -> tuple[tuple[int, ...], int]:
    """An integer constraint divided by the gcd of its entries."""
    g = gcd(*coeffs, rhs)
    if g > 1:
        return tuple(v // g for v in coeffs), rhs // g
    return tuple(coeffs), rhs


def _normalize_int(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[tuple[int, ...], int]:
    """Scale a constraint by a positive rational so all entries are coprime ints."""
    denom = 1
    for c in list(coeffs) + [rhs]:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return _primitive([int(c * denom) for c in coeffs], int(rhs * denom))


def _dot(a: Sequence, x: Sequence):
    return sum(map(mul, a, x))


def _lowest(p: Sequence[int], den: int) -> Point:
    """The point p / den (den != 0) as (P, D) in lowest terms, D > 0."""
    if den < 0:
        p, den = [-v for v in p], -den
    return _primitive(p, den)


def integer_strict_point(
    origin: Point,
    basis: Sequence[Sequence[int]],
    stricts: Sequence[tuple[tuple[int, ...], int]],
) -> Optional[Point]:
    """A point x = origin + sum_j y_j basis_j with a . x > b for every strict
    constraint (a, b), or None if the flat spanned that way has none.  The
    origin itself when it satisfies them all, with no elimination."""
    p, den = origin
    reduced: set[tuple[tuple[int, ...], int]] = set()
    inside = True
    for a, b in stricts:
        # a . (p + den * sum_j y_j d_j) > b * den
        coeffs = [den * _dot(a, d) for d in basis]
        rhs = b * den - _dot(a, p)
        inside = inside and rhs < 0
        if not any(coeffs):
            if rhs >= 0:
                return None
            continue
        reduced.add(_primitive(coeffs, rhs))
    if inside:
        return origin
    y = _fourier_motzkin(reduced, len(basis))
    if y is None:
        return None
    scale = lcm(*(yj.denominator for yj in y))
    point = [scale * v for v in p]
    for yj, d in zip(y, basis):
        if yj:
            step = yj.numerator * (scale // yj.denominator) * den
            point = [v + step * c for v, c in zip(point, d)]
    return _lowest(point, scale * den)


def _fourier_motzkin(
    constraints: set[tuple[tuple[int, ...], int]], nvars: int
) -> Optional[list[Fraction | int]]:
    """A point y with a . y > b for every constraint (a, b), or None.

    Eliminates one variable at a time, keeping each stage's constraints,
    then sets the variables in reverse order of elimination: with the later
    ones fixed, a variable's stage bounds it strictly from below and above,
    and elimination guarantees the bounds leave an open interval.
    """
    live = set(constraints)
    remaining = list(range(nvars))
    stages: list[tuple[int, set[tuple[tuple[int, ...], int]]]] = []
    while remaining:
        # eliminate the variable with the fewest pos*neg combinations
        best_v, best_cost = None, None
        for v in remaining:
            npos = sum(1 for a, _ in live if a[v] > 0)
            nneg = sum(1 for a, _ in live if a[v] < 0)
            cost = npos * nneg
            if best_cost is None or cost < best_cost:
                best_v, best_cost = v, cost
        v = best_v
        remaining.remove(v)
        stages.append((v, live))
        pos = [(a, b) for a, b in live if a[v] > 0]
        neg = [(a, b) for a, b in live if a[v] < 0]
        keep = {(a, b) for a, b in live if a[v] == 0}
        for ap, bp in pos:
            for an, bn in neg:
                s, t = -an[v], ap[v]
                coeffs = tuple(s * p + t * q for p, q in zip(ap, an))
                rhs = s * bp + t * bn
                if not any(coeffs):
                    if rhs >= 0:
                        return None
                    continue
                keep.add(_primitive(coeffs, rhs))
        live = keep
    if any(b >= 0 for _, b in live):
        return None
    y: list[Fraction | int] = [0] * nvars
    for v, stage in reversed(stages):
        lo = hi = None
        for a, b in stage:
            av = a[v]
            if not av:
                continue
            # y[v] is still 0, so the sum is over the variables set so far
            bound = Fraction(b - _dot(a, y), av)
            if av > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
        y[v] = _inside(lo, hi)
    return y


def _inside(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction | int:
    """A number strictly between lo and hi (None: unbounded), an int when
    one fits, to keep witness points small."""
    if lo is None:
        return 0 if hi is None or hi > 0 else floor(hi) - 1
    k = floor(lo) + 1
    if hi is None or k < hi:
        return k
    return (lo + hi) / 2
