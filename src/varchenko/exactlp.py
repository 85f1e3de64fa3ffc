"""Exact integer helpers for the face enumeration in `geometry`.

Constraints, bases and points are integers: a constraint or a direction
is scaled to coprime integer entries (`_primitive`, `_normalize_int`), and
a point x is held as (P, D), an integer vector and a positive denominator
with x = P / D in lowest terms (`Point`, `_lowest`).  No floating point is
involved.  The Fourier-Motzkin point search, the Gaussian equality solver
and the sign-pattern test built on them are test references in
tests/reference.py, independent of the enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

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
