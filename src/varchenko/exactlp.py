"""Exact rational linear algebra and strict-inequality feasibility.

Everything runs over `fractions.Fraction`; no floating point.  Feasibility
of a sign pattern reduces to a system of equalities (entries on a
hyperplane) plus strict inequalities (entries off it), decided by Gaussian
elimination followed by Fourier-Motzkin elimination with strictness
tracking.  Elimination keeps its stages, so a feasible system also yields
an explicit rational point by back-substitution (`strict_point`).
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]
# a strict constraint (a, b) means a . x > b; an equality (a, b) means a . x = b
Constraint = tuple[Vector, Fraction]


def _normalize_int(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[tuple[int, ...], int]:
    """Scale a constraint by a positive rational so all entries are coprime ints."""
    denom = 1
    for c in list(coeffs) + [rhs]:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    r = int(rhs * denom)
    g = 0
    for v in ints + [r]:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
        r //= g
    return tuple(ints), r


class LinearSystem:
    """Row-echelon view of a rational equality system a . x = b."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.rows: list[tuple[list[Fraction], Fraction]] = []
        self.pivot_cols: list[int] = []
        self.consistent = True

    def add(self, coeffs: Sequence[Fraction], rhs: Fraction) -> None:
        row = [Fraction(c) for c in coeffs]
        b = Fraction(rhs)
        for (prow, pb), col in zip(self.rows, self.pivot_cols):
            if row[col]:
                f = row[col]
                row = [r - f * p for r, p in zip(row, prow)]
                b -= f * pb
        col = next((j for j, c in enumerate(row) if c), None)
        if col is None:
            if b:
                self.consistent = False
            return
        f = row[col]
        row = [c / f for c in row]
        b /= f
        self.rows.append((row, b))
        self.pivot_cols.append(col)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _back_substituted(self) -> list[tuple[list[Fraction], Fraction]]:
        rows = [(list(r), b) for r, b in self.rows]
        for i in reversed(range(len(rows))):
            col = self.pivot_cols[i]
            for j in range(i):
                f = rows[j][0][col]
                if f:
                    rows[j] = (
                        [a - f * b for a, b in zip(rows[j][0], rows[i][0])],
                        rows[j][1] - f * rows[i][1],
                    )
        return rows

    def particular_solution(self) -> Optional[list[Fraction]]:
        if not self.consistent:
            return None
        x = [Fraction(0)] * self.nvars
        for (row, b), col in zip(self._back_substituted(), self.pivot_cols):
            x[col] = b
        return x

    def nullspace_basis(self) -> list[list[Fraction]]:
        rows = self._back_substituted()
        pivots = set(self.pivot_cols)
        free = [j for j in range(self.nvars) if j not in pivots]
        basis = []
        for f in free:
            vec = [Fraction(0)] * self.nvars
            vec[f] = Fraction(1)
            for (row, _), col in zip(rows, self.pivot_cols):
                vec[col] = -row[f]
            basis.append(vec)
        return basis


def solve_equalities(
    eqs: Sequence[Constraint], nvars: int
) -> Optional[tuple[list[Fraction], list[list[Fraction]]]]:
    """Particular solution and nullspace basis, or None if inconsistent."""
    sys = LinearSystem(nvars)
    for a, b in eqs:
        sys.add(a, b)
    if not sys.consistent:
        return None
    return sys.particular_solution(), sys.nullspace_basis()


def _dot(a: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    return sum(ai * xi for ai, xi in zip(a, x) if ai)


def strict_point(
    origin: Sequence[Fraction],
    basis: Sequence[Sequence[Fraction]],
    stricts: Sequence[Constraint],
) -> Optional[list[Fraction]]:
    """A point x = origin + sum_j y_j basis_j with a . x > b for every strict
    constraint (a, b), or None if the flat spanned that way has none."""
    reduced: set[tuple[tuple[int, ...], int]] = set()
    for a, b in stricts:
        coeffs = [_dot(a, d) for d in basis]
        rhs = b - _dot(a, origin)
        if not any(coeffs):
            if rhs >= 0:
                return None
            continue
        reduced.add(_normalize_int(coeffs, rhs))
    y = _fourier_motzkin(reduced, len(basis))
    if y is None:
        return None
    point = list(origin)
    for yj, d in zip(y, basis):
        if yj:
            point = [p + yj * c for p, c in zip(point, d)]
    return point


def feasible_strict(
    eqs: Sequence[Constraint],
    stricts: Sequence[Constraint],
    nvars: int,
    require_nonzero: bool = False,
) -> bool:
    """Decide whether some x satisfies all equalities and strict inequalities.

    With `require_nonzero` and no strict constraints, additionally demand a
    nonzero solution (used for sign patterns that lie on every sphere of a
    central arrangement).
    """
    solved = solve_equalities(eqs, nvars)
    if solved is None:
        return False
    particular, basis = solved
    if require_nonzero and not stricts:
        return any(particular) or bool(basis)
    return strict_point(particular, basis, stricts) is not None


def _fourier_motzkin(
    constraints: set[tuple[tuple[int, ...], int]], nvars: int
) -> Optional[list[Fraction]]:
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
                keep.add(_normalize_int(coeffs, rhs))
        live = keep
    if any(b >= 0 for _, b in live):
        return None
    y = [Fraction(0)] * nvars
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


def _inside(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    """A number strictly between lo and hi (None: unbounded), an integer
    when one fits, to keep witness points small."""
    if lo is None:
        return Fraction(0 if hi is None or hi > 0 else floor(hi) - 1)
    k = Fraction(floor(lo) + 1)
    if hi is None or k < hi:
        return k
    return (lo + hi) / 2
