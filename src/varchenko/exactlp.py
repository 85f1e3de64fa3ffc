"""Exact rational linear algebra and strict-inequality feasibility.

Everything runs over `fractions.Fraction`; no floating point.  Feasibility
of a sign pattern reduces to a system of equalities (entries on a
hyperplane) plus strict inequalities (entries off it), decided by Gaussian
elimination followed by Fourier-Motzkin elimination with strictness
tracking.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
    if not stricts:
        if require_nonzero:
            if any(particular):
                return True
            return bool(basis)
        return True

    # rewrite strict constraints in the nullspace coordinates:
    # x = particular + sum_j y_j basis_j
    m = len(basis)
    reduced: set[tuple[tuple[int, ...], int]] = set()
    for a, b in stricts:
        coeffs = [
            sum(ai * bj for ai, bj in zip(a, bvec)) for bvec in basis
        ]
        rhs = Fraction(b) - sum(ai * pi for ai, pi in zip(a, particular))
        if not any(coeffs):
            if rhs >= 0:
                return False
            continue
        reduced.add(_normalize_int(coeffs, rhs))
    return _fourier_motzkin(reduced, m)


def _fourier_motzkin(constraints: set[tuple[tuple[int, ...], int]], nvars: int) -> bool:
    """All constraints are strict: a . y > b with integer entries."""
    live = set(constraints)
    remaining = list(range(nvars))
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
        pos = [(a, b) for a, b in live if a[v] > 0]
        neg = [(a, b) for a, b in live if a[v] < 0]
        keep = {(a, b) for a, b in live if a[v] == 0}
        for ap, bp in pos:
            for an, bn in neg:
                s, t = -an[v], ap[v]
                coeffs = tuple(
                    Fraction(s * p + t * q) for p, q in zip(ap, an)
                )
                rhs = Fraction(s * bp + t * bn)
                if not any(coeffs):
                    if rhs >= 0:
                        return False
                    continue
                keep.add(_normalize_int(coeffs, rhs))
        live = keep
    return all(b < 0 for a, b in live)
