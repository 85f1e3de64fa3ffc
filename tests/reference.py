"""Reference implementations the tests compare the runtime against.

* `_certificate_checks` proves P V P^T = D from a built V by products of
  packed monomial keys; `diagonalize` proves the same from the faces the
  steps complete (`_face_cube_checks`) and builds no V.
* `replay_elimination` folds `pivot_step` over the region ordering and
  checks the paper's closed forms after every step; `diagonalize` writes
  the resulting P in closed form.
* `LinearSystem`, `solve_equalities` and `feasible_strict` solve rational
  equality systems by Gaussian elimination and decide sign patterns with
  them, through `strict_point`, a point search by Fourier-Motzkin
  elimination with back-substitution (`_fourier_motzkin`) from a rational
  origin along integer directions.  The enumeration in `geometry` solves no LP: it
  recurses over the flats and reads each hyperplane's cut of a face off
  the regions of the flat below, so this search is independent of it.
* `int_det` is the Bareiss determinant of an integer grid, and
  `fraction_rank` the rank by `Fraction` Gaussian elimination, which
  `int_rank` reads off the Smith form instead.
* `bareiss_det` is the Bareiss determinant of a polynomial matrix, with
  exact division by the previous pivot; `det_bruteforce` expands by minors
  memoised over column subsets instead and divides nothing.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from math import floor, lcm
from operator import or_
from typing import Optional, Sequence

from varchenko.diagonalize import (
    SparseRow,
    _diagonal_entry,
    _ordering_det,
    ordering,
    pivot_step,
)
from varchenko.errors import ClosedFormViolation, InvalidInput, TooLarge
from varchenko.exactlp import _dot, _normalize_int, _primitive
from varchenko.geometry import Arrangement
from varchenko.matinvariants import _check_int_grid
from varchenko.polyring import (
    Monomial,
    Polynomial,
    _check_fields,
    exact_div,
    one_minus_square,
)
from varchenko.varmatrix import MAX_BRUTE_DET, LabeledMatrix, build_varchenko

Vector = tuple[Fraction, ...]
# a strict constraint (a, b) means a . x > b
Constraint = tuple[Vector, Fraction]


def _signed_key(entry: Polynomial, matrix: str, i: int, j: int) -> tuple[int, int]:
    """(packed key, sign) of entry (i, j), a monomial with coefficient +-1;
    (0, 0) for zero."""
    terms = entry.packed()
    if not terms:
        return 0, 0
    if len(terms) == 1:
        [(key, c)] = terms.items()
        if c == 1 or c == -1:
            return key, c
    raise ClosedFormViolation(
        f"{matrix} entry ({i},{j}) is {entry}, not a signed monomial"
    )


def _certificate_checks(
    v: LabeledMatrix,
    rows: list[SparseRow],
    perm: Sequence[int],
    diagonal: list[Polynomial],
) -> dict:
    """Prove P V Q = D, with Q = P^T, and det P = det Q = +-1.

    `_ordering_det` first proves P = L * Pi, L[i][n] = P[i][perm[n]] unit
    lower-triangular, so P V P^T = L W L^T with W = Pi V Pi^T and
    (L W)[i][n] = (P V)[i][perm[n]].  With L W upper triangular with
    diagonal D (`diagonal`, expanded), L W L^T is lower triangular with
    diagonal D; with V symmetric it is symmetric too, so it equals D.
    Entries of V and P must be monomials with coefficient +-1, or zero;
    each is read once as its packed key and sign, so a product is an int
    add, and every entry's keys are checked for an overflowed field.
    """
    det = _ordering_det(rows, perm)
    vs = [
        [_signed_key(e, "V", a, b) for b, e in enumerate(row)]
        for a, row in enumerate(v.rows)
    ]
    for a in range(v.size):
        for b in range(a):
            if vs[a][b] != vs[b][a]:
                raise ClosedFormViolation(f"V is not symmetric at ({a},{b})")
    for i, row in enumerate(rows):
        terms = [(a, *_signed_key(p, "transform", i, a)) for a, p in row.items()]
        for n in range(i + 1):
            b = perm[n]
            acc: dict[int, int] = {}
            for a, ka, sa in terms:
                kv, sv = vs[a][b]
                k = ka + kv
                acc[k] = acc.get(k, 0) + sa * sv
            _check_fields(reduce(or_, acc, 0))
            entry = {k: c for k, c in acc.items() if c}
            if entry != (diagonal[i].packed() if n == i else {}):
                raise ClosedFormViolation("P V Q does not equal the diagonal matrix")
    return {"pvq_equals_d": True, "det_p": det, "det_q": det}


def replay_elimination(arrangement: Arrangement) -> list[list[Polynomial]]:
    """Fold `pivot_step` over the ordering and return the row transform P.

    The reference for `diagonalize`'s closed-form P.  Step k subtracts
    (entry (m, k) / pivot) times row k of P from every other row m, and
    checks the paper's closed forms:

    * the pivot equals the product of (1 - x_a^2) over the defining set of
      the flat first encompassed at step k;
    * before the step, every entry of the pivot column is zero or the
      original monomial times the pivot (so the quotient is that monomial);
    * each remaining entry equals the original entry times the capped
      product of (1 - distance^2) over all completed steps;
    * all earlier rows and columns stay zero off the diagonal, and earlier
      pivots are unchanged.

    Any violation raises ClosedFormViolation.
    """
    order = ordering(arrangement)
    poset = arrangement.poset()
    perm = list(order.order)
    r = len(perm)
    regions = arrangement.regions()
    stepped = [regions[p] for p in perm]
    sep = [[a.separation_mask(b) for b in stepped] for a in stepped]
    work = build_varchenko(arrangement).permuted(perm)
    original = [row[:] for row in work.rows]
    P = [
        [Polynomial.one() if j == perm[i] else Polynomial.zero() for j in range(r)]
        for i in range(r)
    ]
    capped = [[Polynomial.one()] * r for _ in range(r)]
    factors: dict[int, Polynomial] = {}  # 1 - m^2 per separation mask
    pivots: list[Polynomial] = []
    for k, flat in enumerate(order.step_flats):
        factored = _diagonal_entry(poset.flats[flat])
        pivot = factored.expand()
        if work.rows[k][k] != pivot:
            raise ClosedFormViolation(
                f"step {k}: pivot {work.rows[k][k]} does not match the "
                f"predicted {factored}"
            )
        for m in range(r):
            entry = work.rows[m][k]
            if m == k or entry.is_zero():
                continue
            if entry != original[m][k] * pivot:
                raise ClosedFormViolation(
                    f"step {k}: pivot-column entry ({m},{k}) is neither zero "
                    f"nor the original monomial times the pivot"
                )
            P[m] = [pm - original[m][k] * pk for pm, pk in zip(P[m], P[k])]
        work = pivot_step(work, k)
        rows = work.rows
        for m in range(r):
            for n in range(max(m, k + 1), r):
                mask = sep[k][m] & sep[k][n]
                if mask not in factors:
                    factors[mask] = one_minus_square(
                        Monomial.from_mask(mask).variables()
                    )
                capped[m][n] = (capped[m][n] * factors[mask]).capped()
                expected = original[m][n] * capped[m][n]
                if rows[m][n] != expected or rows[n][m] != expected:
                    raise ClosedFormViolation(
                        f"step {k}: entry ({m},{n}) does not match the "
                        f"capped closed form"
                    )
        for m in range(k + 1):
            for n in range(m + 1, k + 1):
                if not rows[m][n].is_zero() or not rows[n][m].is_zero():
                    raise ClosedFormViolation(
                        f"step {k}: entry ({m},{n}) was not cleared"
                    )
        for m, prior in enumerate(pivots):
            if rows[m][m] != prior:
                raise ClosedFormViolation(f"step {k}: earlier pivot ({m},{m}) changed")
        pivots.append(pivot)
    return P


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


@lru_cache(maxsize=1024)
def _solved(eqs: tuple[Constraint, ...], nvars: int):
    """`solve_equalities` with each basis direction scaled by a positive
    rational to coprime integers, kept for the sign patterns that share
    their equalities (a scan over sign vectors asks for each set many
    times)."""
    solved = solve_equalities(eqs, nvars)
    if solved is None:
        return None
    particular, basis = solved
    return particular, [_normalize_int(d, Fraction(0))[0] for d in basis]


def strict_point(
    origin: Sequence[Fraction],
    basis: Sequence[Sequence[int]],
    stricts: Sequence[tuple[Sequence[int], int]],
) -> Optional[list[Fraction]]:
    """A point x = origin + sum_j y_j basis_j with a . x > b for every strict
    constraint (a, b), or None if the flat spanned that way has none.  The
    constraints and the basis directions are integers (`_normalize_int`
    scales rational ones), and the origin is rational."""
    # the origin as N / D, so that the reduction to the flat's coordinates
    # runs in integers
    den = lcm(*(Fraction(c).denominator for c in origin))
    num = [int(c * den) for c in origin]
    reduced: set[tuple[tuple[int, ...], int]] = set()
    for a, b in stricts:
        # a . (N / D + sum_j y_j d_j) > b, times D
        coeffs = [den * _dot(a, d) for d in basis]
        rhs = b * den - _dot(a, num)
        if not any(coeffs):
            if rhs >= 0:
                return None
            continue
        reduced.add(_primitive(coeffs, rhs))
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
    stricts: Sequence[tuple[Sequence[int], int]],
    nvars: int,
    require_nonzero: bool = False,
) -> bool:
    """Decide whether some x satisfies all equalities and strict inequalities
    (integer ones, as `strict_point` takes them).

    With `require_nonzero` and no strict constraints, additionally demand a
    nonzero solution (used for sign patterns that lie on every sphere of a
    central arrangement).
    """
    solved = _solved(tuple(eqs), nvars)
    if solved is None:
        return False
    particular, basis = solved
    if require_nonzero and not stricts:
        return any(particular) or bool(basis)
    return strict_point(particular, basis, stricts) is not None


def int_det(grid: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    rows = _check_int_grid(grid)
    n = len(rows)
    if n and len(rows[0]) != n:
        raise InvalidInput("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot_row = next(
                (i for i in range(k + 1, n) if rows[i][k] != 0), None
            )
            if pivot_row is None:
                return 0
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * (rows[n - 1][n - 1] if n else 1)


def fraction_rank(grid: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by exact Gaussian elimination."""
    rows = [[Fraction(v) for v in r] for r in _check_int_grid(grid)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def bareiss_det(matrix: LabeledMatrix) -> Polynomial:
    """Exact expanded determinant via fraction-free elimination.

    Bareiss one-step elimination keeps every intermediate entry a minor of
    the input, so all divisions are exact in the polynomial ring.
    """
    n = matrix.size
    if n > MAX_BRUTE_DET:
        raise TooLarge(f"determinant oracle capped at {MAX_BRUTE_DET}, got {n}")
    if n == 0:
        return Polynomial.one()
    rows = [list(r) for r in matrix.rows]
    sign = 1
    prev = Polynomial.one()
    for k in range(n - 1):
        if rows[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, n) if not rows[i][k].is_zero()), None
            )
            if pivot_row is None:
                return Polynomial.zero()
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                rows[i][j] = exact_div(num, prev)
            rows[i][k] = Polynomial.zero()
        prev = rows[k][k]
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det
