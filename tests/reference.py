"""Reference implementations the tests compare the runtime against.

* `_certificate_checks` proves P V P^T = D from a built V by products of
  packed monomial keys; `diagonalize` proves the same from the faces the
  steps complete (`_face_cube_checks`) and builds no V.
* `replay_elimination` folds `pivot_step` over the region ordering and
  checks the paper's closed forms after every step; `diagonalize` writes
  the resulting P in closed form.
* `LinearSystem`, `solve_equalities` and `feasible_strict` solve rational
  equality systems by Gaussian elimination and decide sign patterns with
  them, through `strict_point`, the Fourier-Motzkin point search over
  `Fraction` origins and bases; the enumeration in `geometry` reads flats
  off hull bases instead and searches in integer coordinates
  (`exactlp.integer_strict_point`).
* `int_det` is the Bareiss determinant of an integer grid, and
  `fraction_rank` the rank by `Fraction` Gaussian elimination, which
  `int_rank` reads off the Smith form instead.
* `bareiss_det` is the Bareiss determinant of a polynomial matrix, with
  exact division by the previous pivot; `det_bruteforce` expands by minors
  memoised over column subsets instead and divides nothing.
"""

from fractions import Fraction
from functools import reduce
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
from varchenko.exactlp import _dot, _fourier_motzkin, _normalize_int
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
