"""Reference implementations the tests compare the runtime against.

* `_certificate_checks` proves P V P^T = D from a built V by products of
  packed monomial keys; `diagonalize` proves the same from the faces the
  steps complete (`_face_cube_checks`) and builds no V.
* `replay_elimination` folds `pivot_step` over the region ordering and
  checks the paper's closed forms after every step; `diagonalize` writes
  the resulting P in closed form.  `pivot_step` divides by the pivot with
  `exact_div` (raising `PivotDivisionFailure`, or `NotDivisible` from the
  division), and the closed forms cap exponents at 2 with `capped`; the
  package divides no polynomial.
* `encompassed_flats` is the set of flats a set of colored regions
  encompasses, which `ordering` keeps up to date step by step, and
  `distance` the paper's distance monomial of three regions.
* `deletion_reduction` sets x_e = 1 in V and cancels the duplicated rows
  and columns, `nonzero_block` drops the zero rows and columns, and
  `equal_up_to_relabeling` compares the result with the deleted
  arrangement's V.
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
* `poly_gcd_minors` is the gcd of the k x k minors of a matrix over Z[q],
  each minor expanded by `det_bruteforce` and folded in by rational Euclid
  (`_poly_gcd`, `_coeff_gcd`); the tests compare equivalent matrices with
  it.  The package's `gcd_minors` takes integer grids only and reads the
  gcd off the Smith form.
* `bareiss_det` is the Bareiss determinant of a polynomial matrix, with
  exact division by the previous pivot; `det_bruteforce` expands by minors
  memoised over column subsets instead and divides nothing.
* `det_mod_p` is det V at an integer point modulo the prime 2^61 - 1, by
  Gaussian elimination over that field, and `factored_mod_p` a factored
  determinant at the same point, factor by factor: a Schwartz-Zippel
  check of `det_formula` at sizes past the exact oracle's cap.
* `snf_by_smith_form` runs one `integer_snf` per hyperplane of V at
  x_i = 3, x_j = 0; `obstruction_report` reads the same Smith forms off
  the region pairs instead.
* `LINES_45` and `LINES_61` are affine line arrangements with a deficient
  flat, past the sizes of the fixtures; `lines_document` writes such rows
  as an input document.
* The scans the per-hyperplane bitsets replace: `face_table_by_full_scan`
  tests each region against each face with `conforms_to`,
  `down_set_by_pairs`, `mobius_by_pairs`, `restriction_region_counts`
  and `det_formula_by_subset_sum` compare every pair of flats' defining
  sets, `first_agreeing_by_scan` tests each step against
  every step before it, and `ordering_by_rescan` sorts the faces with one
  uncolored region at every step of the region search.
* `string_rank_key` is the canonical sign-vector order as a tuple of
  ranks, which `SignVector.sort_key` packs into one integer.
* Methods of the package's classes that only the tests call, as
  functions: `is_symmetric` and `permuted` of a `LabeledMatrix`;
  `support`, `zero_set`, `separation_mask`, `separation_set`,
  `conforms_to` and `reoriented` of a `SignVector`; `covector_family` of an
  `Arrangement`; `diagonal_matrix` of a certificate,
  `passed` of an `AxiomReport`, and `monomial_degree` and
  `polynomial_degree`, the `degree` of a `Monomial` and a `Polynomial`.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import floor, gcd, lcm
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

from varchenko import polyring
from varchenko.certificate import (
    RegionOrdering,
    SparseRow,
    _diagonal_entry,
    _ordering_det,
    _semigeneral_gate,
)
from varchenko.diagonalize import ordering
from varchenko.errors import (
    ClosedFormViolation,
    InvalidInput,
    OrderingStuck,
    TooLarge,
    Unsupported,
    VarchenkoError,
)
from varchenko.exactlp import _dot, _normalize_int, _primitive
from varchenko.geometry import Arrangement, FaceTable, IntersectionPoset
from varchenko.matinvariants import _check_int_grid, integer_snf
from varchenko.polyring import (
    _FIELD,
    _W,
    FactoredPoly,
    Monomial,
    Polynomial,
    _check_fields,
    _fields,
    _raw,
    one_minus_square,
)
from varchenko.signedsets import AxiomReport, SignedFamily, SignVector, bits
from varchenko.varmatrix import MAX_BRUTE_DET, LabeledMatrix, build_varchenko, det_bruteforce

# S1, S2, S3 meet at the origin; the other six lines are generic
LINES_45 = [
    (1, 0, 0), (0, 1, 0), (1, 1, 0), (-3, 7, -3), (-4, 7, -10),
    (-7, 3, 19), (5, 3, -12), (-9, 1, -7), (-3, 3, -10),
]
# S1..S5 meet at the origin; the other six lines are generic
LINES_61 = [
    (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (1, 2, 0),
    (-1, 2, -11), (5, -2, -9), (-4, -6, 11), (6, -2, 12), (8, -6, 3), (-9, -3, 14),
]

Vector = tuple[Fraction, ...]
# a strict constraint (a, b) means a . x > b
Constraint = tuple[Vector, Fraction]


class NotDivisible(VarchenkoError):
    """Exact polynomial division has a nonzero remainder."""


class PivotDivisionFailure(VarchenkoError):
    """A pivot entry does not divide its row during elimination."""

    def __init__(self, k, n):
        self.k = k
        self.n = n
        super().__init__(f"pivot ({k},{k}) does not divide entry ({k},{n})")


def _graded(key: int) -> tuple[int, int]:
    """A packed key's place in the division order."""
    return key & _FIELD, key


def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Return r with r*q == p, or raise NotDivisible.

    Reduction by the leading term of q in the division order: while the
    remainder is nonzero, its leading term must be divisible by q's, in the
    coefficient and in the monomial (the difference of the keys sets no
    guard bit); the quotient term times q is then subtracted from it.

    Division order.  Leading terms are taken in graded order on the packed
    ints: total degree first, then the packed int itself (graded lex with
    the variable met later the more significant).  This is a monomial
    order, so reducing by a single divisor decides divisibility exactly,
    and the quotient does not depend on the variable table's order.

    The guard mask is read from `polyring` at each call: it grows as
    variables get fields, so a copy bound at import would miss them.
    """
    if q.is_zero():
        raise InvalidInput("division by the zero polynomial")
    if q.is_one():
        return p
    qt = q.packed()
    lead = max(qt, key=_graded)
    lead_c = qt[lead]
    rest = dict(p.packed())
    quotient: dict[int, int] = {}
    while rest:
        k = max(rest, key=_graded)
        c = rest[k]
        m = k - lead
        if m & polyring._GUARDS or c % lead_c:
            raise NotDivisible(f"({q}) does not divide ({p})")
        qc = c // lead_c
        quotient[m] = qc
        for d, dc in qt.items():
            key = m + d
            r = rest.get(key, 0) - qc * dc
            if r:
                rest[key] = r
            else:
                del rest[key]
    return _raw(quotient)


def capped(p: Polynomial) -> Polynomial:
    """`p` with every exponent >= 3 replaced by 2, like terms recombined: a
    field s + 1 holding e > 2 drops by e - 2, and the degree field with it."""
    out: dict[int, int] = {}
    for k, c in p.packed().items():
        if k & _FIELD > 2:  # else no exponent exceeds 2
            for s, e in _fields(k):
                if e > 2:
                    k -= (e - 2) * ((1 << (_W * (s + 1))) + 1)
        out[k] = out.get(k, 0) + c
    return _raw({k: c for k, c in out.items() if c})


def pivot_step(matrix: LabeledMatrix, k: int) -> LabeledMatrix:
    """One symmetric elimination step at pivot (k, k).

    Requires the pivot to divide every entry of its row; entry (k, k) is
    preserved and all other entries become P[m][n] - P[m][k] P[n][k] / P[k][k].
    """
    if not is_symmetric(matrix):
        raise InvalidInput("pivot elimination needs a symmetric matrix")
    n = matrix.size
    if not 0 <= k < n:
        raise InvalidInput(f"pivot index {k} out of range")
    pivot = matrix.rows[k][k]
    if pivot.is_zero():
        for m in range(n):
            if not matrix.rows[k][m].is_zero():
                raise PivotDivisionFailure(k, m)
        return LabeledMatrix(matrix.labels, matrix.rows)
    quotients = []
    for m in range(n):
        try:
            quotients.append(exact_div(matrix.rows[k][m], pivot))
        except NotDivisible:
            raise PivotDivisionFailure(k, m) from None
    rows = []
    for m in range(n):
        row = []
        for j in range(n):
            if m == k and j == k:
                row.append(pivot)
            else:
                row.append(matrix.rows[m][j] - quotients[m] * matrix.rows[k][j])
        rows.append(row)
    return LabeledMatrix(matrix.labels, rows)


def encompassed_flats(arrangement: Arrangement, colored: Iterable[int]) -> set[int]:
    """Flat indices encompassed by a set of region ids.

    A flat is encompassed as soon as some face supported exactly on it has
    every adjacent region colored.
    """
    colored_mask = 0
    nregions = len(arrangement.regions())
    for i in colored:
        if not 0 <= i < nregions:
            raise InvalidInput(f"region id {i} out of range")
        colored_mask |= 1 << i
    table = arrangement.face_table()
    return {
        flat
        for mask, flat in zip(table.adjacent, table.flats)
        if mask & ~colored_mask == 0
    }


def distance(arrangement: Arrangement, k: int, m: int, n: int) -> Monomial:
    """Product of the variables separating region k from both m and n."""
    regions = arrangement.regions()
    if not all(0 <= i < len(regions) for i in (k, m, n)):
        raise InvalidInput("region id out of range")
    rk, rm, rn = regions[k], regions[m], regions[n]
    return Monomial.from_mask(separation_mask(rk, rm) & separation_mask(rk, rn))


def deletion_reduction(v_ext: LabeledMatrix, e: int) -> tuple[LabeledMatrix, dict[int, int]]:
    """Delete hyperplane e from a Varchenko matrix by setting x_e = 1 and
    cancelling the duplicated rows and columns.

    Region pairs separated only by hyperplane e become equal rows after the
    substitution; each duplicate is subtracted away, leaving the deleted
    arrangement's matrix plus a zero block (up to simultaneous permutation).
    Returns the reduced matrix and the map duplicate -> representative.
    """
    x_e = Polynomial.variable(e)
    pairs = []
    paired = set()
    for i in range(v_ext.size):
        if i in paired:
            continue
        for j in range(i + 1, v_ext.size):
            if j not in paired and v_ext.rows[i][j] == x_e:
                pairs.append((i, j))
                paired.update((i, j))
                break
    variables = {e}
    for row in v_ext.rows:
        for p in row:
            variables.update(p.variables())
    sigma = {v: 1 if v == e else Polynomial.variable(v) for v in variables}
    reduced = v_ext.substitute(sigma)
    rows = [list(r) for r in reduced.rows]
    for i, j in pairs:
        rows[j] = [a - b for a, b in zip(rows[j], rows[i])]
    for i, j in pairs:
        for r in rows:
            r[j] = r[j] - r[i]
    return LabeledMatrix(reduced.labels, rows), {j: i for i, j in pairs}


def nonzero_block(matrix: LabeledMatrix) -> LabeledMatrix:
    """Submatrix on the rows/columns that are not identically zero."""
    keep = [
        i
        for i in range(matrix.size)
        if any(not e.is_zero() for e in matrix.rows[i])
    ]
    return LabeledMatrix(
        [matrix.labels[i] for i in keep],
        [[matrix.rows[i][j] for j in keep] for i in keep],
    )


def equal_up_to_relabeling(a: LabeledMatrix, b: LabeledMatrix):
    """A permutation p with a[i][j] == b[p[i]][p[j]], or None.

    Backtracking with row-multiset pruning; intended for desk-size matrices.
    """
    n = a.size
    if b.size != n:
        return None

    def row_signature(m: LabeledMatrix, i: int):
        return sorted(e.to_string(spaces=False) for e in m.rows[i])

    sig_a = [row_signature(a, i) for i in range(n)]
    sig_b = [row_signature(b, i) for i in range(n)]
    candidates = [
        [j for j in range(n) if sig_b[j] == sig_a[i]] for i in range(n)
    ]
    perm: list[int] = []
    used = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in candidates[i]:
            if j in used:
                continue
            ok = all(
                a.rows[i][i2] == b.rows[j][perm[i2]]
                and a.rows[i2][i] == b.rows[perm[i2]][j]
                for i2 in range(i)
            ) and a.rows[i][i] == b.rows[j][j]
            if not ok:
                continue
            perm.append(j)
            used.add(j)
            if extend(i + 1):
                return True
            perm.pop()
            used.remove(j)
        return False

    return list(perm) if extend(0) else None


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
    sep = [[separation_mask(a, b) for b in stepped] for a in stepped]
    work = permuted(build_varchenko(arrangement), perm)
    original = [row[:] for row in work.rows]
    P = [
        [Polynomial.one() if j == perm[i] else Polynomial.zero() for j in range(r)]
        for i in range(r)
    ]
    capped_product = [[Polynomial.one()] * r for _ in range(r)]
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
                capped_product[m][n] = capped(capped_product[m][n] * factors[mask])
                expected = original[m][n] * capped_product[m][n]
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



# ----------------------------------------------------------------------
# the gcd of k x k minors over Z[q] (content * primitive part)


def _as_coeffs(p: Polynomial) -> list[int]:
    """Coefficient list of a polynomial in at most one variable."""
    variables = p.variables()
    if len(variables) > 1:
        raise InvalidInput(f"{p} is not univariate")
    coeffs = [0] * (polynomial_degree(p) + 1 if not p.is_zero() else 1)
    for m, c in p.terms.items():
        coeffs[monomial_degree(m)] = c
    return coeffs


def _from_coeffs(coeffs: Sequence[int], var: int) -> Polynomial:
    terms = {}
    for deg, c in enumerate(coeffs):
        if c:
            terms[Monomial.variable(var, deg) if deg else Monomial.one()] = c
    return Polynomial(terms)


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _sign_norm(coeffs: list[int]) -> list[int]:
    """Make the lowest-degree nonzero coefficient positive (so the unit
    ambiguity resolves to the 1 - q^2 convention)."""
    lead = next((c for c in coeffs if c), 0)
    if lead < 0:
        return [-c for c in coeffs]
    return coeffs


def _coeff_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of integer coefficient lists: rational Euclid, then the primitive
    integer form of the result times the common integer content."""
    a, b = _trim(list(a)), _trim(list(b))
    if not a:
        return _sign_norm(b)
    if not b:
        return _sign_norm(a)
    content = gcd(*a, *b)
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    while fb:
        fa, fb = fb, _frac_poly_mod(fa, fb)
    # fa is the gcd over Q; rescale to a primitive integer list
    ints, _ = _normalize_int(fa, Fraction(0))
    return [content * c for c in _sign_norm(list(ints))]


def _frac_poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] / lead
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[i + shift] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    variables = p.variables() | q.variables()
    if len(variables) > 1:
        raise InvalidInput("gcd of minors supports one variable at most")
    var = next(iter(variables), 0)
    coeffs = _coeff_gcd(_as_coeffs(p), _as_coeffs(q))
    return _from_coeffs(coeffs, var)


def poly_gcd_minors(matrix: LabeledMatrix | Sequence[Sequence[Polynomial]], k: int) -> Polynomial:
    """Gcd of the determinants of every k x k minor of a matrix over Z[q]:
    a `LabeledMatrix` or a grid of polynomials in at most one variable.
    The unit is fixed by making the lowest-degree coefficient positive;
    0 when every minor vanishes.

    The package's `gcd_minors` reads integer grids only, off the Smith
    form; this oracle forms each minor with `det_bruteforce` and folds
    their gcds, constant grids included.
    """
    rows = matrix.rows if isinstance(matrix, LabeledMatrix) else matrix
    g = Polynomial.zero()
    for rsel in combinations(range(len(rows)), k):
        for csel in combinations(range(len(rows[0])), k):
            sub = LabeledMatrix(list(range(k)), [[rows[i][j] for j in csel] for i in rsel])
            g = _poly_gcd(g, det_bruteforce(sub))
            if g.is_one():
                return g
    return g


MERSENNE_61 = 2**61 - 1


def det_mod_p(arrangement: Arrangement, point: dict[int, int], p: int = MERSENNE_61) -> int:
    """det V mod p with x_a := point[a]: entry (i, j) is the product of
    point[a] over sep(R_i, R_j), and the determinant is the product of the
    pivots of Gaussian elimination over Z/p, negated per row swap."""
    regions = arrangement.regions()
    values: dict[int, int] = {}

    def at(mask: int) -> int:
        if mask not in values:
            value = 1
            for a in range(mask.bit_length()):
                if mask >> a & 1:
                    value = value * point[a] % p
            values[mask] = value
        return values[mask]

    rows = [[at(separation_mask(x, y)) for y in regions] for x in regions]
    det = 1
    for c in range(len(rows)):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inverse = pow(rows[c][c], -1, p)
        for i in range(c + 1, len(rows)):
            factor = rows[i][c] * inverse % p
            if factor:
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[c])]
    return det % p


def factored_mod_p(factored: FactoredPoly, point: dict[int, int], p: int = MERSENNE_61) -> int:
    """A factored polynomial at `point` mod p, each base evaluated exactly
    and raised to its exponent mod p."""
    value = 1
    for base, e in factored.factors:
        value = value * pow(base.substitute(point).as_int() % p, e, p) % p
    return value


def lines_document(rows) -> dict:
    """An affine arrangement of lines a*x1 + b*x2 = c from rows (a, b, c)."""
    hyperplanes = [
        {"name": f"S{i + 1}", "normal": [str(a), str(b)], "offset": str(c)}
        for i, (a, b, c) in enumerate(rows)
    ]
    return {"mode": "affine", "dim": 2, "hyperplanes": hyperplanes}


def snf_by_smith_form(arrangement: Arrangement) -> dict[str, dict[str, int]]:
    """The single-hyperplane specialisations' Smith forms, one `integer_snf`
    per hyperplane of V at x_i = 3, x_j = 0, read off the separation masks."""
    regions = arrangement.regions()
    masks = [[separation_mask(x, y) for y in regions] for x in regions]
    out = {}
    for i, name in enumerate(arrangement.names):
        diag = integer_snf(
            [[3 if m == 1 << i else 0 if m else 1 for m in row] for row in masks]
        )
        out[name] = {str(val): diag.count(val) for val in sorted(set(diag))}
    return out


def is_symmetric(matrix: LabeledMatrix) -> bool:
    n = matrix.size
    return all(
        matrix.rows[i][j] == matrix.rows[j][i] for i in range(n) for j in range(i)
    )


def permuted(matrix: LabeledMatrix, perm: Sequence[int]) -> LabeledMatrix:
    """Simultaneous row/column reorder; row i of the result is row perm[i]."""
    if sorted(perm) != list(range(matrix.size)):
        raise InvalidInput("not a permutation of the matrix indices")
    return LabeledMatrix(
        [matrix.labels[p] for p in perm],
        [[matrix.rows[p][q] for q in perm] for p in perm],
    )


def monomial_degree(m: Monomial) -> int:
    return m.key & _FIELD


def polynomial_degree(p: Polynomial) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((k & _FIELD for k in p.packed()), default=-1)


def support(v: SignVector) -> frozenset[int]:
    return frozenset(bits(v.support_mask))


def zero_set(v: SignVector) -> frozenset[int]:
    return frozenset(bits(v.zero_mask))


def sign_vector(signs: Sequence[int]) -> SignVector:
    """The sign vector of a sequence of numbers, read by their signs."""
    plus = minus = 0
    for i, v in enumerate(signs):
        if v > 0:
            plus |= 1 << i
        elif v < 0:
            minus |= 1 << i
    return SignVector(len(signs), plus, minus)


def separation_mask(x: SignVector, y: SignVector) -> int:
    """The positions where x and y have opposite nonzero signs."""
    if x.n != y.n:
        raise InvalidInput("separation needs equal lengths")
    return (x.plus & y.minus) | (x.minus & y.plus)


def separation_set(x: SignVector, y: SignVector) -> frozenset[int]:
    return frozenset(bits(separation_mask(x, y)))


def conforms_to(v: SignVector, face: SignVector) -> bool:
    """True if v agrees with `face` on every nonzero entry of `face`."""
    return not (face.plus & ~v.plus) and not (face.minus & ~v.minus)


def reoriented(v: SignVector, flip_mask: int) -> SignVector:
    """Swap '+' and '-' on the elements selected by `flip_mask`."""
    keep = ~flip_mask
    return SignVector(
        v.n,
        (v.plus & keep) | (v.minus & flip_mask),
        (v.minus & keep) | (v.plus & flip_mask),
    )


def covector_family(arrangement: Arrangement) -> SignedFamily:
    """The arrangement's sign vectors as a symmetric, zero-free family.

    Affine face families are neither symmetric nor free of the zero
    vector in general; this view adds opposites and drops the zero
    vector, which is the family the axiom checks apply to.
    """
    members = set()
    for f in arrangement.faces().members:
        if f.is_zero():
            continue
        members.add(f)
        members.add(-f)
    return SignedFamily.from_vectors(arrangement.n, members)


def diagonal_matrix(cert) -> LabeledMatrix:
    """diag(cert.diagonal), expanded, labelled by the certificate's ordering."""
    n = len(cert.diagonal)
    rows = [
        [cert.diagonal[i].expand() if i == j else Polynomial.zero() for j in range(n)]
        for i in range(n)
    ]
    return LabeledMatrix(list(cert.ordering), rows)


def passed(report: AxiomReport) -> bool:
    return report.axiom_a and report.axiom_b and report.axiom_c


_CHAR_RANK = {"+": 0, "-": 1, "0": 2}  # '+' < '-' < '0' for canonical sorts


def string_rank_key(v: SignVector) -> tuple[int, ...]:
    """The canonical order's key as the ranks of the sign string."""
    return tuple(_CHAR_RANK[c] for c in v.to_string())


def face_table_by_full_scan(arr: Arrangement) -> FaceTable:
    """Independent oracle: each face's flat looked up by its zero set, and
    each region tested against each face with `conforms_to`."""
    regions = arr.regions()
    poset = arr.poset()
    faces = tuple(arr.faces().sorted_members())
    return FaceTable(
        faces,
        tuple(poset.flat_index(zero_set(f)) for f in faces),
        tuple(
            sum(1 << i for i, r in enumerate(regions) if conforms_to(r, f))
            for f in faces
        ),
    )


def down_set_by_pairs(poset: IntersectionPoset, index: int) -> int:
    """The flats whose defining set lies in flat `index`'s, tested pairwise,
    as a bitset over the flat indices."""
    mine = poset.flats[index].defining_set
    return sum(1 << y.index for y in poset if y.defining_set <= mine)


def mobius_by_pairs(poset: IntersectionPoset) -> tuple[int, ...]:
    """Moebius values from the bottom, each flat's from every flat before it
    whose defining set is a proper subset of its own."""
    mu = [0] * len(poset.flats)
    mu[0] = 1
    for j in range(1, len(poset.flats)):
        dj = poset.flats[j].defining_set
        mu[j] = -sum(mu[i] for i in range(j) if poset.flats[i].defining_set < dj)
    return tuple(mu)


def restriction_region_counts(poset: IntersectionPoset) -> list[int]:
    """For each flat X, the sum of |mu(X, Y)| over the flats Y inside X,
    each mu(X, Y) computed from the flats between them, tested pairwise on
    the closed defining masks: the region count of the restriction to X
    (Zaslavsky 1975)."""
    counts = []
    for x in poset.masks:
        mu = {}  # mask of a flat inside X -> mu(X, that flat)
        for y in poset.masks:  # by size: the flats between X and Y come first
            if x & ~y == 0:
                mu[y] = 1 if y == x else -sum(v for z, v in mu.items() if z & ~y == 0)
        counts.append(sum(map(abs, mu.values())))
    return counts


def det_formula_by_subset_sum(arrangement: Arrangement) -> FactoredPoly:
    """`det_formula` with each p_X summed over every flat, tested for a
    defining set inside X's."""
    if arrangement.mode == "covector":
        raise Unsupported("determinant formula needs coordinates (covector mode)")
    poset = arrangement.poset()
    factors = []
    for flat in poset:
        if not flat.defining_set:
            continue
        p_x = abs(
            sum(
                mu * y.dim
                for y, mu in zip(poset, poset.mobius)
                if y.defining_set <= flat.defining_set
            )
        )
        factors.append((one_minus_square(flat.defining_tuple()), flat.faces * p_x))
    n = arrangement.n
    if arrangement.mode == "central" and poset.flat_index(range(n)) is None:
        p_origin = abs(sum(mu * (y.dim + 1) for y, mu in zip(poset, poset.mobius)))
        factors.append((one_minus_square(range(n)), p_origin))
    return FactoredPoly.from_factors(factors)


def first_agreeing_by_scan(pluses: Sequence[int], zeros: Sequence[int]) -> list[Optional[int]]:
    """For each step, the first earlier step whose '+' mask agrees with its
    own on its zero mask, or None, by testing every earlier step."""
    return [
        next((n for n in range(i) if (pluses[n] ^ plus) & zero == 0), None)
        for i, (plus, zero) in enumerate(zip(pluses, zeros))
    ]


def ordering_by_rescan(arrangement: Arrangement) -> RegionOrdering:
    """The region search of `ordering`, keeping the faces with one uncolored
    region in a set and sorting that set at every step for the candidate
    moves, each frame of the backtracking holding its sorted candidates."""
    _semigeneral_gate(arrangement)
    regions = arrangement.regions()
    poset = arrangement.poset()
    r = len(regions)
    if len(poset) != r:
        raise OrderingStuck(
            f"flat count {len(poset)} differs from region count {r}; the "
            f"one-new-flat-per-region coloring cannot complete"
        )
    table = arrangement.face_table()
    flat_ids = table.flats
    dims = [f.dim for f in poset.flats]
    adjacent: list[list[int]] = [[] for _ in range(r)]  # region -> its faces
    for f, m in enumerate(table.adjacent):
        for region in bits(m):
            adjacent[region].append(f)

    base = 0
    uncolored = [m & ~(1 << base) for m in table.adjacent]
    colored = [base]
    completed = [f for f, m in enumerate(uncolored) if m == 0]
    encompassed = {flat_ids[f] for f in completed}
    if len(encompassed) != 1:
        raise OrderingStuck(
            f"coloring the base region encompassed {len(encompassed)} flats"
        )
    step_flats = [flat_ids[completed[0]]]
    step_faces = [completed[0]]
    # the faces with exactly one uncolored adjacent region
    single = {f for f, m in enumerate(uncolored) if m and m & (m - 1) == 0}

    def toggle(region: int) -> None:
        """Color an uncolored region, or uncolor a colored one."""
        bit = 1 << region
        for f in adjacent[region]:
            m = uncolored[f] ^ bit
            uncolored[f] = m
            if m and m & (m - 1) == 0:
                single.add(f)
            else:
                single.discard(f)

    def next_candidates() -> list[tuple[int, int, int, int]]:
        """(new flat dim, region, new flat, completed face) for regions
        encompassing exactly one new flat."""
        ready: dict[int, dict[int, int]] = {}
        for f in sorted(single):
            flat = flat_ids[f]
            if flat not in encompassed:
                ready.setdefault(uncolored[f].bit_length() - 1, {})[flat] = f
        out = []
        for region, flats in ready.items():
            if len(flats) == 1:
                [(flat, face)] = flats.items()
                out.append((dims[flat], region, flat, face))
        out.sort()
        return out

    # frames[d] holds the untried candidates after d + 1 colored regions.
    frames: list[Iterator[tuple[int, int, int, int]]] = []
    while len(colored) < r:
        frames.append(iter(next_candidates()))
        while (move := next(frames[-1], None)) is None:
            frames.pop()
            if not frames:
                raise OrderingStuck(
                    "exhaustive search found no valid region ordering (internal bug)"
                )
            toggle(colored.pop())
            encompassed.discard(step_flats.pop())
            step_faces.pop()
        _, region, flat, face = move
        toggle(region)
        colored.append(region)
        encompassed.add(flat)
        step_flats.append(flat)
        step_faces.append(face)
    return RegionOrdering(tuple(colored), tuple(step_flats), tuple(step_faces))
