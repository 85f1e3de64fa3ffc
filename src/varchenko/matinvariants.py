"""Equivalence invariants of matrices over the integers or a univariate
polynomial ring: gcd of k-minors, rank, integer Smith normal form, the
one-hyperplane deletion reduction, and the obstruction diagnostics for
arrangements that are not semigeneral."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod
from typing import Optional, Sequence

from .errors import InvalidInput, SemigeneralInput, TooLarge, Unsupported
from .exactlp import _normalize_int
from .geometry import Arrangement, Flat
from .polyring import FactoredPoly, Monomial, Polynomial
from .varmatrix import LabeledMatrix, det_bruteforce, det_formula

MAX_SNF_SIZE = 64
MAX_MINOR_PAIRS = 10**6

IntGrid = list[list[int]]


def _check_int_grid(grid: Sequence[Sequence[int]]) -> IntGrid:
    rows = [list(r) for r in grid]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InvalidInput("ragged integer matrix")
    return rows


def int_rank(grid: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the number of nonzero Smith invariant
    factors, read off a copy of the grid."""
    rows = _check_int_grid(grid)
    m = len(rows[0]) if rows else 0
    return sum(1 for d in _snf_prefix(rows, min(len(rows), m)) if d)


# ----------------------------------------------------------------------
# univariate polynomial gcd (content * primitive part)


def _as_coeffs(p: Polynomial) -> list[int]:
    """Coefficient list of a polynomial in at most one variable."""
    variables = p.variables()
    if len(variables) > 1:
        raise InvalidInput(f"{p} is not univariate")
    coeffs = [0] * (p.degree() + 1 if not p.is_zero() else 1)
    for m, c in p.terms.items():
        coeffs[m.degree()] = c
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


# ----------------------------------------------------------------------


def _entry_grid(matrix) -> list[list[Polynomial]]:
    if isinstance(matrix, LabeledMatrix):
        return [list(r) for r in matrix.rows]
    rows = []
    for r in matrix:
        row = []
        for e in r:
            row.append(Polynomial.constant(e) if isinstance(e, int) else e)
        rows.append(row)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InvalidInput("ragged matrix")
    return rows


def gcd_minors(matrix, k: int):
    """Gcd (up to sign / unit) of all k x k minor determinants.

    Accepts integer grids, polynomial grids and LabeledMatrix; polynomial
    entries must involve at most one variable.  Returns an int for integer
    input, a Polynomial otherwise; 0 when every minor vanishes.

    For an integer grid the gcd of the k x k minors is the k-th
    determinantal divisor d_1...d_k, the product of the first k invariant
    factors of the Smith normal form (Newman, Integral Matrices, 1972), so
    no minor is formed; it is 0 exactly when the rank is below k.
    Polynomial grids take the gcd of every minor's determinant.
    """
    rows = _entry_grid(matrix)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if k < 0 or k > min(nrows, ncols):
        raise InvalidInput(f"minor size {k} out of range")
    integer_input = all(e.is_constant() for r in rows for e in r)
    if k == 0:
        return 1 if integer_input else Polynomial.one()
    if integer_input:
        return prod(_snf_prefix([[e.as_int() for e in r] for r in rows], k))
    if comb(nrows, k) * comb(ncols, k) > MAX_MINOR_PAIRS:
        raise TooLarge(f"too many {k}x{k} minors")

    g = Polynomial.zero()
    for rsel in combinations(range(nrows), k):
        for csel in combinations(range(ncols), k):
            sub = LabeledMatrix(
                list(range(k)), [[rows[i][j] for j in csel] for i in rsel]
            )
            minor = det_bruteforce(sub)
            if minor.is_zero():
                continue
            g = minor if g.is_zero() else _poly_gcd(g, minor)
            if g.is_constant() and abs(g.as_int()) == 1:
                return Polynomial.one()
    return g


def _snf_prefix(rows: IntGrid, limit: int) -> list[int]:
    """The first `limit` Smith invariant factors of `rows`, reduced in place.

    Pivot reduction with smallest-entry pivoting to limit growth.  A pivot is
    appended only once it divides every entry left below and right of it, so
    each factor is final when appended and the loop can stop at `limit`.
    Factors past the rank are 0.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    diag: list[int] = []
    t = 0
    while t < limit:
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = abs(rows[i][j])
                if v and (best is None or v < abs(rows[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        rows[t], rows[bi] = rows[bi], rows[t]
        for r in rows:
            r[t], r[bj] = r[bj], r[t]
        pivot = rows[t][t]
        dirty = False
        for i in range(t + 1, n):
            q = rows[i][t] // pivot
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[t])]
            if rows[i][t]:
                dirty = True
        for j in range(t + 1, m):
            q = rows[t][j] // pivot
            if q:
                for r in rows:
                    r[j] -= q * r[t]
            if rows[t][j]:
                dirty = True
        if dirty:
            continue  # remainders became new smaller entries; repeat
        bad = next(
            (
                (i, j)
                for i in range(t + 1, n)
                for j in range(t + 1, m)
                if rows[i][j] % pivot
            ),
            None,
        )
        if bad is not None:
            rows[t] = [a + b for a, b in zip(rows[t], rows[bad[0]])]
            continue
        diag.append(abs(pivot))
        t += 1
    diag.extend([0] * (limit - len(diag)))
    return diag


def integer_snf(grid: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form: nonnegative, divisibility chain."""
    rows = _check_int_grid(grid)
    n = len(rows)
    m = len(rows[0]) if rows else 0
    if max(n, m) > MAX_SNF_SIZE:
        raise TooLarge(f"SNF capped at {MAX_SNF_SIZE}, got {n}x{m}")
    return _snf_prefix(rows, min(n, m))


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


# ----------------------------------------------------------------------
# obstruction diagnostics


@dataclass(frozen=True)
class ObstructionCheck:
    name: str
    inputs: dict
    result: dict
    consistent: bool


@dataclass(frozen=True)
class ObstructionReport:
    """Named diagnostics for a non-semigeneral arrangement.

    Every check is a necessary condition consistent with the nonexistence
    of a diagonal form, not a standalone proof.
    """

    semigeneral: bool
    checks: tuple[ObstructionCheck, ...]

    @property
    def all_consistent(self) -> bool:
        return all(c.consistent for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "semigeneral": self.semigeneral,
            "all_consistent": self.all_consistent,
            "checks": [
                {
                    "name": c.name,
                    "inputs": c.inputs,
                    "result": c.result,
                    "consistent": c.consistent,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _deletion_witness(arrangement: Arrangement, kept: frozenset[int]) -> Optional[Flat]:
    """The parent flat behind the first deficient flat of the deletion to
    the hyperplanes `kept`, or None if that deletion is semigeneral.

    Every flat of the deletion is a parent flat Y that is the first flat,
    in poset order, whose defining set contains D(Y) & kept; there its
    defining set is D(Y) & kept and its dimension is Y's.  Deletion keeps
    the hyperplanes' relative order, so the deletion's poset order is
    (size, sorted indices) of those sets.
    """
    flats = arrangement.poset().flats
    witness, best = None, None
    for y in flats:
        defset = y.defining_set & kept
        if y.dim == arrangement.dim - len(defset):
            continue
        if next(f for f in flats if defset <= f.defining_set) is not y:
            continue  # the deletion's flat on defset is another parent flat
        key = (len(defset), sorted(defset))
        if best is None or key < best:
            witness, best = y, key
    return witness


def _minimal_core(arrangement: Arrangement) -> tuple[list[int], Flat]:
    """Greedily delete hyperplanes while the result stays non-semigeneral.

    Returns the kept hyperplane indices and the parent flat behind the
    core's first deficient flat, all read off the parent's poset.
    """
    kept = list(range(arrangement.n))
    witness = _deletion_witness(arrangement, frozenset(kept))
    while True:
        for i in range(len(kept)):
            candidate = kept[:i] + kept[i + 1 :]
            found = _deletion_witness(arrangement, frozenset(candidate))
            if found is not None:
                kept, witness = candidate, found
                break
        else:
            return kept, witness


def obstruction_report(arrangement: Arrangement) -> ObstructionReport:
    """Run the degenerate-arrangement diagnostics; refuses semigeneral input.

    Reads the minimal core off the arrangement's own poset, so it runs no
    enumeration beyond the arrangement's regions, faces and poset.
    """
    if arrangement.is_semigeneral():
        raise SemigeneralInput("arrangement is semigeneral: nothing to obstruct")
    if arrangement.mode == "covector":
        raise Unsupported("obstruction report needs coordinates (covector mode)")
    # V's entry (m, n) is the squarefree monomial over sep(R_m, R_n), so
    # each specialisation below is read straight off the separation masks
    regions = arrangement.regions()
    masks = [[x.separation_mask(y) for y in regions] for x in regions]
    n = arrangement.n
    names = arrangement.names
    checks = []

    kept, witness = _minimal_core(arrangement)
    witness_set = witness.defining_set.intersection(kept)
    checks.append(
        ObstructionCheck(
            name="core",
            inputs={"hyperplanes": list(names)},
            result={
                "core_hyperplanes": [names[i] for i in kept],
                "witness": sorted(names[i] for i in witness_set),
                "witness_dim": witness.dim,
                "expected_dim": arrangement.dim - len(witness_set),
            },
            consistent=True,
        )
    )

    formula = det_formula(arrangement)
    deficient = []
    for flat, factor in _deficient_factors(arrangement, formula):
        deficient.append(
            {
                "defining_set": sorted(arrangement.names[i] for i in flat.defining_set),
                "dim": flat.dim,
                "expected_dim": arrangement.dim - len(flat.defining_set),
                "factor": factor,
            }
        )
    checks.append(
        ObstructionCheck(
            name="determinant_mixed_factor",
            inputs={"formula": str(formula)},
            result={"deficient_factors": deficient},
            consistent=bool(deficient),
        )
    )

    g = gcd_minors([[3 ** m.bit_count() for m in row] for row in masks], 2)
    checks.append(
        ObstructionCheck(
            name="gcd_minors_all_threes",
            inputs={"specialization": "x_i = 3 for all i", "minor_size": 2},
            result={"gcd": g},
            consistent=g != 0 and 8 % g == 0,
        )
    )

    rank = int_rank([[1] * len(row) for row in masks])
    checks.append(
        ObstructionCheck(
            name="rank_all_ones",
            inputs={"specialization": "x_i = 1 for all i"},
            result={"rank": rank},
            consistent=rank == 1,
        )
    )

    snf_values = {}
    ok = True
    for i in range(n):
        only_i = 1 << i
        diag = integer_snf(
            [[3 if m == only_i else 0 if m else 1 for m in row] for row in masks]
        )
        values = sorted(set(diag))
        snf_values[arrangement.names[i]] = {
            str(val): diag.count(val) for val in values
        }
        if not set(values) <= {1, 8}:
            ok = False
    checks.append(
        ObstructionCheck(
            name="snf_specializations",
            inputs={"specialization": "x_i = 3, x_j = 0 for j != i"},
            result={"snf_multiplicities": snf_values},
            consistent=ok,
        )
    )

    checks.sort(key=lambda c: c.name)
    return ObstructionReport(semigeneral=False, checks=tuple(checks))


def _deficient_factors(arrangement: Arrangement, formula: FactoredPoly):
    by_defset = {}
    for base, exp in formula.factors:
        variables = tuple(sorted(base.variables()))
        by_defset[variables] = str(FactoredPoly(((base, exp),)))
    out = []
    for flat in arrangement.poset():
        defset = tuple(sorted(flat.defining_set))
        if (
            len(defset) >= 2
            and flat.dim != arrangement.dim - len(defset)
            and defset in by_defset
        ):
            out.append((flat, by_defset[defset]))
    return out
