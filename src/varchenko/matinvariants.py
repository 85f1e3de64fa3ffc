"""Equivalence invariants of integer matrices (gcd of k-minors, rank,
Smith normal form), and the obstruction diagnostics for arrangements
that are not semigeneral.

The report states its integer specialisations of V in closed form: the
2 x 2 minor gcd at x_i = 3 is 8, the rank at x_i = 1 is 1, and the
single-hyperplane Smith forms are read off a count of region pairs.  It
computes no minor, rank or Smith form; `gcd_minors`, `int_rank` and
`integer_snf` are the tests' oracle for those closed forms."""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

from .errors import InvalidInput, SemigeneralInput, TooLarge, Unsupported
from .geometry import Arrangement, Flat
from .polyring import FactoredPoly
from .varmatrix import det_formula

MAX_SNF_SIZE = 64

IntGrid = list[list[int]]


def _check_int_grid(grid: Sequence[Sequence[int]]) -> IntGrid:
    """A copy of `grid` as lists; InvalidInput if it is ragged or a cell is
    not an int (a bool, float or Polynomial included)."""
    rows = [list(r) for r in grid]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InvalidInput("ragged integer matrix")
    bad = next((v for r in rows for v in r if type(v) is not int), None)
    if bad is not None:
        raise InvalidInput(f"integer matrix has a non-integer cell {bad!r}")
    return rows


def int_rank(grid: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the number of nonzero Smith invariant
    factors, read off a copy of the grid."""
    rows = _check_int_grid(grid)
    m = len(rows[0]) if rows else 0
    return sum(1 for d in _snf_prefix(rows, min(len(rows), m)) if d)


def gcd_minors(grid: Sequence[Sequence[int]], k: int) -> int:
    """Gcd of all k x k minor determinants of an integer grid; 0 when every
    minor vanishes.

    The gcd of the k x k minors is the k-th determinantal divisor
    d_1...d_k, the product of the first k invariant factors of the Smith
    normal form (Newman, Integral Matrices, 1972), so no minor is formed;
    it is 0 exactly when the rank is below k.  Polynomial grids are not
    accepted: the tests' Z[q] oracle is `poly_gcd_minors` in
    tests/reference.py.
    """
    rows = _check_int_grid(grid)
    if k < 0 or k > min(len(rows), len(rows[0]) if rows else 0):
        raise InvalidInput(f"minor size {k} out of range")
    return prod(_snf_prefix(rows, k))


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
    of a diagonal form, not a standalone proof.  The
    `gcd_minors_all_threes`, `rank_all_ones` and `snf_specializations`
    results come in closed form, so those checks are consistent by
    construction rather than tests that could fail.
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
    enumeration beyond the arrangement's regions, faces and poset.  The
    three integer specialisations of V are stated in closed form, each by
    the argument in its docstring: the 2 x 2 minor gcd at x_i = 3
    (`_all_threes_check`), the rank at x_i = 1 (`_all_ones_check`) and the
    Smith forms at x_i = 3, x_j = 0, read off a count of the region pairs
    that each hyperplane alone separates (`_single_threes_snf`).  So no
    minor, rank, Smith form or separation mask is computed, and no size
    cap of `gcd_minors` or `integer_snf` applies.
    """
    if arrangement.is_semigeneral():
        raise SemigeneralInput("arrangement is semigeneral: nothing to obstruct")
    if arrangement.mode == "covector":
        raise Unsupported("obstruction report needs coordinates (covector mode)")
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

    checks.append(_all_threes_check())
    checks.append(_all_ones_check())

    plus = [x.plus for x in arrangement.regions()]
    checks.append(
        ObstructionCheck(
            name="snf_specializations",
            inputs={"specialization": "x_i = 3, x_j = 0 for j != i"},
            result={"snf_multiplicities": _single_threes_snf(names, plus)},
            consistent=True,
        )
    )

    checks.sort(key=lambda c: c.name)
    return ObstructionReport(semigeneral=False, checks=tuple(checks))


def _all_threes_check() -> ObstructionCheck:
    """The gcd of the 2 x 2 minors of V at x_i = 3 for all i: exactly 8
    on every arrangement with a hyperplane.

    Rows a, b and columns c, d give the minor 3^u - 3^v, with
    u = |sep(a, c)| + |sep(b, d)| and v = |sep(a, d)| + |sep(b, c)|.  The
    separation set of two regions is the symmetric difference of their
    plus sets, so |sep(x, y)| = |P_x| + |P_y| (mod 2) and u = v (mod 2);
    as 9 = 1 (mod 8), 8 divides every minor.  Two regions on either side
    of one wall give the principal minor 1 - 9 = -8.
    """
    return ObstructionCheck(
        name="gcd_minors_all_threes",
        inputs={"specialization": "x_i = 3 for all i", "minor_size": 2},
        result={"gcd": 8},
        consistent=True,
    )


def _all_ones_check() -> ObstructionCheck:
    """The rank of V at x_i = 1 for all i: every entry is a monomial in
    the x_i, so V is the all-ones matrix, of rank 1."""
    return ObstructionCheck(
        name="rank_all_ones",
        inputs={"specialization": "x_i = 1 for all i"},
        result={"rank": 1},
        consistent=True,
    )


def _single_threes_snf(names: Sequence[str], plus: Sequence[int]) -> dict:
    """Smith form multiplicities of V at x_i = 3, x_j = 0 (j != i), by name,
    from the regions' plus masks `plus`.

    The specialised entry (m, n) is 1 on the diagonal, 3 when H_i alone
    separates R_m from R_n and 0 otherwise.  A region has at most one
    partner across H_i alone, so up to a simultaneous permutation the grid
    is the direct sum of p_i blocks [[1, 3], [3, 1]] and r - 2 p_i blocks
    [1], where p_i counts those region pairs.  Its Smith form is therefore
    1 repeated r - p_i times and 8 repeated p_i times (Newman, Integral
    Matrices, 1972).  A region is zero-free, so it is its plus mask, and
    its partner across H_i alone is the region whose plus mask is its own
    with bit i flipped: p_i is half the number of regions whose flipped
    mask is a region's, one set lookup per region and hyperplane.
    """
    r = len(plus)
    present = set(plus)
    out = {}
    for i, name in enumerate(names):
        bit = 1 << i
        pairs = sum(m ^ bit in present for m in plus) // 2
        out[name] = {"1": r - pairs, "8": pairs} if pairs else {"1": r}
    return out


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
