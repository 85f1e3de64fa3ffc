"""Constructive diagonalization of the Varchenko matrix of a semigeneral
arrangement, with a verifiable transformation certificate.

The pipeline is: order the regions so that each new region extends the
encompassed part of the flat poset by exactly one flat, completing one face
of it; then write the row transform P in closed form from those faces.  P
is the whole certificate, checked rather than trusted: P * V * P^T is
diagonal, and P is a unit lower-triangular matrix times the ordering's
permutation, so det P is the sign of the ordering.  `replay_elimination` is
the step-by-step elimination that P summarises, kept as a test reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .errors import (
    ClosedFormViolation,
    InvalidInput,
    NotDivisible,
    NotSemigeneral,
    OrderingStuck,
    PivotDivisionFailure,
)
from .geometry import Arrangement
from .polyring import (
    FactoredPoly,
    Monomial,
    Polynomial,
    _check_fields,
    exact_div,
    one_minus_square,
)
from .signedsets import SignVector, bits
from .varmatrix import LabeledMatrix, build_varchenko


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


@dataclass(frozen=True)
class RegionOrdering:
    """A coloring order together with the flat first encompassed per step
    and the face of that flat whose adjacent regions the step completes."""

    order: tuple[int, ...]
    step_flats: tuple[int, ...]
    step_faces: tuple[SignVector, ...]


def _semigeneral_gate(arrangement: Arrangement) -> None:
    witness = arrangement.semigeneral_witness()
    if witness is not None:
        names = [arrangement.names[i] for i in sorted(witness.defining_set)]
        raise NotSemigeneral(
            names, witness.dim, arrangement.dim - len(witness.defining_set)
        )


def ordering(arrangement: Arrangement) -> RegionOrdering:
    """Find a region order whose k-th prefix encompasses exactly k flats.

    Starts from the canonical first region (the all-positive region under
    the implied reorientation; separation data and adjacency are invariant
    under reorienting, so no coordinates change).  Greedy choice: among the
    uncolored regions that encompass exactly one new flat, prefer the one
    whose new flat has the smallest dimension, tie-broken by region id, with
    full backtracking behind the greedy front (an explicit stack, so the
    depth is not bounded by the interpreter's recursion limit).
    """
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
    return RegionOrdering(
        tuple(colored), tuple(step_flats), tuple(table.faces[f] for f in step_faces)
    )


def pivot_step(matrix: LabeledMatrix, k: int) -> LabeledMatrix:
    """One symmetric elimination step at pivot (k, k).

    Requires the pivot to divide every entry of its row; entry (k, k) is
    preserved and all other entries become P[m][n] - P[m][k] P[n][k] / P[k][k].
    """
    if not matrix.is_symmetric():
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


@dataclass
class DiagonalizationCertificate:
    """Region ordering, per-step flats, factored diagonal and the unimodular
    transform P with P V Q = diag(diagonal), where Q is P transposed."""

    ordering: tuple[int, ...]
    step_flats: tuple[int, ...]
    diagonal: list[FactoredPoly]
    P: list[list[Polynomial]]
    checks: dict

    @property
    def Q(self) -> list[list[Polynomial]]:
        return [list(col) for col in zip(*self.P)]

    def diagonal_matrix(self) -> LabeledMatrix:
        n = len(self.diagonal)
        rows = [
            [
                self.diagonal[i].expand() if i == j else Polynomial.zero()
                for j in range(n)
            ]
            for i in range(n)
        ]
        return LabeledMatrix(list(self.ordering), rows)

    def to_json_dict(self) -> dict:
        P = [[p.to_string(spaces=False) for p in row] for row in self.P]
        return {
            "ordering": list(self.ordering),
            "steps": [
                {"k": k, "flat": flat, "entry": str(self.diagonal[k])}
                for k, flat in enumerate(self.step_flats)
            ],
            "P": P,
            "Q": [list(col) for col in zip(*P)],
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# A row of P by its nonzero entries: region id -> entry.
SparseRow = dict[int, Polynomial]


def _ordering_det(rows: list[SparseRow], perm: Sequence[int]) -> str:
    """Prove det P in {+1, -1} from the shape of P's rows and return it as a
    string.

    P = L * Pi, where Pi[i][perm[i]] = 1 and L[i][j] = P[i][perm[j]].  Once
    L is checked to be unit lower-triangular, det P = det Pi = sign(perm)
    at every size.
    """
    n = len(perm)
    step_of = {region: j for j, region in enumerate(perm)}
    for i, row in enumerate(rows):
        pivot = row.get(perm[i], Polynomial.zero())
        if pivot != Polynomial.one():
            raise ClosedFormViolation(
                f"transform entry ({i},{perm[i]}) is {pivot}, not 1, "
                f"on the diagonal in elimination order"
            )
        for region, entry in row.items():
            if step_of[region] > i and not entry.is_zero():
                raise ClosedFormViolation(
                    f"transform entry ({i},{region}) is nonzero above the "
                    f"diagonal in elimination order"
                )
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    return "-1" if inversions % 2 else "1"


def _diagonal_entry(flat) -> FactoredPoly:
    """The product of (1 - x_a^2) over the flat's defining set."""
    return FactoredPoly.from_factors(
        (one_minus_square((a,)), 1) for a in flat.defining_tuple()
    )


def _transform_entry(sep: int) -> Polynomial:
    """(-1)^|S| x^S for the separation mask S of two regions."""
    return Polynomial.from_monomial(
        Monomial.from_mask(sep), -1 if sep.bit_count() % 2 else 1
    )


def diagonalize(arrangement: Arrangement) -> DiagonalizationCertificate:
    """Reduce V to its diagonal form and prove the result.

    Row k of P is (-1)^|S| x^S, S = sep(R_k, R), on the regions R adjacent
    to the face that step k completes, and 0 elsewhere; diagonal entry k is
    the product of (1 - x_a^2) over the defining set of the flat first
    encompassed at step k.  P is built once as its rows' nonzero entries;
    the certificate checks read only those rows and prove P V P^T = D and
    det P = +-1, or raise ClosedFormViolation.  No intermediate matrix of
    the elimination is formed; `replay_elimination` checks those.
    """
    order = ordering(arrangement)
    poset = arrangement.poset()
    regions = arrangement.regions()
    table = arrangement.face_table()
    adjacent = dict(zip(table.faces, table.adjacent))
    rows = []
    for region, face in zip(order.order, order.step_faces):
        step = regions[region]
        rows.append(
            {
                j: _transform_entry(step.separation_mask(regions[j]))
                for j in bits(adjacent[face])
            }
        )
    diagonal = [_diagonal_entry(poset.flats[flat]) for flat in order.step_flats]
    checks = _certificate_checks(
        build_varchenko(arrangement),
        rows,
        order.order,
        [d.expand() for d in diagonal],
    )
    zero = Polynomial.zero()
    return DiagonalizationCertificate(
        ordering=order.order,
        step_flats=order.step_flats,
        diagonal=diagonal,
        P=[[row.get(j, zero) for j in range(len(regions))] for row in rows],
        checks=checks,
    )


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


def expected_diagonal(arrangement: Arrangement) -> list[FactoredPoly]:
    """The diagonal multiset read directly off the flat poset."""
    _semigeneral_gate(arrangement)
    return [_diagonal_entry(flat) for flat in arrangement.poset()]


def snf_q(arrangement: Arrangement) -> list[tuple[int, int]]:
    """Multiplicities of (1 - q^2)^k on the diagonal after x_i := q.

    Returns (exponent, multiplicity) pairs sorted by exponent; asserts the
    multiplicity of exponent k equals the number of flats of dimension
    dim - k.
    """
    cert = diagonalize(arrangement)
    counts: dict[int, int] = {}
    for factored in cert.diagonal:
        exponent = sum(e for _, e in factored.factors)
        counts[exponent] = counts.get(exponent, 0) + 1
    poset = arrangement.poset()
    dim_counts = poset.dim_counts()
    for k, mult in counts.items():
        if dim_counts.get(arrangement.dim - k, 0) != mult:
            raise ClosedFormViolation(
                f"(1-q^2)^{k} has multiplicity {mult} but "
                f"{dim_counts.get(arrangement.dim - k, 0)} flats have "
                f"dimension {arrangement.dim - k}"
            )
    total_flats = sum(dim_counts.values())
    if sum(counts.values()) != total_flats:
        raise ClosedFormViolation("diagonal size differs from flat count")
    return sorted(counts.items())
