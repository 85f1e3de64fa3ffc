"""Constructive diagonalization of the Varchenko matrix of a semigeneral
arrangement, with a verifiable transformation certificate.

The pipeline is: order the regions so that each new region extends the
encompassed part of the flat poset by exactly one flat; then run the
symmetric pivot elimination step by step, verifying the predicted closed
forms after every step.  The row transform P is the whole certificate:
P * V * P^T is diagonal, and P is a unit lower-triangular matrix times the
ordering's permutation, so det P is the sign of the ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ClosedFormViolation,
    InvalidInput,
    NotDivisible,
    NotSemigeneral,
    OrderingStuck,
    PivotDivisionFailure,
)
from .geometry import Arrangement
from .polyring import FactoredPoly, Polynomial, exact_div, one_minus_square
from .varmatrix import LabeledMatrix, build_varchenko, monomial_from_mask


def _face_data(arrangement: Arrangement):
    """Per-face adjacency bitmask over region ids and the face's flat index."""
    regions = arrangement.regions()
    poset = arrangement.poset()
    faces = arrangement.faces().sorted_members()
    adj_masks = []
    flat_ids = []
    for f in faces:
        mask = 0
        for i, r in enumerate(regions):
            if r.conforms_to(f):
                mask |= 1 << i
        adj_masks.append(mask)
        flat_ids.append(poset.flat_index(f.zero_set()))
    return adj_masks, flat_ids


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
    adj_masks, flat_ids = _face_data(arrangement)
    out = set()
    for mask, flat in zip(adj_masks, flat_ids):
        if mask & ~colored_mask == 0:
            out.add(flat)
    return out


@dataclass(frozen=True)
class RegionOrdering:
    """A coloring order together with the flat first encompassed per step."""

    order: tuple[int, ...]
    step_flats: tuple[int, ...]


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
    full backtracking behind the greedy front.
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
    adj_masks, flat_ids = _face_data(arrangement)
    dims = [f.dim for f in poset.flats]
    nfaces = len(adj_masks)

    base = 0
    uncolored = [m & ~(1 << base) for m in adj_masks]
    colored = [base]
    encompassed = {flat_ids[f] for f in range(nfaces) if uncolored[f] == 0}
    if len(encompassed) != 1:
        raise OrderingStuck(
            f"coloring the base region encompassed {len(encompassed)} flats"
        )
    step_flats = [next(iter(encompassed))]

    def next_candidates() -> list[tuple[int, int, int]]:
        """(new flat dim, region, new flat) for regions encompassing exactly
        one new flat."""
        ready: dict[int, set[int]] = {}
        for f in range(nfaces):
            m = uncolored[f]
            if m and m & (m - 1) == 0:  # exactly one uncolored adjacent region
                flat = flat_ids[f]
                if flat not in encompassed:
                    ready.setdefault(m.bit_length() - 1, set()).add(flat)
        out = []
        for region, flats in ready.items():
            if len(flats) == 1:
                flat = next(iter(flats))
                out.append((dims[flat], region, flat))
        out.sort()
        return out

    def color(region: int, flat: int) -> list[int]:
        touched = []
        bit = 1 << region
        for f in range(nfaces):
            if uncolored[f] & bit:
                uncolored[f] &= ~bit
                touched.append(f)
        colored.append(region)
        encompassed.add(flat)
        step_flats.append(flat)
        return touched

    def uncolor(region: int, flat: int, touched: list[int]) -> None:
        bit = 1 << region
        for f in touched:
            uncolored[f] |= bit
        colored.pop()
        encompassed.discard(flat)
        step_flats.pop()

    def extend() -> bool:
        if len(colored) == r:
            return True
        for _, region, flat in next_candidates():
            touched = color(region, flat)
            if extend():
                return True
            uncolor(region, flat, touched)
        return False

    if not extend():
        raise OrderingStuck(
            "exhaustive search found no valid region ordering (internal bug)"
        )
    return RegionOrdering(tuple(colored), tuple(step_flats))


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
        return matrix.copy()
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
    transforms P, Q with P V Q = diag(diagonal), where Q is P transposed."""

    ordering: tuple[int, ...]
    step_flats: tuple[int, ...]
    diagonal: list[FactoredPoly]
    P: list[list[Polynomial]]
    Q: list[list[Polynomial]]
    checks: dict

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
        return {
            "ordering": list(self.ordering),
            "steps": [
                {"k": k, "flat": flat, "entry": str(self.diagonal[k])}
                for k, flat in enumerate(self.step_flats)
            ],
            "P": [[p.to_string(spaces=False) for p in row] for row in self.P],
            "Q": [[q.to_string(spaces=False) for q in row] for row in self.Q],
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _matmul(
    a: Sequence[Sequence[Polynomial]], b: Sequence[Sequence[Polynomial]]
) -> list[list[Polynomial]]:
    n = len(a)
    out = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            aik = a[i][k]
            if aik.is_zero():
                continue
            brow = b[k]
            orow = out[i]
            for j in range(n):
                if not brow[j].is_zero():
                    orow[j] = orow[j] + aik * brow[j]
    return out


def _ordering_det(P: list[list[Polynomial]], perm: Sequence[int]) -> str:
    """Prove det P in {+1, -1} from the shape of P and return it as a string.

    P = L * Pi, where Pi[i][perm[i]] = 1 and L[i][j] = P[i][perm[j]].  Once
    L is checked to be unit lower-triangular, det P = det Pi = sign(perm)
    at every size.
    """
    n = len(perm)
    for i, row in enumerate(P):
        if row[perm[i]] != Polynomial.one():
            raise ClosedFormViolation(
                f"transform entry ({i},{perm[i]}) is {row[perm[i]]}, not 1, "
                f"on the diagonal in elimination order"
            )
        for j in range(i + 1, n):
            if not row[perm[j]].is_zero():
                raise ClosedFormViolation(
                    f"transform entry ({i},{perm[j]}) is nonzero above the "
                    f"diagonal in elimination order"
                )
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    return "-1" if inversions % 2 else "1"


def diagonalize(arrangement: Arrangement) -> DiagonalizationCertificate:
    """Reduce V to its diagonal form, verifying every predicted closed form.

    After each elimination step k the implementation asserts:

    * the pivot equals the product of (1 - x_a^2) over the defining set of
      the flat first encompassed at step k;
    * before the step, every entry of the pivot column is zero or the
      original monomial times the pivot;
    * each remaining entry equals the original entry times the capped
      product of (1 - distance^2) over all completed steps;
    * all earlier rows and columns stay zero off the diagonal.

    Any violation raises ClosedFormViolation.
    """
    order = ordering(arrangement)
    poset = arrangement.poset()
    regions = arrangement.regions()
    r = len(regions)
    perm = list(order.order)

    v_canonical = build_varchenko(arrangement)
    work = v_canonical.permuted(perm)
    original = [row[:] for row in work.rows]

    permuted_regions = [regions[p] for p in perm]
    sep = [
        [permuted_regions[i].separation_mask(permuted_regions[j]) for j in range(r)]
        for i in range(r)
    ]

    # P starts as the permutation matrix with P V = (rows permuted); each
    # step subtracts multiples of row k from later rows only.  The column
    # updates mirror the row updates, so the column transform is P^T.
    P = [
        [Polynomial.one() if j == perm[i] else Polynomial.zero() for j in range(r)]
        for i in range(r)
    ]

    capped = [[Polynomial.one() for _ in range(r)] for _ in range(r)]
    factors: dict[int, Polynomial] = {}  # 1 - m^2 per separation mask
    pivots: list[Polynomial] = []
    diagonal: list[FactoredPoly] = []

    for k in range(r):
        defset = poset.flats[order.step_flats[k]].defining_tuple()
        factored = FactoredPoly.from_factors(
            (one_minus_square((a,)), 1) for a in defset
        )
        pivot = factored.expand()
        if work.rows[k][k] != pivot:
            raise ClosedFormViolation(
                f"step {k}: pivot {work.rows[k][k]} does not match the "
                f"predicted {factored}"
            )
        for m in range(r):
            if m == k:
                continue
            entry = work.rows[m][k]
            if not entry.is_zero() and entry != original[m][k] * pivot:
                raise ClosedFormViolation(
                    f"step {k}: pivot-column entry ({m},{k}) is neither zero "
                    f"nor the original monomial times the pivot"
                )

        quotients = []
        for m in range(r):
            try:
                quotients.append(exact_div(work.rows[m][k], pivot))
            except NotDivisible:
                raise PivotDivisionFailure(k, m) from None

        rows = work.rows
        for m in range(r):
            qm = quotients[m]
            if m == k or qm.is_zero():
                continue
            row_m = rows[m]
            row_k = rows[k]
            for j in range(r):
                if not row_k[j].is_zero():
                    row_m[j] = row_m[j] - qm * row_k[j]
            P[m] = [pm - qm * pk for pm, pk in zip(P[m], P[k])]
        for j in range(r):
            qj = quotients[j]
            if j == k or qj.is_zero():
                continue
            for m in range(r):
                if not rows[m][k].is_zero():
                    rows[m][j] = rows[m][j] - qj * rows[m][k]
        rows[k][k] = pivot

        for m in range(r):
            for n_ in range(m, r):
                if n_ <= k:
                    continue
                mask = sep[k][m] & sep[k][n_]
                factor = factors.get(mask)
                if factor is None:
                    factor = factors[mask] = one_minus_square(
                        monomial_from_mask(mask).variables()
                    )
                capped[m][n_] = (capped[m][n_] * factor).capped()
                expected = original[m][n_] * capped[m][n_]
                if rows[m][n_] != expected or rows[n_][m] != expected:
                    raise ClosedFormViolation(
                        f"step {k}: entry ({m},{n_}) does not match the "
                        f"capped closed form"
                    )
        for m in range(k + 1):
            for n_ in range(m + 1, k + 1):
                if not rows[m][n_].is_zero() or not rows[n_][m].is_zero():
                    raise ClosedFormViolation(
                        f"step {k}: entry ({m},{n_}) was not cleared"
                    )
        for m, prior in enumerate(pivots):
            if rows[m][m] != prior:
                raise ClosedFormViolation(
                    f"step {k}: earlier pivot ({m},{m}) changed"
                )
        pivots.append(pivot)
        diagonal.append(factored)

    Q = [list(col) for col in zip(*P)]
    checks = _certificate_checks(v_canonical, P, Q, perm, diagonal)
    return DiagonalizationCertificate(
        ordering=order.order,
        step_flats=order.step_flats,
        diagonal=diagonal,
        P=P,
        Q=Q,
        checks=checks,
    )


def _certificate_checks(
    v: LabeledMatrix,
    P: list[list[Polynomial]],
    Q: list[list[Polynomial]],
    perm: Sequence[int],
    diagonal: list[FactoredPoly],
) -> dict:
    r = v.size
    product = _matmul(_matmul(P, v.rows), Q)
    ok = True
    for i in range(r):
        for j in range(r):
            expected = diagonal[i].expand() if i == j else Polynomial.zero()
            if product[i][j] != expected:
                ok = False
    if not ok:
        raise ClosedFormViolation("P V Q does not equal the diagonal matrix")
    det = _ordering_det(P, perm)
    return {"pvq_equals_d": True, "det_p": det, "det_q": det}


def expected_diagonal(arrangement: Arrangement) -> list[FactoredPoly]:
    """The diagonal multiset read directly off the flat poset."""
    _semigeneral_gate(arrangement)
    out = []
    for flat in arrangement.poset():
        out.append(
            FactoredPoly.from_factors(
                (one_minus_square((a,)), 1) for a in flat.defining_tuple()
            )
        )
    return out


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
