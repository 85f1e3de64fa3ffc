"""The Varchenko matrix, the closed determinant formula and an independent
brute-force determinant oracle."""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Mapping, Sequence, Union

from .errors import InvalidInput, TooLarge, Unsupported
from .geometry import Arrangement, _reject_unknown_keys, sum_over
from .polyring import (
    FactoredPoly,
    Monomial,
    Polynomial,
    _check_fields,
    _raw,
    divisibility_masks,
    one_minus_square,
    parse_json,
    parse_polynomial,
)

MAX_BRUTE_DET = 12


class LabeledMatrix:
    """Square symmetric-by-construction grid of polynomials with row labels.

    Labels are canonical region ids; entry (i, j) belongs to the pair
    (labels[i], labels[j]).
    """

    def __init__(self, labels: Sequence[int], rows: Sequence[Sequence[Polynomial]]):
        self.labels = list(labels)
        self.rows = [list(r) for r in rows]
        n = len(self.labels)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise InvalidInput("labeled matrix must be square")

    @property
    def size(self) -> int:
        return len(self.labels)

    def substitute(
        self, sigma: Mapping[int, Union[int, Polynomial]]
    ) -> "LabeledMatrix":
        return LabeledMatrix(
            self.labels,
            [[e.substitute(sigma) for e in row] for row in self.rows],
        )

    def substitute_all(self, value: Union[int, Polynomial]) -> "LabeledMatrix":
        variables = set()
        for row in self.rows:
            for e in row:
                variables.update(e.variables())
        return self.substitute({v: value for v in variables})

    def to_int_grid(self) -> list[list[int]]:
        return [[e.as_int() for e in row] for row in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledMatrix)
            and self.labels == other.labels
            and self.rows == other.rows
        )

    def to_text(self) -> str:
        cells = [[e.to_string(spaces=False) for e in row] for row in self.rows]
        widths = [
            max(len(cells[i][j]) for i in range(self.size))
            for j in range(self.size)
        ]
        lines = []
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "labels": self.labels,
            "entries": [
                [e.to_string(spaces=False) for e in row] for row in self.rows
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LabeledMatrix":
        if not isinstance(data, dict) or "entries" not in data:
            raise InvalidInput("matrix JSON must be an object with 'entries'")
        _reject_unknown_keys(data, ("labels", "entries"), "matrix JSON")
        entries = data["entries"]
        if not isinstance(entries, list) or not all(
            isinstance(row, list) and all(isinstance(cell, str) for cell in row)
            for row in entries
        ):
            raise InvalidInput("'entries' must be a list of rows of polynomial strings")
        rows = [[parse_polynomial(cell) for cell in row] for row in entries]
        labels = data.get("labels", list(range(len(rows))))
        if not isinstance(labels, list) or not all(type(i) is int for i in labels):
            raise InvalidInput("'labels' must be a list of integers")
        if len(labels) != len(rows):
            raise InvalidInput(f"'labels' has {len(labels)} entries but the matrix has {len(rows)} rows")
        return cls(labels, rows)

    @classmethod
    def from_json(cls, text: str) -> "LabeledMatrix":
        return cls.from_json_dict(parse_json(text))


def build_varchenko(arrangement: Arrangement) -> LabeledMatrix:
    """Entry (m, n) is the squarefree monomial over sep(R_m, R_n), the XOR
    of the regions' '+' masks (regions have no zero entry); entries with
    the same separation set share one polynomial."""
    pluses = [region.plus for region in arrangement.regions()]
    distinct = {p ^ q for p in pluses for q in pluses}
    shared = {m: Polynomial.from_monomial(Monomial.from_mask(m)) for m in distinct}
    rows = [[shared[p ^ q] for q in pluses] for p in pluses]
    return LabeledMatrix(list(range(len(pluses))), rows)


def det_formula(arrangement: Arrangement) -> FactoredPoly:
    """Closed-form determinant, read off the cached poset.

    Each flat X above the bottom contributes (1 - m_X^2)^(n_X * p_X), where
    m_X is the product of the variables of the hyperplanes containing X,
    n_X is the number of faces on X (the regions of the restriction to X),
    read off the flat, and p_X = |sum mu(Y) * dim Y| over the flats Y whose
    defining set lies in X's (|chi'(1)| of the localization at X), the set
    bits of `IntersectionPoset.below`.  The mu(Y) sum to 0 there, so
    spherical and linear dimensions give the same p_X; in central mode the
    origin, a flat when the hyperplanes meet only there, with n_X = 1,
    contributes (1 - (x_1 ... x_n)^2)^p with p = |sum mu(Y) * (dim Y + 1)|
    over all flats."""
    if arrangement.mode == "covector":
        raise Unsupported("determinant formula needs coordinates (covector mode)")
    poset = arrangement.poset()
    weights = [mu * y.dim for y, mu in zip(poset, poset.mobius)]
    factors = []
    for flat in poset:
        if not flat.defining_set:
            continue
        p_x = abs(sum_over(poset.below(flat.index), weights))
        factors.append((one_minus_square(flat.defining_tuple()), flat.faces * p_x))
    return FactoredPoly.from_factors(factors)


def _row_order(rows: list[list[dict[int, int]]]) -> list[int]:
    """The order in which `det_bruteforce` expands the rows of its packed
    matrix.

    Row i lies on the far side of the variable x_v from row 0 when x_v
    divides entry (i, 0); for V that entry is the monomial of
    sep(R_i, R_0).  The rows split on the variable whose sides are most
    unbalanced among them (the lowest id on ties), the larger side first
    (the side holding the lowest row on ties), and each side splits again
    the same way; a group that no variable splits keeps its rows in
    order."""
    n = len(rows)
    masks = divisibility_masks([row[0] for row in rows])
    order: list[int] = []

    def split(group: int) -> None:
        sides = [(group & m, group & ~m) for m in masks if group & m and group & ~m]
        if not sides:
            order.extend(i for i in range(n) if group >> i & 1)
            return
        size = group.bit_count()
        # max keeps the first of equals: the lowest variable id
        best = max(sides, key=lambda pair: abs(2 * pair[0].bit_count() - size))
        for side in sorted(best, key=lambda g: (-g.bit_count(), g & -g)):
            split(side)

    split((1 << n) - 1)
    return order


def det_bruteforce(matrix: LabeledMatrix) -> Polynomial:
    """Exact expanded determinant by Laplace expansion along the rows,
    memoised over column subsets; no division is made.

    The rows are taken in the order `_row_order` picks, row_1, ..., row_n,
    and the result is negated when that order is an odd permutation.
    minor[T] is the determinant of the first |T| rows of that order on the
    columns in the bitmask T, and expanding along its last row gives

        minor[T] = sum over j in T of (-1)^(|T|-1+pos_T(j)) a[row_|T|][j] minor[T - {j}],

    pos_T(j) being the number of columns of T below j.  The minors are
    built one layer |T| = k at a time on packed key -> coeff maps, so a
    product of terms is an int add.  Each layer pushes forward: every
    nonzero minor[S] of the layer below is taken out and freed, and for
    each column j outside S with a nonzero entry in row_k its signed
    product with that entry is added into the sum for T = S + {j}.  Each
    sum is finished after the layer and freed: cancelled terms are
    dropped, the guard bits of the rest are checked, so no field carries
    unseen through the next layer, and a nonzero minor is kept.  So about
    one layer is held at a time: 3.8 MB traced at the 12-region cap.

    The order keeps minors small.  In a k x k minor of V on rows R and
    columns T, with a rows and b columns on the + side of hyperplane v,
    every exponent of x_v lies in [|a - b|, min(a + b, 2k - a - b)] and
    is congruent to a + b mod 2, so it takes at most
    min(a, b, k - a, k - b) + 1 values, and one value while the rows so
    far all lie on one side of v.  Taking the larger side first keeps
    the rows on one side of the most variables for longest: on four
    generic lines (11 regions) the term products fall from 239,038 in
    region order to 45,117.  Any order gives the same minors up to sign.
    """
    n = matrix.size
    if n > MAX_BRUTE_DET:
        raise TooLarge(f"determinant oracle capped at {MAX_BRUTE_DET}, got {n}")
    rows = [[e.packed() for e in row] for row in matrix.rows]
    order = _row_order(rows)
    prev: dict[int, dict[int, int]] = {0: {0: 1}}
    for k in range(1, n + 1):
        # each nonzero entry of row_k as (column bit, terms, negated terms)
        entries = [
            (1 << j, list(e.items()), [(key, -c) for key, c in e.items()])
            for j, e in enumerate(rows[order[k - 1]])
            if e
        ]
        sums: dict[int, dict[int, int]] = {}
        while prev:
            s, sub = prev.popitem()
            for bit, terms, negated in entries:
                if s & bit:
                    continue
                t = s | bit
                # pos_T(j) = pos_S(j): the columns of S below j
                signed = negated if (k - 1 + (s & (bit - 1)).bit_count()) & 1 else terms
                acc = sums.get(t)
                if acc is None:
                    if len(signed) == 1:
                        # one term: its products with minor[S] have distinct keys
                        (ka, ca), = signed
                        sums[t] = {ka + km: ca * cm for km, cm in sub.items()}
                        continue
                    acc = sums[t] = {}
                get = acc.get
                for ka, ca in signed:
                    for km, cm in sub.items():
                        key = ka + km
                        acc[key] = get(key, 0) + ca * cm
        # prev is empty now: finish each sum into it as the next layer
        while sums:
            t, acc = sums.popitem()
            minor = {key: c for key, c in acc.items() if c}
            if minor:
                _check_fields(reduce(or_, minor))
                prev[t] = minor
        if not prev:
            return Polynomial.zero()
    det = _raw(prev[(1 << n) - 1])
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -det if inversions & 1 else det
