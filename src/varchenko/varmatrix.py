"""The Varchenko matrix, distance monomials, the closed determinant formula
and an independent brute-force determinant oracle."""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Mapping, Sequence, Union

from .errors import InvalidInput, TooLarge, Unsupported
from .geometry import Arrangement
from .polyring import (
    FactoredPoly,
    Monomial,
    Polynomial,
    exact_div,
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

    def is_symmetric(self) -> bool:
        n = self.size
        return all(
            self.rows[i][j] == self.rows[j][i] for i in range(n) for j in range(i)
        )

    def permuted(self, perm: Sequence[int]) -> "LabeledMatrix":
        """Simultaneous row/column reorder; row i of the result is row perm[i]."""
        if sorted(perm) != list(range(self.size)):
            raise InvalidInput("not a permutation of the matrix indices")
        return LabeledMatrix(
            [self.labels[p] for p in perm],
            [[self.rows[p][q] for q in perm] for p in perm],
        )

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
        return cls(labels, rows)

    @classmethod
    def from_json(cls, text: str) -> "LabeledMatrix":
        return cls.from_json_dict(parse_json(text))


def build_varchenko(arrangement: Arrangement) -> LabeledMatrix:
    """Entry (m, n) is the squarefree monomial over sep(R_m, R_n); entries
    with the same separation set share one polynomial."""
    regions = arrangement.regions()
    masks = [[x.separation_mask(y) for y in regions] for x in regions]
    distinct = set(chain.from_iterable(masks))
    shared = {m: Polynomial.from_monomial(Monomial.from_mask(m)) for m in distinct}
    rows = [[shared[m] for m in row] for row in masks]
    return LabeledMatrix(list(range(len(regions))), rows)


def distance(arrangement: Arrangement, k: int, m: int, n: int) -> Monomial:
    """Product of the variables separating region k from both m and n."""
    regions = arrangement.regions()
    try:
        rk, rm, rn = regions[k], regions[m], regions[n]
    except IndexError:
        raise InvalidInput("region id out of range") from None
    return Monomial.from_mask(rk.separation_mask(rm) & rk.separation_mask(rn))


def det_formula(arrangement: Arrangement) -> FactoredPoly:
    """Closed-form determinant, read off the cached faces and poset.

    Each flat X above the bottom contributes (1 - m_X^2)^(n_X * p_X), where
    m_X is the product of the variables of the hyperplanes containing X,
    n_X is the number of faces whose zero set is exactly X's defining set
    (the regions of the restriction to X), and p_X = |sum mu(Y) * dim Y|
    over the flats Y whose defining set lies in X's (|chi'(1)| of the
    localization at X).  In central mode, when the hyperplanes meet only at
    the origin, the origin is a flat too: it contributes
    (1 - (x_1 ... x_n)^2)^p with p = |sum mu(Y) * (dim Y + 1)| over all
    flats, its linear dimension being 0."""
    if arrangement.mode == "covector":
        raise Unsupported("determinant formula needs coordinates (covector mode)")
    poset = arrangement.poset()
    face_counts = Counter(f.zero_set() for f in arrangement.faces().members)
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
        n_x = face_counts[flat.defining_set]
        factors.append((one_minus_square(flat.defining_tuple()), n_x * p_x))
    n = arrangement.n
    if arrangement.mode == "central" and poset.flat_index(range(n)) is None:
        p_origin = abs(sum(mu * (y.dim + 1) for y, mu in zip(poset, poset.mobius)))
        factors.append((one_minus_square(range(n)), p_origin))
    return FactoredPoly.from_factors(factors)


def det_bruteforce(matrix: LabeledMatrix) -> Polynomial:
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
