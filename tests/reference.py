"""Reference implementations the tests compare the runtime against.

`_certificate_checks` proves P V P^T = D from a built V by products of
packed monomial keys; `diagonalize` proves the same from the faces the
steps complete (`_face_cube_checks`) and builds no V.
"""

from functools import reduce
from operator import or_
from typing import Sequence

from varchenko.diagonalize import SparseRow, _ordering_det
from varchenko.errors import ClosedFormViolation
from varchenko.polyring import Polynomial, _check_fields
from varchenko.varmatrix import LabeledMatrix


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
