"""The diagonal-form certificate: its type, the rows of P its step faces
imply, `prove`, the one proof that P V P^T = D, and the format-2 writer
and reader.

A certificate is the region ordering and, for each step, the flat it
encompasses, the face of that flat it completes and its diagonal entry.
Row k of P is fixed by step k's face, so the file holds no matrix.
`diagonalize` proves the ordering its search finds; `verify_certificate`
reads a file and proves the file's ordering, with no ordering search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .errors import ClosedFormViolation, InvalidInput, NotSemigeneral
from .geometry import Arrangement
from .polyring import FactoredPoly, Monomial, Polynomial, mask_key, one_minus_square, parse_json
from .signedsets import SignVector, bits, side_masks

FORMAT = 2


@dataclass(frozen=True)
class RegionOrdering:
    """A coloring order with, per step, the flat first encompassed and the
    face-table position of the face of that flat the step completes."""

    order: tuple[int, ...]
    step_flats: tuple[int, ...]
    step_faces: tuple[int, ...]


def _semigeneral_gate(arrangement: Arrangement) -> None:
    witness = arrangement.semigeneral_witness()
    if witness is not None:
        names = [arrangement.names[i] for i in sorted(witness.defining_set)]
        raise NotSemigeneral(
            names, witness.dim, arrangement.dim - len(witness.defining_set)
        )


@lru_cache(maxsize=None)
def _hyperplane_factor(a: int) -> tuple[Polynomial, int]:
    """(1 - x_a^2) to the first power, built once per hyperplane id (at
    most the enumeration's ground-set cap of them) and shared by every
    diagonal entry, of `prove` and `expected_diagonal` alike."""
    return one_minus_square((a,)), 1


def _diagonal_entry(flat) -> FactoredPoly:
    """The product of (1 - x_a^2) over the flat's defining set."""
    return FactoredPoly(tuple(map(_hyperplane_factor, flat.defining_tuple())))


# A row of P by its nonzero entries: region id -> entry.
SparseRow = dict[int, Polynomial]


def _transform_entry(sep: int) -> Polynomial:
    """(-1)^|S| x^S for the separation mask S of two regions."""
    return Polynomial.from_monomial(
        Monomial.from_mask(sep), -1 if sep.bit_count() % 2 else 1
    )


def _transform_rows(arrangement: Arrangement, order: RegionOrdering) -> list[SparseRow]:
    """Row k of P: (-1)^|S| x^S, S = sep(R_k, R), on the regions R adjacent
    to the face that step k completes; S is the XOR of the regions' '+'
    masks, and entries with the same S share one polynomial."""
    pluses = [region.plus for region in arrangement.regions()]
    table = arrangement.face_table()
    shared: dict[int, Polynomial] = {}
    rows = []
    for k, face in zip(order.order, order.step_faces):
        row = {}
        for j in bits(table.adjacent[face]):
            sep = pluses[k] ^ pluses[j]
            if sep not in shared:
                shared[sep] = _transform_entry(sep)
            row[j] = shared[sep]
        rows.append(row)
    return rows


def _permutation_sign(perm: Sequence[int]) -> int:
    """The sign of a permutation of 0..n-1: (-1)^(n - number of cycles)."""
    seen = bytearray(len(perm))
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = 1
                j = perm[j]
    return -1 if (len(perm) - cycles) % 2 else 1


def _ordering_det(rows: list[SparseRow], perm: Sequence[int]) -> str:
    """Prove det P in {+1, -1} from the shape of P's rows and return it as a
    string.

    P = L * Pi, where Pi[i][perm[i]] = 1 and L[i][j] = P[i][perm[j]].  Once
    L is checked to be unit lower-triangular, det P = det Pi = sign(perm)
    at every size.
    """
    step_of = {region: j for j, region in enumerate(perm)}
    for i, row in enumerate(rows):
        pivot = row.get(perm[i], Polynomial.zero())
        if pivot != Polynomial.one():
            raise ClosedFormViolation(
                f"step {i}: transform entry ({i},{perm[i]}) is {pivot}, not 1, "
                f"on the diagonal in elimination order"
            )
        for region, entry in row.items():
            if step_of[region] > i and not entry.is_zero():
                raise ClosedFormViolation(
                    f"step {i}: transform entry ({i},{region}) is nonzero above the "
                    f"diagonal in elimination order"
                )
    return str(_permutation_sign(perm))


def _first_agreeing(pluses: Sequence[int], zeros: Sequence[int], n: int) -> list[Optional[int]]:
    """For each step i, the first step before it whose region agrees with
    step i's on zeros[i], or None; the regions are given by their '+'
    masks (they have no zero entry) in step order.  With one bitset over
    the steps per hyperplane and side, the steps that agree with step i on
    Z are the AND over Z of the side step i takes, and the lowest set bit
    below i names the first."""
    sides = side_masks(pluses, n)
    first: list[Optional[int]] = []
    for i, (plus, zero) in enumerate(zip(pluses, zeros)):
        agree = (1 << i) - 1
        for e in bits(zero):
            agree &= sides[e][plus >> e & 1]
        first.append((agree & -agree).bit_length() - 1 if agree else None)
    return first


def _face_cube_checks(
    arrangement: Arrangement, order: RegionOrdering, rows: list[SparseRow]
) -> None:
    """Prove P V P^T = D from the faces the steps complete, once
    `_ordering_det` has proven P = L * Pi with L unit lower-triangular.

    Let step i color R_i and complete face f_i, whose zero set Z is its
    flat's mask.  If f_i's adjacent regions are R_i (+) T, R_i with its signs
    on T flipped, for every subset T of Z, and row i of P is (-1)^|T| x^T
    there, (P V)[i][b] is x^sep(R_i, b) * prod_{e in Z} (1 - x_e^2) if
    sep(R_i, b) misses Z, else 0: the sum over T factorises by e in Z into
    1 - x_e^2 where R_i and b agree on e and x_e - x_e = 0 where they
    differ.  If no region colored before step i agrees with R_i on Z either
    (`_first_agreeing`), P V in elimination order is upper triangular with
    diagonal D, so the symmetric P V P^T is D.  These conditions are checked
    per step on masks, entries read as packed keys.
    """
    pluses = [region.plus for region in arrangement.regions()]
    masks = arrangement.poset().masks
    table = arrangement.face_table()
    zeros = [masks[table.flats[f]] for f in order.step_faces]
    steps = [pluses[region] for region in order.order]
    earlier = _first_agreeing(steps, zeros, arrangement.n)
    for i, (flat, f, zero, step) in enumerate(
        zip(order.step_flats, order.step_faces, zeros, steps)
    ):
        face_flat, adjacent = table.flats[f], table.adjacent[f]
        seps = {a: step ^ pluses[a] for a in rows[i]}
        wrong = [
            a for a, s in seps.items()
            if s & ~zero or rows[i][a].packed() != {mask_key(s): (-1) ** s.bit_count()}
        ]
        if face_flat != flat:
            failed = f"its face lies on flat {face_flat}, not on the step flat {flat}"
        elif adjacent.bit_count() != 1 << zero.bit_count():
            failed = f"its face has {adjacent.bit_count()} adjacent regions, not a full cube"
        elif sum(1 << a for a in seps) != adjacent:
            failed = "the row's nonzero entries are not its face's adjacent regions"
        elif wrong:
            failed = f"transform entry ({i},{wrong[0]}) is not (-1)^|T| x^T on the cube"
        elif earlier[i] is not None:
            failed = f"region {order.order[earlier[i]]} agrees with it on the face's zero set"
        else:
            continue
        raise ClosedFormViolation(f"P V Q does not equal the diagonal matrix: step {i}: {failed}")


@dataclass
class DiagonalizationCertificate:
    """Region ordering, per-step flats and faces, factored diagonal and the
    sparse rows of the unimodular transform P with P V Q = diag(diagonal),
    where Q is P transposed.  Row k of P is fixed by step k's face, so the
    JSON form (format 2) writes the faces and not P, and the dense P is
    built on first read."""

    ordering: tuple[int, ...]
    step_flats: tuple[int, ...]
    step_faces: tuple[SignVector, ...]
    diagonal: list[FactoredPoly]
    rows: list[SparseRow]
    checks: dict

    @cached_property
    def P(self) -> list[list[Polynomial]]:
        zero = Polynomial.zero()
        return [[row.get(j, zero) for j in range(len(self.rows))] for row in self.rows]

    @property
    def Q(self) -> list[list[Polynomial]]:
        return [list(col) for col in zip(*self.P)]

    def to_json_dict(self) -> dict:
        steps = zip(self.step_flats, self.step_faces, self.diagonal)
        return {
            "format": FORMAT,
            "ordering": list(self.ordering),
            "steps": [
                {"k": k, "flat": flat, "face": face.to_string(), "entry": str(entry)}
                for k, (flat, face, entry) in enumerate(steps)
            ],
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def prove(arrangement: Arrangement, order: RegionOrdering) -> DiagonalizationCertificate:
    """The certificate of `order`, proven: P's rows are written from the
    faces its steps complete (`_transform_rows`), `_ordering_det` proves
    det P = +-1 and `_face_cube_checks` proves P V P^T = D, or either
    raises ClosedFormViolation.  Diagonal entry k is the product of
    (1 - x_a^2) over the defining set of step k's flat; the faces, held by
    their face-table positions, are written as sign vectors."""
    rows = _transform_rows(arrangement, order)
    det = _ordering_det(rows, order.order)
    _face_cube_checks(arrangement, order, rows)
    flats, faces = arrangement.poset().flats, arrangement.face_table().faces
    return DiagonalizationCertificate(
        ordering=order.order,
        step_flats=order.step_flats,
        step_faces=tuple(faces[f] for f in order.step_faces),
        diagonal=[_diagonal_entry(flats[flat]) for flat in order.step_flats],
        rows=rows,
        checks={"pvq_equals_d": True, "det_p": det, "det_q": det},
    )


def _json_object(value, keys: set[str], what: str) -> dict:
    """`value`, checked to be a JSON object with exactly `keys`."""
    if not isinstance(value, dict):
        raise InvalidInput(f"certificate {what} must be a JSON object")
    if set(value) != keys:
        missing, unknown = sorted(keys - set(value)), sorted(set(value) - keys)
        raise InvalidInput(
            f"certificate {what} must have the keys {sorted(keys)}"
            + (f"; missing {missing}" if missing else "")
            + (f"; unknown {unknown}" if unknown else "")
        )
    return value


def _index(value, bound: int, what: str) -> int:
    """`value`, checked to be an int in 0..bound-1."""
    if type(value) is not int or not 0 <= value < bound:
        raise InvalidInput(f"certificate {what} must be an integer in 0..{bound - 1}, got {value!r}")
    return value


def _string(value, what: str) -> str:
    """`value`, checked to be a string."""
    if not isinstance(value, str):
        raise InvalidInput(f"certificate {what} must be a string, got {value!r}")
    return value


def read_certificate(
    arrangement: Arrangement, text: str
) -> tuple[tuple[int, ...], tuple[int, ...], list[SignVector], list[str], dict]:
    """The ordering, step flats and faces, diagonal entries and checks of
    a format-2 certificate for `arrangement`; InvalidInput if it is not one.

    The ordering must list every region id once and there must be one step
    per region, with its index as `k`, a flat id of the arrangement and a
    sign string of the arrangement's length as its face.  Whether each face
    is a face of the arrangement, and everything else the file claims, is
    left to the proof.
    """
    data = parse_json(text, "certificate JSON")
    if not isinstance(data, dict):
        raise InvalidInput("certificate must be a JSON object")
    if "format" not in data:
        raise InvalidInput(
            'certificate has no "format" key: it is a dense format-1 file or not a '
            f"certificate; verify reads format {FORMAT}"
        )
    if type(data["format"]) is not int or data["format"] != FORMAT:
        raise InvalidInput(
            f"certificate format {data['format']!r} is not supported; verify reads "
            f"format {FORMAT}"
        )
    _json_object(data, {"format", "ordering", "steps", "checks"}, "file")
    r, nflats, n = len(arrangement.regions()), len(arrangement.poset()), arrangement.n
    order, steps = data["ordering"], data["steps"]
    for value, what in ((order, "ordering"), (steps, "steps")):
        if not isinstance(value, list) or len(value) != r:
            raise InvalidInput(f"certificate {what} must be a list of {r} entries, one per region")
    seen: set[int] = set()
    for value in order:
        region = _index(value, r, "ordering region id")
        if region in seen:
            raise InvalidInput(f"certificate ordering lists region {region} twice")
        seen.add(region)
    flats, faces, entries = [], [], []
    for k, step in enumerate(steps):
        step = _json_object(step, {"k", "flat", "face", "entry"}, f"step {k}")
        if type(step["k"]) is not int or step["k"] != k:
            raise InvalidInput(f"certificate step {k} has k = {step['k']!r}")
        flats.append(_index(step["flat"], nflats, f"step {k} flat id"))
        face = _string(step["face"], f"step {k} face")
        if len(face) != n:
            raise InvalidInput(
                f"certificate step {k} face {face!r} has {len(face)} signs, not {n}"
            )
        faces.append(SignVector.from_string(face))
        entries.append(_string(step["entry"], f"step {k} entry"))
    checks = _json_object(data["checks"], {"pvq_equals_d", "det_p", "det_q"}, "checks")
    return tuple(order), tuple(flats), faces, entries, checks


def verify_certificate(arrangement: Arrangement, text: str) -> dict:
    """Prove a format-2 certificate for `arrangement` and return its checks.

    NotSemigeneral if the arrangement is not semigeneral, InvalidInput if
    the file is malformed, and ClosedFormViolation, naming the step and the
    condition, if a step face is not a face of the arrangement, `prove`
    fails on the file's ordering and faces, an entry is not the product
    over its step flat's defining set or a check differs from what the
    proof gives.
    """
    _semigeneral_gate(arrangement)
    order, flats, faces, entries, checks = read_certificate(arrangement, text)
    position = {face: f for f, face in enumerate(arrangement.face_table().faces)}
    for k, face in enumerate(faces):
        if face not in position:
            raise ClosedFormViolation(
                f"step {k}: its face {face.to_string()} is not a face of the arrangement"
            )
    cert = prove(arrangement, RegionOrdering(order, flats, tuple(map(position.get, faces))))
    for k, (entry, expected) in enumerate(zip(entries, map(str, cert.diagonal))):
        if entry != expected:
            raise ClosedFormViolation(
                f"step {k}: its entry {entry} is not {expected}, the product over "
                f"the step flat's defining set"
            )
    for key, value in cert.checks.items():
        if type(checks[key]) is not type(value) or checks[key] != value:
            raise ClosedFormViolation(
                f"checks: {key} is {checks[key]!r}, but the proof gives {value!r}"
            )
    return cert.checks
