"""Exact arrangement geometry over the rationals.

Supported modes:

* ``affine``  - hyperplanes ``normal . x = offset`` in R^dim; the positive
  side is ``normal . x > offset``.
* ``central`` - the sphere S^dim; hyperplanes pass through the origin of
  R^(dim+1) and every offset is 0.  Dimensions are spherical (linear
  dimension minus one) and subspaces meeting the sphere only at the origin
  count as empty.
* ``covector`` - no coordinates: the face family is given explicitly as a
  list of sign vectors, with flats read off as zero sets and dimensions
  taken from poset height.

The faces of an arrangement are the regions of its restrictions to its
flats (Zaslavsky 1975), and they come from one recursion over the flats,
memoised by closed defining mask.  The regions of a flat X come from a
depth-first pass over the hyperplanes that cut X, carrying a rational
point in every region it visits: a hyperplane either passes through the
region's point, or it cuts the region exactly when some region of the
flat X ∩ H, enumerated first, has the region's signs on the hyperplanes
before it, which is one lookup by sign prefix and supplies a point on H.
No LP is solved.  The pass runs in integers: a point x is held as (P, D),
an integer vector and a positive denominator with x = P / D in lowest
terms, each hyperplane is scaled once to an integer (A, B), and each flat
direction is a primitive integer vector.  Regions are the zero-free faces.
Every reported sign vector is backed by an explicit point, checked to
realise it, and no floating point is involved.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import InconsistentWitness, InvalidArrangement, InvalidInput, TooLarge
from .exactlp import Point, _dot, _lowest, _normalize_int, _primitive
from .polyring import parse_int, parse_json
from .signedsets import (
    SignedFamily,
    SignVector,
    bits,
    check_composition_closure,
    side_masks,
)

MAX_GROUND_SIZE = 16
MAX_DIM = 64

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL_RE.fullmatch(s):
        raise InvalidInput(f"bad rational string {s!r}")
    numerator, _, denominator = s.partition("/")
    den = parse_int(denominator or "1")
    if den == 0:
        raise InvalidInput(f"zero denominator in {s!r}")
    return Fraction(parse_int(numerator), den)


def _step(point: Point, d: Sequence[int], stricts) -> Point:
    """point + t * d for half the largest t > 0 that keeps every strict
    constraint (a, b), a . x > b, strict at the new point (t = 1 if none
    limits it)."""
    p, den = point
    limit = None
    for a, b in stricts:
        rate = _dot(a, d)
        if rate < 0:
            # a . x - b falls to 0 at t * den = slack / -rate
            slack = _dot(a, p) - b * den
            if limit is None or slack * limit[1] < limit[0] * -rate:
                limit = slack, -rate
    # t * den, as the fraction num / rat
    num, rat = (den, 1) if limit is None else (limit[0], 2 * limit[1])
    return _lowest([rat * x + num * c for x, c in zip(p, d)], rat * den)


def _reject_unknown_keys(data: dict, allowed: Sequence[str], what: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise InvalidInput(
            f"unknown key {unknown[0]!r} in {what}; allowed keys: {', '.join(allowed)}"
        )


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane ``normal . x = offset``; positive side is '>'."""

    name: str
    normal: tuple[Fraction, ...]
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        if not self.name:
            raise InvalidArrangement("hyperplane name must be nonempty")
        if not any(self.normal):
            raise InvalidArrangement(f"hyperplane {self.name!r} has zero normal")


def _canonical_key(normal: Sequence[Fraction], offset: Fraction) -> tuple[int, ...]:
    """Primitive integer form of (normal, offset), sign-normalized.

    Two hyperplanes with the same key have the same point set regardless of
    orientation or scaling.
    """
    coeffs, rhs = _normalize_int(normal, offset)
    ints = coeffs + (rhs,)
    if next(v for v in ints if v) < 0:
        ints = tuple(-v for v in ints)
    return ints


@dataclass(frozen=True)
class Flat:
    """A nonempty intersection, identified by its closed defining set;
    ``faces`` counts the faces on it (n_X of the determinant formula)."""

    index: int
    defining_set: frozenset[int]
    dim: int
    faces: int

    def defining_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.defining_set))


class IntersectionPoset:
    """Flats ordered by reverse inclusion of point sets.

    Because defining sets are closed, ``M <= N`` (N inside M) is exactly
    ``defining_set(M) issubset defining_set(N)``.  The bottom element is the
    ambient space (empty defining set) and Moebius values are taken from it.
    The order is held as a bitset over the flats per hyperplane, the flats
    that do not contain it: the flats below X are those that contain no
    hyperplane outside X, one AND per hyperplane (`below`), and each
    Moebius value is a sum over those bits (`sum_over`) rather than a pass
    over the flats before it.
    """

    def __init__(self, flats: list[Flat], ambient_dim: int):
        self.flats = flats
        self.ambient_dim = ambient_dim
        if flats[0].defining_set:
            raise InvalidArrangement("poset bottom must be the ambient flat")
        # the closed defining mask of each flat, by index, and the flats
        # that contain each hyperplane
        masks, containing = [], {}
        for f in flats:
            mask = 0
            for h in f.defining_set:
                mask |= 1 << h
                containing[h] = containing.get(h, 0) | 1 << f.index
            masks.append(mask)
        self.masks = tuple(masks)
        self._by_mask = {m: f.index for m, f in zip(masks, flats)}
        self._everything = (1 << len(flats)) - 1
        # (hyperplane bit, the flats that do not contain it)
        self._missing = [(1 << h, self._everything ^ c) for h, c in containing.items()]
        self.mobius = self._mobius_values()

    def __len__(self) -> int:
        return len(self.flats)

    def __iter__(self):
        return iter(self.flats)

    def flat_index(self, defining_set: Iterable[int]) -> Optional[int]:
        return self._by_mask.get(sum(1 << i for i in set(defining_set)))

    def below(self, index: int) -> int:
        """The flats whose defining set lies in flat `index`'s, itself
        included, as a bitset over the flat indices."""
        out, mask = self._everything, self.masks[index]
        for bit, flats in self._missing:
            if not mask & bit:
                out &= flats
        return out

    def _mobius_values(self) -> tuple[int, ...]:
        # flats are sorted by |defining_set|, a linear extension of the
        # order, so the flats below flat j other than j come before it
        mu = [1]
        for j in range(1, len(self.flats)):
            mu.append(-sum_over(self.below(j) ^ 1 << j, mu))
        return tuple(mu)

    def characteristic_polynomial(self) -> tuple[int, ...]:
        """Integer coefficients by degree of t."""
        coeffs = [0] * (self.ambient_dim + 1)
        for f, mu in zip(self.flats, self.mobius):
            coeffs[f.dim] += mu
        return tuple(coeffs)

    def dim_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for f in self.flats:
            out[f.dim] = out.get(f.dim, 0) + 1
        return out


@dataclass(frozen=True)
class FaceTable:
    """The faces in canonical order; for face i, ``flats[i]`` is the index
    of the flat it lies on and bit j of ``adjacent[i]`` is set when region
    j (canonical order) is adjacent to it, i.e. conforms to it."""

    faces: tuple[SignVector, ...]
    flats: tuple[int, ...]
    adjacent: tuple[int, ...]


def sum_over(chosen: int, values: Sequence[int]) -> int:
    """The sum of values[i] over the set bits i of `chosen`."""
    total = 0
    while chosen:
        low = chosen & -chosen
        total += values[low.bit_length() - 1]
        chosen ^= low
    return total


def charpoly_string(coeffs: Sequence[int]) -> str:
    parts: list[str] = []
    for deg in range(len(coeffs) - 1, -1, -1):
        c = coeffs[deg]
        if not c:
            continue
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        else:
            t = "t" if deg == 1 else f"t^{deg}"
            body = t if mag == 1 else f"{mag}*{t}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) if parts else "0"


class Arrangement:
    """A named hyperplane (or covector) arrangement with exact coordinates."""

    def __init__(
        self,
        mode: str,
        dim: int,
        hyperplanes: Sequence[Hyperplane] = (),
        covectors: Optional[SignedFamily] = None,
    ):
        if mode not in ("affine", "central", "covector"):
            raise InvalidInput(f"unknown mode {mode!r}")
        if dim < 0:
            raise InvalidInput(f"dimension must be nonnegative, got {dim}")
        if dim > MAX_DIM:
            raise TooLarge(f"dimension capped at {MAX_DIM}, got {dim}")
        self.mode = mode
        self.dim = dim
        self.hyperplanes = tuple(hyperplanes)
        self.covectors = covectors
        if mode == "covector":
            self._init_covector()
        else:
            self._init_realizable()

    def _init_realizable(self):
        if self.covectors is not None:
            raise InvalidInput("covectors are only allowed in covector mode")
        nvars = self._nvars
        names = set()
        keys = {}
        for h in self.hyperplanes:
            if len(h.normal) != nvars:
                raise InvalidArrangement(
                    f"hyperplane {h.name!r} has {len(h.normal)} coordinates, "
                    f"expected {nvars}"
                )
            if self.mode == "central" and h.offset:
                raise InvalidArrangement(
                    f"central hyperplane {h.name!r} has nonzero offset"
                )
            if h.name in names:
                raise InvalidArrangement(f"duplicate hyperplane name {h.name!r}")
            names.add(h.name)
            key = _canonical_key(h.normal, h.offset)
            if key in keys:
                raise InvalidArrangement(
                    f"hyperplanes {keys[key]!r} and {h.name!r} coincide"
                )
            keys[key] = h.name

    def _init_covector(self):
        if self.hyperplanes:
            raise InvalidInput("covector mode takes no hyperplanes")
        if self.covectors is None:
            raise InvalidInput("covector mode needs a covector family")
        # gate on the cheap axioms only: no zero vector, symmetry, closure
        # (the elimination axiom is available through check_vector_axioms)
        for v in self.covectors.members:
            if v.is_zero():
                raise InvalidArrangement(
                    "covector family contains the zero vector"
                )
            if -v not in self.covectors:
                raise InvalidArrangement(
                    f"covector family is not symmetric: missing opposite of "
                    f"{v.to_string()!r}"
                )
        witness = check_composition_closure(self.covectors)
        if witness is not None:
            x, y = witness
            raise InvalidArrangement(
                f"covector family not closed under composition: "
                f"{x.to_string()} o {y.to_string()} is missing"
            )

    @property
    def n(self) -> int:
        if self.mode == "covector":
            return self.covectors.ground_size
        return len(self.hyperplanes)

    @property
    def names(self) -> tuple[str, ...]:
        if self.mode == "covector":
            return tuple(f"S{i + 1}" for i in range(self.n))
        return tuple(h.name for h in self.hyperplanes)

    @property
    def _nvars(self) -> int:
        return self.dim + 1 if self.mode == "central" else self.dim

    # ------------------------------------------------------------------
    # face / region enumeration

    def _enumerate_faces(self) -> dict[int, tuple[int, list[SignVector]]]:
        """The flat table, closed defining mask -> (dimension, faces on the
        flat): the faces on a flat X are the regions of the restriction A|X
        (Zaslavsky), n_X of them, found flat by flat, each flat once.

        A flat X is held as a point p = P / D on it, a basis of primitive
        integer directions of its affine hull and its closed defining mask,
        by which it is found once.  Each hyperplane outside the mask, scaled
        to integers (a, b), is constant on X (parallel: one sign on all of
        it) or cuts X; then X ∩ H_i is a flat too, with the point where the
        line through p along the pivot direction d (the first basis vector
        a does not annihilate) meets H_i, and the other basis vectors
        projected along d onto H_i.  Its closed mask adds to X's every
        hyperplane whose equation in X's coordinates is H_i's up to scale.

        The flats are then done in order of dimension, lowest first.  The
        regions of A|X come from a depth-first pass over the cutting
        hyperplanes.  A node is a region of the first i hyperplanes, held
        as a point p in it and the strict constraints that bound it; H_i
        splits it by the sign of v = a . P - b * D:

        * v = 0: both sides, stepping exactly from p along +-d;
        * v != 0: sign(v) keeps p, and the other side exists exactly when
          the node meets X ∩ H_i, that is when some region of
          A|(X ∩ H_i) has the node's signs on hyperplanes 0..i-1: one
          lookup by that sign prefix.  The region found supplies a point q
          of the node on H_i, and the other side steps past q away from p.

        In central mode the ambient point is e_0, and a node with no strict
        constraint is a punctured linear subspace, symmetric under
        x -> -x: both of its sides exist (p and -p), even where the
        hyperplane meets X only at the origin, whose lookup table is
        empty.  Each region's point is checked to realise the sign vector
        it is reported under.  X's dimension is len(basis), one less in
        central mode (spherical dimension).  The flats' points, cuts and
        lookup tables hold no reference cycle, so they are freed when the
        enumeration returns.
        """
        if self.n > MAX_GROUND_SIZE:
            raise TooLarge(
                f"enumeration capped at {MAX_GROUND_SIZE} hyperplanes, got {self.n}"
            )
        n, nvars = self.n, self._nvars
        central = self.mode == "central"
        planes = [_normalize_int(h.normal, h.offset) for h in self.hyperplanes]
        sides = [
            {1: (a, b), -1: (tuple(-c for c in a), -b)} for a, b in planes
        ]

        # every flat X by closed defining mask: its point, the size of its
        # basis, the signs of the hyperplanes parallel to it, and its cuts:
        # (i, the pivot direction oriented to H_i's positive side, its
        # opposite, the mask of X ∩ H_i, None where that is only the origin)
        identity = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
        root = tuple(int(central and j == 0) for j in range(nvars)), 1
        flats = {}
        pending = [(0, root, identity)]  # no hyperplane holds the whole space
        while pending:
            mask, point, basis = pending.pop()
            if mask in flats:
                continue
            p, den = point
            plus = minus = 0
            cutting = []
            # the hyperplanes that cut X in the same hyperplane of X, by its
            # equation in X's coordinates up to scale
            along: dict[tuple[tuple[int, ...], int], int] = {}
            for i, (a, b) in enumerate(planes):
                if mask >> i & 1:
                    continue
                value = _dot(a, p) - b * den
                rates = [_dot(a, d) for d in basis]
                if not any(rates):
                    if value > 0:
                        plus |= 1 << i
                    else:
                        minus |= 1 << i
                    continue
                key = _primitive(rates, value)
                if next(filter(None, key[0])) < 0:
                    key = tuple(-c for c in key[0]), -key[1]
                along[key] = along.get(key, 0) | 1 << i
                cutting.append((i, value, rates, key))
            cuts = []
            subs: dict[tuple[tuple[int, ...], int], Optional[int]] = {}
            for i, value, rates, key in cutting:
                pivot = next(j for j, rate in enumerate(rates) if rate)
                d, rate = basis[pivot], rates[pivot]
                if key not in subs:
                    on_plane = [
                        # e - r / rate * d, scaled to a primitive integer vector
                        _primitive([rate * x - r * y for x, y in zip(e, d)], 0)[0]
                        for j, (e, r) in enumerate(zip(basis, rates))
                        if j != pivot
                    ]
                    # p - (value / den) / rate * d
                    meet = _lowest(
                        [rate * x - value * c for x, c in zip(p, d)], rate * den
                    )
                    if central and not any(meet[0]):
                        meet = (on_plane[0], 1) if on_plane else None
                    subs[key] = None if meet is None else mask | along[key]
                    if meet is not None:
                        pending.append((subs[key], meet, on_plane))
                up = d if rate > 0 else tuple(-c for c in d)
                cuts.append((i, up, tuple(-c for c in up), subs[key]))
            flats[mask] = point, len(basis), plus, minus, cuts

        # the regions of A|X by (plus, minus) masks, with their points, flat
        # by flat up from the lowest dimension, so that each cut's flat is
        # done first
        table: dict[int, tuple[int, list[SignVector]]] = {}
        regions: dict[int, dict[tuple[int, int], Point]] = {}
        for mask in sorted(flats, key=lambda m: flats[m][1]):
            point, size, plus, minus, cuts = flats[mask]
            # each cut's regions by their signs on the hyperplanes before it
            tables = []
            for i, _, _, sub in cuts:
                low = (1 << i) - 1
                below = {} if sub is None else regions[sub]
                tables.append({(s & low, t & low): q for (s, t), q in below.items()})
            found: dict[tuple[int, int], Point] = {}
            faces = []
            stack = [(0, point, [], plus, minus)]
            while stack:
                k, point, stricts, plus, minus = stack.pop()
                if k == len(cuts):
                    face = SignVector(n, plus, minus)
                    faces.append(self._witnessed(planes, face, point))
                    found[plus, minus] = point
                    continue
                i, up, down, _ = cuts[k]
                a, b = planes[i]
                p, den = point
                value = _dot(a, p) - b * den
                bit = 1 << i
                if not value:
                    children = [
                        (1, _step(point, up, stricts)),
                        (-1, _step(point, down, stricts)),
                    ]
                else:
                    if central and not stricts:
                        far = tuple(-x for x in p), den
                    else:
                        q = tables[k].get((plus & (bit - 1), minus & (bit - 1)))
                        # q - p, scaled by the positive den * q's denominator
                        far = None if q is None else _step(
                            q, [y * den - x * q[1] for x, y in zip(p, q[0])], stricts
                        )
                    near = 1 if value > 0 else -1
                    children = [(near, point), (-near, far)]
                for sign, child in children:
                    if child is not None:
                        stack.append((
                            k + 1,
                            child,
                            stricts + [sides[i][sign]],
                            plus | bit if sign > 0 else plus,
                            minus | bit if sign < 0 else minus,
                        ))
            regions[mask] = found
            table[mask] = size - central, faces
        return table

    def _witnessed(self, planes, face: SignVector, point: Point) -> SignVector:
        """The face, once its point is checked to realise it."""
        p, den = point
        plus = minus = 0
        for i, (a, b) in enumerate(planes):
            value = sum(map(mul, a, p)) - b * den
            if value > 0:
                plus |= 1 << i
            elif value < 0:
                minus |= 1 << i
        if (plus, minus) != (face.plus, face.minus) or (
            self.mode == "central" and not any(p)
        ):
            raise InconsistentWitness(
                f"witness point ({', '.join(map(str, p))})/{den} does not "
                f"realise the face {face.to_string()}"
            )
        return face

    @cached_property
    def _regions(self) -> tuple[SignVector, ...]:
        # the faces on the ambient flat; a covector family is read as it is,
        # since its flat table refuses a family with no poset
        if self.mode == "covector":
            vecs = [v for v in self.covectors.members if v.is_zero_free()]
        else:
            vecs = self._flats[0][1]
        return tuple(sorted(vecs, key=SignVector.sort_key))

    @cached_property
    def _flats(self) -> dict[int, tuple[int, list[SignVector]]]:
        """The flat table of `_enumerate_faces`.  Covector flats are zero sets,
        and a flat's dimension is the stated one less its poset height."""
        if self.mode != "covector":
            return self._enumerate_faces()
        on: dict[int, list[SignVector]] = {}
        for v in self.covectors.members:
            on.setdefault(v.zero_mask, []).append(v)
        if 0 not in on:
            raise InvalidArrangement("covector family has no zero-free member")
        heights: dict[int, int] = {}
        for z in sorted(on, key=int.bit_count):  # by size: after every flat below
            heights[z] = max((h + 1 for o, h in heights.items() if o | z == z), default=0)
        if max(heights.values()) > self.dim:
            raise InvalidArrangement(
                f"covector poset is deeper than the stated dimension {self.dim}"
            )
        return {z: (self.dim - heights[z], on[z]) for z in on}

    @cached_property
    def _faces(self) -> SignedFamily:
        if self.mode == "covector":
            return self.covectors
        faces = (f for _, on in self._flats.values() for f in on)
        return SignedFamily.from_vectors(self.n, faces)

    def regions(self) -> list[SignVector]:
        """Zero-free sign vectors in canonical (lex, '+' < '-') order."""
        return list(self._regions)

    def faces(self) -> SignedFamily:
        return self._faces

    # ------------------------------------------------------------------
    # flats and the intersection poset

    @cached_property
    def _poset(self) -> IntersectionPoset:
        masks = sorted(self._flats, key=lambda m: (m.bit_count(), tuple(bits(m))))
        flats = [
            Flat(index, frozenset(bits(m)), self._flats[m][0], len(self._flats[m][1]))
            for index, m in enumerate(masks)
        ]
        return IntersectionPoset(flats, self.dim)

    def poset(self) -> IntersectionPoset:
        return self._poset

    @cached_property
    def _face_table(self) -> FaceTable:
        # a region is adjacent to a face exactly when it has the face's
        # signs on the face's support, the complement of its flat's mask
        # (every face has one: the face composed with any region), so the
        # adjacent regions are the AND, over the support, of the side the
        # face takes: |support| big-int ANDs per face
        n, poset = self.n, self._poset
        sides = side_masks([region.plus for region in self._regions], n)
        everything = (1 << len(self._regions)) - 1
        placed: dict[SignVector, tuple[int, int]] = {}
        for index, mask in enumerate(poset.masks):
            support = [(i, sides[i]) for i in range(n) if not mask >> i & 1]
            for f in self._flats[mask][1]:
                adjacent = everything
                for i, side in support:
                    adjacent &= side[f.plus >> i & 1]
                placed[f] = index, adjacent
        faces = tuple(self._faces.sorted_members())
        return FaceTable(faces, *zip(*(placed[f] for f in faces)))

    def face_table(self) -> FaceTable:
        return self._face_table

    def charpoly(self) -> tuple[int, ...]:
        return self._poset.characteristic_polynomial()

    # ------------------------------------------------------------------
    # semigeneral position

    def semigeneral_witness(self) -> Optional[Flat]:
        """None if semigeneral, else the first flat of deficient dimension."""
        for f in self._poset:
            if f.dim != self.dim - len(f.defining_set):
                return f
        return None

    def is_semigeneral(self) -> bool:
        return self.semigeneral_witness() is None

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        out: dict = {"mode": self.mode, "dim": self.dim}
        if self.mode == "covector":
            out["covectors"] = [v.to_string() for v in self.covectors]
        else:
            out["hyperplanes"] = [
                {
                    "name": h.name,
                    "normal": [str(c) for c in h.normal],
                    "offset": str(h.offset),
                }
                for h in self.hyperplanes
            ]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Arrangement":
        if not isinstance(data, dict):
            raise InvalidInput("arrangement JSON must be an object")
        try:
            mode = data["mode"]
            dim = data["dim"]
        except KeyError as exc:
            raise InvalidInput(f"arrangement JSON missing key {exc}") from None
        if type(dim) is not int:  # bool is an int subclass: reject true/false
            raise InvalidInput("dim must be an integer")
        family_key = "covectors" if mode == "covector" else "hyperplanes"
        _reject_unknown_keys(data, ("mode", "dim", family_key), f"{mode!r} arrangement")
        if mode == "covector":
            strings = data.get("covectors")
            if (
                not isinstance(strings, list)
                or not strings
                or not all(isinstance(s, str) for s in strings)
            ):
                raise InvalidInput(
                    "covector mode needs a nonempty 'covectors' list of sign strings"
                )
            return cls(mode, dim, covectors=SignedFamily.from_strings(strings))
        items = data.get("hyperplanes", [])
        if not isinstance(items, list):
            raise InvalidInput("'hyperplanes' must be a list")
        hyps = []
        for item in items:
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("name"), str)
                or not isinstance(item.get("normal"), list)
            ):
                raise InvalidInput(
                    f"bad hyperplane entry {item!r}: needs a string 'name' and "
                    f"a list 'normal' of rational strings"
                )
            _reject_unknown_keys(
                item, ("name", "normal", "offset"), f"hyperplane {item['name']!r}"
            )
            normal = tuple(parse_rational(c) for c in item["normal"])
            offset = parse_rational(item.get("offset", "0"))
            hyps.append(Hyperplane(item["name"], normal, offset))
        return cls(mode, dim, hyps)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Arrangement":
        return cls.from_json_dict(parse_json(text))

    def __repr__(self) -> str:
        return f"Arrangement({self.mode}, dim={self.dim}, n={self.n})"
