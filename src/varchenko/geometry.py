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

Faces come from one witness-guided depth-first pass over the hyperplanes
that carries a rational point in the relative interior of every face it
visits: a hyperplane either has one sign on the face's affine hull, passes
through the face's point, or is tested by one exact Fourier-Motzkin call
that returns a point of the face on it.  Regions are the zero-free faces.  Every reported sign vector
is backed by an explicit rational point, checked to realise it, and no
floating point is involved.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InconsistentWitness, InvalidArrangement, InvalidInput, TooLarge
from .exactlp import _dot, _normalize_int, solve_equalities, strict_point
from .signedsets import SignedFamily, SignVector, check_composition_closure

MAX_GROUND_SIZE = 16

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL_RE.match(s):
        raise InvalidInput(f"bad rational string {s!r}")
    return Fraction(s)


def rational_str(q: Fraction) -> str:
    return str(q)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _step(point: list[Fraction], d: list[Fraction], stricts) -> list[Fraction]:
    """point + t * d for half the largest t > 0 that keeps every strict
    constraint (a, b), a . x > b, strict at the new point (t = 1 if none
    limits it)."""
    limit = None
    for a, b in stricts:
        rate = _dot(a, d)
        if rate < 0:
            t = (_dot(a, point) - b) / -rate
            if limit is None or t < limit:
                limit = t
    t = Fraction(1) if limit is None else limit / 2
    return [x + t * c for x, c in zip(point, d)]


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
    """A nonempty intersection, identified by its closed defining set."""

    index: int
    defining_set: frozenset[int]
    dim: int

    def defining_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.defining_set))


class IntersectionPoset:
    """Flats ordered by reverse inclusion of point sets.

    Because defining sets are closed, ``M <= N`` (N inside M) is exactly
    ``defining_set(M) issubset defining_set(N)``.  The bottom element is the
    ambient space (empty defining set) and Moebius values are taken from it.
    """

    def __init__(self, flats: list[Flat], ambient_dim: int):
        self.flats = flats
        self.ambient_dim = ambient_dim
        self._by_defset = {f.defining_set: f.index for f in flats}
        if flats[0].defining_set:
            raise InvalidArrangement("poset bottom must be the ambient flat")
        self.mobius = self._mobius_values()

    def __len__(self) -> int:
        return len(self.flats)

    def __iter__(self):
        return iter(self.flats)

    @property
    def bottom(self) -> Flat:
        return self.flats[0]

    def flat_index(self, defining_set: Iterable[int]) -> Optional[int]:
        return self._by_defset.get(frozenset(defining_set))

    def _mobius_values(self) -> tuple[int, ...]:
        # flats are sorted by |defining_set|, a linear extension of the order
        mu = [0] * len(self.flats)
        mu[0] = 1
        for j in range(1, len(self.flats)):
            dj = self.flats[j].defining_set
            mu[j] = -sum(
                mu[i] for i in range(j) if self.flats[i].defining_set < dj
            )
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

    def _enumerate_faces(self) -> list[SignVector]:
        """Every face, from one depth-first pass over the hyperplanes.

        A node is a face of the first i hyperplanes, held as a rational
        point p in its relative interior, the strict constraints that bound
        it and a basis of the directions of its affine hull.  Hyperplane
        i = (a, b) splits it by v = a . p - b:

        * a constant on the hull: one child, sign(v), which keeps p;
        * v = 0: all three children; 0 keeps p and the signed ones step
          exactly from p along the hull;
        * v != 0: one Fourier-Motzkin call for a point q of the face on the
          hyperplane.  If there is one, all three children: 0 gets q,
          sign(v) keeps p and the other side steps past q away from p;
          else only sign(v).

        In central mode the root is e_0, and a face with no strict
        constraint is a punctured linear subspace, symmetric under
        x -> -x: both of its sides exist (p and -p) even where the
        hyperplane meets it only at the origin.  Each leaf's point is
        checked to realise the sign vector it is reported under.
        """
        if self.n > MAX_GROUND_SIZE:
            raise TooLarge(
                f"enumeration capped at {MAX_GROUND_SIZE} hyperplanes, got {self.n}"
            )
        nvars = self._nvars
        central = self.mode == "central"
        planes = [
            (tuple(Fraction(c) for c in h.normal), Fraction(h.offset))
            for h in self.hyperplanes
        ]
        sides = [
            {1: (a, b), -1: (tuple(-c for c in a), -b)} for a, b in planes
        ]
        identity = [
            [Fraction(int(i == j)) for j in range(nvars)] for i in range(nvars)
        ]
        root = [Fraction(int(central and j == 0)) for j in range(nvars)]
        faces: list[SignVector] = []
        signs: list[int] = []

        def visit(point, stricts, basis) -> None:
            i = len(signs)
            if i == len(planes):
                faces.append(self._witnessed(planes, signs, point))
                return
            a, b = planes[i]
            value = _dot(a, point) - b
            rates = [_dot(a, d) for d in basis]
            pivot = next((j for j, rate in enumerate(rates) if rate), None)
            if pivot is None:
                # the hyperplane's sign is constant on the face's hull
                child(_sign(value), point, stricts, basis)
                return
            d, rate = basis[pivot], rates[pivot]
            on_plane = [
                [x - r / rate * y for x, y in zip(e, d)]
                for j, (e, r) in enumerate(zip(basis, rates))
                if j != pivot
            ]
            if not value:
                up = d if rate > 0 else [-c for c in d]
                child(1, _step(point, up, stricts), stricts + [sides[i][1]], basis)
                child(0, point, stricts, on_plane)
                down = [-c for c in up]
                child(-1, _step(point, down, stricts), stricts + [sides[i][-1]], basis)
                return
            s = _sign(value)
            origin = [x - value / rate * c for x, c in zip(point, d)]
            if central and not stricts:
                q = origin if any(origin) else on_plane[0] if on_plane else None
                far = [-x for x in point]
            else:
                q = strict_point(origin, on_plane, stricts)
                far = None if q is None else _step(
                    q, [y - x for x, y in zip(point, q)], stricts
                )
            child(s, point, stricts + [sides[i][s]], basis)
            if q is not None:
                child(0, q, stricts, on_plane)
            if far is not None:
                child(-s, far, stricts + [sides[i][-s]], basis)

        def child(sign, point, stricts, basis) -> None:
            signs.append(sign)
            visit(point, stricts, basis)
            signs.pop()

        visit(root, [], identity)
        return faces

    def _witnessed(self, planes, signs, point) -> SignVector:
        """The face's sign vector, once its point is checked to realise it."""
        if any(
            _sign(_dot(a, point) - b) != s for (a, b), s in zip(planes, signs)
        ) or (self.mode == "central" and not any(point)):
            raise InconsistentWitness(
                f"witness point {[str(x) for x in point]} does not realise "
                f"the face {SignVector.from_signs(signs).to_string()}"
            )
        return SignVector.from_signs(signs)

    @cached_property
    def _regions(self) -> tuple[SignVector, ...]:
        vecs = [v for v in self._faces.members if v.is_zero_free()]
        return tuple(sorted(vecs, key=SignVector.sort_key))

    @cached_property
    def _faces(self) -> SignedFamily:
        if self.mode == "covector":
            return self.covectors
        return SignedFamily.from_vectors(self.n, self._enumerate_faces())

    def regions(self) -> list[SignVector]:
        """Zero-free sign vectors in canonical (lex, '+' < '-') order."""
        return list(self._regions)

    def faces(self) -> SignedFamily:
        return self._faces

    def covector_family(self) -> SignedFamily:
        """The arrangement's sign vectors as a symmetric, zero-free family.

        Affine face families are neither symmetric nor free of the zero
        vector in general; this view adds opposites and drops the zero
        vector, which is the family the axiom checks apply to.
        """
        members = set()
        for f in self._faces.members:
            if f.is_zero():
                continue
            members.add(f)
            members.add(-f)
        return SignedFamily.from_vectors(self.n, members)

    # ------------------------------------------------------------------
    # flats and the intersection poset

    def _flat_dim(self, defset: frozenset[int]) -> int:
        eqs = [
            (self.hyperplanes[i].normal, self.hyperplanes[i].offset)
            for i in sorted(defset)
        ]
        solved = solve_equalities(eqs, self._nvars)
        if solved is None:
            raise InvalidArrangement("flat from an infeasible defining set")
        _, basis = solved
        if self.mode == "central":
            if not basis:
                # meets R^{dim+1} only at the origin: empty on the sphere
                raise InvalidArrangement("flat does not meet the sphere")
            return len(basis) - 1
        return len(basis)

    @cached_property
    def _poset(self) -> IntersectionPoset:
        zsets = sorted(
            {f.zero_set() for f in self._faces.members},
            key=lambda z: (len(z), tuple(sorted(z))),
        )
        if self.mode == "covector":
            if frozenset() not in zsets:
                raise InvalidArrangement("covector family has no zero-free member")
            flats = []
            heights: dict[frozenset[int], int] = {}
            for idx, z in enumerate(zsets):
                h = 0
                for other, oh in heights.items():
                    if other < z:
                        h = max(h, oh + 1)
                heights[z] = h
                dim = self.dim - h
                if dim < 0:
                    raise InvalidArrangement(
                        f"covector poset is deeper than the stated dimension "
                        f"{self.dim}"
                    )
                flats.append(Flat(idx, z, dim))
        else:
            flats = [Flat(idx, z, self._flat_dim(z)) for idx, z in enumerate(zsets)]
        return IntersectionPoset(flats, self.dim)

    def poset(self) -> IntersectionPoset:
        return self._poset

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
                    "normal": [rational_str(c) for c in h.normal],
                    "offset": rational_str(h.offset),
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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"bad JSON: {exc}") from None
        return cls.from_json_dict(data)

    def __repr__(self) -> str:
        return f"Arrangement({self.mode}, dim={self.dim}, n={self.n})"
