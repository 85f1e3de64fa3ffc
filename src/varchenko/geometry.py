"""Exact arrangement geometry over the rationals.

Supported modes:

* ``affine``  - hyperplanes ``normal . x = offset`` in R^dim; the positive
  side is ``normal . x > offset``.
* ``central`` - the sphere S^dim; hyperplanes pass through the origin of
  R^(dim+1) and every offset is 0.  The flats and faces are those of the
  affine computation in R^(dim+1), so the origin is a flat whenever the
  hyperplanes meet only there, with one face, the zero sign vector
  (the bottom of the face lattice).  Dimensions are spherical (linear
  dimension minus one): the origin is S^-1, of dimension -1.
* ``covector`` - no coordinates: the face family is given explicitly as a
  list of sign vectors, with flats read off as zero sets and dimensions
  taken from poset height.

The faces of an arrangement are the regions of its restrictions to its
flats (Zaslavsky 1975).  One pass finds the flats, memoised by closed
defining mask, and groups the hyperplanes that cut a flat X by the flat
X ∩ H they cut out.  A facet sweep then finds the regions of each flat,
lowest dimension first: every region of A|X has a facet, a face of some
A|(X ∩ H) found before it, so the regions of A|X are the two sides of
the faces one dimension lower, each reached by one exact step off the
face's point along the cut's own direction in X.  No LP is solved.  The
pass runs in integers: a point x is held as (P, D), an integer vector
and a positive denominator with x = P / D in lowest terms, each
hyperplane is scaled once to an integer (A, B), and each flat direction
is a primitive integer vector.  Each point is evaluated once, at every
hyperplane together: one int with a field per hyperplane holding
A . P - B * D, whose signs are read off the fields' top bits and whose
fields give the next steps' slacks.  Regions are the zero-free faces.
Every reported sign vector is backed by an explicit point, checked to
realise it, and no floating point is involved.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .errors import InconsistentWitness, InvalidArrangement, InvalidInput, TooLarge
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

# x = P / D with D > 0 and gcd(P..., D) = 1
Point = tuple[tuple[int, ...], int]


def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL_RE.fullmatch(s):
        raise InvalidInput(f"bad rational string {s!r}")
    numerator, _, denominator = s.partition("/")
    den = parse_int(denominator or "1")
    if den == 0:
        raise InvalidInput(f"zero denominator in {s!r}")
    return Fraction(parse_int(numerator), den)


def _primitive(coeffs: Sequence[int], rhs: int) -> tuple[tuple[int, ...], int]:
    """An integer constraint divided by the gcd of its entries."""
    g = gcd(*coeffs, rhs)
    if g > 1:
        return tuple(v // g for v in coeffs), rhs // g
    return tuple(coeffs), rhs


def _normalize_int(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[tuple[int, ...], int]:
    """Scale a constraint by a positive rational so all entries are coprime ints."""
    denom = 1
    for c in list(coeffs) + [rhs]:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return _primitive([int(c * denom) for c in coeffs], int(rhs * denom))


def _dot(a: Sequence, x: Sequence):
    return sum(map(mul, a, x))


def _lowest(p: Sequence[int], den: int) -> Point:
    """The point p / den (den != 0) as (P, D) in lowest terms, D > 0."""
    if den < 0:
        p, den = [-v for v in p], -den
    return _primitive(p, den)


class _PackedRows:
    """Integer hyperplanes (a, b), evaluated at a point x = P / D all at
    once: one int, the word, with a W-bit field per hyperplane, field i
    holding a_i . P - b_i * D + 2^(W-1).

    W is derived from the point: at least two bits more than the bit
    length of the bound max_i (|a_i|_1 + |b_i|) * max(|P|, D) on every
    |a_i . P - b_i * D|, rounded up to a multiple of 8 and at least 24.  So
    every field lies in [1, 2^W - 1], the sum never carries or borrows
    across fields, and a field's top bit is set exactly when its value is
    at least 0.  Subtracting 1 from every field borrows from none, and
    then the top bit is set exactly when the value is positive.  One
    multiply gathers the n top bits into an n-bit mask: bit i of the
    tops, at i * W, meets term j of the multiplier, at (n - j) * W + j,
    at (n + i - j) * W + j, and W >= 24 > n keeps those positions
    distinct, so nothing carries and the diagonal i = j lands at n * W + i.
    """

    def __init__(self, rows: Sequence[tuple[tuple[int, ...], int]], nvars: int):
        self.n = len(rows)
        self._rows = rows
        self._nvars = nvars
        self._bound = max((sum(map(abs, a)) + abs(b) for a, b in rows), default=0)
        self._packings: dict[int, tuple] = {}

    def _packing(self, width: int) -> tuple:
        """(the columns, the offsets, the biases, the ones, the multiplier)
        of the rows packed at field width `width`."""
        packing = self._packings.get(width)
        if packing is None:
            shifts = [i * width for i in range(self.n)]
            columns = [
                sum(a[j] << s for (a, _), s in zip(self._rows, shifts))
                for j in range(self._nvars)
            ]
            offsets = sum(b << s for (_, b), s in zip(self._rows, shifts))
            ones = sum(1 << s for s in shifts)
            magic = sum(1 << (self.n - j) * width + j for j in range(self.n))
            packing = columns, offsets, ones << width - 1, ones, magic
            self._packings[width] = packing
        return packing

    def evaluate(self, point: Point) -> tuple[int, int]:
        """(W, the word) at `point`."""
        p, den = point
        height = max((den, *map(abs, p)))
        width = max(24, -(-((self._bound * height).bit_length() + 2) // 8) * 8)
        columns, offsets, bias, _, _ = self._packing(width)
        return width, sum(map(mul, p, columns)) - den * offsets + bias

    def signs(self, width: int, word: int) -> tuple[int, int]:
        """The (plus, minus) masks of the hyperplanes at a word of width
        `width`."""
        _, _, _, ones, magic = self._packing(width)
        shift, full, top = self.n * width, (1 << self.n) - 1, width - 1
        nonnegative = ((word >> top & ones) * magic >> shift) & full
        positive = (((word - ones) >> top & ones) * magic >> shift) & full
        return positive, full ^ nonnegative


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


def _canonical_key(coeffs: tuple[int, ...], rhs: int) -> tuple[int, ...]:
    """A primitive integer constraint (coeffs, rhs), sign-normalized.

    Two hyperplanes with the same key have the same point set regardless of
    orientation or scaling.
    """
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

    def __init__(self, flats: list[Flat], masks: Sequence[int], n: int, ambient_dim: int):
        """`masks[i]` is flat i's closed defining mask over the `n`
        hyperplanes; `ambient_dim` is the linear dimension of the ambient
        space (R^(dim+1) in central mode)."""
        if masks[0]:
            raise InvalidArrangement("poset bottom must be the ambient flat")
        self.flats = flats
        self.ambient_dim = ambient_dim
        self.masks = tuple(masks)
        self._everything = (1 << len(flats)) - 1
        # (hyperplane bit, the flats that do not contain it)
        self._missing = [(1 << h, out) for h, (out, _) in enumerate(side_masks(masks, n))]
        self.mobius = self._mobius_values()

    def __len__(self) -> int:
        return len(self.flats)

    def __iter__(self):
        return iter(self.flats)

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
        """Integer coefficients by degree of t: each flat X adds mu(X) at
        the ambient linear dimension less X's codimension, so in central
        mode this is chi of the linear arrangement."""
        coeffs = [0] * (self.ambient_dim + 1)
        top = self.flats[0].dim
        for f, mu in zip(self.flats, self.mobius):
            coeffs[self.ambient_dim - top + f.dim] += mu
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
        # each hyperplane scaled once to a primitive integer row (a, b)
        self._rows = []
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
            self._rows.append(_normalize_int(h.normal, h.offset))
            key = _canonical_key(*self._rows[-1])
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

    def _find_flats(self) -> dict[int, tuple]:
        """Every flat X by its closed defining mask: (its point, the size
        of its basis, its signs, its classes of cuts, its rates).

        A flat X is held as a point p = P / D on it, a basis of primitive
        integer directions of its affine hull and its closed defining mask,
        by which it is found once.  Each hyperplane outside the mask, a
        primitive integer row (a, b), is constant on X (parallel: one sign
        on all of it) or cuts X.  The hyperplanes that cut X in the same
        flat Y = X ∩ H, found by the equation of X ∩ H in X's coordinates up
        to scale, form a class, and Y's closed mask adds the class to X's.
        Y's point is where the line through p along the class's pivot
        direction d (the first basis vector its members do not annihilate)
        meets H, and its basis is X's other basis vectors projected along d
        onto H; both are computed only when Y is first queued.

        X's signs are the (plus, minus) masks of the parallel hyperplanes,
        or None where X is a point, whose witness evaluation gives them.
        Its rates map each cutting hyperplane's bit to (its index, its
        rates a . e at X's basis vectors e).  A class is (Y's mask, d, the
        index of d in the basis, pos, neg, up, down): its members with
        a . d > 0 and with a . d < 0, and the other cutting hyperplanes
        with a . d > 0 and with a . d < 0.  The whole space's point is the
        origin, in central mode too, where every flat's point is then the
        origin.  The flats hold no reference cycle, so they are freed when
        the enumeration returns.
        """
        nvars = self._nvars
        planes = self._rows
        identity = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
        root = (0,) * nvars, 1
        flats = {}
        queued = {0}
        pending = [(0, root, identity)]  # no hyperplane holds the whole space
        while pending:
            mask, point, basis = pending.pop()
            p, den = point
            plus = minus = 0
            cutting = []
            # the cuts with a . e_j > 0 and with a . e_j < 0, per basis index j
            rising, falling = [0] * len(basis), [0] * len(basis)
            # the hyperplanes that cut X in the same hyperplane of X, by its
            # equation in X's coordinates up to scale
            along: dict[tuple[tuple[int, ...], int], int] = {}
            for i, (a, b) in enumerate(planes if basis else ()):
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
                bit = 1 << i
                along[key] = along.get(key, 0) | bit
                cutting.append((i, value, rates, key))
                for j, rate in enumerate(rates):
                    if rate:
                        (rising if rate > 0 else falling)[j] |= bit
            classes = {}
            for _, value, rates, key in cutting:
                if key in classes:
                    continue
                pivot = next(j for j, rate in enumerate(rates) if rate)
                d, rate = basis[pivot], rates[pivot]
                members = along[key]
                sub = mask | members
                if sub not in queued:
                    queued.add(sub)
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
                    pending.append((sub, meet, on_plane))
                # the members' keys are proportional: all move at the pivot
                pos, neg = members & rising[pivot], members & falling[pivot]
                up, down = rising[pivot] ^ pos, falling[pivot] ^ neg
                classes[key] = sub, d, pivot, pos, neg, up, down
            signs = (plus, minus) if basis else None
            rates_of = {1 << k: (k, rates) for k, _, rates, _ in cutting}
            flats[mask] = point, len(basis), signs, list(classes.values()), rates_of
        return flats

    def _enumerate_faces(self) -> dict[int, tuple[int, list[SignVector]]]:
        """The flat table, closed defining mask -> (dimension, faces on the
        flat): the faces on a flat X are the regions of the restriction A|X
        (Zaslavsky), n_X of them, found flat by flat, each flat once.

        The flats and their classes of cuts come from `_find_flats`; their
        regions come from a facet sweep, lowest dimension first.  A flat
        with no cut has one face, the signs of its own point.  Otherwise
        every region of A|X has a facet (a region with none would be all
        of X), and that facet is a face F = (s, t) of A|Y for the flat
        Y = X ∩ H of some class, so the regions of A|X are
        (s | pos, t | neg) and (s | neg, t | pos), over every face of every
        class.  The first time a region is met, its point is F's point q
        plus or minus tau * d, d the class's pivot direction: tau is half
        the largest step that keeps the sign of every cutting hyperplane
        the step moves toward 0, each at its slack, read off a field of
        F's word, over its rate a . d, and 1 where no such hyperplane is
        left.  So a point's height grows with the dimension of its flat and
        not with the number of cuts.

        Each point is evaluated once, at every hyperplane together
        (`_PackedRows`), and `_witnessed` checks it realises the face it is
        reported under; each face keeps its word until the last flat that
        steps off it is done.  X's dimension is the size of its basis, one
        less in central mode (spherical dimension: the origin's is -1).
        """
        if self.n > MAX_GROUND_SIZE:
            raise TooLarge(
                f"enumeration capped at {MAX_GROUND_SIZE} hyperplanes, got {self.n}"
            )
        spherical = self.mode == "central"
        rows = _PackedRows(self._rows, self._nvars)
        flats = self._find_flats()
        # the faces of each flat done so far by (plus, minus), each with its
        # point and evaluation: (point, W, word), kept while a class of a
        # flat not yet done still reads them
        done: dict[int, dict[tuple[int, int], tuple[Point, int, int]]] = {}
        readers = Counter(c[0] for flat in flats.values() for c in flat[3])
        table: dict[int, tuple[int, list[SignVector]]] = {}
        for mask in sorted(flats, key=lambda m: flats[m][1]):
            point, size, signs, classes, rates = flats[mask]
            found: dict[tuple[int, int], tuple[Point, int, int]] = {}
            faces = []
            if not classes:
                face, width, word = self._witnessed(rows, mask, signs, point)
                found[face.plus, face.minus] = point, width, word
                faces.append(face)
            for sub, d, pivot, pos, neg, up, down in classes:
                for (s, t), ((q, den), width, word) in done[sub].items():
                    field, bias = (1 << width) - 1, 1 << width - 1
                    for side, crossed, sign in (
                        ((s | pos, t | neg), s & down | t & up, 1),
                        ((s | neg, t | pos), s & up | t & down, -1),
                    ):
                        if side in found:
                            continue
                        # the least step * D that zeroes a crossed hyperplane
                        limit = None
                        while crossed:
                            low = crossed & -crossed
                            crossed ^= low
                            k, at = rates[low]
                            rate = abs(at[pivot])
                            slack = abs((word >> k * width & field) - bias)
                            if limit is None or slack * limit[1] < limit[0] * rate:
                                limit = slack, rate
                        # step * D as the fraction num / rat
                        num, rat = (den, 1) if limit is None else (limit[0], 2 * limit[1])
                        num *= sign
                        point = _primitive(
                            [rat * x + num * c for x, c in zip(q, d)], rat * den
                        )
                        face, w, evaluation = self._witnessed(rows, mask, side, point)
                        found[side] = point, w, evaluation
                        faces.append(face)
                readers[sub] -= 1
                if not readers[sub]:
                    del done[sub]
            if readers[mask]:
                done[mask] = found
            table[mask] = size - spherical, faces
        return table

    def _witnessed(
        self,
        rows: _PackedRows,
        mask: int,
        signs: Optional[tuple[int, int]],
        point: Point,
    ) -> tuple[SignVector, int, int]:
        """The face at `point` with its evaluation (W, word), once the
        point is checked to lie on exactly the hyperplanes of `mask` and,
        where `signs` are given, to have those (plus, minus) masks.  With
        no `signs`, the flat is a point, the origin among them in central
        mode, and the face is read off the evaluation."""
        width, word = rows.evaluate(point)
        plus, minus = rows.signs(width, word)
        p, den = point
        if (
            (plus | minus) ^ ((1 << self.n) - 1) != mask
            or signs is not None and signs != (plus, minus)
        ):
            # with no signs, the face is named by its zeros, '*' elsewhere
            expected = (
                "".join("0" if mask >> i & 1 else "*" for i in range(self.n))
                if signs is None
                else SignVector(self.n, *signs).to_string()
            )
            raise InconsistentWitness(
                f"witness point ({', '.join(map(str, p))})/{den} does not "
                f"realise the face {expected}"
            )
        return SignVector(self.n, plus, minus), width, word

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
        return IntersectionPoset(flats, masks, self.n, self._nvars)

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
