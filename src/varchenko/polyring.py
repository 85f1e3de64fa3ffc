"""Sparse multivariate polynomials over the integers.

Coefficients are Python ints (arbitrary precision).  Variable ids are
0-based but print 1-based ("x1", "x2", ...).

Packed monomials.  A monomial is one non-negative int made of 16-bit
fields: field 0 holds the total degree and field s + 1 the exponent of
the s-th variable in a process-wide variable table, which gives each
variable id the next free field the first time a monomial names it.  So a
key is as wide as the number of distinct variables in use, whatever their
ids; keys are only meaningful within one process.  The top bit of every
field is a guard bit that a valid monomial leaves clear, so exponents and
total degrees stay below 2**15.  Multiplying two monomials is an int add;
no field can carry into the next, and a product that sets a guard bit
raises TooLarge.  `b` divides `a` exactly when `a - b` sets no guard bit.
A `Polynomial` maps packed ints to nonzero coefficients; `Monomial` wraps
one packed int for the public API.

Division order.  `exact_div` reduces by leading terms in graded order on
the packed ints: total degree first, then the packed int itself (graded
lex with the variable met later the more significant).  This is a
monomial order, so reducing by a single divisor decides divisibility
exactly, and the quotient does not depend on the table's order.

Print order.  `sorted_terms` and `to_string` list terms by total degree,
then by the sparse tuple of (variable id, exponent) pairs.  That tuple is
unpacked only when printing, so the printed form does not depend on the
packing.

The exponent-capping map (`capped`) replaces every exponent >= 3 by 2;
applied eagerly it keeps elimination intermediates bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import or_
from threading import Lock
from typing import Iterable, Mapping, Union

from .errors import InvalidInput, NotDivisible, TooLarge

_W = 16  # bits per field
_FIELD = (1 << _W) - 1
_GUARD_BIT = 1 << (_W - 1)
_MAX_EXP = _GUARD_BIT - 1
_CAP_HIGH = _FIELD & ~3  # field bits that are set once an exponent + 1 exceeds 3

# The variable table: field s + 1 holds the exponent of variable _VARS[s].
# A variable gets the next free field the first time a monomial names it,
# and the masks grow with it, so they cover every field a key can use.
# An exponent is >= 3 exactly when (key + _ONES) & _HIGHS is set in its field.
_SLOT: dict[int, int] = {}
_VARS: list[int] = []
_LOCK = Lock()
_GUARDS = _GUARD_BIT  # guard bit of every field in use
_ONES = 0  # 1 in every variable field
_HIGHS = 0  # _CAP_HIGH in every variable field
_LOWS = 0  # _CAP_HIGH without the guard bit in every variable field


def _slot(v: int) -> int:
    s = _SLOT.get(v)
    if s is None:
        global _GUARDS, _ONES, _HIGHS, _LOWS
        with _LOCK:
            s = _SLOT.get(v)
            if s is None:
                s = len(_VARS)
                shift = _W * (s + 1)
                _GUARDS |= _GUARD_BIT << shift
                _ONES |= 1 << shift
                _HIGHS |= _CAP_HIGH << shift
                _LOWS |= (_CAP_HIGH & ~_GUARD_BIT) << shift
                _VARS.append(v)
                _SLOT[v] = s
    return s


def _check_fields(key: int) -> int:
    """`key` itself, or TooLarge if it (or an OR of keys) overflowed a field."""
    if key & _GUARDS:
        raise TooLarge(f"exponent or degree exceeds {_MAX_EXP}")
    return key


def _pack(exps: Iterable[tuple[int, int]]) -> int:
    key = 0
    for v, e in exps:
        if not e:
            continue
        if v < 0 or e < 0:
            raise InvalidInput(f"bad monomial entry ({v}, {e})")
        if e > _MAX_EXP:
            raise TooLarge(f"exponent {e} exceeds {_MAX_EXP}")
        key = _check_fields(key + (e << (_W * (_slot(v) + 1))) + e)
    return key


def _fields(key: int) -> list[tuple[int, int]]:
    """The (table index, exponent) pairs of the nonzero variable fields."""
    pairs = []
    key >>= _W
    s = 0
    while key:
        skip = ((key & -key).bit_length() - 1) // _W  # empty fields below
        key >>= _W * skip
        s += skip
        pairs.append((s, key & _FIELD))
        key >>= _W
        s += 1
    return pairs


def _unpack(key: int) -> tuple[tuple[int, int], ...]:
    """The sorted (variable id, exponent) pairs of a packed key."""
    return tuple(sorted((_VARS[s], e) for s, e in _fields(key)))


def _cap_key(key: int) -> int:
    """`key` with every exponent >= 3 clipped to 2, by mask arithmetic.

    A field's flag bits (those of _HIGHS in key + _ONES) are pushed up into
    its guard bit, which marks the whole field.  The degree field then
    drops by the sum of the excess fields; that sum is below 2**16 - 1, so
    it equals their packed value mod 2**16 - 1 (each field weighs 1 there).
    """
    flags = (key + _ONES) & _HIGHS
    marks = ((flags & _LOWS) + _LOWS | flags) & _GUARDS
    excess = (key & (marks >> (_W - 1)) * _FIELD) - (marks >> (_W - 2))
    return key - excess - excess % _FIELD


class Monomial:
    """Product of variable powers, stored as one packed int; immutable,
    hashable."""

    __slots__ = ("key",)

    def __init__(self, exps: Iterable[tuple[int, int]] = ()):
        self.key = _pack(exps)

    @classmethod
    def _of(cls, key: int) -> "Monomial":
        m = cls.__new__(cls)
        m.key = key
        return m

    @classmethod
    def one(cls) -> "Monomial":
        return _MONOMIAL_ONE

    @classmethod
    def variable(cls, v: int, e: int = 1) -> "Monomial":
        return cls(((v, e),))

    @classmethod
    def from_vars(cls, variables: Iterable[int]) -> "Monomial":
        return cls((v, 1) for v in variables)

    def is_one(self) -> bool:
        return not self.key

    def degree(self) -> int:
        return self.key & _FIELD

    def variables(self) -> frozenset[int]:
        return frozenset(v for v, _ in _unpack(self.key))

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial._of(_check_fields(self.key + other.key))

    def divides(self, other: "Monomial") -> bool:
        return not (other.key - self.key) & _GUARDS

    def div(self, other: "Monomial") -> "Monomial":
        """Quotient self / other; raises NotDivisible if not exact."""
        key = self.key - other.key
        if key & _GUARDS:
            raise NotDivisible(f"{other} does not divide {self}")
        return Monomial._of(key)

    def capped(self) -> "Monomial":
        """Exponents clipped to at most 2."""
        if not (self.key + _ONES) & _HIGHS:
            return self
        return Monomial._of(_cap_key(self.key))

    def sort_key(self) -> tuple:
        # print order: total degree first, then the sparse exponent tuple
        return (self.degree(), _unpack(self.key))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        if not self.key:
            return "1"
        return "*".join(
            f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}" for v, e in _unpack(self.key)
        )

    def __repr__(self) -> str:
        return f"Monomial({self})"


_MONOMIAL_ONE = Monomial()


class Polynomial:
    """Sparse integer polynomial: a map monomial -> nonzero coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: dict[int, int] = {
            m.key: c for m, c in (terms or {}).items() if c
        }

    @property
    def terms(self) -> dict[Monomial, int]:
        """A fresh map monomial -> nonzero coefficient."""
        return {Monomial._of(k): c for k, c in self._terms.items()}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return _raw({0: c}) if c else cls()

    @classmethod
    def variable(cls, v: int, e: int = 1) -> "Polynomial":
        return cls({Monomial.variable(v, e): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, c: int = 1) -> "Polynomial":
        return _raw({m.key: c}) if c else cls()

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def is_constant(self) -> bool:
        return not self._terms or self._terms.keys() == {0}

    def as_int(self) -> int:
        if not self._terms:
            return 0
        if self.is_constant():
            return self._terms[0]
        raise InvalidInput(f"{self} is not a constant")

    def as_monomial(self) -> Monomial:
        if len(self._terms) == 1:
            (k, c), = self._terms.items()
            if c == 1:
                return Monomial._of(k)
        raise InvalidInput(f"{self} is not a monic monomial")

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(k & _FIELD for k in self._terms)

    def variables(self) -> frozenset[int]:
        return frozenset(v for v, _ in _unpack(reduce(or_, self._terms, 0)))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _raw(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not other._terms:
            return self
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            else:
                del out[k]
        return _raw(out)

    def __neg__(self) -> "Polynomial":
        return _raw({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._terms, other._terms
        if not a or not b:
            return Polynomial.zero()
        if len(a) > len(b):
            a, b = b, a
        acc: dict[int, int] = {}
        get = acc.get
        b_items = list(b.items())
        for k1, c1 in a.items():
            for k2, c2 in b_items:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        out = {k: c for k, c in acc.items() if c}
        if out:
            _check_fields(reduce(or_, out))
        return _raw(out)

    def scaled(self, c: int) -> "Polynomial":
        if not c:
            return Polynomial.zero()
        return _raw({k: c * v for k, v in self._terms.items()})

    def capped(self) -> "Polynomial":
        """Cap every exponent at 2, recombining like terms."""
        t = self._terms
        if not t:
            return self
        ones, highs = _ONES, _HIGHS
        if not any((k + ones) & highs for k in t):
            return self
        out: dict[int, int] = {}
        for k, c in t.items():
            if (k + ones) & highs:
                k = _cap_key(k)
            out[k] = out.get(k, 0) + c
        return _raw({k: c for k, c in out.items() if c})

    def substitute(
        self, sigma: Mapping[int, Union[int, "Polynomial"]]
    ) -> "Polynomial":
        """Replace each variable by an integer or a polynomial.

        `sigma` must cover every variable that occurs.
        """
        out = Polynomial.zero()
        for k, c in self._terms.items():
            term = Polynomial.constant(c)
            for v, e in _unpack(k):
                if v not in sigma:
                    raise InvalidInput(f"substitution missing variable x{v + 1}")
                val = sigma[v]
                if isinstance(val, int):
                    term = term.scaled(val ** e)
                    if term.is_zero():
                        break
                else:
                    term = term * _power(val, e)
            out = out + term
        return out

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def to_string(self, spaces: bool = True) -> str:
        if not self._terms:
            return "0"
        sep_plus, sep_minus = (" + ", " - ") if spaces else ("+", "-")
        parts: list[str] = []
        for m, c in self.sorted_terms():
            mag = abs(c)
            if m.is_one():
                body = str(mag)
            elif mag == 1:
                body = str(m)
            else:
                body = f"{mag}*{m}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append((sep_plus if c > 0 else sep_minus) + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


def _raw(terms: dict[int, int]) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    return p


def _power(p: Polynomial, e: int) -> Polynomial:
    out = Polynomial.one()
    for _ in range(e):
        out = out * p
    return out


def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Return r with r*q == p, or raise NotDivisible.

    Reduction by the leading term of q in the division order.  Each term
    is kept under its position in that order, the degree shifted above
    the packed key, so products stay int adds.  The remainder is a dict
    over these positions, each entry pushed once on a heap that pops the
    leading term; a step costs one pop and one dict update per term of q.
    Every term popped must be divisible by q's leading term, in its
    coefficient and its monomial.
    """
    if q.is_zero():
        raise InvalidInput("division by the zero polynomial")
    if p.is_zero():
        return Polynomial.zero()
    if q.is_one():
        return p
    pt, qt = p._terms, q._terms
    guards = _GUARDS
    shift = guards.bit_length()
    low = (1 << shift) - 1

    def position(k: int) -> int:
        return ((k & _FIELD) << shift) + k

    lead = max(qt, key=position)
    lead_c = qt[lead]
    # Positions are stored negated, so the heap's smallest is the leader.
    neg_lead = -position(lead)
    tail = [(-position(k), c) for k, c in qt.items() if k != lead]
    rest = {-position(k): c for k, c in pt.items()}
    heap = list(rest)
    heapify(heap)
    get = rest.get
    quotient: dict[int, int] = {}
    while heap:
        neg = heappop(heap)
        c = rest.pop(neg)
        if not c:
            continue  # cancelled
        qpos = neg_lead - neg
        if qpos & guards or c % lead_c:
            raise NotDivisible(f"({q}) does not divide ({p})")
        qc = c // lead_c
        quotient[qpos & low] = qc
        for neg_d, dc in tail:
            k = neg_d - qpos
            old = get(k)
            if old is None:
                rest[k] = -qc * dc
                heappush(heap, k)
            else:
                rest[k] = old - qc * dc
    return _raw(quotient)


def one_minus_square(variables: Iterable[int]) -> Polynomial:
    """The factor 1 - (x_{v1} * x_{v2} * ...)^2."""
    m = Monomial((v, 2) for v in variables)
    if m.is_one():
        return Polynomial.zero()  # 1 - 1
    return _raw({0: 1, m.key: -1})


@dataclass(frozen=True)
class FactoredPoly:
    """A product of polynomial factors with positive integer exponents."""

    factors: tuple[tuple[Polynomial, int], ...]

    @classmethod
    def from_factors(
        cls, factors: Iterable[tuple[Polynomial, int]]
    ) -> "FactoredPoly":
        kept = tuple((base, e) for base, e in factors if e > 0)
        return cls(kept)

    def expand(self) -> Polynomial:
        out = Polynomial.one()
        for base, e in self.factors:
            out = out * _power(base, e)
        return out

    def exponent_map(self) -> dict[Polynomial, int]:
        """Exponent per distinct base.

        Two factored products with equal maps are equal as polynomials
        without expanding (the converse may fail; use expand() to settle
        structurally different factorizations).
        """
        out: dict[Polynomial, int] = {}
        for base, e in self.factors:
            out[base] = out.get(base, 0) + e
        return out

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for base, e in self.factors:
            body = f"({base.to_string(spaces=False)})"
            parts.append(body if e == 1 else f"{body}^{e}")
        return "".join(parts)


def parse_polynomial(s: str) -> Polynomial:
    """Parse the canonical textual form, e.g. "1 - x1^2*x2^2 + 2*x3"."""
    text = s.replace(" ", "")
    if not text:
        raise InvalidInput("empty polynomial string")
    if text[-1] in "+-":
        raise InvalidInput(f"dangling sign in {s!r}")
    out = Polynomial.zero()
    i = 0
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        i = 1
    while i < len(text):
        j = i
        while j < len(text) and text[j] not in "+-":
            j += 1
        term = text[i:j]
        if not term:
            raise InvalidInput(f"dangling sign in {s!r}")
        out = out + _parse_term(term, sign, s)
        if j < len(text):
            sign = -1 if text[j] == "-" else 1
        i = j + 1
    return out


def _parse_term(term: str, sign: int, original: str) -> Polynomial:
    coeff = sign
    exps: dict[int, int] = {}
    for factor in term.split("*"):
        if not factor:
            raise InvalidInput(f"empty factor in {original!r}")
        if factor[0] == "x":
            body = factor[1:]
            if "^" in body:
                var_s, _, exp_s = body.partition("^")
            else:
                var_s, exp_s = body, "1"
            if not var_s.isdigit() or not exp_s.isdigit() or var_s == "0":
                raise InvalidInput(f"bad variable factor {factor!r} in {original!r}")
            v = int(var_s) - 1
            exps[v] = exps.get(v, 0) + int(exp_s)
        elif factor.isdigit():
            coeff *= int(factor)
        else:
            raise InvalidInput(f"bad factor {factor!r} in {original!r}")
    return Polynomial.from_monomial(Monomial(exps.items()), coeff)
