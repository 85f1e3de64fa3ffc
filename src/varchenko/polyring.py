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

Print order.  `to_string` lists terms by total degree, then by the sparse
tuple of (variable id, exponent) pairs.  That tuple is unpacked only when
printing, once per term, so the printed form does not depend on the
packing.

Exact division and the exponent-capping map serve only `pivot_step`, the
step-by-step elimination that the tests replay, so all three are test
references (`exact_div`, `capped`, `pivot_step` in tests/reference.py);
the package divides no polynomial.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import starmap
from operator import or_
from threading import Lock
from typing import Iterable, Mapping, Sequence, Union

from .errors import InvalidInput, TooLarge

_W = 16  # bits per field
_FIELD = (1 << _W) - 1
_GUARD_BIT = 1 << (_W - 1)
_MAX_EXP = _GUARD_BIT - 1

# The variable table: field s + 1 holds the exponent of variable _VARS[s].
# A variable gets the next free field the first time a monomial names it,
# and the guard mask grows with it, so it covers every field a key can use.
_SLOT: dict[int, int] = {}
_VARS: list[int] = []
_LOCK = Lock()
_GUARDS = _GUARD_BIT  # guard bit of every field in use


def _slot(v: int) -> int:
    s = _SLOT.get(v)
    if s is None:
        global _GUARDS
        with _LOCK:
            s = _SLOT.get(v)
            if s is None:
                s = len(_VARS)
                _GUARDS |= _GUARD_BIT << (_W * (s + 1))
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


@lru_cache(maxsize=1 << 16)
def mask_key(mask: int) -> int:
    """The packed key of the squarefree monomial over the variables whose
    bits are set in `mask` (bit v is variable v).

    Memoised by mask: a variable keeps its field once given one, so a key,
    once packed, stays valid for the life of the process."""
    return _pack((v, 1) for v in range(mask.bit_length()) if mask >> v & 1)


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


def divisibility_masks(polys: Sequence[Mapping[int, int]]) -> list[int]:
    """For each variable that a term of the packed polynomials `polys`
    names, in variable id order, the bitmask of the positions i such that
    the variable divides polys[i]: bit tests on the keys, one field per
    variable, with nothing unpacked.  Every variable divides the zero
    polynomial."""
    used = reduce(or_, (key for terms in polys for key in terms), 0)
    masks = []
    for s, _ in sorted(_fields(used), key=lambda field: _VARS[field[0]]):
        shift = _W * (s + 1)
        masks.append(sum(
            1 << i
            for i, terms in enumerate(polys)
            if all(key >> shift & _FIELD for key in terms)
        ))
    return masks


def _unpack(key: int) -> tuple[tuple[int, int], ...]:
    """The sorted (variable id, exponent) pairs of a packed key."""
    return tuple(sorted((_VARS[s], e) for s, e in _fields(key)))


def _monomial_string(exps: tuple[tuple[int, int], ...]) -> str:
    """The printed form of a monomial other than 1 from its unpacked pairs."""
    return "*".join(f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}" for v, e in exps)


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
    def from_mask(cls, mask: int) -> "Monomial":
        return cls._of(mask_key(mask))

    def is_one(self) -> bool:
        return not self.key

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        if not self.key:
            return "1"
        return _monomial_string(_unpack(self.key))

    def __repr__(self) -> str:
        return f"Monomial({self})"


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
    def from_monomial(cls, m: Monomial, c: int = 1) -> "Polynomial":
        return _raw({m.key: c}) if c else cls()

    def packed(self) -> dict[int, int]:
        """The packed key -> nonzero coefficient map itself, not a copy;
        callers must not change it."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or self._terms.keys() == {0}

    def as_int(self) -> int:
        if not self._terms:
            return 0
        if self.is_constant():
            return self._terms[0]
        raise InvalidInput(f"{self} is not a constant")

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def to_string(self, spaces: bool = True) -> str:
        if not self._terms:
            return "0"
        sep_plus, sep_minus = (" + ", " - ") if spaces else ("+", "-")
        # print order: total degree first, then the sparse exponent tuple
        terms = sorted(((key & _FIELD, _unpack(key)), c) for key, c in self._terms.items())
        parts: list[str] = []
        try:
            for (_, exps), c in terms:
                mag = abs(c)
                if not exps:
                    body = str(mag)
                elif mag == 1:
                    body = _monomial_string(exps)
                else:
                    body = f"{mag}*{_monomial_string(exps)}"
                if not parts:
                    parts.append(body if c > 0 else f"-{body}")
                else:
                    parts.append((sep_plus if c > 0 else sep_minus) + body)
        except ValueError:  # the integer-string limit
            raise _digit_limit("coefficient") from None
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


def one_minus_square(variables: Iterable[int]) -> Polynomial:
    """The factor 1 - (x_{v1} * x_{v2} * ...)^2."""
    m = Monomial((v, 2) for v in variables)
    if m.is_one():
        return Polynomial.zero()  # 1 - 1
    return _raw({0: 1, m.key: -1})


@lru_cache(maxsize=1 << 12)
def _factor_string(base: Polynomial, e: int) -> str:
    """A factor of a `FactoredPoly` with its exponent, printed; memoised,
    since diagonal entries share their (1 - x_a^2) factors."""
    body = f"({base.to_string(spaces=False)})"
    return body if e == 1 else f"{body}^{e}"


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
        return "".join(starmap(_factor_string, self.factors)) or "1"


def _digit_limit(what: str) -> TooLarge:
    """The error for an int longer than the interpreter converts to or from
    a string."""
    return TooLarge(f"{what} exceeds the {sys.get_int_max_str_digits()}-digit limit")


def parse_int(literal: str) -> int:
    """A literal already checked to be ASCII decimal, as an int; TooLarge if
    it is longer than the interpreter converts."""
    try:
        return int(literal)
    except ValueError:
        raise _digit_limit("integer literal") from None


def parse_json(text: str, what: str = "JSON"):
    """`text` decoded as JSON; InvalidInput ("bad <what>: ...") if it is
    malformed or nested deeper than the decoder recurses, TooLarge if an
    integer literal in it is longer than the interpreter converts."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bad {what}: {exc}") from None
    except RecursionError:
        raise InvalidInput(f"bad {what}: nested too deeply") from None
    except ValueError:  # the integer-string limit
        raise _digit_limit("integer literal") from None


_DECIMAL_RE = re.compile("[0-9]+")


def parse_polynomial(s: str) -> Polynomial:
    """Parse the canonical textual form, e.g. "1 - x1^2*x2^2 + 2*x3".

    Spaces may stand around a sign or a '*', but not inside a factor:
    "1 2" is an error, not 12."""
    text = s.strip(" ")
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
        term = text[i:j].strip(" ")
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
        factor = factor.strip(" ")
        if not factor:
            raise InvalidInput(f"empty factor in {original!r}")
        if " " in factor:
            raise InvalidInput(f"space inside the factor {factor!r} in {original!r}")
        if factor[0] == "x":
            body = factor[1:]
            if "^" in body:
                var_s, _, exp_s = body.partition("^")
            else:
                var_s, exp_s = body, "1"
            bad = not _DECIMAL_RE.fullmatch(var_s) or not _DECIMAL_RE.fullmatch(exp_s)
            v = -1 if bad else parse_int(var_s) - 1
            if v < 0:  # x0, x00, ... as well as bad syntax
                raise InvalidInput(f"bad variable factor {factor!r} in {original!r}")
            exps[v] = exps.get(v, 0) + parse_int(exp_s)
        elif _DECIMAL_RE.fullmatch(factor):
            coeff *= parse_int(factor)
        else:
            raise InvalidInput(f"bad factor {factor!r} in {original!r}")
    return Polynomial.from_monomial(Monomial(exps.items()), coeff)
