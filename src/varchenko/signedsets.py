"""Sign-vector combinatorics: composition, opposites, separation sets and
brute-force checking of the signed-family axioms.

A sign vector over a ground set of size n is stored packed: one bitmask for
the '+' entries and one for the '-' entries.  Entries outside both masks are
'0'.  Values are immutable and hashable, so they can sit in sets and dict
keys without copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidInput, TooLarge

class SignVector:
    """Immutable element of {+,0,-}^E, E = {0, ..., n-1}."""

    __slots__ = ("n", "plus", "minus", "_hash")

    def __init__(self, n: int, plus: int, minus: int):
        if plus & minus:
            raise InvalidInput("entry cannot be both '+' and '-'")
        mask = (1 << n) - 1
        if plus & ~mask or minus & ~mask:
            raise InvalidInput("sign bits outside ground set")
        self.n = n
        self.plus = plus
        self.minus = minus
        self._hash = hash((n, plus, minus))

    @classmethod
    def from_string(cls, s: str) -> "SignVector":
        plus = minus = 0
        for i, c in enumerate(s):
            if c == "+":
                plus |= 1 << i
            elif c == "-":
                minus |= 1 << i
            elif c != "0":
                raise InvalidInput(f"bad sign character {c!r} in {s!r}")
        return cls(len(s), plus, minus)

    def to_string(self) -> str:
        return "".join(
            "+" if self.plus >> e & 1 else "-" if self.minus >> e & 1 else "0"
            for e in range(self.n)
        )

    def __getitem__(self, e: int) -> int:
        if not 0 <= e < self.n:
            raise IndexError(e)
        return 1 if self.plus >> e & 1 else -1 if self.minus >> e & 1 else 0

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignVector)
            and self.n == other.n
            and self.plus == other.plus
            and self.minus == other.minus
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SignVector({self.to_string()!r})"

    @property
    def support_mask(self) -> int:
        return self.plus | self.minus

    @property
    def zero_mask(self) -> int:
        return ((1 << self.n) - 1) & ~self.support_mask

    def is_zero_free(self) -> bool:
        return self.zero_mask == 0

    def is_zero(self) -> bool:
        return self.support_mask == 0

    def compose(self, other: "SignVector") -> "SignVector":
        """Take self's sign where nonzero, other's sign elsewhere."""
        if self.n != other.n:
            raise InvalidInput("composition needs equal lengths")
        free = ~self.support_mask
        return SignVector(
            self.n, self.plus | (other.plus & free), self.minus | (other.minus & free)
        )

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.minus, self.plus)

    def sort_key(self) -> int:
        """The canonical order ('+' < '-' < '0', position 0 first) as one
        integer: base-4 digits, position 0 the most significant, each the
        rank 0, 1, 2 of '+', '-', '0', so its two bits are the entry's
        '-' bit and its zero bit."""
        n = self.n
        minus = int(f"{self.minus:0{n}b}"[::-1], 4)
        zero = int(f"{self.zero_mask:0{n}b}"[::-1], 4)
        return minus | zero << 1


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def side_masks(pluses: Sequence[int], n: int) -> list[tuple[int, int]]:
    """For each position e < n, the bitsets over the indices of `pluses`,
    any list of n-bit masks, of those with bit e clear and of those with
    bit e set.  For the '+' masks of zero-free sign vectors these are the
    vectors with '-' and with '+' at e, and the zero-free vectors that
    agree with a sign vector on a set of positions are one AND per
    position; for the closed defining masks of flats they are the flats
    that do not and that do contain hyperplane e."""
    # the masks' binary strings, the last vector's first: column k of them
    # is the bitset of position n - 1 - k
    strings = [f"{p:0{n}b}" for p in reversed(pluses)] if n else []
    plus = [int("".join(column), 2) for column in zip(*strings)][::-1] if strings else [0] * n
    everything = (1 << len(pluses)) - 1
    return [(everything ^ m, m) for m in plus]


@dataclass(frozen=True)
class SignedFamily:
    """A deduplicated set of sign vectors over a common ground set."""

    ground_size: int
    members: frozenset[SignVector]

    def __post_init__(self):
        for m in self.members:
            if m.n != self.ground_size:
                raise InvalidInput(
                    f"member {m.to_string()!r} has length {m.n}, "
                    f"expected {self.ground_size}"
                )

    @classmethod
    def from_vectors(cls, ground_size: int, vectors: Iterable[SignVector]) -> "SignedFamily":
        return cls(ground_size, frozenset(vectors))

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "SignedFamily":
        vecs = [SignVector.from_string(s) for s in strings]
        if not vecs:
            raise InvalidInput("empty covector list")
        sizes = {v.n for v in vecs}
        if len(sizes) != 1:
            raise InvalidInput(f"inconsistent sign-string lengths: {sorted(sizes)}")
        return cls(sizes.pop(), frozenset(vecs))

    def __contains__(self, v: SignVector) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[SignVector]:
        return iter(self.sorted_members())

    def sorted_members(self) -> list[SignVector]:
        return sorted(self.members, key=SignVector.sort_key)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the three signed-family axioms, with witnesses on failure.

    axiom_a: the all-zero vector is absent.
    axiom_b: closed under taking opposites.
    axiom_c: sign elimination with the richness condition on f.
    """

    axiom_a: bool
    axiom_b: bool
    axiom_c: bool
    witness_a: Optional[SignVector] = None
    witness_b: Optional[SignVector] = None
    witness_c: Optional[tuple[SignVector, SignVector, int, int]] = None


def check_vector_axioms(family: SignedFamily) -> AxiomReport:
    """Brute-force check of axioms (a), (b), (c) on a signed family.

    Quadratic in the family size and in the ground set for (c); capped at
    ground size 20.
    """
    n = family.ground_size
    if n > 20:
        raise TooLarge(f"axiom check capped at ground size 20, got {n}")

    witness_a = witness_b = witness_c = None
    for x in family.sorted_members():
        if x.is_zero():
            witness_a = x
            break
    for x in family.sorted_members():
        if -x not in family:
            witness_b = x
            break

    members = family.sorted_members()
    for x in members:
        for y in members:
            conflict = x.plus & y.minus
            if not conflict:
                continue
            sym_diff = x.support_mask ^ y.support_mask
            agree = (x.plus & y.plus) | (x.minus & y.minus)
            f_candidates = sym_diff | agree
            for e in range(n):
                if not conflict >> e & 1:
                    continue
                pu = (x.plus | y.plus) & ~(1 << e)
                mu = (x.minus | y.minus) & ~(1 << e)
                for f in range(n):
                    if not f_candidates >> f & 1:
                        continue
                    if not _eliminable(family, pu, mu, f):
                        witness_c = (x, y, e, f)
                        break
                if witness_c:
                    break
            if witness_c:
                break
        if witness_c:
            break

    return AxiomReport(
        axiom_a=witness_a is None,
        axiom_b=witness_b is None,
        axiom_c=witness_c is None,
        witness_a=witness_a,
        witness_b=witness_b,
        witness_c=witness_c,
    )


def _eliminable(family: SignedFamily, pu: int, mu: int, f: int) -> bool:
    bit = 1 << f
    for z in family.members:
        if z.plus & ~pu or z.minus & ~mu:
            continue
        if z.support_mask & bit:
            return True
    return False


def check_composition_closure(
    family: SignedFamily,
) -> Optional[tuple[SignVector, SignVector]]:
    """Return a witness pair whose composition leaves the family, else None."""
    members = family.sorted_members()
    for x in members:
        for y in members:
            if x.compose(y) not in family:
                return (x, y)
    return None
