import itertools
import random

import pytest

from reference import passed, reoriented, separation_set, sign_vector, support
from varchenko.errors import InvalidInput, TooLarge
from varchenko.signedsets import (
    SignedFamily,
    SignVector,
    check_composition_closure,
    check_vector_axioms,
)

V = SignVector.from_string


def test_compose_examples():
    assert V("+0-").compose(V("-+-")) == V("++-")
    y = V("-+")
    assert V("00").compose(y) == y
    x = V("+0-")
    assert x.compose(x) == x


def test_compose_length_mismatch():
    with pytest.raises(InvalidInput):
        V("+0").compose(V("+0-"))


def test_opposite_examples():
    assert -V("+-0") == V("-+0")
    assert -V("000") == V("000")
    x = V("+-0+")
    assert -(-x) == x


def test_separation_examples():
    assert separation_set(V("+++"), V("-++")) == {0}
    assert separation_set(V("+++"), V("---")) == {0, 1, 2}
    x = V("+-0")
    assert separation_set(x, x) == set()
    assert separation_set(x, -x) == support(x)


def test_separation_symmetric():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        x = sign_vector([rng.choice((-1, 0, 1)) for _ in range(n)])
        y = sign_vector([rng.choice((-1, 0, 1)) for _ in range(n)])
        assert separation_set(x, y) == separation_set(y, x)


def test_compose_associative_exhaustive():
    for n in (1, 2):
        vecs = [
            sign_vector(signs)
            for signs in itertools.product((-1, 0, 1), repeat=n)
        ]
        for x, y, z in itertools.product(vecs, repeat=3):
            assert x.compose(y).compose(z) == x.compose(y.compose(z))


def test_compose_associative_random():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(3, 6)
        x, y, z = (
            sign_vector([rng.choice((-1, 0, 1)) for _ in range(n)])
            for _ in range(3)
        )
        assert x.compose(y).compose(z) == x.compose(y.compose(z))


def test_string_round_trip():
    for s in ("+", "0", "-", "+0-", "-----", "+0+0+0"):
        assert V(s).to_string() == s
    with pytest.raises(InvalidInput):
        V("+x-")


def test_axioms_smallest_symmetric_family():
    report = check_vector_axioms(SignedFamily.from_strings(["+", "-"]))
    assert passed(report)


def test_axioms_not_closed_under_opposite():
    report = check_vector_axioms(SignedFamily.from_strings(["+"]))
    assert not report.axiom_b
    assert report.witness_b == V("+")
    assert report.axiom_a


def test_axioms_zero_member():
    report = check_vector_axioms(SignedFamily.from_strings(["0"]))
    assert not report.axiom_a
    assert report.witness_a == V("0")


def test_axiom_c_planted_violation():
    # (+,+) and (-,+) conflict in the first element and agree in the second,
    # but no member avoids the first element while covering the second
    family = SignedFamily.from_strings(["+-", "-+", "++", "--"])
    report = check_vector_axioms(family)
    assert report.axiom_a and report.axiom_b
    assert not report.axiom_c
    x, y, e, f = report.witness_c
    assert e in support(x) and e in support(y)
    assert x[e] == -y[e]
    # the witness must really have no eliminating member
    pu = (x.plus | y.plus) & ~(1 << e)
    mu = (x.minus | y.minus) & ~(1 << e)
    for z in family.members:
        assert (
            z.plus & ~pu
            or z.minus & ~mu
            or not (z.support_mask >> f) & 1
        )


def test_composition_closure_planted_violation():
    family = SignedFamily.from_strings(["+0", "-0", "0+", "0-"])
    report = check_vector_axioms(family)
    assert report.axiom_a and report.axiom_b
    witness = check_composition_closure(family)
    assert witness is not None
    x, y = witness
    assert x.compose(y) not in family


def test_composition_closure_pass():
    family = SignedFamily.from_strings(["+0", "-0", "0+", "0-", "++", "+-", "-+", "--"])
    assert check_composition_closure(family) is None


def test_axioms_size_cap():
    with pytest.raises(TooLarge):
        check_vector_axioms(SignedFamily.from_strings(["+" * 21, "-" * 21]))


def test_family_rejects_mixed_lengths():
    with pytest.raises(InvalidInput):
        SignedFamily.from_strings(["+0", "+"])


def test_reoriented():
    x = V("+-0")
    assert reoriented(x, 0b001) == V("--0")
    assert reoriented(x, 0b111) == V("-+0")
    assert reoriented(reoriented(x, 0b111), 0b111) == x
