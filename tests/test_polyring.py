import random

import pytest

from varchenko.errors import InvalidInput, NotDivisible, TooLarge
from varchenko.polyring import (
    FactoredPoly,
    Monomial,
    Polynomial,
    exact_div,
    one_minus_square,
    parse_polynomial,
)

X1 = Polynomial.variable(0)
X2 = Polynomial.variable(1)
X3 = Polynomial.variable(2)
ONE = Polynomial.one()


def rand_poly(rng, nvars=4, nterms=5, maxexp=4, maxcoeff=6):
    p = Polynomial.zero()
    for _ in range(rng.randint(0, nterms)):
        m = Monomial(
            (v, rng.randint(0, maxexp))
            for v in rng.sample(range(nvars), rng.randint(0, nvars))
        )
        p = p + Polynomial.from_monomial(m, rng.randint(-maxcoeff, maxcoeff))
    return p


def test_ring_examples():
    assert (ONE - X1) * (ONE + X1) == ONE - X1 * X1
    p = X1 * X2 - Polynomial.constant(3)
    assert p + Polynomial.zero() == p
    assert (X1 * X2) * (X2 * X3) == Polynomial.from_monomial(
        Monomial([(0, 1), (1, 2), (2, 1)])
    )


def test_cap_caps_exponents():
    assert Polynomial.variable(0, 3).capped() == Polynomial.variable(0, 2)
    assert Polynomial.variable(0, 7).capped() == Polynomial.variable(0, 2)
    assert Polynomial.variable(0, 32767).capped() == Polynomial.variable(0, 2)
    for e in (3, 256, 32000):  # one field clipped, the degree field follows
        mixed = Polynomial({Monomial([(1, e), (3, 1), (4, 5)]): 5})
        assert mixed.capped() == Polynomial({Monomial([(1, 2), (3, 1), (4, 2)]): 5})
        assert mixed.capped().degree() == 5
    assert X1.capped() == X1
    assert ONE.capped() == ONE


def test_cap_pull_out_square():
    # x1^2 (1 - x1^2 x2) collapses to x1^2 (1 - x2)
    x1sq = Polynomial.variable(0, 2)
    p = x1sq * (ONE - x1sq * X2)
    assert p.capped() == x1sq * (ONE - X2)


def test_cap_absorbs_into_difference_of_squares():
    # (1 - x1^2)(1 - x1^2 x2^2) collapses to 1 - x1^2
    x1sq = Polynomial.variable(0, 2)
    x2sq = Polynomial.variable(1, 2)
    assert ((ONE - x1sq) * (ONE - x1sq * x2sq)).capped() == ONE - x1sq


def test_cap_identities_randomized():
    rng = random.Random(23)
    for _ in range(300):
        p = rand_poly(rng)
        q = rand_poly(rng)
        assert p.capped().capped() == p.capped()
        assert (p + q).capped() == p.capped() + q.capped()


def test_cap_multiplicative_on_coprime_monomials():
    rng = random.Random(29)
    for _ in range(300):
        vars_p = rng.sample(range(6), rng.randint(0, 3))
        vars_q = [v for v in range(6) if v not in vars_p][: rng.randint(0, 3)]
        p = Polynomial.from_monomial(
            Monomial((v, rng.randint(1, 4)) for v in vars_p), rng.randint(1, 5)
        )
        q = Polynomial.from_monomial(
            Monomial((v, rng.randint(1, 4)) for v in vars_q), rng.randint(1, 5)
        )
        assert (p * q).capped() == p.capped() * q.capped()


def test_cap_pull_out_square_randomized():
    rng = random.Random(31)
    for _ in range(200):
        i = rng.randint(0, 3)
        p = rand_poly(rng, nvars=5)
        if i in p.variables():
            p = p.substitute({v: (1 if v == i else Polynomial.variable(v)) for v in p.variables()})
        xi2 = Polynomial.variable(i, 2)
        assert (xi2 * (ONE - xi2 * p)).capped() == xi2 * (ONE - p).capped()
        assert ((ONE - xi2) * (ONE - xi2 * p)).capped() == ONE - xi2


def test_exact_div_examples():
    assert exact_div(X2 - Polynomial.variable(0, 2) * X2, ONE - X1 * X1) == X2
    assert exact_div(X1 * X2, X1) == X2
    with pytest.raises(NotDivisible):
        exact_div(ONE, X1)
    with pytest.raises(InvalidInput):
        exact_div(X1, Polynomial.zero())


def test_exact_div_round_trip_randomized():
    rng = random.Random(37)
    for _ in range(200):
        p = rand_poly(rng)
        # divisors of the two supported shapes
        if rng.random() < 0.5:
            q = Polynomial.from_monomial(
                Monomial((v, rng.randint(1, 2)) for v in rng.sample(range(4), 2)),
                rng.choice((1, -1, 2)),
            )
        else:
            q = ONE
            for v in rng.sample(range(4), rng.randint(1, 2)):
                q = q * one_minus_square((v,))
        if q.is_zero():
            continue
        assert exact_div(p * q, q) == p


def test_substitute_examples():
    q = Polynomial.variable(9)
    assert (X1 * X2).substitute({0: q, 1: q}) == q * q
    assert (ONE - Polynomial.variable(0, 2)).substitute({0: 3}) == Polynomial.constant(-8)
    p = X1 * X2 - X3
    identity = {v: Polynomial.variable(v) for v in range(3)}
    assert p.substitute(identity) == p


def test_substitute_requires_total_map():
    with pytest.raises(InvalidInput):
        (X1 * X2).substitute({0: 1})


def test_string_and_parse_round_trip():
    rng = random.Random(41)
    for _ in range(200):
        p = rand_poly(rng)
        assert parse_polynomial(p.to_string()) == p
        assert parse_polynomial(p.to_string(spaces=False)) == p
    assert parse_polynomial("1 - x1^2*x2^2 + 2*x3") == (
        ONE
        - Polynomial.from_monomial(Monomial([(0, 2), (1, 2)]))
        + X3.scaled(2)
    )
    with pytest.raises(InvalidInput):
        parse_polynomial("x0")
    with pytest.raises(InvalidInput):
        parse_polynomial("2x")


def test_canonical_string_examples():
    p = ONE - Polynomial.from_monomial(Monomial([(0, 2), (1, 2)]))
    assert p.to_string() == "1 - x1^2*x2^2"
    assert (X1 - X1).to_string() == "0"
    assert (-X1).to_string() == "-x1"


def test_factored_poly():
    f = FactoredPoly.from_factors(
        [(one_minus_square((0,)), 3), (one_minus_square((1,)), 1)]
    )
    assert str(f) == "(1-x1^2)^3(1-x2^2)"
    assert f.expand() == (
        (ONE - Polynomial.variable(0, 2))
        * (ONE - Polynomial.variable(0, 2))
        * (ONE - Polynomial.variable(0, 2))
        * (ONE - Polynomial.variable(1, 2))
    )
    assert str(FactoredPoly.from_factors([])) == "1"
    assert FactoredPoly.from_factors([]).expand() == ONE


def test_factored_exponent_map():
    base = one_minus_square((0,))
    f = FactoredPoly.from_factors([(base, 2), (base, 1), (one_minus_square((1, 2)), 1)])
    assert f.exponent_map() == {base: 3, one_minus_square((1, 2)): 1}


def test_exact_div_tied_leading_terms():
    # x2^2 and x1*x3 tie on degree; the division order must still be a
    # monomial order for this exact division to go through
    q = parse_polynomial("x2^2 + x1*x3")
    assert exact_div(X1 * q, q) == X1
    assert exact_div(q * q - X2 * q, q) == q - X2


def test_print_order_is_degree_then_sparse_exponents():
    assert str(parse_polynomial("x2^2 + x1*x3")) == "x1*x3 + x2^2"
    assert str(parse_polynomial("x3 + x1^2 + 1 + x2*x1")) == "1 + x3 + x1*x2 + x1^2"


def test_product_overflowing_an_exponent_field_raises_too_large():
    big = Polynomial.variable(0, 20000)
    with pytest.raises(TooLarge):
        big * big
    with pytest.raises(TooLarge):
        Monomial.variable(1, 20000).mul(Monomial.variable(1, 20000))
    with pytest.raises(TooLarge):
        parse_polynomial("x1^20000*x2^20000")  # total degree overflows
    assert (big * Polynomial.variable(0, 12767)).degree() == 32767


def test_large_variable_ids():
    # a packed key is as wide as the number of variables in use, not as
    # the largest id: one field per variable, not one per id below it
    assert Monomial.variable(10_000_000).key.bit_length() < 100_000
    x100 = parse_polynomial("x100")
    p = parse_polynomial("x100^3*x2 - x1000000000 + 4")
    assert str(p) == "4 - x1000000000 + x2*x100^3"
    assert p.variables() == frozenset({1, 99, 999_999_999})
    q = ONE - x100 * x100
    assert exact_div(p * q, q) == p
    with pytest.raises(NotDivisible):
        exact_div(p * q + ONE, q)
    assert p.capped() == parse_polynomial("x100^2*x2 - x1000000000 + 4")
    with pytest.raises(TooLarge):
        parse_polynomial("x100^20000") * parse_polynomial("x100^20000")
