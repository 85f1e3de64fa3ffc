"""Property tests of the polynomial core over small integer polynomials in
at most five variables."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from reference import NotDivisible, capped, exact_div, variable
from varchenko.polyring import Monomial, Polynomial

NVARS = 5
ONE = Polynomial.one()

exponent_vectors = st.tuples(*[st.integers(0, 3)] * NVARS)
coefficients = st.integers(-6, 6).filter(bool)


def from_terms(terms) -> Polynomial:
    return Polynomial(
        {Monomial(enumerate(exps)): c for exps, c in terms.items()}
    )


polys = st.dictionaries(exponent_vectors, coefficients, max_size=6).map(from_terms)


@st.composite
def tied_divisors(draw):
    """Nonconstant divisors whose top degree has two or more terms, so
    the leading term is decided by the tie-break of the division order."""
    top = draw(exponent_vectors.filter(lambda e: len(set(e)) > 1))
    other = draw(st.permutations(top).filter(lambda e: tuple(e) != top))
    terms = {top: draw(coefficients), tuple(other): draw(coefficients)}
    for exps, c in draw(st.dictionaries(exponent_vectors, coefficients, max_size=4)).items():
        if sum(exps) < sum(top):
            terms[exps] = c
    return from_terms(terms)


divisors = st.one_of(polys.filter(lambda q: not q.is_constant()), tied_divisors())


@given(polys, divisors)
def test_exact_div_recovers_the_cofactor(p, q):
    assert exact_div(p * q, q) == p


@given(polys, divisors)
def test_exact_div_rejects_a_unit_offset(p, q):
    with pytest.raises(NotDivisible):
        exact_div(p * q + ONE, q)


@given(st.integers(0, NVARS - 1), polys)
def test_cap_absorbs_squares_of_a_fresh_variable(i, p):
    # criterion 8: for p free of x_i, capping pulls x_i^2 out of
    # x_i^2 (1 - x_i^2 p) and absorbs (1 - x_i^2 p) into (1 - x_i^2)
    p = p.substitute(
        {v: 1 if v == i else variable(v) for v in range(NVARS)}
    )
    xi2 = variable(i, 2)
    assert capped(xi2 * (ONE - xi2 * p)) == xi2 * capped(ONE - p)
    assert capped((ONE - xi2) * (ONE - xi2 * p)) == ONE - xi2


# exponents up to 6000 keep five-variable total degrees below 2**15
wide_terms = st.dictionaries(
    st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 6000))] * NVARS),
    coefficients,
    max_size=6,
)


@given(wide_terms)
def test_cap_clips_each_exponent_to_two(terms):
    # the definition, on exponent vectors: clip, then sum the coefficients
    clipped = {}
    for exps, c in terms.items():
        key = tuple(min(e, 2) for e in exps)
        clipped[key] = clipped.get(key, 0) + c
    assert capped(from_terms(terms)) == from_terms(clipped)


@given(polys, polys)
def test_cap_is_idempotent_and_additive(p, q):
    cap = capped(p)
    assert capped(cap) == cap
    assert capped(p + q) == cap + capped(q)
