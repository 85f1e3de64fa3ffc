"""Property tests of the determinant formula against the exact oracle over
small random affine and central arrangements, of the exponent range of
each variable in a minor of V, which the oracle's row order relies on,
and of the oracle against the Bareiss reference over small random
polynomial matrices."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from reference import bareiss_det
from varchenko.errors import InvalidArrangement
from varchenko.geometry import Arrangement, Hyperplane
from varchenko.polyring import Monomial, Polynomial, _unpack
from varchenko.varmatrix import (
    LabeledMatrix,
    build_varchenko,
    det_bruteforce,
    det_formula,
)

MAX_REGIONS = 10

small_ints = st.integers(-2, 2)


@st.composite
def arrangements(draw):
    mode = draw(st.sampled_from(("affine", "central")))
    dim = draw(st.integers(1, 2) if mode == "affine" else st.integers(0, 2))
    nvars = dim + 1 if mode == "central" else dim
    normals = st.tuples(*[small_ints] * nvars).filter(any)
    hyperplanes = [
        Hyperplane(
            f"S{i + 1}",
            tuple(Fraction(c) for c in draw(normals)),
            Fraction(draw(small_ints) if mode == "affine" else 0),
        )
        for i in range(draw(st.integers(1, 4)))
    ]
    try:
        arr = Arrangement(mode, dim, hyperplanes)
    except InvalidArrangement:  # two hyperplanes coincide
        assume(False)
    assume(len(arr.regions()) <= MAX_REGIONS)
    return arr


@settings(max_examples=60)
@given(arrangements())
def test_det_formula_equals_the_exact_determinant(arr):
    assert det_formula(arr).expand() == det_bruteforce(build_varchenko(arr))


@settings(max_examples=60)
@given(arrangements(), st.data())
def test_minor_exponents_stay_in_their_range(arr, data):
    """In the minor of V on rows R and columns T, |R| = |T| = k, with a rows
    and b columns on the + side of hyperplane v, every exponent of x_v lies
    in [|a - b|, min(a + b, 2k - a - b)] and is congruent to a + b mod 2."""
    v = build_varchenko(arr)
    regions = arr.regions()
    indices = st.integers(0, v.size - 1)
    k = data.draw(st.integers(1, v.size))
    rows = data.draw(st.lists(indices, min_size=k, max_size=k, unique=True))
    cols = data.draw(st.lists(indices, min_size=k, max_size=k, unique=True))
    minor = det_bruteforce(
        LabeledMatrix(list(range(k)), [[v.rows[i][j] for j in cols] for i in rows])
    )
    for var in range(arr.n):
        a = sum(regions[i].plus >> var & 1 for i in rows)
        b = sum(regions[j].plus >> var & 1 for j in cols)
        for key in minor.packed():
            e = dict(_unpack(key)).get(var, 0)
            assert abs(a - b) <= e <= min(a + b, 2 * k - a - b)
            assert (e - a - b) % 2 == 0


# Entries of up to three terms in three variables, with signed coefficients
# and zeros; Bareiss already takes about a second at n = 6.
entries = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3).filter(bool), max_size=3
).map(lambda terms: Polynomial({Monomial(enumerate(e)): c for e, c in terms.items()}))


@st.composite
def matrices(draw):
    n = draw(st.integers(0, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return LabeledMatrix(list(range(n)), rows)


@settings(max_examples=80)
@given(matrices(), st.data())
def test_det_bruteforce_equals_bareiss(matrix, data):
    det = det_bruteforce(matrix)
    assert det == bareiss_det(matrix)
    if matrix.size >= 2:
        indices = st.integers(0, matrix.size - 1)
        i, j = data.draw(st.lists(indices, min_size=2, max_size=2, unique=True))
        rows = list(matrix.rows)
        rows[i], rows[j] = rows[j], rows[i]
        assert det_bruteforce(LabeledMatrix(matrix.labels, rows)) == -det
        a, b = data.draw(st.lists(indices, min_size=2, max_size=2, unique=True))
        cols = [list(row) for row in matrix.rows]
        for row in cols:
            row[a], row[b] = row[b], row[a]
        assert det_bruteforce(LabeledMatrix(matrix.labels, cols)) == -det
