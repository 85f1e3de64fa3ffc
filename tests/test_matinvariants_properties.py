"""Property tests of `gcd_minors` and `integer_snf` against the brute-force
gcd of every k x k minor, and of `int_rank` against `Fraction` Gaussian
elimination."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st

from reference import fraction_rank
from test_matinvariants import check_minor_gcds
from varchenko.matinvariants import int_rank


@st.composite
def integer_grids(draw, size=5):
    """Grids up to size x size: plain, products A.B of rank at most the
    inner size, and either with some rows zeroed."""
    n, m = draw(st.integers(1, size)), draw(st.integers(1, size))
    entries = st.integers(-4, 4)
    if draw(st.booleans()):
        inner = draw(st.integers(1, min(n, m)))
        a = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner), min_size=n, max_size=n))
        b = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=inner, max_size=inner))
        grid = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    else:
        grid = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    zeroed = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return [[0] * m if i in zeroed else row for i, row in enumerate(grid)]


@given(integer_grids())
def test_gcd_minors_equals_the_brute_force_reference(grid):
    check_minor_gcds(grid)


@given(integer_grids(size=6))
@example([])
def test_int_rank_equals_the_fraction_elimination_reference(grid):
    assert int_rank(grid) == fraction_rank(grid)
