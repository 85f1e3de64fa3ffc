"""Property test of `gcd_minors` and `integer_snf` against the brute-force
gcd of every k x k minor."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from test_matinvariants import check_minor_gcds


@st.composite
def integer_grids(draw):
    """Grids up to 5 x 5: plain, products A.B of rank at most the inner
    size, and either with some rows zeroed."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
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
