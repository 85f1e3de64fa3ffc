"""Property tests of `gcd_minors` and `integer_snf` against the brute-force
gcd of every k x k minor, of `int_rank` against `Fraction` Gaussian
elimination, of the obstruction report's closed forms against `gcd_minors`,
`int_rank` and `integer_snf`, and of `deletion_reduction` against the
Varchenko matrix of the deleted arrangement."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from reference import (
    deletion_reduction,
    equal_up_to_relabeling,
    fraction_rank,
    nonzero_block,
    separation_mask,
    snf_by_smith_form,
)
from test_geometry_properties import arrangements
from test_matinvariants import check_minor_gcds
from varchenko.geometry import Arrangement
from varchenko.matinvariants import (
    MAX_SNF_SIZE,
    _single_threes_snf,
    gcd_minors,
    int_rank,
)
from varchenko.varmatrix import build_varchenko


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


@settings(max_examples=120)
@given(arrangements())
def test_closed_form_snf_equals_the_smith_form(arr):
    """The report's closed forms against the computations they replace:
    the single-hyperplane Smith forms, the 2 x 2 minor gcd 8 at x_i = 3
    (there is no 2 x 2 minor with no hyperplane) and the rank 1 at
    x_i = 1."""
    regions = arr.regions()
    assume(len(regions) <= MAX_SNF_SIZE)
    assert _single_threes_snf(arr.names, [x.plus for x in regions]) == snf_by_smith_form(arr)
    # V's entry (m, n) is the product of the x_i over sep(R_m, R_n)
    sizes = [[separation_mask(x, y).bit_count() for y in regions] for x in regions]
    if arr.n:
        assert gcd_minors([[3**s for s in row] for row in sizes], 2) == 8
    assert int_rank([[1**s for s in row] for row in sizes]) == 1


@settings(max_examples=150)
@given(arrangements())
def test_deletion_reduction_leaves_the_deleted_arrangements_matrix(arr):
    """x_e := 1 for the last hyperplane e, with the duplicated rows and
    columns cancelled, leaves the deleted arrangement's V on the nonzero
    rows, up to relabeling."""
    assume(arr.n >= 1 and len(arr.regions()) <= 24)
    deleted = build_varchenko(Arrangement(arr.mode, arr.dim, arr.hyperplanes[:-1]))
    reduced, _ = deletion_reduction(build_varchenko(arr), arr.n - 1)
    block = nonzero_block(reduced)
    assert block.size == deleted.size
    assert equal_up_to_relabeling(block, deleted) is not None
