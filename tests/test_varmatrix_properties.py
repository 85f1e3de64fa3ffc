"""Property test of the determinant formula against the exact oracle over
small random affine and central arrangements."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from varchenko.errors import InvalidArrangement
from varchenko.geometry import Arrangement, Hyperplane
from varchenko.varmatrix import build_varchenko, det_bruteforce, det_formula

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
