"""Property test of the closed-form transform against the replayed
elimination over small random semigeneral arrangements."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, strategies as st

from varchenko.diagonalize import diagonalize, replay_elimination
from varchenko.errors import InvalidArrangement
from varchenko.geometry import Arrangement, Hyperplane


@st.composite
def semigeneral_arrangements(draw):
    """Affine families of up to three parallel classes of one or two
    hyperplanes each, or central families of up to `dim` hyperplanes, in
    dimension 1 to 3.  A central family of more hyperplanes can meet only
    at the origin, which `poset` does not count as a flat (README scope
    notes), and then no ordering exists."""
    mode = draw(st.sampled_from(("affine", "central")))
    dim = draw(st.integers(1, 3))
    nvars = dim + 1 if mode == "central" else dim
    normals = st.tuples(*[st.integers(-3, 3)] * nvars).filter(any)
    if mode == "central":
        classes = [(normal, [0]) for normal in draw(st.lists(normals, min_size=1, max_size=dim))]
    else:
        offsets = st.lists(st.integers(-4, 4), min_size=1, max_size=2, unique=True)
        classes = draw(st.lists(st.tuples(normals, offsets), min_size=1, max_size=3))
    hyperplanes = [
        Hyperplane(f"S{i + 1}", tuple(map(Fraction, normal)), Fraction(offset))
        for i, (normal, offset) in enumerate(
            (normal, offset) for normal, offsets in classes for offset in offsets
        )
    ]
    try:
        arr = Arrangement(mode, dim, hyperplanes)
    except InvalidArrangement:  # two hyperplanes coincide
        assume(False)
    assume(arr.is_semigeneral())
    return arr


@given(semigeneral_arrangements())
def test_closed_form_transform_equals_the_replayed_elimination(arr):
    assert diagonalize(arr).P == replay_elimination(arr)
