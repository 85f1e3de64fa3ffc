"""Property test of the witness-guided face enumeration against a full
feasibility scan over small affine and central arrangements."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from test_geometry import faces_by_full_scan
from varchenko.errors import InvalidArrangement
from varchenko.geometry import Arrangement, Hyperplane
from varchenko.signedsets import SignVector

# Deterministic examples, so that a failure reproduces on every run.
property_test = settings(
    deadline=None, derandomize=True, database=None, max_examples=120
)

small_ints = st.integers(-2, 2)


@st.composite
def arrangements(draw):
    """Up to six distinct hyperplanes whose normals are small combinations of one to
    nvars base normals, optionally all through one point.  One base normal
    gives parallel copies, two through a point a pencil, nvars through a
    point a concurrent family."""
    mode = draw(st.sampled_from(("affine", "central")))
    dim = draw(st.integers(1, 3) if mode == "affine" else st.integers(0, 3))
    nvars = dim + 1 if mode == "central" else dim
    vectors = st.tuples(*[small_ints] * nvars)
    base = draw(st.lists(vectors.filter(any), min_size=1, max_size=nvars))
    point = draw(vectors) if draw(st.booleans()) else None
    size = draw(st.sampled_from((6, 5, 4, 3, 2, 1)))
    hyperplanes = []
    for _ in range(3 * size):
        if len(hyperplanes) == size:
            break
        weights = draw(st.tuples(*[small_ints] * len(base)))
        normal = tuple(
            Fraction(sum(w * b[k] for w, b in zip(weights, base)))
            for k in range(nvars)
        )
        if not any(normal):
            continue
        if mode == "central":
            offset = Fraction(0)
        elif point is not None:
            offset = sum(a * c for a, c in zip(normal, point))
        else:
            offset = Fraction(draw(small_ints))
        candidate = Hyperplane(f"S{len(hyperplanes) + 1}", normal, offset)
        try:
            Arrangement(mode, dim, hyperplanes + [candidate])
        except InvalidArrangement:  # coincides with an earlier hyperplane
            continue
        hyperplanes.append(candidate)
    return Arrangement(mode, dim, hyperplanes)


@property_test
@given(arrangements())
def test_faces_and_regions_equal_the_full_scan(arr):
    expected = faces_by_full_scan(arr)
    assert set(arr.faces().members) == expected
    assert arr.regions() == sorted(
        (f for f in expected if f.is_zero_free()), key=SignVector.sort_key
    )
