"""Property test of the face enumeration (the recursion over the flats),
the flat dimensions it reports and the face table against full scans over
small affine and central arrangements, many of them degenerate."""

from fractions import Fraction
from random import Random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, note, settings, strategies as st

from test_geometry import (
    face_table_by_full_scan,
    faces_by_full_scan,
    flat_dim_by_elimination,
)
from varchenko.errors import InvalidArrangement
from varchenko.geometry import Arrangement, Hyperplane
from varchenko.signedsets import SignVector


@st.composite
def arrangements(draw):
    """Up to eight distinct hyperplanes, drawn from a seed as uniform
    integers in [-3, 3]: in one to four coordinates, a third of them
    central, with normals that are combinations of one to nvars base
    normals (two or more where they pass through one point), all through
    one point in half of the affine draws.  One base normal gives parallel
    copies, two through a point a pencil, nvars through a point a
    concurrent family."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    mode = rng.choice(("affine", "affine", "central"))
    dim = rng.randint(1, 4) if mode == "affine" else rng.randint(0, 3)
    nvars = dim + 1 if mode == "central" else dim

    def vector():
        return [rng.randint(-3, 3) for _ in range(nvars)]

    point = vector() if mode == "affine" and rng.random() < 0.5 else None
    # one base normal through a point allows one hyperplane only
    fewest = 1 if mode == "affine" and point is None else min(2, nvars)
    base = [v for v in (vector() for _ in range(rng.randint(fewest, nvars))) if any(v)]
    size = rng.randint(1, 8)
    hyperplanes = []
    for _ in range(4 * size):
        if len(hyperplanes) == size or not base:
            break
        weights = [rng.randint(-3, 3) for _ in base]
        normal = [sum(w * b[k] for w, b in zip(weights, base)) for k in range(nvars)]
        if not any(normal):
            continue
        if mode == "central":
            offset = 0
        elif point is not None:
            offset = sum(a * c for a, c in zip(normal, point))
        else:
            offset = rng.randint(-3, 3)
        candidate = Hyperplane(
            f"S{len(hyperplanes) + 1}", tuple(map(Fraction, normal)), Fraction(offset)
        )
        try:
            Arrangement(mode, dim, hyperplanes + [candidate])
        except InvalidArrangement:  # coincides with an earlier hyperplane
            continue
        hyperplanes.append(candidate)
    arr = Arrangement(mode, dim, hyperplanes)
    note(arr.to_json())
    return arr


@settings(max_examples=120)
@given(arrangements())
def test_faces_and_regions_equal_the_full_scan(arr):
    expected = faces_by_full_scan(arr)
    assert set(arr.faces().members) == expected
    assert arr.regions() == sorted(
        (f for f in expected if f.is_zero_free()), key=SignVector.sort_key
    )
    for flat in arr.poset():
        assert flat.dim == flat_dim_by_elimination(arr, flat.defining_set)
    assert arr.face_table() == face_table_by_full_scan(arr)
