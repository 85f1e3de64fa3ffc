"""Property tests of the face enumeration (the recursion over the flats),
the flat dimensions it reports and the face table against full scans over
small affine and central arrangements, many of them degenerate, of
Zaslavsky's region count over the affine ones, of the covector axioms
over the central ones, and of the per-hyperplane bitsets (down-sets,
Moebius values, det_formula, the region search) against the scans they
replace."""

from fractions import Fraction
from random import Random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, note, settings, strategies as st

from reference import (
    det_formula_by_subset_sum,
    down_set_by_pairs,
    face_table_by_full_scan,
    mobius_by_pairs,
    ordering_by_rescan,
    passed,
)
from test_bitsets import search_outcome
from test_geometry import faces_by_full_scan, flat_dim_by_elimination
from varchenko.diagonalize import ordering
from varchenko.errors import InvalidArrangement
from varchenko.geometry import Arrangement, Hyperplane
from varchenko.signedsets import (
    SignVector,
    check_composition_closure,
    check_vector_axioms,
)
from varchenko.varmatrix import det_formula


@st.composite
def arrangements(draw, modes=("affine", "affine", "central")):
    """Up to eight distinct hyperplanes, drawn from a seed as uniform
    integers in [-3, 3]: in one to four coordinates, in a mode picked
    uniformly from `modes` (by default a third of them central), with
    normals that are combinations of one to nvars base normals (two or
    more where they pass through one point), all through one point in half
    of the affine draws.  One base normal gives parallel copies, two
    through a point a pencil, nvars through a point a concurrent family."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    mode = rng.choice(modes)
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


@settings(max_examples=80)
@given(arrangements(modes=("affine",)))
def test_affine_region_count_is_the_moebius_sum(arr):
    """Zaslavsky (1975): an affine arrangement has sum |mu(X)| regions over
    its intersection poset.  Central draws are left out: in central mode
    the poset holds no flat for the origin, so the sum misses the origin's
    term on most central draws, and whether that flat belongs to the poset
    is the open central-origin convention."""
    assert len(arr.regions()) == sum(abs(mu) for mu in arr.poset().mobius)


@settings(max_examples=60)
@given(arrangements(modes=("central",)))
def test_central_covector_families_satisfy_the_covector_axioms(arr):
    """The nonzero covectors of a central arrangement, many of them
    degenerate, are closed under composition and satisfy axioms a-c of
    `check_vector_axioms` (no zero vector, symmetry, elimination), which
    is checked where the family has at most 60 members, since (c) is
    quadratic in the family."""
    family = arr.covector_family()
    assert check_composition_closure(family) is None
    if len(family) <= 60:
        report = check_vector_axioms(family)
        assert passed(report), report


@settings(max_examples=120)
@given(arrangements())
def test_the_bitsets_equal_the_pairwise_scans(arr):
    """On affine, central and degenerate draws: each flat's down-set, the
    Moebius values and det_formula equal their pairwise references, and
    the region search finds the rescan's ordering or raises as it does."""
    poset = arr.poset()
    assert [poset.below(f.index) for f in poset] == [
        down_set_by_pairs(poset, f.index) for f in poset
    ]
    assert poset.mobius == mobius_by_pairs(poset)
    assert det_formula(arr) == det_formula_by_subset_sum(arr)
    assert search_outcome(ordering, arr) == search_outcome(ordering_by_rescan, arr)
