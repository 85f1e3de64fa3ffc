"""Property tests of the face enumeration (the recursion over the flats),
the flat dimensions it reports and the face table against full scans over
small affine and central arrangements, many of them degenerate, of
Zaslavsky's region count over both, of chi and the flats against
Whitney's sum, of the covector axioms
over the central ones, of the per-hyperplane bitsets (down-sets,
Moebius values, det_formula, the region search) against the scans they
replace, and of the packed evaluation of a point at every hyperplane
against plain dot products, at heights far beyond those the drawn
arrangements reach."""

from fractions import Fraction
from random import Random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, note, settings, strategies as st

from reference import (
    covector_family,
    det_formula_by_subset_sum,
    down_set_by_pairs,
    face_table_by_full_scan,
    mobius_by_pairs,
    ordering_by_rescan,
    passed,
    restriction_region_counts,
    whitney,
)
from test_bitsets import search_outcome
from test_geometry import faces_by_full_scan, flat_dim_by_elimination
from varchenko.diagonalize import ordering
from varchenko.errors import InvalidArrangement
from varchenko.geometry import Arrangement, Hyperplane, _PackedRows
from varchenko.signedsets import (
    SignVector,
    check_composition_closure,
    check_vector_axioms,
)
from varchenko.varmatrix import det_formula


@st.composite
def arrangements(draw, modes=("affine", "affine", "central"), most=8):
    """Up to `most` distinct hyperplanes, drawn from a seed as uniform
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
    size = rng.randint(1, most)
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
@given(arrangements())
def test_region_count_is_the_moebius_sum(arr):
    """Zaslavsky (1975): an affine or central arrangement has sum |mu(X)|
    regions over its intersection poset, and its restriction to a flat X
    has sum |mu(X, Y)| over the flats Y inside X, so each flat's face
    count n_X, which det_formula reads, is that sum
    (`restriction_region_counts`, which reads neither `mobius` nor
    `below`).  In central mode the origin is a flat whenever the
    hyperplanes meet only there, so the sums hold on essential draws
    too."""
    poset = arr.poset()
    assert len(arr.regions()) == sum(abs(mu) for mu in poset.mobius)
    assert [f.faces for f in poset] == restriction_region_counts(poset)


@settings(max_examples=60)
@given(st.one_of(arrangements(modes=("affine",), most=12), arrangements(modes=("central",))))
def test_charpoly_and_flats_equal_whitneys_sum(arr):
    """On degenerate affine draws of up to twelve hyperplanes and on
    central draws, essential ones among them: `charpoly` and the flats'
    masks equal Whitney's sum over the subsets that meet and their
    closures (`whitney`, which shares no code with the flats pass)."""
    chi, flats = whitney(arr)
    assert arr.charpoly() == chi
    assert set(arr.poset().masks) == flats


@settings(max_examples=60)
@given(arrangements(modes=("central",)))
def test_central_covector_families_satisfy_the_covector_axioms(arr):
    """The nonzero covectors of a central arrangement, many of them
    degenerate, are closed under composition and satisfy axioms a-c of
    `check_vector_axioms` (no zero vector, symmetry, elimination), which
    is checked where the family has at most 60 members, since (c) is
    quadratic in the family."""
    family = covector_family(arr)
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


def sign_masks(values):
    """The (plus, minus) masks of a list of integers."""
    plus = sum(1 << i for i, v in enumerate(values) if v > 0)
    minus = sum(1 << i for i, v in enumerate(values) if v < 0)
    return plus, minus


@st.composite
def packed_cases(draw):
    """Up to 16 integer rows (a, b) in one to four coordinates and a point
    P / D, entries small or up to 2^200 in size, with the point put exactly
    on about half of the rows: a row D * a, a . P vanishes at P / D."""
    nvars = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200))
    p = tuple(draw(st.lists(entry, min_size=nvars, max_size=nvars)))
    den = draw(st.one_of(st.integers(1, 3), st.integers(1, 2**200)))
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        a = draw(st.lists(entry, min_size=nvars, max_size=nvars))
        if draw(st.booleans()):
            rows.append((tuple(c * den for c in a), sum(c * x for c, x in zip(a, p))))
        else:
            rows.append((tuple(a), draw(entry)))
    return rows, (p, den)


@settings(max_examples=200)
@given(packed_cases())
def test_the_packed_evaluation_equals_the_dot_products(case):
    """Field i of the word is a_i . P - b_i * D plus 2^(W-1), with W a
    multiple of 8, at least 24 and at least two bits past the bound
    max_i (|a_i|_1 + |b_i|) * max(|P|, D), and the signs read off the
    fields are those of the values."""
    rows, (p, den) = case
    values = [sum(c * x for c, x in zip(a, p)) - b * den for a, b in rows]
    width, word = _PackedRows(rows, len(p)).evaluate((p, den))
    bound = max((sum(map(abs, a)) + abs(b) for a, b in rows), default=0)
    assert width % 8 == 0 and width >= 24
    assert width >= (bound * max(den, *map(abs, p))).bit_length() + 2
    bias, field = 1 << width - 1, (1 << width) - 1
    assert [(word >> i * width & field) - bias for i in range(len(rows))] == values
    assert word >> len(rows) * width == 0
    assert _PackedRows(rows, len(p)).signs(width, word) == sign_masks(values)


@settings(max_examples=200)
@given(
    st.integers(3, 40).map(lambda w: 8 * w),
    st.lists(st.sampled_from(["top", "-top", "1", "-1", "0", "any"]), max_size=16),
    st.randoms(use_true_random=False),
)
def test_the_packed_signs_hold_at_the_extreme_fields(width, kinds, rng):
    """The sign masks of any word whose fields hold values in
    [-(2^(W-1) - 1), 2^(W-1) - 1], the extremes included."""
    top = (1 << width - 1) - 1
    named = {"top": top, "-top": -top, "1": 1, "-1": -1, "0": 0}
    values = [named[k] if k in named else rng.randint(-top, top) for k in kinds]
    word = sum(v + top + 1 << i * width for i, v in enumerate(values))
    rows = [((1,), 0)] * len(values)
    assert _PackedRows(rows, 1).signs(width, word) == sign_masks(values)
