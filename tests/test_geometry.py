import itertools
import json
from fractions import Fraction

import pytest

from varchenko import fixtures
from varchenko.errors import InvalidArrangement, InvalidInput, TooLarge
from varchenko.exactlp import feasible_strict, solve_equalities
from varchenko.geometry import Arrangement, Hyperplane, charpoly_string, parse_rational
from varchenko.signedsets import SignedFamily, SignVector


def flats_by_subset_enumeration(arr):
    """Independent oracle: intersect every subset, dedup by closure."""
    nvars = arr.dim + 1 if arr.mode == "central" else arr.dim
    found = set()
    for size in range(arr.n + 1):
        for subset in itertools.combinations(range(arr.n), size):
            eqs = [
                (arr.hyperplanes[i].normal, arr.hyperplanes[i].offset)
                for i in subset
            ]
            solved = solve_equalities(eqs, nvars)
            if solved is None:
                continue
            particular, basis = solved
            if arr.mode == "central" and not basis:
                continue  # origin only: empty on the sphere
            closure = set()
            for i, h in enumerate(arr.hyperplanes):
                on_particular = (
                    sum(a * b for a, b in zip(h.normal, particular)) == h.offset
                )
                kills_basis = all(
                    sum(a * b for a, b in zip(h.normal, vec)) == 0 for vec in basis
                )
                if on_particular and kills_basis:
                    closure.add(i)
            found.add(frozenset(closure))
    return found


def test_region_counts():
    assert len(fixtures.three_generic_lines().regions()) == 7
    assert len(fixtures.single_line().regions()) == 2
    # pencil through a point, both pictures: 2^(d+1) - 2 regions for d = 2
    assert len(fixtures.three_concurrent_lines().regions()) == 6
    assert len(fixtures.three_concurrent_central().regions()) == 6


def test_regions_canonical_order():
    regions = fixtures.three_generic_lines().regions()
    strings = [r.to_string() for r in regions]
    assert strings == sorted(strings, key=lambda s: [("+0-").index(c) for c in s])
    assert strings[0] == "+++"
    assert all(r.is_zero_free() for r in regions)


def test_face_counts():
    assert len(fixtures.single_line().faces()) == 3  # two sides plus the line
    # 2 generic lines: every one of the 3^2 sign vectors is realizable
    assert len(fixtures.two_generic_lines().faces()) == 9
    # 3 generic lines: 7 regions + 9 edges + 3 vertices
    assert len(fixtures.three_generic_lines().faces()) == 19


def test_single_line_face_strings():
    strings = {f.to_string() for f in fixtures.single_line().faces()}
    assert strings == {"+", "-", "0"}


def test_poset_sizes():
    assert len(fixtures.three_generic_lines().poset()) == 7
    assert len(fixtures.three_concurrent_lines().poset()) == 5
    assert len(Arrangement("affine", 2, []).poset()) == 1


def test_flats_match_subset_enumeration_oracle():
    for arr in (
        fixtures.three_generic_lines(),
        fixtures.three_concurrent_lines(),
        fixtures.three_parallel_lines(),
        fixtures.two_parallel_one_crossing(),
        fixtures.pencil_four_planes(),
        fixtures.three_concurrent_central(),
        fixtures.two_central_circles(),
        fixtures.five_generic_lines(),
    ):
        expected = flats_by_subset_enumeration(arr)
        got = {f.defining_set for f in arr.poset()}
        assert got == expected


def test_mobius_and_charpoly():
    line_in_plane = Arrangement(
        "affine", 2, [Hyperplane("S1", (Fraction(1), Fraction(0)), Fraction(0))]
    )
    assert line_in_plane.charpoly() == (0, -1, 1)  # t^2 - t
    assert fixtures.three_generic_lines().charpoly() == (3, -3, 1)
    assert fixtures.three_concurrent_lines().charpoly() == (2, -3, 1)
    assert charpoly_string((3, -3, 1)) == "t^2 - 3*t + 3"
    assert charpoly_string((0, -1, 1)) == "t^2 - t"


def test_mobius_bottom_is_one():
    for arr in (fixtures.three_generic_lines(), fixtures.pencil_four_planes()):
        assert arr.poset().mobius[0] == 1


def test_semigeneral_verdicts():
    assert fixtures.three_generic_lines().is_semigeneral()
    witness = fixtures.three_concurrent_lines().semigeneral_witness()
    assert witness is not None
    assert witness.defining_set == {0, 1, 2}
    assert witness.dim == 0  # expected 2 - 3 = -1
    assert fixtures.three_parallel_lines().is_semigeneral()


def test_abs_mobius_sum_equals_region_count():
    for name, arr in fixtures.semigeneral_suite():
        poset = arr.poset()
        assert sum(abs(m) for m in poset.mobius) == len(arr.regions()), name
    conc = fixtures.three_concurrent_lines()
    assert sum(abs(m) for m in conc.poset().mobius) == len(conc.regions())


def test_flat_count_equals_region_count_when_semigeneral():
    for name, arr in fixtures.semigeneral_suite():
        assert len(arr.poset()) == len(arr.regions()), name


def test_dim_strictly_decreasing_along_order():
    for arr in (
        fixtures.five_generic_lines(),
        fixtures.pencil_four_planes(),
        fixtures.three_concurrent_central(),
    ):
        poset = arr.poset()
        for a in poset:
            for b in poset:
                if a.defining_set < b.defining_set:
                    assert a.dim > b.dim


def test_regions_are_the_zero_free_faces():
    for arr in (
        fixtures.three_generic_lines(),
        fixtures.three_concurrent_lines(),
        fixtures.three_parallel_lines(),
        fixtures.two_central_circles(),
        fixtures.suspension_three_generic_lines(),
    ):
        zero_free = {f for f in arr.faces().members if f.is_zero_free()}
        assert zero_free == set(arr.regions())


def test_faces_compose_with_regions_into_regions():
    for arr in (
        fixtures.three_generic_lines(),
        fixtures.three_concurrent_lines(),
        fixtures.two_central_circles(),
    ):
        regions = set(arr.regions())
        for face in arr.faces():
            for region in regions:
                assert face.compose(region) in regions


def faces_by_full_scan(arr):
    """Independent oracle: one feasibility call per sign vector in {+,0,-}^n."""
    nvars = arr.dim + 1 if arr.mode == "central" else arr.dim
    found = set()
    for signs in itertools.product((1, 0, -1), repeat=arr.n):
        eqs, stricts = [], []
        for h, s in zip(arr.hyperplanes, signs):
            if s == 0:
                eqs.append((h.normal, h.offset))
            elif s > 0:
                stricts.append((h.normal, h.offset))
            else:
                stricts.append((tuple(-c for c in h.normal), -h.offset))
        if feasible_strict(eqs, stricts, nvars, require_nonzero=arr.mode == "central"):
            found.add(SignVector.from_signs(signs))
    return found


def test_feasibility_oracle_consistency():
    """Full 3^n scan with direct feasibility calls matches the DFS output."""
    for arr in (fixtures.three_generic_lines(), fixtures.three_concurrent_lines()):
        assert set(arr.faces().members) == faces_by_full_scan(arr)


def test_two_lines_on_the_circle_keep_every_face():
    # the face 0 of S1 is the split 0-sphere {(0, 1), (0, -1)}: S2 cuts it
    # only at the origin, and both of its sides are faces
    arr = Arrangement(
        "central",
        1,
        [
            Hyperplane("S1", (Fraction(1), Fraction(0))),
            Hyperplane("S2", (Fraction(0), Fraction(1))),
        ],
    )
    expected = {"++", "+-", "-+", "--", "+0", "-0", "0+", "0-"}
    assert {f.to_string() for f in arr.faces().members} == expected
    assert [r.to_string() for r in arr.regions()] == ["++", "+-", "-+", "--"]


def test_covector_mode_fixture():
    arr = fixtures.suspension_three_generic_lines()
    assert arr.n == 3
    assert len(arr.regions()) == 8
    assert len(arr.poset()) == 7
    assert arr.is_semigeneral()
    assert arr.names == ("S1", "S2", "S3")


def test_covector_family_view():
    arr = fixtures.three_generic_lines()
    family = arr.covector_family()
    assert not any(v.is_zero() for v in family.members)
    for v in family.members:
        assert -v in family.members


def test_covector_mode_gates():
    with pytest.raises(InvalidArrangement):
        Arrangement("covector", 1, covectors=SignedFamily.from_strings(["+", "-", "0"]))
    with pytest.raises(InvalidArrangement):
        Arrangement("covector", 1, covectors=SignedFamily.from_strings(["+"]))
    with pytest.raises(InvalidArrangement):
        Arrangement(
            "covector", 2, covectors=SignedFamily.from_strings(["+0", "-0", "0+", "0-"])
        )


def test_duplicate_hyperplane_rejected():
    with pytest.raises(InvalidArrangement):
        Arrangement(
            "affine",
            2,
            [
                Hyperplane("A", (Fraction(1), Fraction(0)), Fraction(0)),
                Hyperplane("B", (Fraction(-2), Fraction(0)), Fraction(0)),
            ],
        )
    with pytest.raises(InvalidArrangement):
        Arrangement(
            "affine",
            2,
            [
                Hyperplane("A", (Fraction(1), Fraction(1)), Fraction(1)),
                Hyperplane("A", (Fraction(1), Fraction(0)), Fraction(0)),
            ],
        )


def test_central_offset_must_be_zero():
    with pytest.raises(InvalidArrangement):
        Arrangement(
            "central", 1, [Hyperplane("A", (Fraction(1), Fraction(0)), Fraction(1))]
        )


def test_zero_normal_rejected():
    with pytest.raises(InvalidArrangement):
        Hyperplane("A", (Fraction(0), Fraction(0)), Fraction(1))


def test_enumeration_size_cap():
    hyps = [
        Hyperplane(f"S{i}", (Fraction(1), Fraction(i)), Fraction(0)) for i in range(17)
    ]
    with pytest.raises(TooLarge):
        Arrangement("affine", 2, hyps).regions()


def test_json_round_trip():
    for name, arr in fixtures.named_fixtures().items():
        back = Arrangement.from_json(arr.to_json())
        assert back.mode == arr.mode
        assert back.dim == arr.dim
        assert [r.to_string() for r in back.regions()] == [
            r.to_string() for r in arr.regions()
        ], name


def test_rational_parsing():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("17") == 17
    for bad in ("3.5", "1/0x", "--2", "", "1e3", "x"):
        with pytest.raises(InvalidInput):
            parse_rational(bad)


def test_bad_json_inputs():
    with pytest.raises(InvalidInput):
        Arrangement.from_json("not json")
    with pytest.raises(InvalidInput):
        Arrangement.from_json(json.dumps({"mode": "affine"}))
    with pytest.raises(InvalidInput):
        Arrangement.from_json(json.dumps({"mode": "covector", "dim": 2}))


def test_central_fixtures():
    two = fixtures.two_central_circles()
    assert [f.dim for f in two.poset()] == [2, 1, 1, 0]
    assert two.is_semigeneral()
    three = fixtures.three_central_spheres()
    assert len(three.regions()) == 8
    assert len(three.poset()) == 8
