import itertools
import json
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

import reference
from arrangements import fixture, higher_dim_cases, named_fixtures, semigeneral_suite
from reference import (
    covector_family,
    face_table_by_full_scan,
    feasible_strict,
    flat_index,
    restriction_region_counts,
    sign_vector,
    solve_equalities,
    whitney,
    zero_set,
)
from test_diagonalize import bench_inputs, generated_bench_inputs
from varchenko.errors import (
    InconsistentWitness,
    InvalidArrangement,
    InvalidInput,
    TooLarge,
)
from varchenko.geometry import (
    Arrangement,
    Hyperplane,
    _normalize_int,
    charpoly_string,
    parse_rational,
)
from varchenko.signedsets import SignedFamily, SignVector
from varchenko.varmatrix import det_formula


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
    assert len(fixture("three_generic_lines").regions()) == 7
    assert len(fixture("single_line").regions()) == 2
    # pencil through a point, both pictures: 2^(d+1) - 2 regions for d = 2
    assert len(fixture("three_concurrent_lines").regions()) == 6
    assert len(fixture("three_concurrent_central").regions()) == 6


def test_regions_canonical_order():
    regions = fixture("three_generic_lines").regions()
    strings = [r.to_string() for r in regions]
    assert strings == sorted(strings, key=lambda s: [("+0-").index(c) for c in s])
    assert strings[0] == "+++"
    assert all(r.is_zero_free() for r in regions)


def test_face_counts():
    assert len(fixture("single_line").faces()) == 3  # two sides plus the line
    # 2 generic lines: every one of the 3^2 sign vectors is realizable
    assert len(fixture("two_generic_lines").faces()) == 9
    # 3 generic lines: 7 regions + 9 edges + 3 vertices
    assert len(fixture("three_generic_lines").faces()) == 19


def test_single_line_face_strings():
    strings = {f.to_string() for f in fixture("single_line").faces()}
    assert strings == {"+", "-", "0"}


def test_poset_sizes():
    assert len(fixture("three_generic_lines").poset()) == 7
    assert len(fixture("three_concurrent_lines").poset()) == 5
    assert len(Arrangement("affine", 2, []).poset()) == 1


def test_flats_match_subset_enumeration_oracle():
    for arr in (
        fixture("three_generic_lines"),
        fixture("three_concurrent_lines"),
        fixture("three_parallel_lines"),
        fixture("two_parallel_one_crossing"),
        fixture("pencil_four_planes"),
        fixture("three_concurrent_central"),
        fixture("two_central_circles"),
        fixture("five_generic_lines"),
    ):
        expected = flats_by_subset_enumeration(arr)
        got = {f.defining_set for f in arr.poset()}
        assert got == expected
        for flat in arr.poset():
            assert flat.dim == flat_dim_by_elimination(arr, flat.defining_set)


def test_mobius_and_charpoly():
    line_in_plane = Arrangement(
        "affine", 2, [Hyperplane("S1", (Fraction(1), Fraction(0)), Fraction(0))]
    )
    assert line_in_plane.charpoly() == (0, -1, 1)  # t^2 - t
    assert fixture("three_generic_lines").charpoly() == (3, -3, 1)
    assert fixture("three_concurrent_lines").charpoly() == (2, -3, 1)
    assert charpoly_string((3, -3, 1)) == "t^2 - 3*t + 3"
    assert charpoly_string((0, -1, 1)) == "t^2 - t"


def test_charpoly_and_flats_equal_whitneys_sum():
    """On every fixture with coordinates and the higher-dimension cases,
    and on the octants and three lines through the origin, whose
    hyperplanes meet only at the origin."""
    def central(dim, *normals):
        return Arrangement(
            "central",
            dim,
            [
                Hyperplane(f"S{i + 1}", tuple(map(Fraction, normal)))
                for i, normal in enumerate(normals)
            ],
        )

    octants = central(2, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    pencil = central(1, (1, 0), (0, 1), (1, 1))
    cases = list(named_fixtures().items()) + higher_dim_cases()
    for name, arr in cases + [("octants", octants), ("pencil", pencil)]:
        if arr.mode == "covector":
            continue
        chi, flats = whitney(arr)
        assert arr.charpoly() == chi, name
        assert set(arr.poset().masks) == flats, name
    assert octants.charpoly() == (-1, 3, -3, 1)  # (t - 1)^3
    assert pencil.charpoly() == (2, -3, 1)  # (t - 1)(t - 2)


def test_mobius_bottom_is_one():
    for arr in (fixture("three_generic_lines"), fixture("pencil_four_planes")):
        assert arr.poset().mobius[0] == 1


def test_semigeneral_verdicts():
    assert fixture("three_generic_lines").is_semigeneral()
    witness = fixture("three_concurrent_lines").semigeneral_witness()
    assert witness is not None
    assert witness.defining_set == {0, 1, 2}
    assert witness.dim == 0  # expected 2 - 3 = -1
    assert fixture("three_parallel_lines").is_semigeneral()


def test_abs_mobius_sum_equals_region_count():
    for name, arr in semigeneral_suite():
        poset = arr.poset()
        assert sum(abs(m) for m in poset.mobius) == len(arr.regions()), name
    conc = fixture("three_concurrent_lines")
    assert sum(abs(m) for m in conc.poset().mobius) == len(conc.regions())


def test_flat_count_equals_region_count_when_semigeneral():
    for name, arr in semigeneral_suite():
        assert len(arr.poset()) == len(arr.regions()), name


def test_dim_strictly_decreasing_along_order():
    for arr in (
        fixture("five_generic_lines"),
        fixture("pencil_four_planes"),
        fixture("three_concurrent_central"),
    ):
        poset = arr.poset()
        for a in poset:
            for b in poset:
                if a.defining_set < b.defining_set:
                    assert a.dim > b.dim


def test_regions_are_the_zero_free_faces():
    for arr in (
        fixture("three_generic_lines"),
        fixture("three_concurrent_lines"),
        fixture("three_parallel_lines"),
        fixture("two_central_circles"),
        fixture("suspension_three_generic_lines"),
    ):
        zero_free = {f for f in arr.faces().members if f.is_zero_free()}
        assert zero_free == set(arr.regions())


def test_faces_compose_with_regions_into_regions():
    for arr in (
        fixture("three_generic_lines"),
        fixture("three_concurrent_lines"),
        fixture("two_central_circles"),
    ):
        regions = set(arr.regions())
        for face in arr.faces():
            for region in regions:
                assert face.compose(region) in regions


def faces_by_full_scan(arr):
    """Independent oracle: one feasibility call per sign vector in {+,0,-}^n,
    grown one hyperplane at a time; a sign prefix that no point realises is
    not extended, since every extension adds constraints to it."""
    nvars = arr.dim + 1 if arr.mode == "central" else arr.dim
    # each hyperplane scaled by a positive rational to integers
    planes = [_normalize_int(h.normal, h.offset) for h in arr.hyperplanes]
    found = set()

    def scan(signs, eqs, stricts):
        if not feasible_strict(eqs, stricts, nvars):
            return
        if len(signs) == arr.n:
            found.add(sign_vector(signs))
            return
        a, b = planes[len(signs)]
        scan(signs + [1], eqs, stricts + [(a, b)])
        scan(signs + [0], eqs + [(a, b)], stricts)
        scan(signs + [-1], eqs, stricts + [(tuple(-c for c in a), -b)])

    scan([], [], [])
    return found


def flat_dim_by_elimination(arr, defining_set):
    """Independent oracle: the nullspace size of the defining set's
    equations, one less in central mode (spherical dimension)."""
    nvars = arr.dim + 1 if arr.mode == "central" else arr.dim
    eqs = [
        (arr.hyperplanes[i].normal, arr.hyperplanes[i].offset)
        for i in sorted(defining_set)
    ]
    _, basis = solve_equalities(eqs, nvars)
    return len(basis) - (arr.mode == "central")


def fixture_and_bench_cases():
    """(name, arrangement), freshly built: the fixtures, the semigeneral
    suite and the inputs of every benchmark workload."""
    bench = [
        case
        for workload in ("semigeneral", "oracle", "degenerate")
        for case in bench_inputs(workload)
    ]
    return list(named_fixtures().items()) + semigeneral_suite() + bench


def test_face_table_equals_the_full_scan():
    for name, arr in fixture_and_bench_cases():
        assert arr.face_table() == face_table_by_full_scan(arr), name


def test_each_flat_counts_the_faces_with_its_zero_set():
    """n_X, read off the flat table, is the number of faces whose zero set
    is X's defining set; the counts cover the faces, and the ambient flat's
    faces are the regions.  On the affine and central inputs n_X is also
    the sum of |mu(X, Y)| over the flats Y inside X (Zaslavsky 1975).  The
    covector-mode suspension is left out of that check: its family keeps
    out the zero vector, so its poset holds no flat for the origin and its
    n_X exceed the sums by one, the origin's term.  The higher-dimension
    cases carry the check above R^3."""
    for name, arr in fixture_and_bench_cases() + higher_dim_cases():
        poset = arr.poset()
        flats = poset.flats
        by_zero_set = Counter(zero_set(f) for f in arr.faces().members)
        assert {f.defining_set: f.faces for f in flats} == by_zero_set, name
        assert sum(f.faces for f in flats) == len(arr.faces()), name
        assert flats[0].faces == len(arr.regions()), name
        if arr.mode != "covector":
            assert [f.faces for f in flats] == restriction_region_counts(poset), name


def test_poset_face_table_and_det_formula_regroup_no_faces_by_zero_set(monkeypatch):
    """The flat table alone places the faces on their flats."""

    def refuse(self):
        raise AssertionError(f"{self.to_string()} was placed by its zero set")

    # zero sets are a test reference, not a method of SignVector
    assert not hasattr(SignVector, "zero_set")
    monkeypatch.setattr(reference, "zero_set", refuse)
    for arr in named_fixtures().values():
        arr.poset()
        arr.face_table()
        if arr.mode != "covector":
            det_formula(arr)


def leaf_points(arr, monkeypatch):
    """(face, (P, D)) for every leaf of the enumeration, in visiting order,
    and the faces.  It runs once, through `faces()` on a fresh copy of
    `arr`, since some generated cases were enumerated when they were
    checked."""
    leaves = []
    original = Arrangement._witnessed

    def record(self, rows, mask, signs, point):
        witnessed = original(self, rows, mask, signs, point)
        leaves.append((witnessed[0], point))
        return witnessed

    monkeypatch.setattr(Arrangement, "_witnessed", record)
    faces = Arrangement(arr.mode, arr.dim, arr.hyperplanes).faces()
    monkeypatch.undo()
    return leaves, faces


def test_every_leaf_point_is_in_lowest_terms_and_realises_its_face(monkeypatch):
    """Each leaf's numerators and denominator also stay within 16 bits per
    coordinate of the ambient space: every step is along a cut's own
    direction, so heights grow with the dimension and not with the number
    of cuts."""
    for name, arr in fixture_and_bench_cases() + higher_dim_cases():
        if arr.mode == "covector":
            continue
        leaves, faces = leaf_points(arr, monkeypatch)
        assert len({face for face, _ in leaves}) == len(leaves) == len(faces), name
        bits = 16 * arr._nvars
        # the hyperplanes as given, each times the positive lcm of its
        # denominators, so that a . P - b * D has the sign at x = P / D
        scaled = []
        for h in arr.hyperplanes:
            m = lcm(*(c.denominator for c in (*h.normal, h.offset)))
            scaled.append(([int(c * m) for c in h.normal], int(h.offset * m)))
        for face, (p, den) in leaves:
            assert all(type(v) is int for v in p) and type(den) is int, name
            assert den > 0 and gcd(*p, den) == 1, (name, face)
            assert max(abs(v) for v in (*p, den)).bit_length() <= bits, (name, face)
            realised = [
                sum(c * v for c, v in zip(a, p)) - b * den for a, b in scaled
            ]
            assert face == sign_vector(
                [(v > 0) - (v < 0) for v in realised]
            ), (name, face)


def test_a_leaf_point_that_misses_its_face_is_caught(monkeypatch):
    original = Arrangement._witnessed
    first = []

    def corrupt(self, rows, mask, signs, point):
        # every leaf after the first gets the first leaf's point, which
        # realises another face
        first.append(point)
        return original(self, rows, mask, signs, first[0])

    monkeypatch.setattr(Arrangement, "_witnessed", corrupt)
    for arr in (fixture("three_generic_lines"), fixture("two_central_circles")):
        with pytest.raises(InconsistentWitness, match="does not realise the face"):
            arr.faces()

    # a flat with no cut has one face, its own point's signs: the line
    # x = 0 of three parallel lines moved onto x = 1, and the vertex
    # S1 ∩ S2 = (0, 0) of three generic lines, a point, moved onto S1 ∩ S3
    for name, flat, moved, message in (
        ("three_parallel_lines", 0b001, ((1, 0), 1), r"\(1, 0\)/1 .* face 0--"),
        ("three_generic_lines", 0b011, ((0, 1), 1), r"\(0, 1\)/1 .* face 00\*"),
    ):

        def move(self, rows, mask, signs, point, flat=flat, moved=moved):
            return original(self, rows, mask, signs, moved if mask == flat else point)

        monkeypatch.setattr(Arrangement, "_witnessed", move)
        with pytest.raises(InconsistentWitness, match=message):
            fixture(name).faces()


def test_region_counts_equal_the_generators_zaslavsky_count():
    for workload in ("semigeneral", "oracle", "degenerate"):
        for inp in generated_bench_inputs(workload):
            arr = Arrangement.from_json(inp.text)
            assert len(arr.regions()) == inp.regions, (workload, inp.name)


def test_feasibility_oracle_consistency():
    """Full 3^n scan with direct feasibility calls matches the facet sweep."""
    for arr in (fixture("three_generic_lines"), fixture("three_concurrent_lines")):
        assert set(arr.faces().members) == faces_by_full_scan(arr)


def test_two_lines_on_the_circle_keep_every_face():
    # the face 0 of S1 is the split 0-sphere {(0, 1), (0, -1)}: S2 cuts it
    # only at the origin, and both of its sides are faces, as is the
    # origin, the zero face of the flat S1 ∩ S2
    arr = Arrangement(
        "central",
        1,
        [
            Hyperplane("S1", (Fraction(1), Fraction(0))),
            Hyperplane("S2", (Fraction(0), Fraction(1))),
        ],
    )
    expected = {"++", "+-", "-+", "--", "+0", "-0", "0+", "0-", "00"}
    assert {f.to_string() for f in arr.faces().members} == expected
    assert [r.to_string() for r in arr.regions()] == ["++", "+-", "-+", "--"]


def test_a_plane_meeting_a_flat_only_at_the_origin_still_cuts_it():
    # S1, S2 and S4 meet in the z-axis X, a 0-sphere on S^2; S3 and S5 meet
    # X only at the origin, so the restriction of X to either is empty, yet
    # each splits X into its two points
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]
    arr = Arrangement(
        "central",
        2,
        [
            Hyperplane(f"S{i + 1}", tuple(map(Fraction, normal)))
            for i, normal in enumerate(normals)
        ],
    )
    faces = set(arr.faces().members)
    assert faces == faces_by_full_scan(arr)
    on_axis = {f.to_string() for f in faces if zero_set(f) == {0, 1, 3}}
    assert on_axis == {"00+0+", "00-0-"}
    for flat in arr.poset():
        assert flat.dim == flat_dim_by_elimination(arr, flat.defining_set)
    assert arr.poset().flats[flat_index(arr.poset(), {0, 1, 3})].dim == 0


def test_covector_mode_fixture():
    arr = fixture("suspension_three_generic_lines")
    assert arr.n == 3
    assert len(arr.regions()) == 8
    assert len(arr.poset()) == 7
    assert arr.is_semigeneral()
    assert arr.names == ("S1", "S2", "S3")


def test_covector_family_view():
    arr = fixture("three_generic_lines")
    family = covector_family(arr)
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
    for name, arr in named_fixtures().items():
        back = Arrangement.from_json(arr.to_json())
        assert back.mode == arr.mode
        assert back.dim == arr.dim
        assert [r.to_string() for r in back.regions()] == [
            r.to_string() for r in arr.regions()
        ], name


def test_rational_parsing():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("17") == 17
    for bad in ("3.5", "1/0x", "--2", "", "1e3", "x", "1\n", "\u0661", "1/\u0663"):
        with pytest.raises(InvalidInput):
            parse_rational(bad)


def test_bad_json_inputs():
    with pytest.raises(InvalidInput):
        Arrangement.from_json("not json")
    with pytest.raises(InvalidInput):
        Arrangement.from_json(json.dumps({"mode": "affine"}))
    with pytest.raises(InvalidInput):
        Arrangement.from_json(json.dumps({"mode": "covector", "dim": 2}))
    with pytest.raises(InvalidInput, match="nested too deeply"):
        Arrangement.from_json("[" * 100000 + "]" * 100000)


def test_central_fixtures():
    two = fixture("two_central_circles")
    assert [f.dim for f in two.poset()] == [2, 1, 1, 0]
    assert two.is_semigeneral()
    three = fixture("three_central_spheres")
    assert len(three.regions()) == 8
    assert len(three.poset()) == 8
