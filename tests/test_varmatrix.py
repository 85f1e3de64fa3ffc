import itertools
import random
from fractions import Fraction

import pytest

import reference
from arrangements import fixture, named_fixtures, random_generic_lines
from reference import (
    LINES_45,
    LINES_61,
    bareiss_det,
    det_mod_p,
    distance,
    equal_up_to_relabeling,
    factored_mod_p,
    is_symmetric,
    lines_document,
    permuted,
)
from varchenko import polyring, varmatrix
from varchenko.errors import InvalidInput, TooLarge, Unsupported
from varchenko.geometry import Arrangement, Hyperplane
from varchenko.polyring import FactoredPoly, Monomial, Polynomial, parse_polynomial
from varchenko.varmatrix import (
    MAX_BRUTE_DET,
    LabeledMatrix,
    build_varchenko,
    det_bruteforce,
    det_formula,
)

# Varchenko matrix of three generic lines in a fixed hand-derived region
# numbering; any correct construction must agree with it up to one
# simultaneous row/column permutation.
TRIANGLE_MATRIX_ROWS = [
    ["1", "x1", "x1*x2", "x1*x3", "x3", "x2*x3", "x1*x2*x3"],
    ["x1", "1", "x2", "x3", "x1*x3", "x1*x2*x3", "x2*x3"],
    ["x1*x2", "x2", "1", "x2*x3", "x1*x2*x3", "x1*x3", "x3"],
    ["x1*x3", "x3", "x2*x3", "1", "x1", "x1*x2", "x2"],
    ["x3", "x1*x3", "x1*x2*x3", "x1", "1", "x2", "x1*x2"],
    ["x2*x3", "x1*x2*x3", "x1*x3", "x1*x2", "x2", "1", "x1"],
    ["x1*x2*x3", "x2*x3", "x3", "x2", "x1*x2", "x1", "1"],
]


def triangle_reference_matrix() -> LabeledMatrix:
    return LabeledMatrix(
        list(range(7)),
        [[parse_polynomial(cell) for cell in row] for row in TRIANGLE_MATRIX_ROWS],
    )


def test_triangle_matrix_up_to_relabeling():
    built = build_varchenko(fixture("three_generic_lines"))
    reference = triangle_reference_matrix()
    perm = equal_up_to_relabeling(reference, built)
    assert perm is not None
    for i in range(7):
        for j in range(7):
            assert reference.rows[i][j] == built.rows[perm[i]][perm[j]]


def test_single_hyperplane_matrix():
    v = build_varchenko(fixture("single_line"))
    x1 = Polynomial.variable(0)
    assert v.rows == [[Polynomial.one(), x1], [x1, Polynomial.one()]]


def test_empty_arrangement_matrix():
    v = build_varchenko(Arrangement("affine", 2, []))
    assert v.size == 1
    assert v.rows == [[Polynomial.one()]]


def test_matrix_symmetric_with_unit_diagonal():
    for name, arr in list(named_fixtures().items()):
        if arr.n > 5:
            continue
        v = build_varchenko(arr)
        assert is_symmetric(v), name
        assert all(v.rows[i][i].is_one() for i in range(v.size)), name


def test_distance_examples():
    arr = fixture("three_generic_lines")
    built = build_varchenko(arr)
    perm = equal_up_to_relabeling(triangle_reference_matrix(), built)
    # in the reference numbering, sep(1,2) = {x1} and sep(1,3) = {x1,x2},
    # so the distance from region 1 to regions {2,3} is x1
    r1, r2, r3 = perm[0], perm[1], perm[2]
    assert distance(arr, r1, r2, r3) == Monomial.variable(0)
    # the distance from k to {m,m} is the separating monomial itself
    for k, m in ((0, 3), (2, 5)):
        assert Polynomial.from_monomial(distance(arr, k, m, m)) == built.rows[k][m]
    # opposite corners of a generic square have disjoint separations
    two = fixture("two_generic_lines")
    regions = [r.to_string() for r in two.regions()]
    a, b = regions.index("++"), regions.index("--")
    assert distance(two, a, b, b) == Monomial([(0, 1), (1, 1)])
    # a region id is checked, not wrapped: -1 names no region
    r = len(arr.regions())
    for ids in ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (r, 0, 0), (0, 0, r)):
        with pytest.raises(InvalidInput, match="region id out of range"):
            distance(arr, *ids)
    assert distance(two, regions.index("+-"), a, b) == Monomial.one()


def test_triangle_identity():
    for arr in (
        fixture("three_generic_lines"),
        fixture("three_concurrent_lines"),
        fixture("two_central_circles"),
    ):
        v = build_varchenko(arr)
        r = v.size
        for k, m, n in itertools.product(range(r), repeat=3):
            lk = Polynomial.from_monomial(distance(arr, k, m, n))
            assert v.rows[m][n] * lk * lk == v.rows[m][k] * v.rows[k][n]


def test_det_formula_triangle():
    assert (
        str(det_formula(fixture("three_generic_lines")))
        == "(1-x1^2)^3(1-x2^2)^3(1-x3^2)^3"
    )


def test_det_formula_concurrent():
    assert (
        str(det_formula(fixture("three_concurrent_lines")))
        == "(1-x1^2)^2(1-x2^2)^2(1-x3^2)^2(1-x1^2*x2^2*x3^2)"
    )


def test_det_formula_single_hyperplane():
    assert str(det_formula(fixture("single_line"))) == "(1-x1^2)"


def test_det_formula_parallel():
    assert (
        str(det_formula(fixture("three_parallel_lines")))
        == "(1-x1^2)(1-x2^2)(1-x3^2)"
    )


def test_det_formula_covector_unsupported():
    with pytest.raises(Unsupported):
        det_formula(fixture("suspension_three_generic_lines"))


def test_det_formula_enumerates_nothing_once_faces_and_poset_are_cached(monkeypatch):
    arrangements = [
        fixture("three_concurrent_lines"),
        fixture("pencil_four_planes"),
        fixture("three_concurrent_central"),
    ]
    for arr in arrangements:
        arr.poset()  # forces faces() too
    calls = []
    original = Arrangement._enumerate_faces
    monkeypatch.setattr(
        Arrangement,
        "_enumerate_faces",
        lambda self: calls.append(self) or original(self),
    )
    for arr in arrangements:
        det_formula(arr)
    assert calls == []


def test_det_bruteforce_examples():
    x = Polynomial.variable(0)
    one = Polynomial.one()
    assert det_bruteforce(LabeledMatrix([0, 1], [[one, x], [x, one]])) == one - x * x

    v7 = build_varchenko(fixture("three_generic_lines"))
    assert det_bruteforce(v7) == det_formula(fixture("three_generic_lines")).expand()

    v6 = build_varchenko(fixture("three_concurrent_lines"))
    assert det_bruteforce(v6) == det_formula(fixture("three_concurrent_lines")).expand()


def test_det_bruteforce_matches_formula_on_small_fixtures():
    for name, arr in named_fixtures().items():
        if arr.mode == "covector":
            continue
        if len(arr.regions()) > 12:
            continue
        v = build_varchenko(arr)
        assert det_bruteforce(v) == det_formula(arr).expand(), name


def test_det_bruteforce_size_cap():
    v = build_varchenko(fixture("five_generic_lines"))
    with pytest.raises(TooLarge):
        det_bruteforce(v)


def test_det_bruteforce_singular_and_permuted():
    one = Polynomial.one()
    zero = Polynomial.zero()
    assert det_bruteforce(LabeledMatrix([0, 1], [[one, one], [one, one]])) == zero
    v = build_varchenko(fixture("three_concurrent_lines"))
    rng = random.Random(3)
    perm = list(range(v.size))
    rng.shuffle(perm)
    assert det_bruteforce(permuted(v, perm)) == det_bruteforce(v)


def three_planes_on_a_line_plus_one() -> Arrangement:
    """Three planes through the z-axis and the plane z = 1 in R^3: 12
    regions, the oracle's cap."""
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)]
    return Arrangement(
        "affine",
        3,
        [
            Hyperplane(f"P{i + 1}", tuple(map(Fraction, r[:3])), Fraction(r[3]))
            for i, r in enumerate(rows)
        ],
    )


def test_det_bruteforce_at_its_cap():
    arr = three_planes_on_a_line_plus_one()
    v = build_varchenko(arr)
    assert v.size == MAX_BRUTE_DET
    det = det_bruteforce(v)
    assert det == det_formula(arr).expand()
    assert len(det.packed()) == 1729


def four_generic_lines() -> Arrangement:
    """Four of LINES_45's generic lines: 11 regions."""
    return Arrangement.from_json_dict(lines_document(LINES_45[3:7]))


def test_row_order_on_eleven_regions_is_a_permutation_but_not_the_identity():
    v = build_varchenko(four_generic_lines())
    assert v.size == 11
    order = varmatrix._row_order([[e.packed() for e in row] for row in v.rows])
    assert sorted(order) == list(range(11))
    assert order != list(range(11))


def test_det_bruteforce_is_the_formula_in_every_row_order():
    arr = four_generic_lines()
    v = build_varchenko(arr)
    expected = det_formula(arr).expand()
    rng = random.Random(25)
    for _ in range(4):
        perm = list(range(v.size))
        rng.shuffle(perm)
        assert det_bruteforce(permuted(v, perm)) == expected


def test_swapping_two_rows_negates_det_bruteforce():
    v = build_varchenko(four_generic_lines())
    det = det_bruteforce(v)
    for i, j in ((0, 1), (0, 10), (3, 7)):
        rows = list(v.rows)
        rows[i], rows[j] = rows[j], rows[i]
        assert det_bruteforce(LabeledMatrix(v.labels, rows)) == -det


def test_det_bruteforce_divides_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("division in the determinant oracle")

    # the one exact division left is the tests' reference, which no
    # package module imports
    monkeypatch.setattr(reference, "exact_div", refuse)
    assert not hasattr(polyring, "exact_div")
    assert not hasattr(varmatrix, "exact_div")
    test_det_bruteforce_matches_formula_on_small_fixtures()
    test_det_bruteforce_at_its_cap()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_bruteforce_exponent_overflow(n):
    """A diagonal of x1^20000: the 2x2 minors already set a guard bit, and
    the full product would carry past it at n = 4."""
    big = parse_polynomial("x1^20000")
    zero = Polynomial.zero()
    rows = [[big if i == j else zero for j in range(n)] for i in range(n)]
    with pytest.raises(TooLarge):
        det_bruteforce(LabeledMatrix(list(range(n)), rows))


def _matrix(cells) -> LabeledMatrix:
    return LabeledMatrix(
        list(range(len(cells))), [[parse_polynomial(c) for c in row] for row in cells]
    )


MIXED = [
    ["1 - x1", "2*x2 + x1^2", "-3", "x3"],
    ["x1*x2 - 1", "x2", "1 + x3", "-x1^2*x3"],
    ["x3^2", "2 - x1", "x1 - x2*x3", "0"],
    ["-5*x2", "x1 + x2 + x3", "4", "1 - x1*x2*x3"],
]
RANK_DEFICIENT = [  # row 2 = row 0 + x1 * row 1
    ["1", "x2", "-x3"],
    ["x1 - 1", "2", "x2*x3"],
    ["1 + x1^2 - x1", "x2 + 2*x1", "x1*x2*x3 - x3"],
]
SMALL_MATRICES = {
    "empty": [],
    "one_by_one": [["3*x1^2 - x2"]],
    "one_by_one_zero": [["0"]],
    "two_by_two": [["x1 - 2", "x2^2"], ["-1", "3*x1*x3 + 1"]],
    "three_by_three": [row[:3] for row in MIXED[:3]],
    "mixed_signs": MIXED,
    "zero_row": MIXED[:2] + [["0"] * 4] + MIXED[3:],
    "zero_column": [["0"] + row[1:] for row in MIXED],
    "rank_deficient": RANK_DEFICIENT,
    "equal_rows": [MIXED[1], MIXED[0], MIXED[1], MIXED[2]],
    "five_by_five": [
        ["x1 - x2", "1", "x3^2", "0", "-2*x1"],
        ["x2", "x1*x3 + 1", "-1", "x2^2", "3"],
        ["0", "x3", "x1 + x2", "-x1*x2", "1"],
        ["2", "0", "x2*x3", "1 - x3", "x1^2"],
        ["-x3", "x1", "0", "1", "x2 - 1"],
    ],
}


def _inversions(perm) -> int:
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])


def test_det_bruteforce_equals_bareiss_on_small_matrices():
    for name, cells in SMALL_MATRICES.items():
        m = _matrix(cells)
        assert det_bruteforce(m) == bareiss_det(m), name
    assert det_bruteforce(_matrix([])) == Polynomial.one()
    for name in ("zero_row", "zero_column", "rank_deficient", "equal_rows"):
        assert det_bruteforce(_matrix(SMALL_MATRICES[name])).is_zero(), name
    # permuting the rows multiplies the determinant by the permutation's sign
    m = _matrix(SMALL_MATRICES["five_by_five"])
    det = det_bruteforce(m)
    assert not det.is_zero()
    rng = random.Random(7)
    for _ in range(6):
        perm = list(range(m.size))
        rng.shuffle(perm)
        permuted = LabeledMatrix(m.labels, [m.rows[p] for p in perm])
        expected = det if _inversions(perm) % 2 == 0 else -det
        assert det_bruteforce(permuted) == bareiss_det(permuted) == expected, perm


def test_det_formula_on_random_degenerate_arrangement():
    """The closed determinant also covers non-semigeneral arrangements."""
    point = (Fraction(1, 2), Fraction(-1, 3))
    hyps = []
    for i, slope in enumerate((0, 1, -2)):
        normal = (Fraction(slope), Fraction(1))
        offset = sum(a * b for a, b in zip(normal, point))
        hyps.append(Hyperplane(f"S{i + 1}", normal, offset))
    hyps.append(Hyperplane("S4", (Fraction(1), Fraction(0)), Fraction(4)))
    arr = Arrangement("affine", 2, hyps)
    assert not arr.is_semigeneral()
    v = build_varchenko(arr)
    assert det_bruteforce(v) == det_formula(arr).expand()


def test_matrix_invariant_under_reorientation():
    arr = fixture("three_generic_lines")
    flipped = Arrangement(
        "affine",
        2,
        [
            Hyperplane(
                h.name, tuple(-c for c in h.normal), -h.offset
            )  # swap the two sides of each hyperplane
            if i != 1
            else h
            for i, h in enumerate(arr.hyperplanes)
        ],
    )
    assert equal_up_to_relabeling(build_varchenko(arr), build_varchenko(flipped))


def test_matrix_json_round_trip():
    v = build_varchenko(fixture("three_concurrent_lines"))
    back = LabeledMatrix.from_json_dict(v.to_json_dict())
    assert back == v


def test_substitute_all():
    v = build_varchenko(fixture("single_line"))
    grid = v.substitute_all(3).to_int_grid()
    assert grid == [[1, 3], [3, 1]]


def test_equal_up_to_relabeling_negative():
    v = build_varchenko(fixture("three_concurrent_lines"))
    w = build_varchenko(fixture("three_parallel_lines"))
    assert equal_up_to_relabeling(v, w) is None


def test_det_formula_equals_det_v_mod_p_at_real_sizes():
    """Schwartz-Zippel (Schwartz 1980; Zippel 1979): det V and the factored
    `det_formula` agree mod 2^61 - 1 at seeded random points, on the
    fixtures, the 45- and 61-region line arrangements with a deficient flat
    and twelve generic lines (r = 79), all past the exact oracle's cap but
    the fixtures.  Two distinct polynomials of degree d agree at a random
    point with probability at most d / p."""
    arrangements = [
        (name, arr) for name, arr in named_fixtures().items() if arr.mode != "covector"
    ]
    arrangements += [
        ("lines_45", Arrangement.from_json_dict(lines_document(LINES_45))),
        ("lines_61", Arrangement.from_json_dict(lines_document(LINES_61))),
        ("generic_lines_12", random_generic_lines(12, 1005)),
    ]
    sizes = {name: len(arr.regions()) for name, arr in arrangements}
    assert [sizes[n] for n in ("lines_45", "lines_61", "generic_lines_12")] == [45, 61, 79]
    rng = random.Random(2061)
    p = 2**61 - 1
    for name, arr in arrangements:
        point = {a: rng.randrange(2, p) for a in range(arr.n)}
        factored = det_formula(arr)
        assert det_mod_p(arr, point) == factored_mod_p(factored, point), name
        # with one factor dropped once, the same check tells them apart
        (base, e), *rest = factored.factors
        fewer = FactoredPoly.from_factors([(base, e - 1), *rest])
        assert det_mod_p(arr, point) != factored_mod_p(fewer, point), name
