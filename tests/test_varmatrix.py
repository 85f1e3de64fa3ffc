import itertools
import random
from fractions import Fraction

import pytest

from varchenko import fixtures
from varchenko.errors import TooLarge, Unsupported
from varchenko.geometry import Arrangement, Hyperplane
from varchenko.polyring import Monomial, Polynomial, parse_polynomial
from varchenko.varmatrix import (
    LabeledMatrix,
    build_varchenko,
    det_bruteforce,
    det_formula,
    distance,
    equal_up_to_relabeling,
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
    built = build_varchenko(fixtures.three_generic_lines())
    reference = triangle_reference_matrix()
    perm = equal_up_to_relabeling(reference, built)
    assert perm is not None
    for i in range(7):
        for j in range(7):
            assert reference.rows[i][j] == built.rows[perm[i]][perm[j]]


def test_single_hyperplane_matrix():
    v = build_varchenko(fixtures.single_line())
    x1 = Polynomial.variable(0)
    assert v.rows == [[Polynomial.one(), x1], [x1, Polynomial.one()]]


def test_empty_arrangement_matrix():
    v = build_varchenko(Arrangement("affine", 2, []))
    assert v.size == 1
    assert v.rows == [[Polynomial.one()]]


def test_matrix_symmetric_with_unit_diagonal():
    for name, arr in list(fixtures.named_fixtures().items()):
        if arr.n > 5:
            continue
        v = build_varchenko(arr)
        assert v.is_symmetric(), name
        assert all(v.rows[i][i].is_one() for i in range(v.size)), name


def test_distance_examples():
    arr = fixtures.three_generic_lines()
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
    two = fixtures.two_generic_lines()
    regions = [r.to_string() for r in two.regions()]
    a, b = regions.index("++"), regions.index("--")
    assert distance(two, a, b, b) == Monomial.from_vars([0, 1])
    assert distance(two, regions.index("+-"), a, b) == Monomial.one()


def test_triangle_identity():
    for arr in (
        fixtures.three_generic_lines(),
        fixtures.three_concurrent_lines(),
        fixtures.two_central_circles(),
    ):
        v = build_varchenko(arr)
        r = v.size
        for k, m, n in itertools.product(range(r), repeat=3):
            lk = Polynomial.from_monomial(distance(arr, k, m, n))
            assert v.rows[m][n] * lk * lk == v.rows[m][k] * v.rows[k][n]


def test_det_formula_triangle():
    assert (
        str(det_formula(fixtures.three_generic_lines()))
        == "(1-x1^2)^3(1-x2^2)^3(1-x3^2)^3"
    )


def test_det_formula_concurrent():
    assert (
        str(det_formula(fixtures.three_concurrent_lines()))
        == "(1-x1^2)^2(1-x2^2)^2(1-x3^2)^2(1-x1^2*x2^2*x3^2)"
    )


def test_det_formula_single_hyperplane():
    assert str(det_formula(fixtures.single_line())) == "(1-x1^2)"


def test_det_formula_parallel():
    assert (
        str(det_formula(fixtures.three_parallel_lines()))
        == "(1-x1^2)(1-x2^2)(1-x3^2)"
    )


def test_det_formula_covector_unsupported():
    with pytest.raises(Unsupported):
        det_formula(fixtures.suspension_three_generic_lines())


def test_det_formula_enumerates_nothing_once_faces_and_poset_are_cached(monkeypatch):
    arrangements = [
        fixtures.three_concurrent_lines(),
        fixtures.pencil_four_planes(),
        fixtures.three_concurrent_central(),
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

    v7 = build_varchenko(fixtures.three_generic_lines())
    assert det_bruteforce(v7) == det_formula(fixtures.three_generic_lines()).expand()

    v6 = build_varchenko(fixtures.three_concurrent_lines())
    assert det_bruteforce(v6) == det_formula(fixtures.three_concurrent_lines()).expand()


def test_det_bruteforce_matches_formula_on_small_fixtures():
    for name, arr in fixtures.named_fixtures().items():
        if arr.mode == "covector":
            continue
        if len(arr.regions()) > 12:
            continue
        v = build_varchenko(arr)
        assert det_bruteforce(v) == det_formula(arr).expand(), name


def test_det_bruteforce_size_cap():
    v = build_varchenko(fixtures.five_generic_lines())
    with pytest.raises(TooLarge):
        det_bruteforce(v)


def test_det_bruteforce_singular_and_permuted():
    one = Polynomial.one()
    zero = Polynomial.zero()
    assert det_bruteforce(LabeledMatrix([0, 1], [[one, one], [one, one]])) == zero
    v = build_varchenko(fixtures.three_concurrent_lines())
    rng = random.Random(3)
    perm = list(range(v.size))
    rng.shuffle(perm)
    assert det_bruteforce(v.permuted(perm)) == det_bruteforce(v)


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
    arr = fixtures.three_generic_lines()
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
    v = build_varchenko(fixtures.three_concurrent_lines())
    back = LabeledMatrix.from_json_dict(v.to_json_dict())
    assert back == v


def test_substitute_all():
    v = build_varchenko(fixtures.single_line())
    grid = v.substitute_all(3).to_int_grid()
    assert grid == [[1, 3], [3, 1]]


def test_equal_up_to_relabeling_negative():
    v = build_varchenko(fixtures.three_concurrent_lines())
    w = build_varchenko(fixtures.three_parallel_lines())
    assert equal_up_to_relabeling(v, w) is None
