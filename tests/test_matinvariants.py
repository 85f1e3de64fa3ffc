import ast
import inspect
import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

import reference
from arrangements import fixture, named_fixtures
from reference import (
    LINES_45,
    LINES_61,
    deletion_reduction,
    equal_up_to_relabeling,
    int_det,
    lines_document,
    nonzero_block,
    poly_gcd_minors,
    snf_by_smith_form,
)
from varchenko import matinvariants
from varchenko.errors import InvalidArrangement, InvalidInput, SemigeneralInput, TooLarge
from varchenko.geometry import Arrangement, Hyperplane
from varchenko.matinvariants import gcd_minors, int_rank, integer_snf, obstruction_report
from varchenko.polyring import Polynomial, one_minus_square, parse_polynomial
from varchenko.signedsets import SignVector
from varchenko.varmatrix import build_varchenko


def minor_gcd_reference(grid, k):
    """Brute force: the gcd of int_det over every k x k row/column selection."""
    g = 0
    for rsel in combinations(range(len(grid)), k):
        for csel in combinations(range(len(grid[0])), k):
            g = gcd(g, int_det([[grid[i][j] for j in csel] for i in rsel]))
    return g


def check_minor_gcds(grid):
    """The SNF prefix products and gcd_minors equal the reference for every k."""
    diag = integer_snf(grid)
    for k in range(len(diag) + 1):
        reference = minor_gcd_reference(grid, k)
        assert prod(diag[:k]) == reference
        assert gcd_minors(grid, k) == reference


def test_int_det_and_rank():
    assert int_det([[1, 3], [3, 1]]) == -8
    assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert int_det([[1, 2], [2, 4]]) == 0
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 0], [0, 1]]) == 2
    assert int_rank([[0, 0], [0, 0]]) == 0


def test_gcd_minors_univariate_diagonal():
    """Over Z[q] the minor gcds come from the tests' oracle: `gcd_minors`
    reads integer grids only."""
    q = 0
    one = Polynomial.one()
    base = one_minus_square((q,))
    entries = [one, base, base * base]
    rows = [
        [entries[i] if i == j else Polynomial.zero() for j in range(3)]
        for i in range(3)
    ]
    assert poly_gcd_minors(rows, 2) == base
    assert poly_gcd_minors(rows, 1) == one
    assert poly_gcd_minors(rows, 3) == base * base * base
    assert poly_gcd_minors(rows, 0) == one


def test_gcd_minors_integer_examples():
    assert gcd_minors([[1, 3], [3, 1]], 2) == 8
    assert gcd_minors([[1, 3], [3, 1]], 0) == 1
    assert gcd_minors([[2, 4], [6, 8]], 1) == 2
    assert gcd_minors([[0, 0], [0, 0]], 1) == 0


def test_gcd_minors_caps_and_validation():
    with pytest.raises(InvalidInput):
        gcd_minors([[1, 2], [3, 4]], 3)
    # an integer grid's gcd is read off its Smith form, so no minor count
    # caps it; a polynomial grid is refused, not enumerated
    big = [[1] * 40 for _ in range(40)]
    assert gcd_minors(big, 20) == 0
    with pytest.raises(InvalidInput):
        gcd_minors([[parse_polynomial("x1")] * 40 for _ in range(40)], 20)


def test_gcd_minors_reads_an_int_grid_as_its_constant_polynomials():
    rng = random.Random(31)
    grids = [[[1, 3], [3, 1]], [[0, 0], [0, 0]], [[2, 4, 6]], [[5], [10], [0]]]
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        grids.append([[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)])
    for grid in grids:
        before = [row[:] for row in grid]
        constants = [[Polynomial.constant(e) for e in row] for row in grid]
        for k in range(min(len(grid), len(grid[0])) + 1):
            value = gcd_minors(grid, k)
            assert type(value) is int, (grid, k)
            assert Polynomial.constant(value) == poly_gcd_minors(constants, k), (grid, k)
        assert grid == before  # the Smith form reduces a copy
    assert gcd_minors([], 0) == 1
    for grid, k in (([[1, 2], [3]], 1), ([[1, 2], [3, 4]], 3), ([[1, 2], [3, 4]], -1)):
        with pytest.raises(InvalidInput):
            gcd_minors(grid, k)


def test_integer_snf_examples():
    assert integer_snf([[1, 3], [3, 1]]) == [1, 8]
    assert integer_snf([[1, 0], [0, 1]]) == [1, 1]
    assert integer_snf([[2, 0], [0, 3]]) == [1, 6]
    assert integer_snf([[0, 0], [0, 0]]) == [0, 0]
    assert integer_snf([[2, 4], [4, 8]]) == [2, 0]


def test_integer_snf_divisibility_and_minor_products():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        grid = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        diag = integer_snf(grid)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)
        check_minor_gcds(grid)


def test_integer_snf_invariance_under_unimodular_moves():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 4)
        grid = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        reference = integer_snf(grid)
        shuffled = [row[:] for row in grid]
        rng.shuffle(shuffled)
        cols = list(range(n))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in shuffled]
        assert integer_snf(shuffled) == reference
        # add a multiple of one row to another
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-3, 3)
        sheared = [row[:] for row in grid]
        sheared[i] = [a + f * b for a, b in zip(sheared[i], sheared[j])]
        assert integer_snf(sheared) == reference


def test_integer_snf_size_cap():
    with pytest.raises(TooLarge):
        integer_snf([[1] * 65 for _ in range(65)])


def test_integer_invariants_refuse_a_cell_that_is_not_an_int():
    """A float, Fraction, bool or Polynomial cell is refused as
    InvalidInput, not reduced: a float would give a fractional Smith
    factor, and a polynomial fails inside `abs`."""
    x = Polynomial.variable(0)
    grids = (
        [[1.5, 2], [3, 4]],
        [[Fraction(1, 2), 1], [1, 1]],
        [[True, 0], [0, 1]],
        [[x]],
        [[1, 0], [0, Polynomial.constant(2)]],
    )
    for grid in grids:
        for invariant in (int_rank, integer_snf, lambda g: gcd_minors(g, 1)):
            with pytest.raises(InvalidInput):
                invariant(grid)


def test_matinvariants_imports_no_minor_enumeration():
    """The obstruct module forms no minor and expands no determinant: it
    imports no combinatorics, no polynomial gcd and from varmatrix only
    det_formula, so none of them can creep back onto its path."""
    tree = ast.parse(inspect.getsource(matinvariants))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported == {
        "__future__.annotations", "json", "dataclasses.dataclass", "math.prod",
        "typing.Optional", "typing.Sequence",
        "errors.InvalidInput", "errors.SemigeneralInput", "errors.TooLarge",
        "errors.Unsupported", "geometry.Arrangement", "geometry.Flat",
        "polyring.FactoredPoly", "varmatrix.det_formula",
    }


def reduce_and_compare(base, extended, e):
    """Shared oracle: reduce the extended matrix and match the base matrix."""
    v_ext = build_varchenko(extended)
    reduced, merge_map = deletion_reduction(v_ext, e)
    block = nonzero_block(reduced)
    v_base = build_varchenko(base)
    assert block.size + len(merge_map) == v_ext.size
    # merged partners really were separated only by hyperplane e
    for dup, rep in merge_map.items():
        assert v_ext.rows[dup][rep] == Polynomial.variable(e)
    # rename the surviving variables down to the base arrangement's ids
    n_ext = extended.n
    sigma = {}
    for v in range(n_ext):
        if v == e:
            sigma[v] = 1
        else:
            sigma[v] = Polynomial.variable(v if v < e else v - 1)
    renamed = block.substitute(sigma)
    perm = equal_up_to_relabeling(renamed, v_base)
    assert perm is not None
    return renamed, v_base


def test_reduce_two_parallel_lines():
    base = fixture("single_line")
    extended = Arrangement(
        "affine",
        1,
        [
            Hyperplane("S1", (Fraction(1),), Fraction(0)),
            Hyperplane("S2", (Fraction(1),), Fraction(1)),
        ],
    )
    v_ext = build_varchenko(extended)
    reduced, merge_map = deletion_reduction(v_ext, 1)
    assert len(merge_map) == 1
    reduce_and_compare(base, extended, 1)


def test_reduce_triangle_to_two_lines():
    base = fixture("two_generic_lines")
    extended = fixture("three_generic_lines")
    v_ext = build_varchenko(extended)
    reduced, merge_map = deletion_reduction(v_ext, 2)
    assert len(merge_map) == 3  # 7 regions fall to 4
    reduce_and_compare(base, extended, 2)


def test_reduce_single_line_to_empty():
    base = Arrangement("affine", 1, [])
    extended = fixture("single_line")
    v_ext = build_varchenko(extended)
    reduced, merge_map = deletion_reduction(v_ext, 0)
    assert len(merge_map) == 1
    block = nonzero_block(reduced)
    assert block.size == 1 and block.rows[0][0].is_one()
    reduce_and_compare(base, extended, 0)


def test_reduce_middle_hyperplane():
    # deleting a middle index exercises the variable renumbering
    base = Arrangement(
        "affine",
        2,
        [
            Hyperplane("S1", (Fraction(1), Fraction(0)), Fraction(0)),
            Hyperplane("S3", (Fraction(1), Fraction(1)), Fraction(1)),
        ],
    )
    extended = fixture("three_generic_lines")
    reduce_and_compare(base, extended, 1)


def test_obstruction_refuses_semigeneral():
    with pytest.raises(SemigeneralInput):
        obstruction_report(fixture("three_generic_lines"))


def test_obstruction_concurrent_lines():
    report = obstruction_report(fixture("three_concurrent_lines"))
    assert not report.semigeneral
    assert report.all_consistent
    by_name = {c.name: c for c in report.checks}
    assert list(by_name) == sorted(by_name)

    snf = by_name["snf_specializations"]
    # two regions pairs are separated only by each line: two [[1,3],[3,1]]
    # blocks and two isolated regions
    for name in ("S1", "S2", "S3"):
        assert snf.result["snf_multiplicities"][name] == {"1": 4, "8": 2}

    assert by_name["rank_all_ones"].result["rank"] == 1
    g = by_name["gcd_minors_all_threes"].result["gcd"]
    assert 8 % g == 0

    core = by_name["core"].result
    assert core["core_hyperplanes"] == ["S1", "S2", "S3"]
    assert core["witness"] == ["S1", "S2", "S3"]

    mixed = by_name["determinant_mixed_factor"].result["deficient_factors"]
    assert len(mixed) == 1
    assert mixed[0]["factor"] == "(1-x1^2*x2^2*x3^2)"
    assert mixed[0]["dim"] == 0 and mixed[0]["expected_dim"] == -1


def test_obstruction_pencil():
    report = obstruction_report(fixture("pencil_four_planes"))
    assert report.all_consistent
    by_name = {c.name: c for c in report.checks}
    assert by_name["rank_all_ones"].result["rank"] == 1
    # deleting any one plane leaves three planes through the axis, still
    # degenerate; the minimal core has three planes
    assert len(by_name["core"].result["core_hyperplanes"]) == 3
    for mult in by_name["snf_specializations"].result["snf_multiplicities"].values():
        assert set(mult) <= {"1", "8"}


def test_obstruction_json():
    report = obstruction_report(fixture("three_concurrent_lines"))
    data = report.to_json_dict()
    assert data["semigeneral"] is False
    assert data["all_consistent"] is True
    assert [c["name"] for c in data["checks"]] == sorted(
        c["name"] for c in data["checks"]
    )
    for check in data["checks"]:
        assert set(check) == {"name", "inputs", "result", "consistent"}


def core_reference(arrangement):
    """The core check's result by rebuilding every one-hyperplane deletion
    and enumerating its faces and poset."""
    current = arrangement
    while True:
        for i in range(current.n):
            kept = [h for j, h in enumerate(current.hyperplanes) if j != i]
            candidate = Arrangement(current.mode, current.dim, kept)
            if not candidate.is_semigeneral():
                current = candidate
                break
        else:
            break
    witness = current.semigeneral_witness()
    return {
        "core_hyperplanes": list(current.names),
        "witness": sorted(current.names[i] for i in witness.defining_set),
        "witness_dim": witness.dim,
        "expected_dim": current.dim - len(witness.defining_set),
    }


def random_degenerate(rng, mode, dim):
    """At most six lines or five planes, shuffled: s + 1 of them have
    normals in an s-dimensional coordinate span and pass through one point
    (a concurrent triple, a pencil or a concurrent quadruple), one of those
    sometimes has a parallel copy (affine only), the rest are random."""
    nvars = dim + 1 if mode == "central" else dim
    span = rng.randint(2, nvars - 1 if mode == "central" else nvars)
    point = [0] * nvars if mode == "central" else [rng.randint(-2, 2) for _ in range(nvars)]
    rows = []
    for _ in range(span + 1):
        normal = [rng.randint(-3, 3) for _ in range(span)] + [0] * (nvars - span)
        rows.append((normal, sum(a * p for a, p in zip(normal, point))))
    if mode == "affine" and rng.random() < 0.5:
        normal, offset = rows[0]
        rows.append((normal, offset + rng.choice((-1, 1))))
    for _ in range(rng.randint(len(rows), 8 - dim) - len(rows)):
        normal = [rng.randint(-3, 3) for _ in range(nvars)]
        rows.append((normal, 0 if mode == "central" else rng.randint(-3, 3)))
    rng.shuffle(rows)
    hyperplanes = [
        Hyperplane(f"S{i + 1}", tuple(map(Fraction, normal)), Fraction(offset))
        for i, (normal, offset) in enumerate(rows)
    ]
    return Arrangement(mode, dim, hyperplanes)


def test_core_equals_the_rebuild_and_enumerate_reference():
    rng = random.Random(23)
    for mode in ("affine", "central"):
        for dim in (2, 3):
            deletes = []
            while len(deletes) < 6:
                try:
                    arr = random_degenerate(rng, mode, dim)
                    if arr.is_semigeneral():
                        continue
                except InvalidArrangement:  # zero normal or coinciding hyperplanes
                    continue
                report = obstruction_report(arr)
                core = next(c for c in report.checks if c.name == "core")
                reference = core_reference(arr)
                assert core.result == reference, arr.to_json()
                deletes.append(len(reference["core_hyperplanes"]) < arr.n)
            assert any(deletes) and not all(deletes), (mode, dim)


def test_obstruction_enumerates_nothing_once_faces_and_poset_are_cached(monkeypatch):
    arrangements = [
        fixture("three_concurrent_lines"),
        fixture("pencil_four_planes"),
        fixture("three_concurrent_central"),
    ]
    for arr in arrangements:
        arr.regions()
        arr.poset()  # forces faces() too
    calls = []
    original = Arrangement._enumerate_faces
    monkeypatch.setattr(
        Arrangement,
        "_enumerate_faces",
        lambda self: calls.append(self) or original(self),
    )
    for arr in arrangements:
        obstruction_report(arr)
    assert calls == []


def test_closed_form_snf_equals_the_smith_form():
    arrangements = [
        arr
        for arr in named_fixtures().values()
        if arr.mode != "covector" and not arr.is_semigeneral()
    ]
    assert len(arrangements) == 3
    arrangements += [
        Arrangement.from_json(json.dumps(lines_document(rows)))
        for rows in (LINES_45, LINES_61)
    ]
    for arr in arrangements:
        report = obstruction_report(arr)
        snf = next(c for c in report.checks if c.name == "snf_specializations")
        assert snf.consistent
        assert snf.result["snf_multiplicities"] == snf_by_smith_form(arr), arr.to_json()


def test_obstruction_report_computes_no_smith_form(monkeypatch):
    """Once the regions and the poset are cached, the report computes no
    Smith form, minor gcd, rank or separation mask."""
    names = ("pencil_four_planes", "three_concurrent_lines")
    expected = [obstruction_report(fixture(name)) for name in names]
    arrangements = [fixture(name) for name in names]
    for arr in arrangements:
        arr.regions()
        arr.poset()

    def refuse(*args):
        raise AssertionError("matrix invariant computed on the obstruct path")

    for name in ("integer_snf", "gcd_minors", "int_rank"):
        monkeypatch.setattr(matinvariants, name, refuse)
    # separation masks are a test reference, not a method of SignVector
    assert not hasattr(SignVector, "separation_mask")
    monkeypatch.setattr(reference, "separation_mask", refuse)
    assert [obstruction_report(arr) for arr in arrangements] == expected
