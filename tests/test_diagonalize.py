import importlib.util
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

import reference
from arrangements import fixture, random_generic_lines, semigeneral_suite
from reference import (
    PivotDivisionFailure,
    _certificate_checks,
    conforms_to,
    diagonal_matrix,
    encompassed_flats,
    int_det,
    pivot_step,
    poly_gcd_minors,
    replay_elimination,
    separation_set,
)
from varchenko import DiagonalizationCertificate, cli, exactlp, polyring, varmatrix
from varchenko.certificate import (
    RegionOrdering,
    _diagonal_entry,
    _face_cube_checks,
    _ordering_det,
    _transform_rows,
)
from varchenko.diagonalize import diagonalize, expected_diagonal, ordering, snf_q
from varchenko.errors import ClosedFormViolation, NotSemigeneral, OrderingStuck, TooLarge
from varchenko.geometry import Arrangement, FaceTable
from varchenko.matinvariants import gcd_minors
from varchenko.polyring import Monomial, Polynomial, parse_polynomial
from varchenko.signedsets import SignVector, bits
from varchenko.varmatrix import (
    LabeledMatrix,
    build_varchenko,
    det_bruteforce,
    det_formula,
)

# the package exports the function `diagonalize` under the module's name
diagonalize_module = importlib.import_module("varchenko.diagonalize")
certificate_module = importlib.import_module("varchenko.certificate")


def matmul(a, b):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), Polynomial.zero())
            for j in range(n)
        ]
        for i in range(n)
    ]


def dense_product_is_diagonal(v_rows, rows, diagonal) -> bool:
    """Whether P V P^T equals diag(diagonal), formed as dense rows of
    `Polynomial` products and sums from the nonzero entries of P's rows.
    The reference for the packed-key `_certificate_checks` and for
    `_face_cube_checks`."""
    r = len(v_rows)
    zero = Polynomial.zero()
    for i, row in enumerate(rows):
        pv = [zero] * r  # row i of P V
        for a, p in row.items():
            pv = [x + p * e for x, e in zip(pv, v_rows[a])]
        for j, col in enumerate(rows):
            entry = zero
            for b, q in col.items():
                entry = entry + pv[b] * q
            if entry != (diagonal[i] if i == j else zero):
                return False
    return True


def ordering_by_full_scan(arrangement: Arrangement) -> RegionOrdering:
    """The region search of `ordering`, rescanning every face at every step
    for those with one uncolored region, and again for the faces a colored
    region touches.  The reference for `ordering`'s incremental
    bookkeeping."""
    poset = arrangement.poset()
    r = len(arrangement.regions())
    table = arrangement.face_table()
    flat_ids, adj_masks = table.flats, table.adjacent
    dims = [f.dim for f in poset.flats]
    nfaces = len(adj_masks)
    uncolored = [m & ~1 for m in adj_masks]
    colored = [0]
    completed = [f for f in range(nfaces) if uncolored[f] == 0]
    encompassed = {flat_ids[f] for f in completed}
    if len(encompassed) != 1:
        raise OrderingStuck("the base region does not encompass one flat")
    step_flats = [flat_ids[completed[0]]]
    step_faces = [completed[0]]

    def next_candidates():
        ready = {}
        for f in range(nfaces):
            m = uncolored[f]
            if m and m & (m - 1) == 0:
                flat = flat_ids[f]
                if flat not in encompassed:
                    ready.setdefault(m.bit_length() - 1, {})[flat] = f
        out = []
        for region, flats in ready.items():
            if len(flats) == 1:
                [(flat, face)] = flats.items()
                out.append((dims[flat], region, flat, face))
        return sorted(out)

    frames, trail = [], []
    while len(colored) < r:
        frames.append(iter(next_candidates()))
        while (move := next(frames[-1], None)) is None:
            frames.pop()
            if not frames:
                raise OrderingStuck("no ordering")
            bit = 1 << colored.pop()
            for f in trail.pop():
                uncolored[f] |= bit
            encompassed.discard(step_flats.pop())
            step_faces.pop()
        _, region, flat, face = move
        bit = 1 << region
        touched = [f for f in range(nfaces) if uncolored[f] & bit]
        for f in touched:
            uncolored[f] &= ~bit
        trail.append(touched)
        colored.append(region)
        encompassed.add(flat)
        step_flats.append(flat)
        step_faces.append(face)
    return RegionOrdering(tuple(colored), tuple(step_flats), tuple(step_faces))


def test_encompassed_empty_and_singleton():
    arr = fixture("three_generic_lines")
    assert encompassed_flats(arr, []) == set()
    for region in range(7):
        assert encompassed_flats(arr, [region]) == {0}  # just the ambient flat


def test_encompassed_single_hyperplane_both_regions():
    arr = fixture("single_line")
    assert encompassed_flats(arr, [0, 1]) == {0, 1}


def test_encompassed_monotone():
    arr = fixture("three_generic_lines")
    colored = []
    previous = set()
    for region in ordering(arr).order:
        colored.append(region)
        now = encompassed_flats(arr, colored)
        assert previous <= now
        assert len(now) == len(colored)
        previous = now


def test_ordering_single_hyperplane():
    arr = fixture("single_line")
    result = ordering(arr)
    assert result.order == (0, 1)
    poset = arr.poset()
    assert [len(poset.flats[f].defining_set) for f in result.step_flats] == [0, 1]


def test_ordering_triangle_dims():
    arr = fixture("three_generic_lines")
    result = ordering(arr)
    poset = arr.poset()
    dims = [poset.flats[f].dim for f in result.step_flats]
    assert dims[0] == 2
    assert sorted(dims) == [0, 0, 0, 1, 1, 1, 2]
    assert sorted(result.step_flats) == list(range(7))
    assert result.order[0] == 0


def test_ordering_gate():
    with pytest.raises(NotSemigeneral):
        ordering(fixture("three_concurrent_lines"))
    with pytest.raises(NotSemigeneral):
        diagonalize(fixture("pencil_four_planes"))


def test_ordering_stuck_when_flats_fewer_than_regions():
    # symmetric covector families carry fewer flats than regions
    with pytest.raises(OrderingStuck):
        ordering(fixture("suspension_three_generic_lines"))


def test_apply_t_two_by_two():
    x = Polynomial.variable(0)
    one = Polynomial.one()
    out = pivot_step(LabeledMatrix([0, 1], [[one, x], [x, one]]), 0)
    assert out.rows == [
        [one, Polynomial.zero()],
        [Polynomial.zero(), one - x * x],
    ]


def test_apply_t_reference_entry():
    from test_varmatrix import triangle_reference_matrix

    out = pivot_step(triangle_reference_matrix(), 0)
    assert out.rows[1][2] == parse_polynomial("x2 - x1^2*x2")
    assert out.rows[1][2] == parse_polynomial("x2") * parse_polynomial("1 - x1^2")
    for m in range(1, 7):
        assert out.rows[0][m].is_zero() and out.rows[m][0].is_zero()


def test_apply_t_divisibility_failure():
    x = Polynomial.variable(0)
    one = Polynomial.one()
    with pytest.raises(PivotDivisionFailure):
        pivot_step(LabeledMatrix([0, 1], [[x, one], [one, x]]), 0)


def test_diagonalize_triangle():
    cert = diagonalize(fixture("three_generic_lines"))
    assert sorted(str(d) for d in cert.diagonal) == sorted(
        [
            "1",
            "(1-x1^2)",
            "(1-x2^2)",
            "(1-x3^2)",
            "(1-x1^2)(1-x2^2)",
            "(1-x1^2)(1-x3^2)",
            "(1-x2^2)(1-x3^2)",
        ]
    )
    assert cert.checks == {"pvq_equals_d": True, "det_p": "1", "det_q": "1"}


def test_diagonalize_single_hyperplane():
    cert = diagonalize(fixture("single_line"))
    assert [str(d) for d in cert.diagonal] == ["1", "(1-x1^2)"]


def test_diagonalize_empty_arrangement():
    cert = diagonalize(Arrangement("affine", 2, []))
    assert [str(d) for d in cert.diagonal] == ["1"]


def test_certificate_product_verified_independently():
    arr = fixture("three_generic_lines")
    cert = diagonalize(arr)
    v = build_varchenko(arr)
    product = matmul(matmul(cert.P, v.rows), cert.Q)
    d = diagonal_matrix(cert)
    assert product == d.rows
    det_p = det_bruteforce(LabeledMatrix(list(range(7)), cert.P))
    det_q = det_bruteforce(LabeledMatrix(list(range(7)), cert.Q))
    assert det_p.is_constant() and det_p.as_int() in (1, -1)
    assert det_q.is_constant() and det_q.as_int() in (1, -1)


def ordering_sign(order):
    """Sign of a permutation by sorting it with transpositions."""
    perm, sign = list(order), 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def test_transform_det_is_the_ordering_sign_beyond_the_exact_oracle():
    """Above the 12-region cap of det_bruteforce, det P and det Q are the
    sign of the ordering, and so is det P at an integer point."""
    for arr, r in (
        (fixture("five_generic_lines"), 16),
        (random_generic_lines(8, 108), 37),
    ):
        cert = diagonalize(arr)
        assert len(cert.ordering) == r
        sign = ordering_sign(cert.ordering)
        assert cert.checks["det_p"] == cert.checks["det_q"] == str(sign)
        assert cert.Q == [list(col) for col in zip(*cert.P)]
        point = {v: v + 2 for v in range(arr.n)}
        assert int_det([[e.substitute(point).as_int() for e in row] for row in cert.P]) == sign


def test_tampered_transform_raises():
    arr = fixture("three_generic_lines")
    cert = diagonalize(arr)
    perm = list(cert.ordering)
    v = build_varchenko(arr)
    rows = cert.rows
    # negating a row keeps P V P^T = D, so only the structure catches it
    negated = [dict(row) for row in rows]
    negated[3] = {j: -e for j, e in negated[3].items()}
    dense = [[row.get(j, Polynomial.zero()) for j in range(7)] for row in negated]
    transposed = [list(col) for col in zip(*dense)]
    assert matmul(matmul(dense, v.rows), transposed) == diagonal_matrix(cert).rows
    with pytest.raises(ClosedFormViolation, match="not 1"):
        _certificate_checks(v, negated, perm, [d.expand() for d in cert.diagonal])
    above = [dict(row) for row in rows]
    above[2][perm[5]] = Polynomial.one()
    with pytest.raises(ClosedFormViolation, match="above the diagonal"):
        _ordering_det(above, perm)
    assert _ordering_det(rows, perm) == cert.checks["det_p"]


def test_diagonal_matches_expected_multiset():
    for arr in (
        fixture("three_generic_lines"),
        fixture("three_parallel_lines"),
        fixture("two_parallel_one_crossing"),
        fixture("two_central_circles"),
        fixture("three_central_spheres"),
    ):
        cert = diagonalize(arr)
        assert sorted(str(d) for d in cert.diagonal) == sorted(
            str(d) for d in expected_diagonal(arr)
        )


def test_expected_diagonal_examples():
    assert sorted(str(d) for d in expected_diagonal(fixture("three_parallel_lines"))) == [
        "(1-x1^2)",
        "(1-x2^2)",
        "(1-x3^2)",
        "1",
    ]
    assert [str(d) for d in expected_diagonal(Arrangement("affine", 2, []))] == ["1"]
    with pytest.raises(NotSemigeneral):
        expected_diagonal(fixture("three_concurrent_lines"))


def test_snf_q_examples():
    assert snf_q(fixture("three_generic_lines")) == [(0, 1), (1, 3), (2, 3)]
    assert snf_q(fixture("single_line")) == [(0, 1), (1, 1)]
    assert snf_q(fixture("five_generic_lines")) == [(0, 1), (1, 5), (2, 10)]
    with pytest.raises(NotSemigeneral):
        snf_q(fixture("three_concurrent_lines"))


def transform_from_faces(arr, data):
    """P rebuilt from a format-2 certificate's ordering and step faces:
    row k is (-1)^|S| x^S, S = sep(R_k, R), on the regions R that conform
    to step k's face, and zero elsewhere."""
    regions = arr.regions()
    rows = []
    for region, step in zip(data["ordering"], data["steps"]):
        face = SignVector.from_string(step["face"])
        row = []
        for other in regions:
            sep = separation_set(regions[region], other)
            monomial = Monomial((a, 1) for a in sep)
            row.append(
                Polynomial.from_monomial(monomial, (-1) ** len(sep))
                if conforms_to(other, face)
                else Polynomial.zero()
            )
        rows.append(row)
    return rows


def test_certificate_json_schema():
    cert = diagonalize(fixture("single_line"))
    data = cert.to_json_dict()
    assert set(data) == {"format", "ordering", "steps", "checks"}
    assert data["format"] == 2
    assert data["ordering"] == [0, 1]
    assert data["steps"][0] == {"k": 0, "flat": 0, "face": "+", "entry": "1"}
    assert data["steps"][1] == {"k": 1, "flat": 1, "face": "0", "entry": "(1-x1^2)"}
    assert data["checks"]["pvq_equals_d"] is True
    assert data["checks"]["det_p"] in ("1", "-1")
    assert transform_from_faces(fixture("single_line"), data) == cert.P
    for arr in (fixture("three_generic_lines"), fixture("five_generic_lines")):
        cert = diagonalize(arr)
        data = json.loads(cert.to_json())
        assert [set(step) for step in data["steps"]] == [{"k", "flat", "face", "entry"}] * len(cert.P)
        assert [step["entry"] for step in data["steps"]] == [str(d) for d in cert.diagonal]
        assert transform_from_faces(arr, data) == cert.P


def test_the_dense_transform_is_built_only_when_read(tmp_path, monkeypatch, capsys):
    """`diagonalize`, `snf_q` and the CLI keep P as the sparse rows they
    prove; `cert.P` builds the dense grid on first read."""
    arr = fixture("five_generic_lines")
    cert = diagonalize(arr)
    assert "P" not in vars(cert)
    with monkeypatch.context() as m:
        m.setattr(diagonalize_module, "diagonalize", lambda a: cert)
        snf_q(arr)
    assert "P" not in vars(cert)
    # the P the faces imply, rebuilt by a conforms_to scan
    assert cert.P == transform_from_faces(arr, cert.to_json_dict())
    assert "P" in vars(cert) and cert.Q == [list(col) for col in zip(*cert.P)]
    assert cert.rows == [{j: e for j, e in enumerate(row) if not e.is_zero()} for row in cert.P]
    assert DiagonalizationCertificate is diagonalize_module.DiagonalizationCertificate
    assert DiagonalizationCertificate is certificate_module.DiagonalizationCertificate

    def refuse(self):
        raise AssertionError("dense P built on the CLI path")

    monkeypatch.setattr(DiagonalizationCertificate, "P", property(refuse))
    path = tmp_path / "arr.json"
    path.write_text(arr.to_json())
    cert_path = str(tmp_path / "cert.json")
    for argv in (["diagonalize", "--certificate", cert_path, "--format", "json"], ["snf-q"]):
        assert cli.main([argv[0], str(path), *argv[1:]]) == 0


def test_substitution_commutes_with_reduction():
    """Specializing before or after diagonalizing gives equivalent matrices:
    their univariate minor gcds agree."""
    q = 5  # variable id for the single indeterminate
    for arr in (fixture("three_generic_lines"), fixture("three_parallel_lines")):
        cert = diagonalize(arr)
        v = build_varchenko(arr)
        sigma = {i: Polynomial.variable(q) for i in range(arr.n)}
        v_q = v.substitute(sigma)
        d_q = diagonal_matrix(cert).substitute(sigma)
        for k in range(1, min(5, v.size + 1)):
            assert poly_gcd_minors(v_q, k) == poly_gcd_minors(d_q, k)


def test_substitution_commutes_integer_specialization():
    arr = fixture("three_generic_lines")
    cert = diagonalize(arr)
    v = build_varchenko(arr)
    sigma = {i: 3 for i in range(arr.n)}
    v3 = v.substitute(sigma).to_int_grid()
    d3 = diagonal_matrix(cert).substitute(sigma).to_int_grid()
    for k in range(1, 5):
        assert gcd_minors(v3, k) == gcd_minors(d3, k)


def test_ordering_prefix_validity_across_fixtures():
    """Every prefix of the produced order encompasses exactly k flats,
    recomputed through the public encompassing operation."""
    for name, arr in semigeneral_suite():
        if len(arr.regions()) > 16:
            continue
        result = ordering(arr)
        colored = []
        for k, region in enumerate(result.order, start=1):
            colored.append(region)
            now = encompassed_flats(arr, colored)
            assert len(now) == k, (name, k)
            assert set(result.step_flats[:k]) == now, (name, k)


def test_diagonalize_randomized_fixture():
    arr = random_generic_lines(5, seed=321)
    cert = diagonalize(arr)
    assert sorted(str(d) for d in cert.diagonal) == sorted(
        str(d) for d in expected_diagonal(arr)
    )
    exponents = {}
    for d in cert.diagonal:
        for base, e in d.exponent_map().items():
            exponents[base] = exponents.get(base, 0) + e
    assert exponents == det_formula(arr).exponent_map()


def test_ordering_does_not_recurse_per_region():
    arr = random_generic_lines(8, 108)
    arr.regions(), arr.faces(), arr.poset()  # cached before the limit drops
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 25)
    try:
        result = ordering(arr)
    finally:
        sys.setrecursionlimit(limit)
    assert len(result.order) == 37
    assert arr.face_table().faces[result.step_faces[0]] == arr.regions()[result.order[0]]


def test_the_diagonalize_path_keeps_no_face_position_map():
    """`ordering` hands `prove` each step face by its face-table position,
    and `prove` writes the certificate's sign vectors from the table, so no
    face -> position map is built on the way."""
    arr = fixture("five_generic_lines")
    order = ordering(arr)
    assert all(type(f) is int for f in order.step_faces)
    faces = arr.face_table().faces
    assert tuple(faces[f] for f in order.step_faces) == diagonalize(arr).step_faces
    assert not hasattr(FaceTable, "index")


def generated_bench_inputs(workload):
    """The benchmark generator's `Input`s of a workload, seed 101, without
    the shipped fixtures; each carries its Zaslavsky region count,
    computed by the generator without the library."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs
    spec.loader.exec_module(inputs)
    return [inp for inp in inputs.build_inputs(workload, 101) if not inp.small]


def bench_inputs(workload):
    """The generated inputs of a benchmark workload, seed 101; for
    `semigeneral`: generic lines (r = 37, 56, 79) and generic planes
    (r = 26, 42)."""
    return [
        (inp.name, Arrangement.from_json(inp.text))
        for inp in generated_bench_inputs(workload)
    ]


def test_closed_form_transform_equals_the_replayed_elimination():
    """Row k of P, written from the face step k completes, is the row the
    step-by-step elimination produces, with every closed form checked."""
    bench = bench_inputs("semigeneral")
    assert sorted(len(arr.regions()) for _, arr in bench) == [26, 37, 42, 56, 79]
    for name, arr in semigeneral_suite() + bench:
        cert = diagonalize(arr)
        assert cert.P == replay_elimination(arr), name
        nonzeros = sum(not e.is_zero() for row in cert.P for e in row)
        assert nonzeros == len(arr.faces().members), name


def test_a_wrong_step_face_is_caught(monkeypatch):
    arr = fixture("five_generic_lines")
    true = ordering(arr)
    table = arr.face_table()
    # the step's own region keeps P unit lower-triangular, so only the
    # product P V P^T can tell it from the face the step completes; a later
    # step's face misses the step's region, so the shape check sees it
    for wrong, message in (
        (table.faces.index(arr.regions()[true.order[5]]), "does not equal the diagonal"),
        (true.step_faces[9], r"\(5,6\) is 0, not 1"),
    ):
        faces = list(true.step_faces)
        faces[5] = wrong
        tampered = RegionOrdering(true.order, true.step_flats, tuple(faces))
        monkeypatch.setattr(diagonalize_module, "ordering", lambda a: tampered)
        with pytest.raises(ClosedFormViolation, match=message):
            diagonalize(arr)


def test_a_flipped_transform_sign_is_caught(monkeypatch):
    closed_form = certificate_module._transform_entry
    calls = []

    def flip_the_tenth_monomial(sep):
        entry = closed_form(sep)
        if sep:
            calls.append(sep)
            if len(calls) == 10:
                return -entry
        return entry

    monkeypatch.setattr(certificate_module, "_transform_entry", flip_the_tenth_monomial)
    with pytest.raises(ClosedFormViolation, match="does not equal the diagonal"):
        diagonalize(fixture("five_generic_lines"))
    assert len(calls) >= 10


def face_cube_checks_on(arr, order):
    """Write P's rows from `order`'s faces and run `_face_cube_checks` on
    them, after checking that the rows pass `_ordering_det` and that
    P V P^T differs from the diagonal the step flats give."""
    rows = _transform_rows(arr, order)
    _ordering_det(rows, order.order)
    diagonal = [
        _diagonal_entry(arr.poset().flats[flat]).expand()
        for flat in order.step_flats
    ]
    assert not dense_product_is_diagonal(build_varchenko(arr).rows, rows, diagonal)
    _face_cube_checks(arr, order, rows)


def test_a_step_face_that_is_not_a_full_cube_is_caught(monkeypatch):
    arr = fixture("five_generic_lines")
    true = ordering(arr)
    table = arr.face_table()
    i = next(
        i for i, f in enumerate(true.step_faces) if table.faces[f].zero_mask.bit_count() == 2
    )
    f = true.step_faces[i]
    # a vertex face missing a region colored before the step, or with it
    # swapped for an earlier region off the vertex: both keep P's shape
    dropped = next(a for a in bits(table.adjacent[f]) if a != true.order[i])
    earlier = set(true.order[:i]) - set(bits(table.adjacent[f]))
    kept = table.adjacent[f] & ~(1 << dropped)
    for mask, message in (
        (kept, "its face has 3 adjacent regions, not a full cube"),
        (kept | 1 << min(earlier), re.escape("not (-1)^|T| x^T on the cube")),
    ):
        adjacent = list(table.adjacent)
        adjacent[f] = mask
        tampered = FaceTable(table.faces, table.flats, tuple(adjacent))
        monkeypatch.setattr(arr, "face_table", lambda: tampered)
        with pytest.raises(ClosedFormViolation, match=rf"step {i}: .*{message}"):
            face_cube_checks_on(arr, true)


def test_an_earlier_region_in_the_step_regions_orthant_is_caught():
    arr = fixture("five_generic_lines")
    true = ordering(arr)
    # step 5 completing its own region, a face on the ambient flat 0, passes
    # the shape, flat and cube checks, but the zero set is empty, so every
    # earlier region agrees with it there
    faces = list(true.step_faces)
    faces[5] = arr.face_table().faces.index(arr.regions()[true.order[5]])
    flats = list(true.step_flats)
    flats[5] = 0
    tampered = RegionOrdering(true.order, tuple(flats), tuple(faces))
    with pytest.raises(
        ClosedFormViolation,
        match=rf"step 5: region {true.order[0]} agrees with it on the face's zero set",
    ):
        face_cube_checks_on(arr, tampered)


def test_a_wrong_step_flat_is_caught():
    arr = fixture("five_generic_lines")
    true = ordering(arr)
    flats = list(true.step_flats)
    flats[5], flats[6] = flats[6], flats[5]
    tampered = RegionOrdering(true.order, tuple(flats), true.step_faces)
    with pytest.raises(
        ClosedFormViolation,
        match=rf"does not equal the diagonal matrix: step 5: its face lies on flat "
        rf"{true.step_flats[5]}, not on the step flat {true.step_flats[6]}",
    ):
        face_cube_checks_on(arr, tampered)


def test_diagonalize_runs_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("elimination on the runtime path")

    # exact division, exponent capping and the pivot step are test
    # references, which no package module imports
    for name in ("exact_div", "capped", "pivot_step"):
        monkeypatch.setattr(reference, name, refuse)
    assert not hasattr(polyring, "exact_div")
    assert not hasattr(diagonalize_module, "exact_div")
    assert not hasattr(diagonalize_module, "pivot_step")
    assert not hasattr(Polynomial, "capped")
    # nor V: the proof reads the faces the steps complete
    assert not hasattr(diagonalize_module, "build_varchenko")
    monkeypatch.setattr(varmatrix, "build_varchenko", refuse)
    # nor a region-by-face scan or a linear solve: `conforms_to` is a test
    # reference, not a method of SignVector
    assert not hasattr(SignVector, "conforms_to")
    monkeypatch.setattr(reference, "conforms_to", refuse)
    assert not hasattr(exactlp, "LinearSystem")
    cert = diagonalize(fixture("five_generic_lines"))
    assert cert.checks == {"pvq_equals_d": True, "det_p": "-1", "det_q": "-1"}
    assert sorted(str(d) for d in cert.diagonal) == sorted(
        str(d) for d in expected_diagonal(fixture("five_generic_lines"))
    )


def test_ordering_equals_the_full_scan_reference():
    bench = bench_inputs("semigeneral")
    for name, arr in semigeneral_suite() + bench:
        assert ordering(arr) == ordering_by_full_scan(arr), name


def test_tampered_entries_are_caught_by_the_packed_proof():
    arr = fixture("five_generic_lines")
    cert = diagonalize(arr)
    perm = list(cert.ordering)
    v = build_varchenko(arr)
    rows = cert.rows
    diagonal = [d.expand() for d in cert.diagonal]
    assert _certificate_checks(v, rows, perm, diagonal) == cert.checks
    i, a = next((i, a) for i, row in enumerate(rows) for a in row if a != perm[i])
    two_terms = rf"transform entry \({i},{a}\) is 1 \+ x1, not a signed monomial"
    for entry, message in (
        (rows[i][a] * Polynomial.variable(2), "does not equal the diagonal"),
        (parse_polynomial("1 + x1"), two_terms),
        (rows[i][a].scaled(2), "not a signed monomial"),
    ):
        tampered = [dict(row) for row in rows]
        tampered[i][a] = entry
        assert not dense_product_is_diagonal(v.rows, tampered, diagonal)
        with pytest.raises(ClosedFormViolation, match=message):
            _certificate_checks(v, tampered, perm, diagonal)
    # an asymmetric V: the proof reads only the entries (i, perm[n]) of P V
    # with n <= i, which is enough only because V is checked symmetric
    skew = LabeledMatrix(v.labels, v.rows)
    skew.rows[perm[0]][perm[-1]] = v.rows[perm[0]][perm[-1]] * Polynomial.variable(0)
    assert not dense_product_is_diagonal(skew.rows, rows, diagonal)
    with pytest.raises(ClosedFormViolation, match="V is not symmetric"):
        _certificate_checks(skew, rows, perm, diagonal)


def test_certificate_checks_run_no_polynomial_arithmetic(monkeypatch):
    checks = certificate_module._face_cube_checks
    calls = []

    def refuse(*args):
        raise AssertionError("Polynomial arithmetic in the certificate proof")

    def guarded(*args):
        calls.append(args)
        with monkeypatch.context() as m:
            for op in ("__mul__", "__add__", "__sub__", "__neg__"):
                m.setattr(Polynomial, op, refuse)
            return checks(*args)

    monkeypatch.setattr(certificate_module, "_face_cube_checks", guarded)
    cert = diagonalize(random_generic_lines(8, 108))
    assert len(calls) == 1
    assert cert.checks["pvq_equals_d"] is True


def test_an_overflowing_product_raises_too_large():
    big = Polynomial.variable(0, 20000)
    one, zero = Polynomial.one(), Polynomial.zero()
    v = LabeledMatrix([0, 1], [[big, zero], [zero, one]])
    rows = [{0: one}, {0: big, 1: one}]  # (P V)[1][0] = x1^40000
    with pytest.raises(TooLarge):
        _certificate_checks(v, rows, [0, 1], [big, one])
