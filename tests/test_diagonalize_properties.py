"""Property tests of the closed-form transform against the replayed
elimination, of the region ordering against a full rescan, of the
face-cube certificate proof and the packed-key reference proof against
dense `Polynomial` products, and of `verify_certificate` against the
packed-key reference on changed certificate files."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from reference import _certificate_checks, ordering_by_rescan, replay_elimination, variable
from test_diagonalize import (
    dense_product_is_diagonal,
    ordering_by_full_scan,
    transform_from_faces,
)
from varchenko.certificate import (
    RegionOrdering,
    _diagonal_entry,
    _face_cube_checks,
    _ordering_det,
    _transform_rows,
    verify_certificate,
)
from varchenko.diagonalize import diagonalize, ordering
from varchenko.errors import ClosedFormViolation, InvalidArrangement, OrderingStuck
from varchenko.geometry import Arrangement, FaceTable, Hyperplane
from varchenko.polyring import Monomial, Polynomial
from varchenko.varmatrix import LabeledMatrix, build_varchenko


@st.composite
def semigeneral_arrangements(draw):
    """Affine families of up to three parallel classes of one or two
    hyperplanes each, or central families of up to `dim` + 1 hyperplanes,
    in dimension 1 to 3."""
    mode = draw(st.sampled_from(("affine", "central")))
    dim = draw(st.integers(1, 3))
    nvars = dim + 1 if mode == "central" else dim
    normals = st.tuples(*[st.integers(-3, 3)] * nvars).filter(any)
    if mode == "central":
        classes = [(normal, [0]) for normal in draw(st.lists(normals, min_size=1, max_size=dim + 1))]
    else:
        offsets = st.lists(st.integers(-4, 4), min_size=1, max_size=2, unique=True)
        classes = draw(st.lists(st.tuples(normals, offsets), min_size=1, max_size=3))
    hyperplanes = [
        Hyperplane(f"S{i + 1}", tuple(map(Fraction, normal)), Fraction(offset))
        for i, (normal, offset) in enumerate(
            (normal, offset) for normal, offsets in classes for offset in offsets
        )
    ]
    try:
        arr = Arrangement(mode, dim, hyperplanes)
    except InvalidArrangement:  # two hyperplanes coincide
        assume(False)
    assume(arr.is_semigeneral())
    return arr


@given(semigeneral_arrangements())
def test_closed_form_transform_equals_the_replayed_elimination(arr):
    assert diagonalize(arr).P == replay_elimination(arr)


@given(semigeneral_arrangements())
def test_ordering_equals_the_full_scan_reference(arr):
    assert ordering(arr) == ordering_by_full_scan(arr)


class FlatList(list):
    """A poset stand-in: its flats, by index."""

    @property
    def flats(self):
        return self


@st.composite
def synthetic_face_data(draw):
    """Face adjacency masks over r <= 6 regions, each face's flat among r
    flats, and the flats' dimensions: random instances of what `ordering`
    searches, on which it often backtracks (no arrangement in the suite,
    the bench inputs or 120 random ones made it backtrack).  As in an
    arrangement, every region is a face of flat 0; the other faces touch
    two regions or more."""
    r = draw(st.integers(2, 6))
    several = st.integers(3, (1 << r) - 1).filter(lambda m: m & (m - 1))
    extra = draw(st.lists(st.tuples(several, st.integers(1, r - 1)), max_size=10))
    masks = [1 << i for i in range(r)] + [m for m, _ in extra]
    flat_ids = [0] * r + [flat for _, flat in extra]
    dims = draw(st.lists(st.integers(0, 2), min_size=r, max_size=r))
    return r, masks, flat_ids, dims


@settings(max_examples=300)
@given(synthetic_face_data())
def test_ordering_search_equals_the_full_scan_reference_on_synthetic_faces(data):
    r, masks, flat_ids, dims = data
    table = FaceTable(tuple(range(len(masks))), tuple(flat_ids), tuple(masks))
    arr = SimpleNamespace(
        semigeneral_witness=lambda: None,
        regions=lambda: list(range(r)),
        poset=lambda: FlatList(SimpleNamespace(dim=d) for d in dims),
        face_table=lambda: table,
    )
    outcomes = []
    for search in (ordering, ordering_by_full_scan, ordering_by_rescan):
        try:
            outcomes.append(search(arr))
        except OrderingStuck:
            outcomes.append(OrderingStuck)
    assert outcomes[0] == outcomes[1] == outcomes[2]


NVARS = 3
signed_monomials = st.builds(
    lambda exps, sign: Polynomial.from_monomial(Monomial(enumerate(exps)), sign),
    st.tuples(*[st.integers(0, 1)] * NVARS),
    st.sampled_from((1, -1)),
)
entries = st.one_of(st.just(Polynomial.zero()), signed_monomials)


@st.composite
def random_certificates(draw):
    """A symmetric V of signed monomials and zeros, and a P = L * Pi with
    L unit lower-triangular in the order `perm`, its other entries signed
    monomials or absent; D is the diagonal of P V P^T."""
    r = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(r)))
    v = [[None] * r for _ in range(r)]
    for a in range(r):
        for b in range(a, r):
            v[a][b] = v[b][a] = draw(entries)
    rows = []
    for i in range(r):
        row = {perm[i]: Polynomial.one()}
        for n in range(i):
            entry = draw(entries)
            if not entry.is_zero():
                row[perm[n]] = entry
        rows.append(row)
    diagonal = []
    for i, row in enumerate(rows):
        entry = Polynomial.zero()
        for a, p in row.items():
            for b, q in row.items():
                entry = entry + p * v[a][b] * q
        diagonal.append(entry)
    return LabeledMatrix(list(range(r)), v), rows, perm, diagonal


@st.composite
def arrangement_certificates(draw):
    """The certificate `diagonalize` proves for a small semigeneral
    arrangement."""
    arr = draw(semigeneral_arrangements())
    assume(len(arr.regions()) <= 16)
    cert = diagonalize(arr)
    diagonal = [d.expand() for d in cert.diagonal]
    return build_varchenko(arr), cert.rows, list(cert.ordering), diagonal


@st.composite
def corrupted(draw, certificates):
    """A certificate, maybe with one entry of V (both copies) or one
    off-pivot entry of P negated or multiplied by a variable."""
    v, rows, perm, diagonal = draw(certificates)
    kind = draw(st.sampled_from(("none", "sign", "exponent")))
    if kind == "none":
        return v, rows, perm, diagonal
    factor = (
        Polynomial.constant(-1)
        if kind == "sign"
        else variable(draw(st.integers(0, NVARS - 1)))
    )
    r = v.size
    spots = [("V", a, b) for a in range(r) for b in range(a, r)] + [
        ("P", i, a) for i, row in enumerate(rows) for a in row if a != perm[i]
    ]
    where, x, y = draw(st.sampled_from(spots))
    if where == "V":
        v = LabeledMatrix(v.labels, v.rows)
        v.rows[x][y] = v.rows[y][x] = v.rows[x][y] * factor
    else:
        rows = [dict(row) for row in rows]
        rows[x][y] = rows[x][y] * factor
    return v, rows, perm, diagonal


@given(corrupted(st.one_of(random_certificates(), arrangement_certificates())))
def test_packed_proof_raises_exactly_when_the_dense_product_differs(case):
    v, rows, perm, diagonal = case
    try:
        _certificate_checks(v, rows, perm, diagonal)
    except ClosedFormViolation:
        raised = True
    else:
        raised = False
    assert raised == (not dense_product_is_diagonal(v.rows, rows, diagonal))


@st.composite
def corrupted_orderings(draw):
    """A small semigeneral arrangement, its ordering and P's rows, maybe
    with one off-pivot entry of P negated, multiplied by a variable or
    dropped, or with one step's face or flat replaced by another (P's rows
    are then written from the replaced faces)."""
    arr = draw(semigeneral_arrangements())
    assume(len(arr.regions()) <= 16)
    order = ordering(arr)
    kind = draw(st.sampled_from(("none", "entry", "face", "flat")))
    step = draw(st.integers(0, len(order.order) - 1))
    faces, flats = list(order.step_faces), list(order.step_flats)
    if kind == "face":
        faces[step] = draw(st.integers(0, len(arr.face_table().faces) - 1))
    elif kind == "flat":
        flats[step] = draw(st.integers(0, len(arr.poset()) - 1))
    order = RegionOrdering(order.order, tuple(flats), tuple(faces))
    rows = _transform_rows(arr, order)
    if kind == "entry":
        spots = [(i, a) for i, row in enumerate(rows) for a in row if a != order.order[i]]
        assume(spots)
        i, a = draw(st.sampled_from(spots))
        factor = draw(
            st.one_of(
                st.just(Polynomial.constant(-1)),
                st.builds(variable, st.integers(0, NVARS - 1)),
                st.none(),
            )
        )
        if factor is None:
            del rows[i][a]
        else:
            rows[i][a] = rows[i][a] * factor
    return arr, order, rows


@given(corrupted_orderings())
def test_face_cube_proof_raises_exactly_when_the_packed_reference_does(case):
    arr, order, rows = case
    perm = list(order.order)
    diagonal = [_diagonal_entry(arr.poset().flats[f]).expand() for f in order.step_flats]
    v = build_varchenko(arr)
    raised = []
    for proof in (
        lambda: (_ordering_det(rows, perm), _face_cube_checks(arr, order, rows)),
        lambda: _certificate_checks(v, rows, perm, diagonal),
    ):
        try:
            proof()
        except ClosedFormViolation:
            raised.append(True)
        else:
            raised.append(False)
    assert raised[0] == raised[1] == (not dense_product_is_diagonal(v.rows, rows, diagonal))


@st.composite
def changed_certificate_files(draw):
    """A small semigeneral arrangement and the format-2 certificate
    `diagonalize` writes for it, maybe with one step's face replaced by a
    face of the arrangement or changed in one sign, its flat or its entry
    replaced by another flat's, two regions of the ordering swapped, or
    det_p negated.  The file stays well formed."""
    arr = draw(semigeneral_arrangements())
    assume(len(arr.regions()) <= 16)
    data = json.loads(diagonalize(arr).to_json())
    flats = arr.poset().flats
    k = draw(st.integers(0, len(data["ordering"]) - 1))
    step = data["steps"][k]
    kind = draw(st.sampled_from(("none", "face", "sign", "flat", "entry", "swap", "det")))
    if kind == "face":
        step["face"] = draw(st.sampled_from(arr.face_table().faces)).to_string()
    elif kind == "sign":
        e = draw(st.integers(0, arr.n - 1))
        sign = draw(st.sampled_from([c for c in "+-0" if c != step["face"][e]]))
        step["face"] = step["face"][:e] + sign + step["face"][e + 1 :]
    elif kind == "flat":
        step["flat"] = draw(st.integers(0, len(flats) - 1))
    elif kind == "entry":
        step["entry"] = str(_diagonal_entry(draw(st.sampled_from(flats))))
    elif kind == "swap":
        j = draw(st.integers(0, len(data["ordering"]) - 1))
        order = data["ordering"]
        order[k], order[j] = order[j], order[k]
    elif kind == "det":
        data["checks"]["det_p"] = str(-int(data["checks"]["det_p"]))
    return arr, data


def reference_accepts(arr, data) -> bool:
    """Whether each step's face is a face of the arrangement, its entry is
    the product over its flat's defining set, and the dense P rebuilt from
    the file's faces passes the packed-key reference proof for those
    entries, with the file's checks."""
    faces = {f.to_string() for f in arr.faces()}
    if any(step["face"] not in faces for step in data["steps"]):
        return False
    flats = arr.poset().flats
    entries = [_diagonal_entry(flats[step["flat"]]) for step in data["steps"]]
    if [str(e) for e in entries] != [step["entry"] for step in data["steps"]]:
        return False
    rows = [
        {j: e for j, e in enumerate(row) if not e.is_zero()}
        for row in transform_from_faces(arr, data)
    ]
    diagonal = [e.expand() for e in entries]
    try:
        checks = _certificate_checks(build_varchenko(arr), rows, data["ordering"], diagonal)
    except ClosedFormViolation:
        return False
    return checks == data["checks"]


def test_the_reference_refuses_a_step_face_that_is_no_face():
    """The points x = 0 and x = -1 of the line, with step 0's face ++
    changed to +0: no point on x = -1 lies on the + side of x = 0, yet the
    regions that conform to +0 are those that conform to ++."""
    arr = Arrangement(
        "affine",
        1,
        [Hyperplane("S1", (Fraction(1),)), Hyperplane("S2", (Fraction(1),), Fraction(-1))],
    )
    data = json.loads(diagonalize(arr).to_json())
    assert data["steps"][0]["face"] == "++"
    data["steps"][0]["face"] = "+0"
    with pytest.raises(ClosedFormViolation, match="not a face of the arrangement"):
        verify_certificate(arr, json.dumps(data))
    assert not reference_accepts(arr, data)


@settings(max_examples=150)
@given(changed_certificate_files())
def test_verify_accepts_exactly_what_the_packed_reference_accepts(case):
    arr, data = case
    try:
        verify_certificate(arr, json.dumps(data))
    except ClosedFormViolation:
        accepted = False
    else:
        accepted = True
    assert accepted == reference_accepts(arr, data)
