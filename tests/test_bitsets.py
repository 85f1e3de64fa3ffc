"""The per-hyperplane bitsets against the scans they replace: the poset's
down-sets, Moebius values and det_formula's p_X against pairwise
comparisons of defining sets, the face-cube proof's earlier-region test
against a scan of the steps before, the region search against a rescan
and sort of the front, and the integer sort key against the sign strings.
A certificate past the fixtures' sizes is pinned by its digest."""

import hashlib
import itertools
import json
from fractions import Fraction
from random import Random


import reference
from arrangements import fixture, named_fixtures
from reference import (
    det_formula_by_subset_sum,
    down_set_by_pairs,
    first_agreeing_by_scan,
    mobius_by_pairs,
    ordering_by_rescan,
    sign_vector,
    string_rank_key,
)
from test_geometry import fixture_and_bench_cases
from varchenko import cli
from varchenko.certificate import _first_agreeing, verify_certificate
from varchenko.diagonalize import diagonalize, ordering
from varchenko.errors import VarchenkoError
from varchenko.geometry import Arrangement, Hyperplane
from varchenko.matinvariants import obstruction_report
from varchenko.signedsets import SignVector
from varchenko.varmatrix import det_formula


def random_hyperplanes(n: int, dim: int, bound: int, seed: int) -> Arrangement:
    """n affine hyperplanes in R^dim, normals and offsets uniform integers
    in [-bound, bound], drawn from `seed` (a zero normal is redrawn)."""
    rng = Random(seed)
    hyperplanes = []
    for i in range(n):
        normal = [0] * dim
        while not any(normal):
            normal = [rng.randint(-bound, bound) for _ in range(dim)]
        offset = rng.randint(-bound, bound)
        hyperplanes.append(
            Hyperplane(f"S{i + 1}", tuple(map(Fraction, normal)), Fraction(offset))
        )
    return Arrangement("affine", dim, hyperplanes)


def test_sort_key_orders_like_the_sign_strings():
    """'+' < '-' < '0' from position 0, on every sign vector with n <= 7."""
    for n in range(8):
        vectors = [
            sign_vector(signs) for signs in itertools.product((1, -1, 0), repeat=n)
        ]
        by_key = sorted(vectors, key=SignVector.sort_key)
        assert by_key == sorted(vectors, key=string_rank_key), n
        assert len({v.sort_key() for v in vectors}) == len(vectors), n


def test_down_sets_moebius_and_det_formula_equal_the_pairwise_references():
    for name, arr in fixture_and_bench_cases():
        poset = arr.poset()
        assert [poset.below(f.index) for f in poset] == [
            down_set_by_pairs(poset, f.index) for f in poset
        ], name
        assert poset.mobius == mobius_by_pairs(poset), name
        assert all(poset.flat_index(f.defining_set) == f.index for f in poset), name
        if arr.mode != "covector":
            assert det_formula(arr) == det_formula_by_subset_sum(arr), name


def steps_of(arr, order):
    """The '+' masks of the ordering's regions and its faces' zero masks."""
    regions, faces = arr.regions(), arr.face_table().faces
    return (
        [regions[region].plus for region in order.order],
        [faces[f].zero_mask for f in order.step_faces],
    )


def search_outcome(search, arr):
    try:
        return search(arr)
    except VarchenkoError as exc:
        return type(exc), str(exc)


def test_ordering_and_the_earlier_region_test_equal_the_scans():
    """On every case the region search finds the rescan's ordering (or
    raises as it does).  On the diagonalizable ones no step agrees with an
    earlier one on its face's zero set, and with random zero masks in place
    of the faces' the bitsets name the same first earlier step as the
    scan."""
    for name, arr in fixture_and_bench_cases():
        outcome = search_outcome(ordering, arr)
        assert outcome == search_outcome(ordering_by_rescan, arr), name
        if isinstance(outcome, tuple):
            continue
        pluses, zeros = steps_of(arr, outcome)
        assert _first_agreeing(pluses, zeros, arr.n) == [None] * len(pluses), name
        assert first_agreeing_by_scan(pluses, zeros) == [None] * len(pluses), name
        rng = Random(len(pluses))
        widened = [rng.randrange(1 << arr.n) for _ in zeros]
        assert _first_agreeing(pluses, widened, arr.n) == first_agreeing_by_scan(
            pluses, widened
        ), name


def test_an_agreeing_earlier_step_is_named_by_its_first_occurrence():
    # step 3 agrees with step 2 on position 1, and steps 1 and 3 agree with
    # step 4 on position 0: the scan and the bitsets both name step 1
    pluses = [0b00, 0b01, 0b10, 0b11, 0b01]
    zeros = [0, 0b01, 0b11, 0b10, 0b01]
    assert first_agreeing_by_scan(pluses, zeros) == [None, None, None, 2, 1]
    assert _first_agreeing(pluses, zeros, 2) == [None, None, None, 2, 1]


def test_the_runtime_calls_none_of_the_references(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a test reference on the runtime path")

    for name in (
        "face_table_by_full_scan",
        "mobius_by_pairs",
        "det_formula_by_subset_sum",
        "first_agreeing_by_scan",
        "ordering_by_rescan",
        "string_rank_key",
        "separation_mask",
        "conforms_to",
        "zero_set",
    ):
        monkeypatch.setattr(reference, name, refuse)
    for name, arr in named_fixtures().items():
        arr.face_table()
        if arr.mode != "covector":
            det_formula(arr)
        if arr.is_semigeneral() and len(arr.poset()) == len(arr.regions()):
            cert = diagonalize(arr)
            assert verify_certificate(arr, cert.to_json()) == cert.checks, name
        elif not arr.is_semigeneral() and arr.mode != "covector":
            obstruction_report(arr)
    path = tmp_path / "arr.json"
    path.write_text(fixture("five_generic_lines").to_json())
    for command in ("diagonalize", "poset", "det"):
        assert cli.main([command, str(path)]) == 0
    capsys.readouterr()


# sha256 of `diagonalize(random_hyperplanes(10, 4, 9, 1)).to_json()`,
# computed before the per-hyperplane bitsets replaced the all-pairs scans
PINNED_SHA256 = "c6d55a1d4f0d62b8ecca45ba205715d9ed33015d84ad8bb649797ef91f50539f"


def test_a_certificate_past_the_fixtures_is_byte_identical_and_verifies():
    """10 generic hyperplanes in R^4, r = 386: the certificate's JSON has
    the pinned digest, and `verify_certificate` proves it."""
    arr = random_hyperplanes(10, 4, 9, 1)
    assert len(arr.regions()) == 386
    text = diagonalize(arr).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256
    checks = verify_certificate(arr, text)
    assert checks == json.loads(text)["checks"] == {
        "pvq_equals_d": True,
        "det_p": "-1",
        "det_q": "-1",
    }


def test_a_pencil_of_16_lines_has_one_flat_above_all_the_others():
    """16 lines through one point: every flat is below the point, and the
    point's face is adjacent to all 32 regions, not to 2^16 cube corners."""
    n = 16
    lines = [
        Hyperplane(f"S{i + 1}", (Fraction(1), Fraction(i)), Fraction(0)) for i in range(n)
    ]
    arr = Arrangement("affine", 2, lines)
    poset = arr.poset()
    point = poset.flat_index(range(n))
    assert poset.below(point) == (1 << len(poset)) - 1
    assert poset.mobius[point] == n - 1
    assert det_formula(arr) == det_formula_by_subset_sum(arr)
    table = arr.face_table()
    assert table.adjacent[table.faces.index(SignVector(n, 0, 0))] == (1 << 2 * n) - 1
