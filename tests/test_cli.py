import json
import sys
from fractions import Fraction

import pytest

from arrangements import FIXDIR, fixture
from reference import LINES_45, LINES_61, covector_family, lines_document
from test_cli_digests import TABLE
from test_varmatrix import three_planes_on_a_line_plus_one
from varchenko.cli import main
from varchenko.geometry import Arrangement, Hyperplane


def fx(name: str) -> str:
    return str(FIXDIR / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixture_files_round_trip_and_are_the_pinned_ones():
    """Each fixture file is its arrangement's `to_json_dict`; the files are
    the fixtures whose CLI output `cli_digests.json` pins; and the
    covector-mode fixture is the covector family of three generic lines."""
    paths = sorted(FIXDIR.glob("*.json"))
    for path in paths:
        assert json.loads(path.read_text()) == fixture(path.stem).to_json_dict(), path.stem
    pinned = {key.split()[1] for key in json.loads(TABLE.read_text())}
    assert {path.stem for path in paths} == pinned
    suspension = fixture("suspension_three_generic_lines")
    assert suspension.covectors == covector_family(fixture("three_generic_lines"))


def test_regions(capsys):
    code, out, err = run(capsys, "regions", fx("three_generic_lines"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0] == "+++"


def test_regions_json_and_determinism(capsys):
    code1, out1, _ = run(capsys, "regions", fx("five_generic_lines"), "--format", "json")
    code2, out2, _ = run(capsys, "regions", fx("five_generic_lines"), "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)) == 16


def test_faces_feed_axioms(tmp_path, capsys):
    """faces --format json emits a covector list readable by `axioms`."""
    out_path = tmp_path / "faces.json"
    code, _, _ = run(
        capsys,
        "faces",
        fx("two_central_circles"),
        "--format",
        "json",
        "--output",
        str(out_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "axioms", str(out_path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # the raw face list of a central pencil contains the zero vector
    assert payload["axiom_a"] is False


def test_axioms_on_covector_fixture(capsys):
    code, out, _ = run(
        capsys, "axioms", fx("suspension_three_generic_lines"), "--format", "json"
    )
    # the covector fixture file is arrangement JSON, not a covector list
    assert code == 2


def test_axioms_on_sign_lines(tmp_path, capsys):
    path = tmp_path / "covectors.txt"
    path.write_text("+\n-\n")
    code, out, _ = run(capsys, "axioms", str(path))
    assert code == 0
    assert "axiom_a: pass" in out
    assert "composition_closure: pass" in out

    path.write_text(json.dumps(["+0", "-0", "0+", "0-"]))
    code, out, _ = run(capsys, "axioms", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["composition_closure"] is False
    assert payload["witness_composition"] is not None


def test_axioms_name_a_witness_for_each_failing_axiom(tmp_path, capsys):
    path = tmp_path / "covectors.txt"
    path.write_text("+-+\n-+-\n+++\n")
    code, out, _ = run(capsys, "axioms", str(path))
    assert code == 0
    assert "axiom_b: fail (witness +++)" in out
    assert "axiom_c: fail (witness X=+++ Y=+-+ e=1 f=0)" in out
    code, out, _ = run(capsys, "axioms", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["witness_c"] == {"X": "+++", "Y": "+-+", "e": 1, "f": 0}


def test_poset(capsys):
    code, out, _ = run(capsys, "poset", fx("three_concurrent_lines"), "--format", "json")
    assert code == 0
    flats = json.loads(out)["flats"]
    assert len(flats) == 5
    assert flats[0]["dim"] == 2 and flats[0]["mobius"] == 1
    assert flats[-1]["hyperplanes"] == ["S1", "S2", "S3"]
    assert flats[-1]["mobius"] == 2


def test_covector_poset_errors_exit_2_where_the_poset_is_read(tmp_path, capsys):
    """A covector family deeper than its stated dimension, or with no
    zero-free member, has no poset: `poset`, `check` and `diagonalize` exit
    2 with the message, while `regions` and `faces` read the family as it
    is."""
    path = tmp_path / "covectors.json"
    deep = ["+-", "-+", "++", "--", "0+", "0-", "+0", "-0"]
    path.write_text(json.dumps({"mode": "covector", "dim": 0, "covectors": deep}))
    for sub in ("poset", "check", "diagonalize"):
        assert run(capsys, sub, str(path)) == (
            2, "", "error: covector poset is deeper than the stated dimension 0\n"
        ), sub
    assert run(capsys, "regions", str(path)) == (0, "++\n+-\n-+\n--\n", "")
    code, out, _ = run(capsys, "faces", str(path))
    assert (code, len(out.split())) == (0, 8)

    path.write_text(json.dumps({"mode": "covector", "dim": 1, "covectors": ["+0", "-0"]}))
    assert run(capsys, "poset", str(path)) == (
        2, "", "error: covector family has no zero-free member\n"
    )


def test_charpoly(capsys):
    code, out, _ = run(capsys, "charpoly", fx("three_generic_lines"))
    assert code == 0
    assert out.strip() == "t^2 - 3*t + 3"


def test_matrix_text_single(capsys):
    code, out, _ = run(capsys, "matrix", fx("single_line"))
    assert code == 0
    assert out.splitlines() == ["1   x1", "x1  1"]


def _central(dim, *normals):
    """A central arrangement; each normal is given as a string of digits."""
    hyps = [
        {"name": f"S{i + 1}", "normal": list(digits), "offset": "0"}
        for i, digits in enumerate(normals)
    ]
    return {"mode": "central", "dim": dim, "hyperplanes": hyps}


DET_BOTH = [
    ("three_generic_lines", None, "(1-x1^2)^3(1-x2^2)^3(1-x3^2)^3"),
    # a 0-sphere split by a hyperplane, and spheres whose hyperplanes meet
    # only at the origin
    ("point_pair", _central(0, "1"), "(1-x1^2)"),
    ("two_lines_on_the_circle", _central(1, "10", "01"), "(1-x1^2)^2(1-x2^2)^2"),
    (
        "concurrent_central_plus_equator",
        _central(2, "100", "010", "110", "001"),
        "(1-x1^2)^4(1-x2^2)^4(1-x3^2)^4(1-x4^2)^6(1-x1^2*x2^2*x3^2)^2",
    ),
    # the same 12 regions in affine 3-space: the oracle at its cap
    (
        "three_planes_on_a_line_plus_one",
        three_planes_on_a_line_plus_one().to_json_dict(),
        "(1-x1^2)^4(1-x2^2)^4(1-x3^2)^4(1-x4^2)^6(1-x1^2*x2^2*x3^2)^2",
    ),
]


ORIGIN_ONLY = [
    # (case, document, check's output): the octants on S^2 and two lines
    # through the origin of R^2 are semigeneral; three lines through it
    # are not, since their origin flat lies on three hyperplanes
    ("octants", _central(2, "100", "010", "001"), "semigeneral"),
    ("two_lines_through_the_origin", _central(1, "10", "01"), "semigeneral"),
    (
        "three_lines_through_the_origin",
        _central(1, "10", "01", "11"),
        "not semigeneral: B={S1,S2,S3} has dim -1, expected -2",
    ),
]


def test_hyperplanes_that_meet_only_at_the_origin(tmp_path, capsys):
    """The origin is a flat: `check` reads it, `diagonalize`, `verify` and
    `snf-q` accept the semigeneral cases and `obstruct` the other, and
    |chi(-1)| is the number of regions, chi the linear one."""
    for case, document, verdict in ORIGIN_ONLY:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(document))
        code, out, _ = run(capsys, "check", str(path))
        assert (code, out) == (0, verdict + "\n"), case
        cert = tmp_path / f"{case}.cert.json"
        code, _, _ = run(capsys, "diagonalize", str(path), "--certificate", str(cert))
        if verdict == "semigeneral":
            assert code == 0, case
            assert run(capsys, "verify", str(path), str(cert))[0] == 0, case
            assert run(capsys, "snf-q", str(path))[0] == 0, case
        else:
            assert code == 3, case
            assert run(capsys, "obstruct", str(path))[0] == 0, case
        code, out, _ = run(capsys, "charpoly", str(path), "--format", "json")
        assert code == 0, case
        chi_at_minus_one = sum(c * (-1) ** k for k, c in enumerate(json.loads(out)["coefficients"]))
        code, out, _ = run(capsys, "regions", str(path))
        assert code == 0, case
        assert abs(chi_at_minus_one) == len(out.split()), case


def test_det_both(tmp_path, capsys):
    for case, document, formula in DET_BOTH:
        path = fx(case)
        if document is not None:
            path = tmp_path / f"{case}.json"
            path.write_text(json.dumps(document))
        code, out, err = run(capsys, "det", str(path), "--method", "both")
        assert (code, err) == (0, ""), case
        assert out == f"formula: {formula}\nbruteforce: {formula}\n", case


def test_det_matrix_round_trip(tmp_path, capsys):
    matrix_path = tmp_path / "matrix.json"
    code, _, _ = run(
        capsys,
        "matrix",
        fx("three_concurrent_lines"),
        "--format",
        "json",
        "--output",
        str(matrix_path),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "det", str(matrix_path), "--from-json", "--method", "bruteforce"
    )
    assert code == 0
    code2, direct, _ = run(
        capsys, "det", fx("three_concurrent_lines"), "--method", "bruteforce"
    )
    assert code2 == 0
    assert out == direct


def test_det_from_json_needs_bruteforce(tmp_path, capsys):
    matrix_path = tmp_path / "matrix.json"
    run(capsys, "matrix", fx("single_line"), "--format", "json", "--output", str(matrix_path))
    code, _, err = run(capsys, "det", str(matrix_path), "--from-json")
    assert code == 2
    assert "bruteforce" in err


def test_matrix_json_rejects_unknown_keys_and_a_wrong_label_count(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    entries = [["1", "x1"], ["x1", "1"]]
    for document, expected in (
        ({"labels": [5, 6], "entries": entries}, (0, "")),
        (
            {"lables": [5, 6], "entries": entries, "extra": True},
            (2, "error: unknown key 'extra' in matrix JSON; allowed keys: labels, entries\n"),
        ),
        (
            {"labels": [5, 6, 7], "entries": entries},
            (2, "error: 'labels' has 3 entries but the matrix has 2 rows\n"),
        ),
    ):
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "det", str(path), "--from-json", "--method", "bruteforce")
        assert (code, err) == expected, document


def test_det_covector_mode_unsupported(capsys):
    code, _, err = run(capsys, "det", fx("suspension_three_generic_lines"))
    assert code == 3


def test_check(capsys):
    code, out, _ = run(capsys, "check", fx("three_generic_lines"))
    assert code == 0 and out.strip() == "semigeneral"
    code, out, _ = run(capsys, "check", fx("three_concurrent_lines"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["semigeneral"] is False
    assert payload["witness"]["hyperplanes"] == ["S1", "S2", "S3"]
    assert payload["witness"]["dim"] == 0
    assert payload["witness"]["expected_dim"] == -1


def test_diagonalize_with_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "diagonalize",
        fx("three_generic_lines"),
        "--certificate",
        str(cert_path),
    )
    assert code == 0
    assert "pvq_equals_d=True" in out
    cert = json.loads(cert_path.read_text())
    assert set(cert) == {"format", "ordering", "steps", "checks"}
    assert cert["format"] == 2
    assert len(cert["ordering"]) == 7
    assert [set(step) for step in cert["steps"]] == [{"k", "flat", "face", "entry"}] * 7
    assert [len(step["face"]) for step in cert["steps"]] == [3] * 7
    assert cert["checks"]["det_p"] in ("1", "-1")


def test_diagonalize_gate(capsys):
    code, _, err = run(capsys, "diagonalize", fx("three_concurrent_lines"))
    assert code == 3
    assert "S1" in err and "S2" in err and "S3" in err


def test_snf_q(capsys):
    code, out, _ = run(capsys, "snf-q", fx("five_generic_lines"))
    assert code == 0
    assert out.strip().splitlines() == ["1 x1", "(1-q^2) x5", "(1-q^2)^2 x10"]
    code, _, _ = run(capsys, "snf-q", fx("pencil_four_planes"))
    assert code == 3


def test_obstruct(capsys):
    code, out, _ = run(capsys, "obstruct", fx("pencil_four_planes"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_consistent"] is True
    code, _, _ = run(capsys, "obstruct", fx("three_generic_lines"))
    assert code == 3


def test_obstruct_covector_mode_unsupported(tmp_path, capsys):
    # x1 = x2 = 0 lies on S1, S2 and S3: a deficient flat in covector mode
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)]
    central = Arrangement(
        "central",
        3,
        [Hyperplane(f"S{i + 1}", tuple(map(Fraction, r))) for i, r in enumerate(rows)],
    )
    covectors = [f.to_string() for f in central.faces().sorted_members() if not f.is_zero()]
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"mode": "covector", "dim": 3, "covectors": covectors}))
    code, out, err = run(capsys, "obstruct", str(path))
    assert code == 3 and out == ""
    assert "covector mode" in err


def test_obstruct_at_45_regions(tmp_path, capsys):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(lines_document(LINES_45)))
    code, out, _ = run(capsys, "regions", str(path))
    assert code == 0 and len(out.split()) == 45
    code, out, _ = run(capsys, "obstruct", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_consistent"] is True
    by_name = {c["name"]: c["result"] for c in payload["checks"]}
    assert by_name["gcd_minors_all_threes"] == {"gcd": 8}
    assert by_name["core"] == {
        "core_hyperplanes": ["S1", "S2", "S3"],
        "witness": ["S1", "S2", "S3"],
        "witness_dim": 0,
        "expected_dim": -1,
    }


def test_missing_input(capsys):
    code, _, err = run(capsys, "regions", "no_such_file.json")
    assert code == 2
    assert "not found" in err


def test_bad_json_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, _ = run(capsys, "regions", str(path))
    assert code == 2


def _line(name="S1", normal=None):
    return {"name": name, "normal": ["1", "0"] if normal is None else normal}


REGIONS = ("regions",)
DET_GRID = ("det", "--from-json", "--method", "bruteforce")
AXIOMS = ("axioms",)
# every subcommand that reads an arrangement's numbers
SUBCOMMANDS = [
    REGIONS, ("poset",), ("det",), ("diagonalize",), ("obstruct",), ("check",), ("snf-q",),
]
MALFORMED = [
    # (case, command, JSON document): each was misparsed or crashed before
    ("normal_as_string", REGIONS,
     {"mode": "affine", "dim": 2, "hyperplanes": [_line(normal="10")]}),
    ("dim_as_bool", REGIONS,
     {"mode": "affine", "dim": True, "hyperplanes": [_line(normal=["1"])]}),
    ("covectors_as_ints", REGIONS, {"mode": "covector", "dim": 1, "covectors": [1, 2]}),
    ("hyperplanes_as_int", REGIONS, {"mode": "affine", "dim": 2, "hyperplanes": 3}),
    ("name_as_int", REGIONS, {"mode": "affine", "dim": 2, "hyperplanes": [_line(name=1)]}),
    ("matrix_entry_as_int", DET_GRID, {"entries": [["1", 2], ["x1", "1"]]}),
    ("matrix_row_as_string", DET_GRID, {"entries": ["1x", "x1"]}),
    ("matrix_labels_as_int", DET_GRID, {"entries": [["1"]], "labels": 0}),
    ("matrix_entry_trailing_sign", DET_GRID, {"entries": [["1-"]]}),
    ("hyperplane_unknown_key", REGIONS,
     {"mode": "affine", "dim": 1,
      "hyperplanes": [{"name": "S1", "normal": ["1"], "ofset": "5"}]}),
    ("top_level_unknown_key", REGIONS,
     {"mode": "affine", "dim": 2, "hyperplanes": [_line()], "hyperplane": []}),
    ("covectors_in_affine_mode", REGIONS,
     {"mode": "affine", "dim": 2, "hyperplanes": [_line()], "covectors": ["+", "-"]}),
    ("hyperplanes_in_covector_mode", REGIONS,
     {"mode": "covector", "dim": 1, "covectors": ["+", "-"], "hyperplanes": []}),
    ("matrix_entry_superscript_exponent", DET_GRID, {"entries": [["x1^\u00b2"]]}),
    ("offset_zero_over_zero", REGIONS,
     {"mode": "affine", "dim": 2, "hyperplanes": [_line() | {"offset": "0/0"}]}),
] + [
    (f"zero_denominator_{command[0]}", command,
     {"mode": "affine", "dim": 2, "hyperplanes": [_line(normal=["1", "1/0"])]})
    for command in SUBCOMMANDS
] + [
    # JSON text nested deeper than the decoder recurses
    (f"nested_too_deeply_{command[0]}", command, "[" * 100000 + "]" * 100000)
    for command in (REGIONS, DET_GRID)
]


def test_malformed_input_exits_2_with_a_message(tmp_path, capsys):
    for case, (subcommand, *flags), document in MALFORMED:
        path = tmp_path / f"{case}.json"
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        code, out, err = run(capsys, subcommand, str(path), *flags)
        assert (code, out) == (2, ""), case
        assert err.startswith("error: ") and "Traceback" not in err, case


@pytest.mark.parametrize(
    "command, document, code, message",
    [
        (REGIONS, [], 2, "arrangement JSON must be an object"),
        (REGIONS, {"mode": "affine", "dim": -1, "hyperplanes": []}, 2,
         "dimension must be nonnegative"),
        (REGIONS, {"mode": "affine", "dim": 2, "hyperplanes": [_line(name="")]}, 2,
         "hyperplane name must be nonempty"),
        (DET_GRID, {"entries": [["1", "x1"], ["x1"]]}, 2, "labeled matrix must be square"),
        (DET_GRID, {"entries": [[" "]]}, 2, "empty polynomial string"),
        (DET_GRID, {"entries": [["x1**x2"]]}, 2, "empty factor"),
        (DET_GRID, {"entries": [["1+-x1"]]}, 2, "dangling sign"),
        (DET_GRID, {"entries": [["x1^20000*x1^20000"]]}, 4, "exponent 40000 exceeds 32767"),
        (DET_GRID, {"entries": [["x1^20000", "1"], ["1", "x1^20000"]]}, 4,
         "exponent or degree exceeds"),
        (AXIOMS, "", 2, "empty covector list"),
        (AXIOMS, ["+-", 3], 2, "JSON covector list must be an array of sign strings"),
    ],
)
def test_malformed_input_exits_with_its_code_and_message(
    tmp_path, capsys, command, document, code, message
):
    path = tmp_path / "input.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    subcommand, *flags = command
    got, out, err = run(capsys, subcommand, str(path), *flags)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_size_cap_exit_code(tmp_path, capsys):
    hyps = [
        {"name": f"S{i}", "normal": ["1", str(i)], "offset": "0"} for i in range(17)
    ]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"mode": "affine", "dim": 2, "hyperplanes": hyps}))
    code, _, _ = run(capsys, "regions", str(path))
    assert code == 4
    # a number longer than the interpreter's integer-string limit
    long, limit = "7" * 5000, sys.get_int_max_str_digits()
    oversized = [
        (command, {"mode": "affine", "dim": 2, "hyperplanes": [_line(normal=[long, "1"])]})
        for command in SUBCOMMANDS
    ] + [
        (REGIONS, {"mode": "affine", "dim": 2,
                   "hyperplanes": [_line() | {"offset": f"1/{long}"}]}),
        (DET_GRID, {"entries": [[f"{long}*x1"]]}),
        (DET_GRID, {"entries": [[f"x1^{long}"]]}),
        (DET_GRID, {"entries": [[f"x{long}"]]}),
        # a determinant whose coefficient is too long to print
        (DET_GRID, {"entries": [[long[:3000], "1"], ["1", long[:3000]]]}),
        # JSON numbers, written as text: json.dumps cannot print them either
        (REGIONS, f'{{"mode": "affine", "dim": {long}, "hyperplanes": []}}'),
        (("axioms",), f"[{long}]"),
        (DET_GRID, f'{{"entries": [["1"]], "labels": [{long}]}}'),
    ]
    for command, document in oversized:
        path.write_text(document if isinstance(document, str) else json.dumps(document))
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (4, ""), command
        assert err.startswith("error: ") and "Traceback" not in err, command
        assert f"exceeds the {limit}-digit limit" in err, command
    # the dimension is capped when the arrangement is built
    path = tmp_path / "high.json"
    path.write_text(json.dumps({"mode": "affine", "dim": 100000, "hyperplanes": []}))
    code, out, err = run(capsys, "regions", str(path))
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and "dimension" in err


def test_det_exponent_overflow_exit_code(tmp_path, capsys):
    # at n = 4 the full product of the diagonal would carry past a guard bit
    grids = [[["x1^20000", "1"], ["1", "x1^20000"]]]
    for n in (3, 4):
        grids.append([["x1^20000" if i == j else "0" for j in range(n)] for i in range(n)])
    for grid in grids:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"entries": grid}))
        code, out, err = run(capsys, "det", str(path), "--from-json", "--method", "bruteforce")
        assert code == 4, grid
        assert out == ""
        assert err.startswith("error: ") and "exceeds" in err
        assert "Traceback" not in err


def test_det_from_json_with_a_huge_variable_id(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    big = "x1000000000"
    entries = [["1", big, "x2"], [big, "1", f"{big}*x2"], ["x2", f"{big}*x2", "1"]]
    path.write_text(json.dumps({"entries": entries}))
    code, out, err = run(capsys, "det", str(path), "--from-json", "--method", "bruteforce")
    assert code == 0 and err == ""
    assert out == "1 - x2^2 - x1000000000^2 + x2^2*x1000000000^2\n"


def test_det_from_json_rejects_a_space_inside_a_factor(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"entries": [["1", "x1"], ["x1", "1 2"]]}))
    code, out, err = run(capsys, "det", str(path), "--from-json", "--method", "bruteforce")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "'1 2'" in err and "Traceback" not in err


def test_det_from_json_names_a_zero_padded_variable_zero(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"entries": [["x00"]]}))
    code, out, err = run(capsys, "det", str(path), "--from-json", "--method", "bruteforce")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "'x00'" in err and "Traceback" not in err


# literals that Unicode-aware digit tests took as numbers: a trailing
# newline, Arabic-Indic digits in a rational, a variable id and an exponent
NON_ASCII_NUMERALS = [
    (REGIONS, "1\n"),
    (REGIONS, "\u0661"),
    (REGIONS, "1/\u0663"),
    (DET_GRID, "x\u0661"),
    (DET_GRID, "x1^\u0661\u0662"),
]


def test_non_ascii_numerals_exit_2_naming_the_literal(tmp_path, capsys):
    for (subcommand, *flags), literal in NON_ASCII_NUMERALS:
        if subcommand == "regions":
            line = {"name": "S1", "normal": ["1", "0"], "offset": literal}
            document = {"mode": "affine", "dim": 2, "hyperplanes": [line]}
        else:
            document = {"entries": [[literal]]}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, subcommand, str(path), *flags)
        assert (code, out) == (2, ""), literal
        assert err.startswith("error: ") and repr(literal) in err, literal


def test_obstruct_beyond_the_minor_pair_cap(tmp_path, capsys):
    # 61 regions: past the point where the 2x2 minors of V would number
    # more than 10^6; the integer gcd is read off the Smith form and forms
    # no minor
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(lines_document(LINES_61)))
    code, out, _ = run(capsys, "regions", str(path))
    assert code == 0 and len(out.split()) == 61
    code, out, err = run(capsys, "obstruct", str(path), "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["all_consistent"] is True
    by_name = {c["name"]: c["result"] for c in payload["checks"]}
    assert by_name["gcd_minors_all_threes"] == {"gcd": 8}


def test_obstruct_beyond_the_smith_form_cap(tmp_path, capsys):
    # one more generic line: 73 regions, past integer_snf's 64 rows; the
    # Smith forms at x_i = 3, x_j = 0 are read off the region pairs
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(lines_document(LINES_61 + [(7, 5, -13)])))
    code, out, _ = run(capsys, "regions", str(path))
    assert code == 0 and len(out.split()) == 73
    code, out, err = run(capsys, "obstruct", str(path), "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["all_consistent"] is True
    by_name = {c["name"]: c["result"] for c in payload["checks"]}
    assert by_name["gcd_minors_all_threes"] == {"gcd": 8}
    assert by_name["rank_all_ones"] == {"rank": 1}
    multiplicities = by_name["snf_specializations"]["snf_multiplicities"]
    assert list(multiplicities) == [f"S{i + 1}" for i in range(12)]
    for mult in multiplicities.values():
        assert set(mult) == {"1", "8"} and mult["1"] + mult["8"] == 73


def test_output_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    code, stdout, _ = run(capsys, "matrix", fx("single_line"))
    code2, _, _ = run(
        capsys, "matrix", fx("single_line"), "--output", str(out_path)
    )
    assert code == code2 == 0
    assert out_path.read_text() == stdout
