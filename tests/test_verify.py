"""`varchenko verify`: it re-proves every certificate `diagonalize` writes,
exits 1 naming the step and the condition on a tampered one, 2 on a
malformed file and 3 on an arrangement that is not semigeneral, and runs
no ordering search and no `diagonalize`."""

import ast
import importlib
import inspect
import json

from arrangements import FIXDIR, fixture, random_generic_lines
from test_cli import fx, run
from varchenko import cli

diagonalize_module = importlib.import_module("varchenko.diagonalize")
certificate_module = importlib.import_module("varchenko.certificate")

# the fixtures `diagonalize` accepts: all but the three that are not
# semigeneral and the covector-mode suspension, whose family keeps out the
# zero vector, so its poset holds no flat for the origin and no ordering
# exists
DIAGONALIZABLE = [
    path.stem
    for path in sorted(FIXDIR.glob("*.json"))
    if path.stem
    not in {
        "pencil_four_planes",
        "three_concurrent_central",
        "three_concurrent_lines",
        "suspension_three_generic_lines",
    }
]


def write_certificate(tmp_path, capsys, arrangement_path):
    """Run `diagonalize --certificate` and return the certificate's path
    and its JSON."""
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "diagonalize", arrangement_path, "--certificate", str(cert_path))
    assert code == 0
    return cert_path, json.loads(cert_path.read_text())


def verify(tmp_path, capsys, arrangement_path, data):
    """Write `data` (JSON, or text as it is) and run `verify` on it."""
    path = tmp_path / "tampered.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return run(capsys, "verify", arrangement_path, str(path))


def test_round_trip_on_every_semigeneral_fixture(tmp_path, capsys):
    assert len(DIAGONALIZABLE) == 11
    for name in DIAGONALIZABLE:
        cert_path, data = write_certificate(tmp_path, capsys, fx(name))
        code, out, err = run(capsys, "verify", fx(name), str(cert_path))
        assert (code, err) == (0, ""), name
        r = len(data["ordering"])
        checks = data["checks"]
        assert out == (
            f"verified: {r} steps\n"
            f"checks: pvq_equals_d=True det_p={checks['det_p']} det_q={checks['det_q']}\n"
        )


def test_round_trip_on_twelve_generic_lines(tmp_path, capsys):
    path = tmp_path / "lines.json"
    path.write_text(random_generic_lines(12, 1005).to_json())
    cert_path, data = write_certificate(tmp_path, capsys, str(path))
    assert len(data["ordering"]) == 79
    code, out, _ = run(capsys, "verify", str(path), str(cert_path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"verified": True, "steps": 79, "checks": data["checks"]}


def tampered(data, edit):
    data = json.loads(json.dumps(data))
    edit(data)
    return data


def flip_first_sign(face):
    k = next(i for i, c in enumerate(face) if c != "0")
    return face[:k] + {"+": "-", "-": "+"}[face[k]] + face[k + 1 :]


def swap(values, i, j):
    values[i], values[j] = values[j], values[i]


def test_tampered_certificates_exit_1_naming_the_step(tmp_path, capsys):
    name = fx("five_generic_lines")
    _, good = write_certificate(tmp_path, capsys, name)
    steps = good["steps"]
    other_flat = steps[6]["flat"]
    det = good["checks"]["det_p"]
    cases = [
        (
            lambda d: d["steps"][5].update(face=flip_first_sign(steps[5]["face"])),
            "step 5: ",
        ),
        (
            lambda d: d["steps"][5].update(flat=other_flat),
            f"step 5: its face lies on flat {steps[5]['flat']}, not on the step flat "
            f"{other_flat}",
        ),
        (
            lambda d: d["steps"][5].update(entry=steps[6]["entry"]),
            f"step 5: its entry {steps[6]['entry']} is not {steps[5]['entry']}",
        ),
        (
            lambda d: d["checks"].update(det_p=str(-int(det))),
            f"checks: det_p is '{-int(det)}', but the proof gives '{det}'",
        ),
        (lambda d: d["checks"].update(pvq_equals_d=False), "checks: pvq_equals_d is False"),
        (lambda d: swap(d["ordering"], 4, 5), "step 4: "),
    ]
    for edit, message in cases:
        code, out, err = verify(tmp_path, capsys, name, tampered(good, edit))
        assert (code, out) == (1, ""), message
        assert err.startswith("error: ") and message in err, err


def test_a_sign_string_that_is_no_face_exits_1(tmp_path, capsys):
    name = fx("three_parallel_lines")
    _, good = write_certificate(tmp_path, capsys, name)
    # the three lines are parallel: no point lies on two of them
    code, _, err = verify(
        tmp_path, capsys, name, tampered(good, lambda d: d["steps"][2].update(face="00+"))
    )
    assert code == 1
    assert "step 2: its face 00+ is not a face of the arrangement" in err


def test_malformed_certificates_exit_2(tmp_path, capsys):
    name = fx("five_generic_lines")
    arr = fixture("five_generic_lines")
    r, nflats = len(arr.regions()), len(arr.poset())
    _, good = write_certificate(tmp_path, capsys, name)
    dense = {key: value for key, value in good.items() if key != "format"}
    dense["P"] = dense["Q"] = [["0"] * r for _ in range(r)]
    cases = [
        ("{", "bad certificate JSON"),
        ("[]", "certificate must be a JSON object"),
        (dense, 'certificate has no "format" key'),
        ({**dense, "format": 1}, "certificate format 1 is not supported"),
        (tampered(good, lambda d: d.update(format="2")), "certificate format '2'"),
        (tampered(good, lambda d: d.update(P=[])), "unknown ['P']"),
        (tampered(good, lambda d: d.pop("checks")), "missing ['checks']"),
        (
            tampered(good, lambda d: d["ordering"].__setitem__(0, r)),
            f"ordering region id must be an integer in 0..{r - 1}, got {r}",
        ),
        (
            tampered(good, lambda d: d["ordering"].__setitem__(0, True)),
            "ordering region id must be an integer",
        ),
        (
            tampered(good, lambda d: d["steps"][3].update(flat=nflats)),
            f"step 3 flat id must be an integer in 0..{nflats - 1}, got {nflats}",
        ),
        (
            # the file is checked whole before any face is looked up, so a
            # sign string that is no face (no three lines meet) exits 2 too
            tampered(
                tampered(good, lambda d: d["steps"][2].update(face="00000")),
                lambda d: d["steps"][-1].update(flat=nflats),
            ),
            f"step {r - 1} flat id must be an integer in 0..{nflats - 1}, got {nflats}",
        ),
        (
            tampered(good, lambda d: d["ordering"].__setitem__(1, d["ordering"][0])),
            f"ordering lists region {good['ordering'][0]} twice",
        ),
        (
            tampered(good, lambda d: d["steps"][3].update(face=d["steps"][3]["face"] + "+")),
            "step 3 face",
        ),
        (tampered(good, lambda d: d["steps"][3].update(face="+x+-+")), "bad sign character"),
        (tampered(good, lambda d: d["steps"].pop()), f"steps must be a list of {r} entries"),
        (tampered(good, lambda d: d["ordering"].pop()), f"ordering must be a list of {r}"),
        (tampered(good, lambda d: d["steps"][3].update(k=4)), "step 3 has k = 4"),
        (tampered(good, lambda d: d["steps"][3].update(entry=1)), "step 3 entry must be a string"),
        (tampered(good, lambda d: d["checks"].pop("det_q")), "missing ['det_q']"),
    ]
    for data, message in cases:
        code, out, err = verify(tmp_path, capsys, name, data)
        assert (code, out) == (2, ""), message
        assert message in err, err
    code, _, err = run(capsys, "verify", name, str(tmp_path / "missing.json"))
    assert code == 2 and "certificate file not found" in err


def test_a_face_of_the_wrong_length_names_both_lengths(tmp_path, capsys):
    name = fx("three_generic_lines")
    _, good = write_certificate(tmp_path, capsys, name)
    code, _, err = verify(
        tmp_path, capsys, name, tampered(good, lambda d: d["steps"][1].update(face="++"))
    )
    assert code == 2
    assert "step 1 face '++' has 2 signs, not 3" in err


def test_an_arrangement_that_is_not_semigeneral_exits_3(tmp_path, capsys):
    cert_path, _ = write_certificate(tmp_path, capsys, fx("three_generic_lines"))
    code, _, err = run(capsys, "verify", fx("three_concurrent_lines"), str(cert_path))
    assert code == 3
    assert "not semigeneral" in err


def test_verify_runs_no_ordering_search_and_no_diagonalize(tmp_path, capsys, monkeypatch):
    cert_path, _ = write_certificate(tmp_path, capsys, fx("five_generic_lines"))

    def refuse(*args, **kwargs):
        raise AssertionError("ordering search or diagonalize on the verify path")

    for module, attr in (
        (diagonalize_module, "ordering"),
        (diagonalize_module, "diagonalize"),
        (cli, "diagonalize"),
    ):
        monkeypatch.setattr(module, attr, refuse)
    code, out, _ = run(capsys, "verify", fx("five_generic_lines"), str(cert_path))
    assert code == 0 and out.startswith("verified: 16 steps")
    # and the checker module does not import the search at all
    tree = ast.parse(inspect.getsource(certificate_module))
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert imported == {
        "__future__", "dataclasses", "functools", "typing",
        "errors", "geometry", "polyring", "signedsets",
    }


def test_diagonalize_text_output_is_unchanged_by_the_certificate(tmp_path, capsys):
    """The text report reads the same certificate the file holds."""
    cert_path, data = write_certificate(tmp_path, capsys, fx("three_generic_lines"))
    code, out, _ = run(capsys, "diagonalize", fx("three_generic_lines"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ordering: " + " ".join(map(str, data["ordering"]))
    assert lines[1:-1] == [
        f"step {s['k']}: flat {s['flat']}  {s['entry']}" for s in data["steps"]
    ]
    code, out, _ = run(capsys, "diagonalize", fx("three_generic_lines"), "--format", "json")
    assert json.loads(out) == data
