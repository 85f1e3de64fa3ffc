"""Malformed input never escapes `cli.main` as an exception.

Documents mutated from the fixtures and from a format-2 certificate (keys
or list items dropped; values replaced by null, a list, an object, a huge
integer or a non-ASCII numeral) run through every subcommand in-process.
Each exit code is in 0-4, and every nonzero exit prints a line starting
`error:` on stderr."""

import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from arrangements import FIXDIR, fixture
from varchenko.cli import main
from varchenko.diagonalize import diagonalize

# small inputs of every mode, so that a mutation that stays valid runs fast
SEEDS = {
    name: json.loads((FIXDIR / f"{name}.json").read_text())
    for name in (
        "three_generic_lines",
        "pencil_four_planes",
        "two_central_circles",
        "suspension_three_generic_lines",
    )
}
CERTIFICATE = json.loads(diagonalize(fixture("three_generic_lines")).to_json())

# (subcommand, options); `verify` also takes the certificate path
SUBCOMMANDS = [
    ("regions", []),
    ("faces", []),
    ("poset", ["--format", "json"]),
    ("charpoly", []),
    ("matrix", []),
    ("det", ["--method", "both"]),
    ("det", ["--method", "bruteforce", "--from-json"]),
    ("check", []),
    ("diagonalize", []),
    ("snf-q", []),
    ("obstruct", ["--format", "json"]),
    ("axioms", []),
    ("verify", []),
]

REPLACEMENTS = st.sampled_from(
    [
        None,
        [],
        ["1", None],
        {},
        {"name": 1},
        True,
        1.5,
        -1,
        10**60,
        "HUGE",  # written as an integer literal past the interpreter's limit
        "1" * 5000,
        "1/0",
        "",
        "0",  # the three valid numbers keep some documents well formed
        "2",
        "-3/2",
        "١٢",  # Arabic-Indic digits one, two
        "５",  # fullwidth five
        "²",  # superscript two
        "½",  # vulgar fraction one half
        "x1^٢",
        "+٠-",
    ]
)


def _paths(doc, prefix=()):
    """The path of every node below the root: dict keys and list indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """`doc` with one to three nodes dropped or replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(REPLACEMENTS)
    return doc


def _text(doc) -> str:
    return json.dumps(doc).replace('"HUGE"', "-" + "9" * 5000)


@st.composite
def cases(draw):
    """(arrangement JSON, certificate JSON), one of them mutated."""
    if draw(st.booleans()):
        return _text(draw(mutated(draw(st.sampled_from(list(SEEDS.values())))))), _text(CERTIFICATE)
    return _text(SEEDS["three_generic_lines"]), _text(draw(mutated(CERTIFICATE)))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60)
@given(cases())
def test_malformed_input_exits_with_a_code_and_an_error_line(workdir, case):
    arrangement, certificate = case
    input_path, cert_path = workdir / "input.json", workdir / "cert.json"
    input_path.write_text(arrangement)
    cert_path.write_text(certificate)
    for sub, options in SUBCOMMANDS:
        argv = [sub, str(input_path)] + ([str(cert_path)] if sub == "verify" else []) + options
        code, err = _run(argv)
        assert code in range(5), argv
        if code:
            assert any(line.startswith("error:") for line in err.splitlines()), (argv, err)
