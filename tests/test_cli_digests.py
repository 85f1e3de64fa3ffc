"""The CLI's output on the shipped fixtures, pinned byte for byte.

Every arrangement subcommand runs in-process on each fixture in both
formats, and the sha256 of its exit code, stdout and stderr is compared
with `cli_digests.json`.  A refactor that means to keep the output must
leave every digest unchanged.  A change that means to alter some output
regenerates the table, and its diff names the calls that changed:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from varchenko.cli import main

TESTS = Path(__file__).resolve().parent
FIXDIR = TESTS.parent / "fixtures"
TABLE = TESTS / "cli_digests.json"
# the subcommands that read one arrangement file and nothing else
SUBCOMMANDS = (
    "regions", "faces", "poset", "charpoly", "matrix",
    "det", "check", "diagonalize", "snf-q", "obstruct",
)
FORMATS = ("text", "json")


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {
        f"{sub} {path.stem} {fmt}": digest([sub, str(path), "--format", fmt])
        for path in sorted(FIXDIR.glob("*.json"))
        for sub in SUBCOMMANDS
        for fmt in FORMATS
    }


def test_cli_output_on_the_fixtures_is_unchanged():
    expected = json.loads(TABLE.read_text())
    actual = digests()
    assert len(actual) == 300
    changed = sorted(
        k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k)
    )
    assert not changed, f"{len(changed)} CLI outputs changed: {', '.join(changed)}"


if __name__ == "__main__":
    TABLE.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
