"""The README's library example runs from the repository root and prints
what its comments say."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The python block of the README's `## Library` section."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_prints_what_its_comments_say(monkeypatch, capsys):
    code = library_example()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(prints)
    for line, out in zip(prints, printed):
        if "#" in line:
            assert out == line.split("#", 1)[1].strip(), line
