"""Every function and class defined in the package is referenced somewhere:
its name occurs as a whole word in src/, tests/ or perfbench/ more often
than it is defined."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varchenko"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def defined_names() -> Counter:
    names = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names[node.name] += 1
    return names


def word_counts() -> Counter:
    counts = Counter()
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            counts.update(re.findall(r"\w+", path.read_text()))
    return counts


def test_no_definition_is_unreferenced():
    words = word_counts()
    unreferenced = sorted(
        name for name, defs in defined_names().items() if words[name] <= defs
    )
    assert unreferenced == []
