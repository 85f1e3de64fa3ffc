"""Every function, class and module-level name defined in the package is
referenced somewhere in src/, tests/ or perfbench/: loaded as a name, read
as an attribute, imported, or listed in an ``__all__``.  References are
read from the syntax tree, so a name that occurs only in a docstring or a
comment counts as unreferenced."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varchenko"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not _is_dunder(name)}


def _all_strings(node: ast.AST) -> list[str]:
    """The strings listed in an ``__all__ = [...]`` assignment."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return [
            e.value
            for e in ast.walk(node.value)
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        ]
    return []


def referenced_names() -> Counter:
    counts = Counter()
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    counts[node.attr] += 1
                elif isinstance(node, ast.alias):
                    counts[node.name.rsplit(".", 1)[-1]] += 1
                else:
                    counts.update(_all_strings(node))
    return counts


def test_no_definition_is_unreferenced():
    references = referenced_names()
    unreferenced = sorted(name for name in defined_names() if not references[name])
    assert unreferenced == []
