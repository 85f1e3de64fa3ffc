"""Every function, class and module-level name defined in the package is
referenced somewhere in src/, tests/ or perfbench/: loaded as a name, read
as an attribute, imported, or listed in an ``__all__``.  Every method of a
package class is referred to by name in src/ or perfbench/, not only by
the tests.  Every module-level function, class and non-dunder assignment
is also reachable, matching by name, from the command line (``cli.main``)
or the public API (``varchenko.__all__``), with no module exempt, so
nothing is left in src/ for the tests alone; every public name is reached
from the command line or imported by the benchmark; no module in src/
imports from tests/, and none defines or refers to a Fourier-Motzkin
routine.
References are read from the syntax tree, so a name that occurs only in a
docstring or a comment counts as unreferenced."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "varchenko"
TESTS = ROOT / "tests"
SEARCHED = [ROOT / "src", TESTS, ROOT / "perfbench"]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _package_modules() -> list[tuple[str, ast.Module]]:
    return [(path.stem, _parse(path)) for path in sorted(PACKAGE.glob("*.py"))]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _assigned_names(node: ast.stmt) -> list[str]:
    """The plain names a module-level assignment binds."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def defined_names() -> set[str]:
    names = set()
    for _, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                names.add(node.name)
        for node in tree.body:
            names.update(_assigned_names(node))
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


def references(tree: ast.AST) -> Counter:
    """The names `tree` refers to, with their counts."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.rsplit(".", 1)[-1]] += 1
        else:
            counts.update(_all_strings(node))
    return counts


def referenced_names() -> Counter:
    counts = Counter()
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            counts.update(references(_parse(path)))
    return counts


def test_no_definition_is_unreferenced():
    counts = referenced_names()
    unreferenced = sorted(name for name in defined_names() if not counts[name])
    assert unreferenced == []


def package_methods() -> list[tuple[str, str, str]]:
    """``(module, class, method)`` of each non-dunder method of a package
    class."""
    methods = []
    for module, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods += [
                    (module, node.name, item.name)
                    for item in node.body
                    if isinstance(item, DEFINITIONS[:2]) and not _is_dunder(item.name)
                ]
    return methods


def test_no_method_is_referenced_by_the_tests_alone():
    """A method that src/ and perfbench/ never refer to by name is kept
    only for the tests; it belongs in tests/reference.py as a function."""
    counts = Counter()
    for top in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            counts.update(references(_parse(path)))
    unused = sorted(
        f"{module}.{cls}.{name}" for module, cls, name in package_methods() if not counts[name]
    )
    assert unused == []


def _module_level() -> tuple[dict[tuple[str, str], ast.stmt], set[tuple[str, str]], list[str]]:
    """The statement of each module-level function, class and assignment,
    keyed by ``(module, name)``; the keys of the non-dunder ones, which the
    reachability test checks; and the names in ``varchenko.__all__``."""
    statements: dict[tuple[str, str], ast.stmt] = {}
    checked = set()
    public = []
    for module, tree in _package_modules():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                names = [node.name]
            else:
                names = _assigned_names(node)
            for name in names:
                statements[module, name] = node
            checked.update((module, name) for name in names if not _is_dunder(name))
            if module == "__init__":
                public += _all_strings(node)
    return statements, checked, public


def reached_from(
    statements: dict[tuple[str, str], ast.stmt], roots: set[tuple[str, str]]
) -> set[tuple[str, str]]:
    """The keys that some chain of references leads to from `roots`.

    A module-level function, class or assignment refers to every name in
    its statement; a name reaches every module-level definition of that
    name, in any module.
    """
    by_name: dict[str, list[tuple[str, str]]] = {}
    for key in statements:
        by_name.setdefault(key[1], []).append(key)
    reached = set(roots)
    frontier = list(reached)
    while frontier:
        for name in references(statements[frontier.pop()]):
            for key in by_name.get(name, []):
                if key not in reached:
                    reached.add(key)
                    frontier.append(key)
    return reached


def unreachable_definitions() -> list[str]:
    """``module.name`` of each module-level function, class and non-dunder
    assignment that no chain of references leads to from the roots: the
    command line (``cli.main``) and the public API."""
    statements, checked, public = _module_level()
    roots = {key for key in statements if key[1] in public}
    roots.add(("cli", "main"))
    reached = reached_from(statements, roots)
    return sorted(f"{module}.{name}" for module, name in checked - reached)


def test_every_definition_is_reachable_from_the_cli_or_the_public_api():
    assert unreachable_definitions() == []


def benchmark_imports() -> set[str]:
    """The names that a module of perfbench/ imports from the package."""
    names = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.ImportFrom)
                and not node.level
                and node.module.split(".")[0] == "varchenko"
            ):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_reached_from_the_cli_or_imported_by_the_benchmark():
    """`varchenko.__all__` holds what the command line reaches and what
    the benchmark imports, and nothing only the tests call (those are in
    tests/reference.py)."""
    statements, _, public = _module_level()
    reached = {name for _, name in reached_from(statements, {("cli", "main")})}
    extra = sorted(set(public) - reached - benchmark_imports())
    assert extra == []


def test_no_package_module_imports_from_the_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    offending = []
    for module, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported = [node.module]
            else:
                continue
            offending += [
                f"{module} imports {name}"
                for name in imported
                if name.split(".")[0] in test_modules
            ]
    assert offending == []


# the Fourier-Motzkin elimination and its helper (tests/reference.py), and
# an integer point search built on them
LP_ROUTINES = {"_fourier_motzkin", "integer_strict_point", "_inside"}


def test_no_package_module_defines_or_imports_an_lp_routine():
    """Face enumeration reads each cut off the regions of a smaller flat,
    so no LP is left on any runtime path."""
    found = []
    for module, tree in _package_modules():
        defined = {node.name for node in ast.walk(tree) if isinstance(node, DEFINITIONS)}
        found += [f"{module} defines {name}" for name in sorted(defined & LP_ROUTINES)]
        used = set(references(tree)) & LP_ROUTINES
        found += [f"{module} refers to {name}" for name in sorted(used)]
    assert found == []
