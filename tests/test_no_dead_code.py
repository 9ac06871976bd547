"""Every definition in the package has a caller in the package.

A function, class or method counts as called when its name appears as a
``Name`` or an ``Attribute`` in ``src/wigreg/*.py`` outside its own
definition.  ``__init__.py`` is left out: its re-exports are not callers.
Dunder names are called by the language.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wigreg"

# qualified name -> why it stays without a caller in the package
ALLOWED = {
    "symbol_compose": "perfbench/tracing.py wraps it by name to count symbol products",
    "wick_energy_compare": "acceptance criterion 7 checks the Wick energy identity through it",
    "_Parser.error": "argparse calls it on a bad command line",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) for every def and class."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child.name, child))
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def _references(node) -> list[str]:
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return names


def uncalled_definitions() -> set[str]:
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    counts: dict[str, int] = {}
    for tree in trees:
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    uncalled = set()
    for tree in trees:
        for qualname, name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if counts.get(name, 0) == _references(node).count(name):
                uncalled.add(qualname)
    return uncalled


def test_every_definition_has_a_caller_in_the_package():
    assert uncalled_definitions() == set(ALLOWED)
