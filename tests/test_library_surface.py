"""Every public name the library defines has a caller in the library: what
only tests call belongs in tests/helpers.py, not in src/syncopt."""

import ast
from pathlib import Path

from syncopt import cli

SRC = Path(cli.__file__).parent
# the console script, and the verbs `main` looks up by name
ENTRY_POINTS = {"main", *(f"cmd_{verb}" for verb in cli.VERBS)}


def _public_definitions(tree):
    """(qualified name, name) of each public module-level function or class
    and each public method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_name_has_a_library_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
    unused = [f"{module}.{qualified}" for module, tree in trees.items()
              for qualified, name in _public_definitions(tree)
              if name not in used and name not in ENTRY_POINTS]
    assert unused == []
