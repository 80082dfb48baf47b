"""The README states each verb's contract and points to the test that pins
it: every tests/<file>.py it names exists, and every tests/<file>.py::<name>
names a class or function in that file."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).parent


def test_readme_test_paths_exist():
    readme = (TESTS.parent / "README.md").read_text()
    paths = re.findall(r"tests/(\w+\.py)((?:::\w+)*)", readme)
    assert paths
    missing = []
    for file, names in paths:
        path = TESTS / file
        if not path.exists():
            missing.append(f"tests/{file}")
            continue
        defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        missing += [f"tests/{file}{names}" for name in names.split("::")[1:] if name not in defined]
    assert missing == []
