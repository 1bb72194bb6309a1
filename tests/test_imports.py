"""The package's import graph: every module imports its siblings at the top."""

import ast
from pathlib import Path

import motzkin_autocount

PACKAGE = Path(motzkin_autocount.__file__).parent


def test_no_function_imports_a_module():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found.update(f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not found, sorted(found)
