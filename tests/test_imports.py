"""The runtime imports nothing outside the standard library."""

import ast
import pathlib
import sys

import qbic

SRC = pathlib.Path(qbic.__file__).parent


def test_absolute_imports_are_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, name)
