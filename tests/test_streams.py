"""Only cli.main writes to the standard streams: every other function
returns what it has to say, so a report never mixes with other output."""

import ast
import pathlib

import qbic

SRC = pathlib.Path(qbic.__file__).parent


def _stream_uses(tree):
    """(enclosing function name or None, line) for each reference to
    print, sys.stdout or sys.stderr in tree."""
    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "print") or (
                    isinstance(child, ast.Attribute)
                    and child.attr in ("stdout", "stderr")
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "sys"):
                yield fn, child.lineno
            yield from walk(child, fn)
    return walk(tree, None)


def test_only_cli_main_writes_to_the_streams():
    seen = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, line in _stream_uses(tree):
            seen.add((path.stem, fn))
            assert (path.stem, fn) == ("cli", "main"), (path.name, fn, line)
    assert ("cli", "main") in seen
