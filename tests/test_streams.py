"""Only cli.main writes to the standard streams: every other function
returns what it has to say, so a report never mixes with other output."""

import ast
import pathlib

import qbic

SRC = pathlib.Path(qbic.__file__).parent


def _is_stream(node):
    return (isinstance(node, ast.Attribute)
            and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def _stream_uses(tree):
    """(enclosing function name or None, line, whether it is a flush) for
    each reference to print, sys.stdout or sys.stderr in tree."""
    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "flush"
                    and _is_stream(child.value)):
                yield fn, child.lineno, True
                continue
            if (isinstance(child, ast.Name) and child.id == "print"
                    or _is_stream(child)):
                yield fn, child.lineno, False
            yield from walk(child, fn)
    return walk(tree, None)


def test_only_cli_main_writes_to_the_streams():
    seen = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, line, flush in _stream_uses(tree):
            seen.add((path.stem, fn))
            # the process entry point flushes what main wrote, and only that
            assert ((path.stem, fn) == ("cli", "main")
                    or flush and (path.stem, fn) == ("cli", "run")), (
                path.name, fn, line)
    assert ("cli", "main") in seen
