"""The runtime imports nothing outside the standard library."""

import ast
import collections
import pathlib
import sys

import qbic

SRC = pathlib.Path(qbic.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _absolute_imports():
    """(file name, dotted name) for each absolute import in the package;
    `from m import x` gives m.x."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from ((path.name, f"{node.module}.{alias.name}")
                            for alias in node.names)


def test_absolute_imports_are_standard_library():
    imports = list(_absolute_imports())
    assert imports
    for file, name in imports:
        assert name.split(".")[0] in sys.stdlib_module_names, (file, name)


# cli.run ends the process by os._exit, so the shutdown these modules hook
# into (atexit handlers, joining threads and worker processes) never runs;
# importing one needs a decision about how the process ends
SHUTDOWN_HOOKS = ("atexit", "threading", "multiprocessing",
                  "concurrent.futures")


def test_no_module_needs_interpreter_shutdown():
    found = [(file, name) for file, name in _absolute_imports()
             if any(name == hook or name.startswith(hook + ".")
                    for hook in SHUTDOWN_HOOKS)]
    assert not found, found


# a function-level import is kept only where it breaks an import cycle:
# (module, function, imported module)
CYCLE_BREAKERS = {("fields", "embed", "linalg")}


def test_relative_imports_are_at_module_top():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level:
                    found.add((path.stem, fn.name, node.module))
    assert found <= CYCLE_BREAKERS, found - CYCLE_BREAKERS


def test_imported_names_are_read():
    # a name imported but never read is left over from a deleted caller
    for path in sorted([*SRC.rglob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0]
                             for alias in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {alias.asname or alias.name
                             for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        assert imported <= read, (path.name, imported - read)


def test_no_assert_statements():
    # python -O strips assert, so no check in the library may rest on one
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def _defs(tree):
    """The top-level functions and the non-dunder methods of top-level
    classes of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (fn for fn in node.body
                        if isinstance(fn, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__")))


def _names(node):
    """Every name read or written under node, as an ast.Name or an
    ast.Attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_function_is_read():
    # a function nothing names is dead code: its callers were deleted
    paths = [*SRC.rglob("*.py"), *TESTS.glob("*.py"),
             *(TESTS.parent / "qbicbench").rglob("*.py")]
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in paths}
    named = collections.Counter()
    for tree in trees.values():
        named.update(_names(tree))
    unread = [f"{path.stem}.{fn.name}" for path in sorted(SRC.rglob("*.py"))
              for fn in _defs(trees[path])
              # a name met only inside its own body is a recursion
              if named[fn.name] == list(_names(fn)).count(fn.name)]
    assert not unread, unread
