"""Code that only tests use lives in tests/: every top-level function
and class of the package is used by the package itself or exported,
and every name a module imports is read there."""

import ast
import pathlib

import curvecount

PACKAGE = pathlib.Path(curvecount.__file__).parent


def _unused(package):
    """The top-level functions and classes of the modules in ``package``,
    as module.name, that no module reads and curvecount.__all__ does not
    list.  A read is a Name id or an Attribute attr outside the
    definition's own body; an import binds a name but reads nothing."""
    definitions, reads = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += [
            (path.stem, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        reads += [
            (path.stem, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        ]
    return [
        f"{module}.{node.name}"
        for module, node in definitions
        if node.name not in curvecount.__all__
        and not any(
            name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, line, name in reads
        )
    ]


# Bound by import and read elsewhere: the package's exports, and the
# alias of genus0.tail_problem in genus1 that bench/selftest.py checks
# the benchmark's span patches reach.
IMPORT_EXEMPT = {f"__init__.{name}" for name in curvecount.__all__} | {"genus1.tail_problem"}


def _unread_imports(package):
    """The names, as module.name, that a module of ``package`` binds by
    an import and never reads as a name, less IMPORT_EXEMPT."""
    unread = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    # import a.b binds a
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in reads and f"{path.stem}.{name}" not in IMPORT_EXEMPT:
                        unread.append(f"{path.stem}.{name}")
    return unread


def test_every_top_level_definition_is_used_or_exported():
    assert _unused(PACKAGE) == []


def test_the_guard_flags_an_orphaned_definition(tmp_path):
    # a helper that no module calls any more is dead, also when it calls
    # itself, and so is one that only an import names
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    genus0 = tmp_path / "genus0.py"
    genus0.write_text(genus0.read_text() + "\n\ndef tail_window(n):\n    return tail_window(n - 1) if n else 0\n")
    cli = tmp_path / "cli.py"
    cli.write_text("from .genus0 import tail_window\n" + cli.read_text())
    assert _unused(tmp_path) == ["genus0.tail_window"]


def test_every_import_is_read():
    assert _unread_imports(PACKAGE) == []


def test_the_guard_flags_an_unread_import(tmp_path):
    # an import left behind when its last reader goes is flagged, under
    # its alias if it has one; the exempt names are not
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    genus1 = tmp_path / "genus1.py"
    genus1.write_text(genus1.read_text() + "\nimport math\nfrom .genus0 import expand_x as markers\n")
    assert _unread_imports(tmp_path) == ["genus1.math", "genus1.markers"]
