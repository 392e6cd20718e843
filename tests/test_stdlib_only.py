"""The package imports nothing outside the standard library, and nothing
that would slow every command's start-up."""

import ast
import pathlib
import sys

import scholargraph

PACKAGE = pathlib.Path(scholargraph.__file__).parent


def absolute_imports():
    """``(where, top-level module)`` for every absolute import in the package."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            for name in names:
                yield f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}", name.split(".")[0]


def test_the_package_imports_only_the_standard_library():
    foreign = [
        where
        for where, top in absolute_imports()
        if top != "scholargraph" and top not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast and dis, and each decorated
    # class compiles generated code: a start-up cost every command would pay
    assert [where for where, top in absolute_imports() if top == "dataclasses"] == []
