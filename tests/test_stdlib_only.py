"""The package imports nothing outside the standard library."""

import ast
import pathlib
import sys

import scholargraph

PACKAGE = pathlib.Path(scholargraph.__file__).parent


def test_the_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    foreign = []
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
                top = name.split(".")[0]
                if top != "scholargraph" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert foreign == []
