"""The package imports nothing outside the standard library, and nothing
that would slow every command's start-up."""

import ast
import os
import pathlib
import subprocess
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


def test_ingest_does_not_import_the_store(tmp_path):
    # with bytecode writing off, every command compiles what it imports, and
    # the store module is the largest; an ingest never opens the store
    (tmp_path / "biblio.tsv").write_text(
        "doc_id\ttitle\tauthors\tcollection\tpublisher\tdate\tdoi\n"
        "doc-1\tFirst paper\tA. Author\tJ\tPress\t2005\t\n",
        encoding="utf-8",
    )
    check = (
        "import sys\n"
        "from scholargraph.cli import main\n"
        "assert main(['ingest-biblio', '--input', 'biblio.tsv']) == 0\n"
        "print('scholargraph.store' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", check], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["loaded 1 record(s), rejected 0", "False"]
