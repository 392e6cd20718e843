"""The package imports nothing outside the standard library, and nothing
that would slow every command's start-up."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import scholargraph
from scholargraph.ontology import HAS_GROUP, HAS_UNIT, JOURNAL, PART_OF
from scholargraph.store import Store
from scholargraph.terms import RDF_TYPE, Iri, Triple

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
        [sys.executable, "-c", check], cwd=tmp_path, env=env, capture_output=True, encoding="utf-8", timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["loaded 1 record(s), rejected 0", "False"]


# Runs one command through main() and prints, as its last line on stderr,
# every module that the process imported.
COMMAND_MODULES = """
import sys
from scholargraph.cli import main
code = main(sys.argv[1:])
sys.stderr.write("\\n" + " ".join(sorted(sys.modules)) + "\\n")
sys.exit(code)
"""


def test_each_command_imports_only_what_it_uses(tmp_path):
    # each command runs in a fresh interpreter with bytecode writing off, so
    # it compiles, and pays for, every module it imports
    inputs = {
        "biblio": "doc_id\ttitle\tauthors\tcollection\tpublisher\tdate\tdoi\n"
        "doc-1\tFirst paper\tA. Author|B. Author\tJ\tPress\t2005\t\n"
        "doc-2\tSecond paper\tB. Author\tJ\tPress\t2005\t\n"
        "doc-3\tCiting paper\tC. Author\tOther J\tPress\t2007\t\n",
        "usage": "event_id\ttime\tagent\tsession\tdoc_id\n"
        "ev-1\t2007-03-04 10:00:00\treader-1\ts1\tdoc-1\n"
        "ev-2\t2007-05-06 11:00:00\treader-2\ts2\tdoc-2\n",
        "citations": "citing_doc_id\tcited_doc_id\ndoc-3\tdoc-1\n",
    }
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")

    def modules_loaded_by(*argv):
        done = subprocess.run(
            [sys.executable, "-c", COMMAND_MODULES, *argv],
            cwd=tmp_path, env=env, capture_output=True, encoding="utf-8", timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return set(done.stderr.splitlines()[-1].split())

    loaded = {}
    for table, text in inputs.items():
        (tmp_path / f"{table}.tsv").write_text(text, encoding="utf-8")
        loaded[f"ingest-{table}"] = modules_loaded_by(f"ingest-{table}", "--input", f"{table}.tsv")
    loaded["map"] = modules_loaded_by("map")
    (tmp_path / "q.q").write_text(
        "SELECT ?u WHERE (?p rdf:type mesur:Publishes) (?p mesur:hasUnit ?u) .", encoding="utf-8"
    )
    store = Store.load(str(tmp_path / "scholargraph.store"))
    unit = Iri("urn:mesur:doc:doc-1")
    # the journal that doc-1 is published in
    (root,) = (
        root
        for root in store.subjects(RDF_TYPE, JOURNAL)
        for edition in store.subjects(PART_OF, root)
        for ctx in store.subjects(HAS_GROUP, edition)
        if Triple(ctx, HAS_UNIT, unit) in store
    )
    commands = {
        "stats": ("stats",),
        "export": ("export", "--output", "out.nt"),
        "query": ("query", "--file", "q.q"),
        "validate": ("validate",),
        "metric": ("metric", "if", "--object", root.value, "--year", "2007"),
        "retract metric": ("retract", "--rule", "metric"),
        "infer": ("infer", "--rule", "authored_by"),
        "retract all": ("retract", "--all"),
        "catalog": ("catalog",),
    }
    loaded.update((name, modules_loaded_by(*argv)) for name, argv in commands.items())
    # no command pays for the dataclass machinery; a site hook may import
    # modules of its own, so what a bare interpreter loads is allowed
    bare = set(
        subprocess.run(
            [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
            env=env, capture_output=True, encoding="utf-8", timeout=120,
        ).stdout.split()
    )
    for name, modules in loaded.items():
        assert not modules & ({"dataclasses", "inspect"} - bare), name
    heavy = {
        f"scholargraph.{name}"
        for name in ("queryl", "inference", "metrics", "contexts", "sidecar", "mapping", "ontology", "validation")
    }
    for name in ("stats", "export"):
        assert not loaded[name] & heavy, name
    for name in ("stats", "map", "ingest-biblio", "ingest-usage", "ingest-citations"):
        assert not loaded[name] & ({"scholargraph.ntriples", "decimal"} - bare), name
    # an ingest fills the sidecar only: no store, no vocabulary, no projection
    for table in inputs:
        unused = {"scholargraph.store", "scholargraph.ontology", "scholargraph.mapping"} | ({"urllib.parse"} - bare)
        assert not loaded[f"ingest-{table}"] & unused, table
    assert "scholargraph.mapping" in loaded["map"]
    # the command line imports the handler module of the command that runs, and no other
    handlers = {
        "ingest-biblio": "ingest", "ingest-usage": "ingest", "ingest-citations": "ingest", "map": "map",
        "stats": "stats", "export": "export", "query": "query", "validate": "validate", "metric": "metric",
        "retract metric": "rules", "infer": "rules", "retract all": "rules", "catalog": "catalog",
    }
    for name, modules in loaded.items():
        own = {module for module in modules if module.startswith("scholargraph.commands.")}
        assert own == {f"scholargraph.commands.{handlers[name]}"}, name
    assert "scholargraph.queryl" in loaded["query"]
    assert not loaded["query"] & {"scholargraph.inference", "scholargraph.metrics", "scholargraph.sidecar", "scholargraph.validation"}
    assert {"scholargraph.ontology", "scholargraph.validation"} <= loaded["validate"]
    assert not loaded["validate"] & {"scholargraph.sidecar", "sqlite3"}
    # the rules' query scripts are parsed, and the dialect imported, only to run a rule
    for name in ("retract metric", "retract all"):
        assert "scholargraph.inference" in loaded[name] and "scholargraph.queryl" not in loaded[name], name
    # a metric reads and writes through the context scan, with no rule engine
    assert "scholargraph.contexts" in loaded["metric"]
    assert not loaded["metric"] & {"scholargraph.inference", "scholargraph.queryl"}
    assert "scholargraph.queryl" in loaded["infer"]
    # the store's write half is compiled only by a command that writes
    for name in ("stats", "validate", "query"):
        assert "scholargraph.store_write" not in loaded[name], name
    for name in ("map", "metric", "infer"):
        assert "scholargraph.store_write" in loaded[name], name
    # minting an IRI hashes with CPython's own SHA-1, so no command loads
    # OpenSSL, which hashlib's import brings in
    if importlib.util.find_spec("_sha1") is not None:
        assert [name for name, modules in loaded.items() if modules & ({"_hashlib", "hashlib"} - bare)] == []
