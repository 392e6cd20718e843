"""Check that two source trees write the same snapshots and print the same
output through one fixed command sequence.

Usage: python3 tools/snapshot_identity.py BASE_TREE CHANGED_TREE

Both trees run the same ``scholargraph`` commands, each in its own work
directory, on inputs that ``perfbench/gen.py`` (read from CHANGED_TREE)
generates for seed 1 and 400 documents: first ``--help``, ``infer
--help``, ``catalog`` and a usage error (``metric if`` with neither
``--object`` nor ``--year``, which exits 2), so the command line's own
help and usage texts are compared too, then the ingests, three usage
batches each followed by ``map`` and ``map --affiliations``, the biblio
file, the first usage batch and the citations file ingested again (so every row of
those three steps is rejected as a duplicate), then ``validate``,
``stats``, ``infer --all``, ``query``, ``metric if`` and ``metric uif``,
``stats``, ``retract --rule used_by``, ``stats``, ``infer --rule
used_by``, ``stats``, ``retract --all``, ``map``, ``query`` and
``export``, and last the paper's Impact Factor script
(``tests/data/impact_factor.q``, retargeted by ``gen.uif_script`` at the
largest journal and 2006, so its INSERT's integer ``hasStartTime 2006``
goes through the datetime coercion), ``validate`` (which exits 1 on that
script's misspelt ``hasNumbericValue`` and its stray literal), ``metric
if`` twice (the second an upsert that changes nothing), and then one
``query --file`` for each malformed script of ``BAD_SCRIPTS`` and for
``tests/data/group_citation.q`` as shipped, with its colon typo: each of
these must exit 1 and print the same positioned parse error.  The two journal
``query`` steps each join an object-bound, predicate-free pattern
(what links to the largest journal) with a predicate-bound one (the
contexts of those groups), so each reads POS runs first built after
writes into a loaded store.  After every command the exit status, stdout
and stderr must agree (``export``'s stdout is the whole N-Triples dump,
each ``query`` prints its rows, each ``stats`` prints the ledger's row
count per rule, and an ingest's stderr has one ``line N: rejected:
REASON`` line per rejected row), and so must the snapshot's SHA-1 when the
snapshot format version (``_VERSION`` in ``store.py``) is the same in both
trees; when it differs, the snapshots cannot agree, only exit status,
stdout and stderr are compared (so the ``stats`` steps are what compares
the ledgers), and each step prints both trees' snapshot sizes, so the log
shows the format change's effect.  The first command where they differ is
reported and the script exits 1.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile

CLI = "import sys; from scholargraph.cli import main; sys.exit(main())"
SIZES = dict(docs=400, events=8000, citations=1600, journals=10, batches=3)


def snapshot_version(tree: str) -> str:
    with open(os.path.join(tree, "src", "scholargraph", "store.py"), encoding="utf-8") as fp:
        found = re.search(r"^_VERSION = (.+)$", fp.read(), re.M)
    return found.group(1) if found else ""


def sha1_of(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fp:
        return hashlib.sha1(fp.read()).hexdigest()


def size_of(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# what links to a journal, and the contexts of each such group
QUERY = """SELECT ?g ?p ?x
WHERE ( ?g ?p {journal} )
      ( ?x mesur:hasGroup ?g ) .
"""


# scripts the parser refuses, one per kind of error: each lexer error, an
# escape out of range, an end of input inside an aggregate and inside a
# pattern, and the static checks
BAD_SCRIPTS = {
    "unterminated.q": 'SELECT ?x WHERE ( ?x mesur:hasValue "oops ) .\n',
    "lone_question_mark.q": "SELECT ? WHERE ( ?x rdf:type mesur:Article ) .\n",
    "placeholder.q": "SELECT ?x WHERE ( ?x rdf:type mesur:Article )\nINSERT < _a mesur:hasDocument ?x > .\n",
    "unknown_escape.q": 'SELECT ?x WHERE ( ?x mesur:hasValue "a\\qb" ) .\n',
    "short_escape.q": 'SELECT ?x WHERE ( ?x mesur:hasValue "\\u12" ) .\n',
    "escape_out_of_range.q": 'SELECT ?x WHERE ( ?x mesur:hasValue "\\U00110000" ) .\n',
    "semicolon.q": "SELECT ?x WHERE ( ?x rdf:type mesur:Article ) ; .\n",
    "empty_iri.q": "SELECT ?x WHERE ( ?x rdf:type <> ) .\n",
    "cut_in_ratio.q": "SELECT ?x WHERE ( ?x rdf:type mesur:Article )\nINSERT < _1 mesur:hasNumericValue (COUNT(?x) /",
    "cut_in_pattern.q": "SELECT ?x WHERE ( ?x rdf:type",
    "duplicate_projection.q": "SELECT ?x ?x WHERE ( ?x rdf:type mesur:Article ) .\n",
    "mixed_template.q": (
        "SELECT ?a WHERE ( ?a rdf:type mesur:Article )\n"
        "SELECT ?j WHERE ( ?j rdf:type mesur:Journal )\n"
        "INSERT < ?a mesur:partOf ?j > .\n"
    ),
}


def commands(inputs: str, files: dict[str, list[str]], journal: str, bad_scripts: list[str]) -> list[list[str]]:
    """The command sequence; the scripts it names are ``main``'s to write."""

    def source(name: str) -> str:
        return os.path.join(inputs, name)

    query = ["query", "--file", source("journal.q")]

    # the command line's own output first: help, a listing, a usage error
    sequence = [["--help"], ["infer", "--help"], ["catalog"], ["metric", "if"]]
    sequence += [
        ["ingest-biblio", "--input", source(files["biblio"][0])],
        ["ingest-citations", "--input", source(files["citations"][0])],
    ]
    for name in files["usage"]:
        sequence += [["ingest-usage", "--input", source(name)], ["map"], ["map", "--affiliations"]]
    sequence += [
        ["ingest-biblio", "--input", source(files["biblio"][0])],
        ["ingest-usage", "--input", source(files["usage"][0])],
        ["ingest-citations", "--input", source(files["citations"][0])],
    ]
    sequence += [["validate"], ["stats"], ["infer", "--all"], query]
    sequence += [["metric", kind, "--object", journal, "--year", "2006"] for kind in ("if", "uif")]
    sequence += [
        ["stats"],
        ["retract", "--rule", "used_by"],
        ["stats"],
        ["infer", "--rule", "used_by"],
        ["stats"],
        ["retract", "--all"],
        ["map"],
        query,
        ["export"],
        ["query", "--file", source("impact_factor.q")],
        ["validate"],
    ]
    sequence += [["metric", "if", "--object", journal, "--year", "2006"]] * 2
    sequence += [["query", "--file", source(name)] for name in bad_scripts]
    return sequence


def run(tree: str, workdir: str, args: list[str]) -> tuple[str, int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    env.pop("SCHOLARGRAPH_STORE", None)
    env.pop("SCHOLARGRAPH_SIDECAR", None)
    argv = ["--store", "graph.store", "--sidecar", "records.sidecar", "--format", "tsv", *args]
    done = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=workdir, env=env, capture_output=True)
    return sha1_of(os.path.join(workdir, "graph.store")), done.returncode, done.stdout, done.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    trees = [os.path.abspath(tree) for tree in argv]
    versions = list(map(snapshot_version, trees))
    same_format = versions[0] == versions[1]
    if not same_format:
        print(
            f"snapshot version changed ({versions[0]} -> {versions[1]}): "
            "only exit status, stdout and stderr are compared"
        )
    sys.path.insert(0, os.path.join(trees[1], "perfbench"))
    import gen

    with tempfile.TemporaryDirectory() as scratch:
        inputs = os.path.join(scratch, "inputs")
        corpus = gen.generate(1, **SIZES)
        files = gen.write_inputs(corpus, inputs, 1)
        workdirs = [os.path.join(scratch, side) for side in ("base", "changed")]
        for workdir in workdirs:
            os.makedirs(workdir)
        journal = gen.journal_iri(corpus.journals[0])
        with open(os.path.join(trees[1], "tests", "data", "impact_factor.q"), encoding="utf-8") as fp:
            if_script = gen.uif_script(fp.read(), corpus.journals[0], 2006)
        with open(os.path.join(trees[1], "tests", "data", "group_citation.q"), encoding="utf-8") as fp:
            bad_scripts = {"group_citation.q": fp.read(), **BAD_SCRIPTS}
        scripts = {"journal.q": QUERY.format(journal=journal), "impact_factor.q": if_script, **bad_scripts}
        for name, text in scripts.items():
            with open(os.path.join(inputs, name), "w", encoding="utf-8") as fp:
                fp.write(text)
        sequence = commands(inputs, files, journal, list(bad_scripts))
        refused = len(sequence) - len(bad_scripts)
        for step, args in enumerate(sequence, 1):
            base, changed = (run(tree, workdir, args) for tree, workdir in zip(trees, workdirs))
            label = " ".join(args[:1] + [os.path.basename(arg) if os.path.isabs(arg) else arg for arg in args[1:]])
            what = [
                name
                for name, a, b in zip(("snapshot", "exit status", "stdout", "stderr"), base, changed)
                if a != b and (same_format or name != "snapshot")
            ]
            if what:
                print(f"step {step}, {label}: {', '.join(what)} differ")
                return 1
            if step > refused and base[1] != 1:
                print(f"step {step}, {label}: a malformed script exits {base[1]}, not 1")
                return 1
            if same_format:
                snapshot = base[0]
            else:
                sizes = (size_of(os.path.join(workdir, "graph.store")) for workdir in workdirs)
                snapshot = "not compared, {} -> {} bytes".format(*sizes)
            stderr_lines = base[3].count(b"\n")
            print(
                f"step {step}, {label}: exit {base[1]}, snapshot {snapshot}, "
                f"stdout {len(base[2])} bytes, stderr {stderr_lines} line(s)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
