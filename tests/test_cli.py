"""End-to-end command-line tests driving main() in a temp directory."""

import errno
import os
import shutil
import sqlite3
import subprocess
import sys

import pytest

import scholargraph
from scholargraph.cli import _writer_lock, main
from scholargraph.ontology import (
    HAS_GROUP,
    HAS_UNIT,
    JOURNAL,
    PART_OF,
    RDF_TYPE,
)
from scholargraph.store import Store
from scholargraph.terms import Iri, Triple

from oracles import encoded, ledger_triples, oracle_export, term_table_snapshot

BIBLIO = (
    "doc_id\ttitle\tauthors\tcollection\tpublisher\tdate\tdoi\n"
    "doc-1\tFirst paper\tA. Author|B. Author\tJ\tPress\t2005\t\n"
    "doc-2\tSecond paper\tB. Author\tJ\tPress\t2005\t\n"
    "doc-3\tCiting paper\tC. Author\tOther J\tPress\t2007\t\n"
)
USAGE = (
    "event_id\ttime\tagent\tsession\tdoc_id\n"
    "ev-1\t2007-03-04 10:00:00\treader-1\ts1\tdoc-1\n"
    "ev-2\t2007-05-06 11:00:00\treader-2\ts2\tdoc-2\n"
)
CITATIONS = "citing_doc_id\tcited_doc_id\ndoc-3\tdoc-1\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in (
        ("biblio.tsv", BIBLIO),
        ("usage.tsv", USAGE),
        ("citations.tsv", CITATIONS),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_everything(capsys):
    for table, source in (
        ("ingest-biblio", "biblio.tsv"),
        ("ingest-usage", "usage.tsv"),
        ("ingest-citations", "citations.tsv"),
    ):
        code, _, _ = run(capsys, table, "--input", source)
        assert code == 0
    code, _, _ = run(capsys, "map")
    assert code == 0


def journal_root(store_path="scholargraph.store"):
    store = Store.load(store_path)
    unit = Iri("urn:mesur:doc:doc-1")
    for root in store.subjects(RDF_TYPE, JOURNAL):
        for edition in store.subjects(PART_OF, root):
            for ctx in store.subjects(HAS_GROUP, edition):
                if store.contains(Triple(ctx, HAS_UNIT, unit)):
                    return root
    raise AssertionError("mapped journal root not found")


# -- pipeline ------------------------------------------------------------------


def test_ingest_reports_counts(workdir, capsys):
    code, out, err = run(capsys, "ingest-biblio", "--input", "biblio.tsv")
    assert code == 0
    assert "loaded 3 record(s), rejected 0" in out
    assert err == ""


def test_ingest_reports_rejects_on_stderr(workdir, capsys):
    (workdir / "bad.tsv").write_text(
        "doc_id\tdate\ndoc-9\t2006\ndoc-9\t2006\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "ingest-biblio", "--input", "bad.tsv")
    assert code == 0
    assert "loaded 1 record(s), rejected 1" in out
    assert "line 3: rejected: duplicate doc_id 'doc-9'" in err


def test_map_creates_the_store_file(workdir, capsys):
    load_everything(capsys)
    assert os.path.exists("scholargraph.store")
    assert os.path.exists("scholargraph.sidecar")
    code, out, _ = run(capsys, "map")
    assert code == 0
    assert "publishes contexts created: 0" in out  # idempotent second run


def test_a_map_that_adds_nothing_leaves_the_snapshot_alone(workdir, capsys):
    load_everything(capsys)
    before = os.stat("scholargraph.store")
    code, out, _ = run(capsys, "map")
    assert code == 0
    assert "uses contexts created: 0" in out
    after = os.stat("scholargraph.store")
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    code, out, _ = run(capsys, "map", "--affiliations")  # no usage row names an affiliation
    assert code == 0
    assert os.stat("scholargraph.store").st_ino == before.st_ino


def test_commands_that_change_nothing_leave_the_snapshot_alone(workdir, capsys):
    load_everything(capsys)
    (workdir / "mark.q").write_text(
        "SELECT ?u WHERE (?p rdf:type mesur:Publishes) (?p mesur:hasUnit ?u)"
        " INSERT < ?u rdf:type mesur:Document > .",
        encoding="utf-8",
    )
    assert run(capsys, "query", "--file", "mark.q")[0] == 0
    assert run(capsys, "infer", "--all")[0] == 0
    metric = ("metric", "if", "--object", journal_root().value, "--year", "2007")
    assert run(capsys, *metric)[0] == 0

    def snapshot():
        status = os.stat("scholargraph.store")
        return status.st_ino, status.st_mtime_ns, (workdir / "scholargraph.store").read_bytes()

    before = snapshot()
    for argv, says in (
        (("query", "--file", "mark.q"), "inserted 0 new triple(s)"),
        (("infer", "--all"), "total: 0"),
        # map without --affiliations mints no Affiliation, so this rule added nothing
        (("retract", "--rule", "affiliation"), "retracted 0 triple(s)"),
        # the same metric node again: same statements, all ledgered under metric
        (metric, "impact factor of"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and says in out, argv
        assert snapshot() == before, argv


def test_validate_passes_on_mapped_data(workdir, capsys):
    load_everything(capsys)
    code, out, _ = run(capsys, "validate")
    assert code == 0


def test_query_selects_rows(workdir, capsys):
    load_everything(capsys)
    (workdir / "q.q").write_text(
        "SELECT ?u WHERE (?p rdf:type mesur:Publishes) (?p mesur:hasUnit ?u) .",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "query", "--file", "q.q")
    assert code == 0
    assert "(3 row(s), 3 full match(es))" in out
    assert "<urn:mesur:doc:doc-1>" in out


def test_query_explain_prints_each_step(workdir, capsys):
    load_everything(capsys)
    (workdir / "q.q").write_text(
        "SELECT ?u WHERE (?p rdf:type mesur:Publishes) (?p mesur:hasUnit ?u)"
        " (?p mesur:hasTime ?t) AND ?t = 2007 .",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "query", "--file", "q.q", "--explain")
    assert code == 0
    lines = out.splitlines()
    at = lines.index("plan for block 1: step, pattern, estimated rows, actual rows")
    assert lines[at - 1] == "(1 row(s), 1 full match(es))"
    assert lines[at + 1] == "  1. ( ?p rdf:type mesur:Publishes )  estimated 3.0  actual 3"
    # the filtered pattern wins its tie with hasUnit and runs first
    assert lines[at + 2] == "  2. ( ?p mesur:hasTime ?t )  estimated 3.0  actual 1"
    code, out, _ = run(capsys, "--format", "tsv", "query", "--file", "q.q", "--explain")
    assert code == 0
    assert "plan\t1\t3\t( ?p mesur:hasUnit ?u )\t3.0\t1" in out.splitlines()
    code, out, _ = run(capsys, "query", "--file", "q.q")
    assert "plan for block" not in out


def test_query_with_insert_mutates_and_persists(workdir, capsys):
    load_everything(capsys)
    (workdir / "mark.q").write_text(
        "SELECT ?u WHERE (?p rdf:type mesur:Publishes) (?p mesur:hasUnit ?u)"
        " INSERT < ?u rdf:type mesur:Document > .",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "query", "--file", "mark.q")
    assert code == 0
    assert "inserted 3 new triple(s)" in out
    code, out, _ = run(capsys, "query", "--file", "mark.q")
    assert "inserted 0 new triple(s)" in out


def test_infer_retract_round_trip_restores_the_export(workdir, capsys):
    load_everything(capsys)
    code, _, _ = run(capsys, "export", "--output", "before.nt")
    assert code == 0
    code, out, _ = run(capsys, "infer", "--all")
    assert code == 0
    assert "total:" in out
    # the ledger travels inside the snapshot; there is no second state file
    assert not os.path.exists("scholargraph.store.ledger")
    code, out, _ = run(capsys, "stats")
    assert "ledger authored_by" in out
    code, out, _ = run(capsys, "retract", "--all")
    assert code == 0
    code, _, _ = run(capsys, "export", "--output", "after.nt")
    assert code == 0
    before = (workdir / "before.nt").read_bytes()
    after = (workdir / "after.nt").read_bytes()
    assert before == after


def test_metric_retraction_restores_the_export(workdir, capsys):
    load_everything(capsys)
    assert run(capsys, "export", "--output", "before.nt")[0] == 0
    root = journal_root()
    for kind in ("if", "uif"):
        code, _, _ = run(capsys, "metric", kind, "--object", root.value, "--year", "2007")
        assert code == 0
    code, out, _ = run(capsys, "stats")
    assert "ledger metric: 10" in out
    code, out, _ = run(capsys, "retract", "--rule", "metric")
    assert code == 0 and "retracted 10 triple(s) from metric" in out
    assert run(capsys, "export", "--output", "after.nt")[0] == 0
    assert (workdir / "after.nt").read_bytes() == (workdir / "before.nt").read_bytes()
    code, out, _ = run(capsys, "stats")
    assert "ledger" not in out


def test_map_and_query_after_infer_keep_the_ledger(workdir, capsys):
    load_everything(capsys)
    run(capsys, "export", "--output", "before.nt")
    code, _, _ = run(capsys, "infer", "--all")
    assert code == 0
    ledger = ledger_triples(Store.load("scholargraph.store"))
    assert ledger
    code, _, _ = run(capsys, "map")
    assert code == 0
    (workdir / "mark.q").write_text(
        "SELECT ?u WHERE (?p rdf:type mesur:Publishes) (?p mesur:hasUnit ?u)"
        " INSERT < ?u mesur:hasTitle \"marked\" > .",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "query", "--file", "mark.q")
    assert "inserted 3 new triple(s)" in out
    assert ledger_triples(Store.load("scholargraph.store")) == ledger
    code, _, _ = run(capsys, "retract", "--all")
    assert code == 0
    run(capsys, "export", "--output", "after.nt")
    before = set((workdir / "before.nt").read_text(encoding="utf-8").splitlines())
    after = set((workdir / "after.nt").read_text(encoding="utf-8").splitlines())
    assert before <= after
    assert len(after - before) == 3 and all('"marked"' in line for line in after - before)


def test_failed_save_keeps_the_old_state(workdir, capsys, monkeypatch):
    load_everything(capsys)
    code, _, _ = run(capsys, "infer", "--rule", "authored_by")
    assert code == 0
    before = (workdir / "scholargraph.store").read_bytes()

    def crash(src, dst):
        raise OSError("disk gone")

    with monkeypatch.context() as patched:
        patched.setattr(os, "replace", crash)
        code, _, err = run(capsys, "infer", "--all")
    assert code == 1 and "disk gone" in err
    assert (workdir / "scholargraph.store").read_bytes() == before
    assert sorted(os.listdir(workdir)) == sorted(
        ["biblio.tsv", "usage.tsv", "citations.tsv", "scholargraph.store", "scholargraph.sidecar"]
    )
    assert tuple(Store.load("scholargraph.store").ledger_counts()) == ("authored_by",)
    code, out, _ = run(capsys, "stats")
    assert "ledger authored_by" in out and "ledger used_by" not in out


def test_metric_values_through_the_pipeline(workdir, capsys):
    load_everything(capsys)
    root = journal_root()
    code, out, _ = run(
        capsys, "metric", "if", "--object", root.value, "--year", "2007"
    )
    assert code == 0
    assert "impact factor" in out
    assert "numerator 1, denominator 2" in out
    assert "0.500000" in out
    code, out, _ = run(
        capsys, "metric", "uif", "--object", root.value, "--year", "2007"
    )
    assert code == 0
    assert "numerator 2, denominator 2" in out
    assert "1.000000" in out


def test_metric_window_flag(workdir, capsys):
    load_everything(capsys)
    root = journal_root()
    code, out, _ = run(
        capsys, "metric", "if",
        "--object", root.value, "--year", "2007", "--window", "2004:2006",
    )
    assert code == 0
    assert "(window 2004..2006)" in out
    code, _, err = run(
        capsys, "metric", "if",
        "--object", root.value, "--year", "2007", "--window", "banana",
    )
    assert code == 1
    assert "--window needs" in err


def test_metric_values_print_in_fixed_point_at_any_precision(workdir, capsys):
    load_everything(capsys)
    root = journal_root()
    for precision in (8, 28):
        (workdir / "cfg.json").write_text(f'{{"precision": {precision}}}', encoding="utf-8")
        # no unit published in 2006 cites the 2004..2005 units: 0 of 2
        for kind, year, digits in (("if", "2006", "0"), ("uif", "2007", "1")):
            shown = digits + "." + "0" * precision
            argv = ("--config", "cfg.json", "metric", kind, "--object", root.value, "--year", year)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), err
            assert f"): {shown}\n" in out
            code, out, err = run(capsys, "--format", "tsv", *argv)
            assert (code, err) == (0, ""), err
            assert out.rstrip("\n").split("\t")[-1] == shown


def test_metric_failure_modes_exit_one(workdir, capsys):
    load_everything(capsys)
    code, _, err = run(
        capsys, "metric", "if", "--object", "urn:x:nowhere", "--year", "2007"
    )
    assert code == 1
    assert "error:" in err
    root = journal_root()
    code, _, err = run(
        capsys, "metric", "if",
        "--object", root.value, "--year", "2007", "--window", "1990:1991",
    )
    assert code == 1
    assert "undefined" in err


# -- errors and exit codes --------------------------------------------------------


def test_no_subcommand_is_a_usage_error(workdir, capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage:" in err


def test_unknown_subcommand_exits_two(workdir, capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# the help text of every command, as `scholargraph --help` lists it
COMMAND_HELP = {
    "ingest-biblio": "load bibliographic records from TSV",
    "ingest-usage": "load usage events from TSV",
    "ingest-citations": "load citation pairs from TSV",
    "map": "project sidecar records into the triple store",
    "validate": "check instances against the vocabulary",
    "query": "parse and run a script (SELECT/INSERT)",
    "infer": "run materialization rules",
    "retract": "remove exactly what a rule materialized",
    "metric": "compute a journal metric and write its node",
    "export": "write the store as sorted N-Triples: IRIs, then blanks, then literals by datatype",
    "catalog": "print the built-in vocabulary",
    "stats": "triple, class and ledger counts",
}


def usage_exit(capsys, *argv):
    """(exit status, stdout, stderr) of a run that argparse ends; the
    outputs with their line wrapping undone."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, " ".join(captured.out.split()), " ".join(captured.err.split())


def test_help_lists_every_command_with_its_help_text(workdir, capsys):
    code, out, err = usage_exit(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: scholargraph [-h] [--store STORE]")
    # every command, with its help text, in the table's order, before the options
    places = [out.find(f" {name} {text} ") for name, text in COMMAND_HELP.items()]
    assert -1 not in places and places == sorted(places) and places[-1] < out.index("options:")


def test_command_help_names_every_rule_and_each_option(workdir, capsys):
    from scholargraph.inference import RULE_SCRIPTS

    code, out, _ = usage_exit(capsys, "infer", "--help")
    assert code == 0
    assert out.startswith("usage: scholargraph infer [-h] [--rule RULE] [--all]")
    assert f"--rule RULE rule name ({', '.join(sorted(RULE_SCRIPTS))})" in out
    code, out, _ = usage_exit(capsys, "retract", "--help")
    assert code == 0 and "--rule RULE rule name --all retract every rule" in out
    code, out, _ = usage_exit(capsys, "metric", "--help")
    assert code == 0
    assert "usage: scholargraph metric [-h] --object OBJECT --year YEAR [--window WINDOW] [--direct-only] {if,uif}" in out


def test_a_metric_without_its_required_options_is_a_usage_error(workdir, capsys):
    code, out, err = usage_exit(capsys, "metric", "if")
    assert (code, out) == (2, "")
    assert err.startswith("usage: scholargraph metric [-h] --object OBJECT --year YEAR")
    assert err.endswith("scholargraph metric: error: the following arguments are required: --object, --year")
    code, _, err = usage_exit(capsys, "metric", "if", "--object", "urn:x", "--year", "soon")
    assert code == 2 and "argument --year: invalid int value: 'soon'" in err


def test_a_global_option_may_take_a_command_name_as_its_value(workdir, capsys):
    load_everything(capsys)
    code, expected, _ = run(capsys, "stats")
    assert code == 0 and expected.startswith("triples: ")
    shutil.copy("scholargraph.store", "map")
    os.remove("scholargraph.store")
    assert run(capsys, "--store", "map", "stats") == (0, expected, "")
    code, out, _ = run(capsys, "--sidecar", "stats", "--store", "map", "--format", "tsv", "stats")
    assert code == 0 and out.splitlines()[0].startswith("triples\t")
    assert not os.path.exists("stats")  # stats opens no sidecar


def test_standard_input_is_read_as_utf8_whatever_the_locale(workdir, capsys):
    # files are read as UTF-8; so must standard input be, under any locale
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(scholargraph.__file__)),
        PYTHONIOENCODING="latin-1",
    )

    def cli(*argv, stdin=b""):
        done = subprocess.run(
            [sys.executable, "-m", "scholargraph.cli", *argv],
            input=stdin, cwd=workdir, env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.decode("latin-1")

    biblio = "doc_id\ttitle\tauthors\tcollection\tdate\ndoc-1\tCafé\tAuthör\tJ\t2005\n"
    usage = "event_id\ttime\tagent\tsession\tdoc_id\nev-1\t2007-03-04 10:00:00\treader-1\tséance\tdoc-1\n"
    assert cli("ingest-biblio", "--input", "-", stdin=biblio.encode("utf-8")).startswith("loaded 1 record(s)")
    (workdir / "usage-utf8.tsv").write_text(usage, encoding="utf-8")
    cli("ingest-usage", "--input", "usage-utf8.tsv")
    db = sqlite3.connect(workdir / "scholargraph.sidecar")
    stored = db.execute("SELECT title, authors FROM biblio").fetchall()
    db.close()
    assert stored == [("Café", "Authör")]
    cli("map")
    script = 'SELECT ?x WHERE ( ?x mesur:hasSession "séance" ) .\n'
    assert "(1 row(s), 1 full match(es))" in cli("query", "--file", "-", stdin=script.encode("utf-8"))


# many good rows first, so the bad byte comes after the first read's chunk
LATIN1_BIBLIO = (
    "doc_id\ttitle\tdate\n".encode("utf-8")
    + b"".join(f"doc-{k}\tA title long enough to fill a line\t2005\n".encode("utf-8") for k in range(400))
    + b"doc-bad\tCaf\xe9\t2005\n"
)
LATIN1_SCRIPT = b'SELECT ?x WHERE ( ?x mesur:hasSession "s\xe9ance" ) .\nINSERT < urn:a mesur:hasSession "x" > .\n'


@pytest.mark.parametrize(
    "argv, data, where",
    [
        (["ingest-biblio", "--input", "bad.tsv"], LATIN1_BIBLIO, "bad.tsv: line 402: "),
        (["query", "--file", "bad.q"], LATIN1_SCRIPT, "bad.q: line 1: "),
        (["query", "--file", "-"], LATIN1_SCRIPT, "<stdin>: line 1: "),
    ],
    ids=["ingest-file", "query-file", "query-stdin"],
)
def test_input_that_is_not_utf8_is_one_error_line(workdir, argv, data, where):
    (workdir / "bad.tsv").write_bytes(LATIN1_BIBLIO)
    (workdir / "bad.q").write_bytes(LATIN1_SCRIPT)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scholargraph.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "scholargraph.cli", *argv],
        input=data if "-" in argv else b"", cwd=workdir, env=env, capture_output=True, timeout=120,
    )
    err = done.stderr.decode("utf-8")
    assert done.returncode == 1, err
    assert "Traceback" not in err
    assert err.startswith("error: " + where) and "can't decode byte 0xe9" in err and err.count("\n") == 1
    assert not os.path.exists(workdir / "scholargraph.store.lock")
    assert not os.path.exists(workdir / "scholargraph.store")  # the query inserted nothing
    if argv[0] == "ingest-biblio":
        db = sqlite3.connect(workdir / "scholargraph.sidecar")
        assert db.execute("SELECT COUNT(*) FROM biblio").fetchone() == (0,)
        db.close()


@pytest.mark.parametrize(
    "command, sidecar",
    [
        ("ingest-biblio", "notdb.txt"),
        ("map", "notdb.txt"),
        ("ingest-biblio", "adir"),
        ("map", "adir"),
        ("ingest-biblio", os.path.join("nodir", "x.side")),
    ],
    ids=["ingest-text-file", "map-text-file", "ingest-directory", "map-directory", "ingest-missing-parent"],
)
def test_a_sidecar_path_that_sqlite_cannot_open_is_one_error_line(workdir, command, sidecar):
    (workdir / "notdb.txt").write_text("not a database\n", encoding="utf-8")
    (workdir / "adir").mkdir()
    argv = ["--sidecar", sidecar, command, *(["--input", "biblio.tsv"] if command != "map" else [])]
    # -X dev -W error: the input an ingest opened first is closed, not leaked
    done = fresh_interpreter("-X", "dev", "-W", "error", "-m", "scholargraph.cli", *argv, cwd=workdir)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(f"error: {sidecar}: cannot open as a sidecar: "), done.stderr
    assert done.stderr.count("\n") == 1 and done.stdout == ""
    assert not os.path.exists(workdir / "scholargraph.store.lock")
    assert not os.path.exists(workdir / "scholargraph.store")
    assert (workdir / "notdb.txt").read_text(encoding="utf-8") == "not a database\n"
    assert os.listdir(workdir / "adir") == [] and not os.path.exists(workdir / "nodir")


def test_map_refuses_a_sidecar_that_does_not_exist(workdir, capsys):
    expected = (1, "", "error: typo.side: no such sidecar; ingest records into it first\n")
    assert run(capsys, "--sidecar", "typo.side", "map") == expected
    assert not os.path.exists("scholargraph.store")
    load_everything(capsys)
    before = (workdir / "scholargraph.store").read_bytes()
    assert run(capsys, "--sidecar", "typo.side", "map") == expected
    assert (workdir / "scholargraph.store").read_bytes() == before
    assert not os.path.exists("typo.side") and not os.path.exists("scholargraph.store.lock")


def test_an_ingest_whose_input_is_missing_creates_no_sidecar(workdir, capsys):
    code, out, err = run(capsys, "ingest-biblio", "--input", "nope.tsv")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "nope.tsv" in err and err.count("\n") == 1, err
    assert not os.path.exists("scholargraph.sidecar")


def test_query_parse_errors_exit_one_with_position(workdir, capsys):
    load_everything(capsys)
    (workdir / "broken.q").write_text(
        "SELECT ?x WHERE (?x mesur.hasSource ?y) .", encoding="utf-8"
    )
    code, _, err = run(capsys, "query", "--file", "broken.q")
    assert code == 1
    assert "bare name 'mesur.hasSource'" in err
    assert "(line 1, column 21)" in err


def test_a_surrogate_escape_is_a_parse_error_not_a_failed_save(workdir, capsys):
    # no UTF-8 text holds a lone surrogate, so the snapshot could not store it
    (workdir / "surrogate.q").write_text(
        'SELECT ?x WHERE ( ?x <urn:p> ?y ) INSERT < <urn:a> <urn:p> "\\uD800" > .', encoding="utf-8"
    )
    code, _, err = run(capsys, "query", "--file", "surrogate.q")
    assert code == 1
    assert err == "error: \\u escape names a surrogate code point (line 1, column 60)\n"
    assert not os.path.exists(workdir / "scholargraph.store")
    assert not os.path.exists(workdir / "scholargraph.store.lock")


def test_infer_needs_a_rule_or_all(workdir, capsys):
    load_everything(capsys)
    code, _, err = run(capsys, "infer")
    assert code == 1
    assert "infer needs --rule NAME or --all" in err
    code, _, err = run(capsys, "infer", "--rule", "nonsense")
    assert code == 1
    assert "nonsense" in err


def test_lock_contention_fails_cleanly(workdir, capsys):
    load_everything(capsys)
    lock = workdir / "scholargraph.store.lock"
    lock.write_text("12345\n", encoding="utf-8")
    code, _, err = run(capsys, "map")
    assert code == 1
    assert "another process holds the store lock" in err
    lock.unlink()
    code, _, _ = run(capsys, "map")
    assert code == 0


def test_lock_error_says_whether_the_holder_runs(workdir, capsys):
    load_everything(capsys)
    lock = workdir / "scholargraph.store.lock"
    finished = subprocess.Popen([sys.executable, "-c", ""])
    finished.wait()
    lock.write_text(f"{finished.pid}\n", encoding="ascii")
    code, _, err = run(capsys, "map")
    assert code == 1
    assert f"PID {finished.pid}, which is no longer running" in err
    assert "delete" in err and "by hand" in err
    lock.write_text(f"{os.getpid()}\n", encoding="ascii")
    code, _, err = run(capsys, "map")
    assert code == 1
    assert f"PID {os.getpid()}, which is still running" in err
    lock.unlink()


def test_a_leftover_temporary_snapshot_is_never_read(workdir, capsys):
    """A save that dies before its rename leaves a partial <store>.tmp
    beside the old snapshot: commands read the old snapshot, and the next
    save writes over the leftover and renames it into place."""
    load_everything(capsys)
    store, leftover = workdir / "scholargraph.store", workdir / "scholargraph.store.tmp"
    old = store.read_bytes()
    code, old_stats, _ = run(capsys, "stats")
    assert code == 0
    assert run(capsys, "infer", "--all")[0] == 0
    new = store.read_bytes()
    assert new != old
    offsets = (0, 1, 7, len(new) // 3, len(new) // 2, len(new) - 1)
    for offset in offsets:
        store.write_bytes(old)
        leftover.write_bytes(new[:offset])
        assert run(capsys, "stats") == (0, old_stats, ""), offset
        assert run(capsys, "infer", "--all")[0] == 0
        assert store.read_bytes() == new, offset
        assert not leftover.exists(), offset
    # with no snapshot at all, not even a whole one at <store>.tmp is read
    store.unlink()
    for offset in offsets + (len(new),):
        leftover.write_bytes(new[:offset])
        code, out, _ = run(capsys, "stats")
        assert code == 0 and "triples: 0" in out.splitlines(), offset
        assert not store.exists() and leftover.read_bytes() == new[:offset]


def test_a_failed_lock_write_closes_and_removes_the_lock(workdir, monkeypatch):
    written, closed = [], []
    close = os.close

    def failing_write(fd, data):
        written.append(fd)
        raise OSError(errno.ENOSPC, "No space left on device")

    def recording_close(fd):
        closed.append(fd)
        close(fd)

    monkeypatch.setattr(os, "write", failing_write)
    monkeypatch.setattr(os, "close", recording_close)
    with pytest.raises(OSError, match="No space left"):
        with _writer_lock("scholargraph.store"):
            pass
    monkeypatch.undo()
    assert written and closed == written
    assert not os.path.exists("scholargraph.store.lock")


def test_crashed_commands_release_the_lock(workdir, capsys):
    # parses fine, takes the writer lock, then dies evaluating 3/0
    load_everything(capsys)
    (workdir / "broken.q").write_text(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " SELECT ?y WHERE (?y rdf:type mesur:EditedBook)"
        " INSERT < _1 mesur:hasNumericValue (COUNT(?x) / COUNT(?y)) > .",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "query", "--file", "broken.q")
    assert code == 1
    assert "division by zero" in err
    assert not os.path.exists("scholargraph.store.lock")


# -- configuration ------------------------------------------------------------------


def test_store_location_precedence(workdir, capsys, monkeypatch):
    flag_store = Store()
    flag_store.insert(Triple(Iri("urn:x:flag"), RDF_TYPE, JOURNAL))
    flag_store.save("flag.store")
    env_store = Store()
    for n in range(2):
        env_store.insert(Triple(Iri(f"urn:x:env:{n}"), RDF_TYPE, JOURNAL))
    env_store.save("env.store")
    (workdir / "cfg.json").write_text('{"store": "cfg.store"}', encoding="utf-8")
    cfg_store = Store()
    for n in range(3):
        cfg_store.insert(Triple(Iri(f"urn:x:cfg:{n}"), RDF_TYPE, JOURNAL))
    cfg_store.save("cfg.store")

    code, out, _ = run(capsys, "--config", "cfg.json", "stats")
    assert "triples: 3" in out

    monkeypatch.setenv("SCHOLARGRAPH_STORE", "env.store")
    code, out, _ = run(capsys, "--config", "cfg.json", "stats")
    assert "triples: 2" in out

    code, out, _ = run(
        capsys, "--store", "flag.store", "--config", "cfg.json", "stats"
    )
    assert "triples: 1" in out


def test_namespace_flag_feeds_the_query_parser(workdir, capsys):
    load_everything(capsys)
    (workdir / "lanl.q").write_text(
        "SELECT ?x WHERE (lanl:marko mesur:hasCoauthor ?x) .", encoding="utf-8"
    )
    code, _, err = run(capsys, "query", "--file", "lanl.q")
    assert code == 1
    assert "unknown namespace prefix 'lanl'" in err
    code, out, _ = run(
        capsys,
        "--namespace", "lanl=http://library.lanl.gov/",
        "query", "--file", "lanl.q",
    )
    assert code == 0
    assert "(0 row(s), 0 full match(es))" in out


def test_bad_namespace_flags_exit_one(workdir, capsys):
    for binding, message in (
        ("lanl", "--namespace needs prefix=iri"),
        ("1x=http://example.org/", "bad namespace prefix"),
        ("mesur=http://example.org/", "already bound"),
    ):
        code, _, err = run(capsys, "--namespace", binding, "stats")
        assert code == 1 and message in err, (binding, err)


def test_malformed_config_files_exit_one_without_a_traceback(workdir, capsys):
    for text, message in (
        ('{"precision": "x"}', "precision must be an integer"),
        # values int() would coerce: a float, a JSON true and a string of digits
        ('{"precision": 6.9}', "precision must be an integer, got 6.9"),
        ('{"precision": true}', "precision must be an integer, got True"),
        ('{"precision": "7"}', "precision must be an integer, got '7'"),
        ('{"provider": 5}', "provider must be a string, got 5"),
        ('{"store": ["a"]}', "store must be a string"),
        ('{"sidecar": {"path": "s"}}', "sidecar must be a string"),
        ("{bad", "not valid JSON"),
        ('{"namespaces": ["a"]}', "namespaces must be a JSON object"),
    ):
        (workdir / "cfg.json").write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "--config", "cfg.json", "stats")
        assert code == 1 and out == "", text
        assert err.startswith("error: cfg.json: ") and err.count("\n") == 1 and message in err, err


# -- fresh interpreters ---------------------------------------------------------


def fresh_interpreter(*args, cwd=None):
    """Run ``python3 args...`` with the package under test importable."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scholargraph.__file__)))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, encoding="utf-8", timeout=120)


def test_a_loading_command_freezes_what_the_load_made(workdir, capsys):
    load_everything(capsys)
    check = (
        "import gc\n"
        "from scholargraph.cli import main\n"
        "before = gc.get_freeze_count()\n"
        "assert main(['stats']) == 0\n"
        "print(before, gc.get_freeze_count())\n"
    )
    done = fresh_interpreter("-c", check, cwd=workdir)
    assert done.returncode == 0, done.stderr
    before, after = map(int, done.stdout.split()[-2:])
    assert before == 0 and after > 0


def test_star_import_binds_every_exported_name():
    check = (
        "import scholargraph\n"
        "names = {}\n"
        "exec('from scholargraph import *', names)\n"
        "missing = [n for n in scholargraph.__all__ if n not in names]\n"
        "assert not missing, missing\n"
    )
    done = fresh_interpreter("-c", check)
    assert done.returncode == 0, done.stderr
    assert scholargraph.Store is Store and scholargraph.Iri is Iri
    with pytest.raises(AttributeError):
        scholargraph.no_such_name


def test_tsv_format_is_machine_readable_and_stable(workdir, capsys):
    load_everything(capsys)
    (workdir / "q.q").write_text(
        "SELECT ?u WHERE (?p rdf:type mesur:Publishes) (?p mesur:hasUnit ?u) .",
        encoding="utf-8",
    )
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--format", "tsv", "query", "--file", "q.q")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 3
    assert all(line.startswith("1\t") for line in lines)

    code, out, _ = run(capsys, "--format", "tsv", "ingest-biblio", "--input", "biblio.tsv")
    assert out.splitlines()[-1] == "0\t3"  # re-ingest: all three are duplicates now


def test_catalog_prints_the_vocabulary(workdir, capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "Journal" in out
    assert "hasNumericValue" in out


def test_export_writes_sorted_ntriples(workdir, capsys):
    load_everything(capsys)
    exports_as_the_oracle(capsys, Store.load("scholargraph.store"))


def exports_as_the_oracle(capsys, store: Store) -> None:
    """``export`` to stdout and to a file both write ``oracle_export(store)``."""
    expected = oracle_export(store)
    code, out, err = run(capsys, "export")
    assert code == 0 and out.encode("utf-8") == expected
    assert err == f"exported {len(store)} triple(s)\n"
    assert run(capsys, "export", "--output", "out.nt")[0] == 0
    with open("out.nt", "rb") as fp:
        assert fp.read() == expected


def test_export_equals_the_sorted_oracle_after_rules_and_a_metric(workdir, capsys):
    load_everything(capsys)
    for argv in (("map", "--affiliations"), ("infer", "--all")):
        assert run(capsys, *argv)[0] == 0
    root = journal_root()
    assert run(capsys, "metric", "if", "--object", root.value, "--year", "2007")[0] == 0
    store = Store.load("scholargraph.store")
    assert store.ledger_rows("metric") and store.ledger_rows("authored_by")
    exports_as_the_oracle(capsys, store)


def test_export_of_a_term_table_out_of_canonical_order_equals_the_sorted_oracle(workdir, capsys):
    # ids in table order: z, "7", a, _:b0, p, "x", q
    terms = [
        encoded(0, b"urn:z"),
        encoded(2, b"7", datatype=1),
        encoded(0, b"urn:a"),
        encoded(1, b"b0"),
        encoded(0, b"urn:p"),
        encoded(2, b"x", datatype=0),
        encoded(0, b"urn:q"),
    ]
    rows = [(0, 4, 1), (0, 4, 2), (0, 6, 3), (2, 4, 5), (2, 6, 0), (3, 4, 0), (3, 4, 5)]
    (workdir / "scholargraph.store").write_bytes(term_table_snapshot(*terms, rows=rows))
    store = Store.load("scholargraph.store")
    assert len(store) == len(rows) and store.decode(0) == Iri("urn:z")
    exports_as_the_oracle(capsys, store)


def test_export_without_a_snapshot_writes_nothing(workdir, capsys):
    exports_as_the_oracle(capsys, Store())
    assert not os.path.exists("scholargraph.store")


def test_snapshots_do_not_depend_on_the_hash_seed(workdir, capsys):
    """The same commands under two string-hash seeds write the same bytes."""
    for table, source in (
        ("ingest-biblio", "biblio.tsv"),
        ("ingest-usage", "usage.tsv"),
        ("ingest-citations", "citations.tsv"),
    ):
        assert run(capsys, table, "--input", source)[0] == 0
    src = os.path.dirname(os.path.dirname(scholargraph.__file__))
    snapshots = []
    for seed in ("0", "12345"):
        here = workdir / f"hashseed-{seed}"
        here.mkdir()
        shutil.copy(workdir / "scholargraph.sidecar", here)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)

        def cli(*argv):
            done = subprocess.run(
                [sys.executable, "-m", "scholargraph.cli", *argv],
                cwd=here, env=env, capture_output=True, encoding="utf-8", timeout=120,
            )
            assert done.returncode == 0, done.stderr

        written = []
        for argv in (("map", "--affiliations"), ("infer", "--all"), ("retract", "--all"), ("infer", "--all")):
            cli(*argv)
            written.append((here / "scholargraph.store").read_bytes())
        root = journal_root(str(here / "scholargraph.store"))
        cli("metric", "uif", "--object", root.value, "--year", "2007")
        written.append((here / "scholargraph.store").read_bytes())
        assert written[2] == written[0] and written[3] == written[1]  # retract undoes infer exactly
        snapshots.append(written)
    assert snapshots[0] == snapshots[1]
