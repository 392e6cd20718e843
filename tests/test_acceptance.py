"""Acceptance gate: one test per shipping criterion, verdicts printed.

Each test prints exactly one ``ACCEPTANCE <n> <name>: PASS`` or ``FAIL``
line; run ``pytest tests/test_acceptance.py -s`` to watch them.  Wall-clock
and memory budgets are asserted inside the tests, so a slow or bloated
build fails loudly instead of silently degrading.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from decimal import Decimal

from oracles import (
    HERBERTV,
    INFORMETRICS,
    JCDL,
    MARKO,
    RULE_ORACLES,
    SAMPLE_BIBLIO_TSV,
    SAMPLE_USAGE_TSV,
    SCIENTOMETRICS,
    conformance_store,
    index_of,
    jcdl_fixture,
    oracle_coauthor_rows,
    oracle_group_citation_rows,
    oracle_if_numerator_rows,
    oracle_pub_window_rows,
    oracle_uif_numerator_rows,
    random_context_store,
    ratio_6dp,
)
from scholargraph.inference import InferenceEngine
from scholargraph.metrics import impact_factor, usage_impact_factor
from scholargraph.ntriples import serialize_term
from scholargraph.ontology import literal_audit
from scholargraph.queryl import execute_script, parse_script
from scholargraph.queryl.parser import QueryParseError
from scholargraph.sidecar import BIBLIO_COLUMNS, USAGE_COLUMNS, Sidecar
from scholargraph.store import Store
from scholargraph.terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    NamespaceTable,
    Triple,
    datetime_literal,
    year_literal,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def read_query(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return handle.read()


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} {name}: PASS", flush=True)


def snapshot(store):
    buffer = io.BytesIO()
    store.save(buffer)
    return buffer.getvalue()


def single_object(triples, suffix):
    """The object of the one triple whose predicate IRI ends with suffix."""
    hits = [t.object for t in triples if t.predicate.value.endswith(suffix)]
    assert len(hits) == 1, (suffix, hits)
    return hits[0]


# -- 1: the bundled query listings against brute-force counts -----------------

RULE_LISTINGS = {
    "rule_authored.q": "authored_by",
    "rule_contained.q": "contained_in",
    "rule_published.q": "published_by",
    "rule_used.q": "used_by",
    "affiliation.q": "affiliation",
}

# Frozen row counts for the ~50-context conformance fixture; a fixture edit
# that silently shifts the workload fails here rather than going unnoticed.
EXPECTED_ROWS = {
    "rule_authored.q": 21,
    "rule_contained.q": 17,
    "rule_published.q": 3,
    "rule_used.q": 15,
    "affiliation.q": 3,
}


def test_1_listing_conformance():
    with criterion(1, "listing conformance"):
        started = time.perf_counter()
        table = NamespaceTable({"lanl": "http://library.lanl.gov/"})

        for fname, rule in RULE_LISTINGS.items():
            store = conformance_store()
            before = set(store.triples())
            rows, inserts = RULE_ORACLES[rule](index_of(store))
            report = execute_script(store, parse_script(read_query(fname), table))
            assert report.block_rows == (rows,), fname
            assert report.block_rows == (EXPECTED_ROWS[fname],), fname
            assert set(report.new_triples) == inserts - before, fname
            assert report.inserted == len(inserts - before), fname

        # coauthor listing: fixed author pair, COUNT over full matches
        store = conformance_store()
        idx = index_of(store)
        report = execute_script(store, parse_script(read_query("coauthor.q"), table))
        assert report.block_rows == (oracle_coauthor_rows(idx, MARKO, HERBERTV),) == (6,)
        assert len(report.new_triples) == 8
        weights = [t.object for t in report.new_triples if t.predicate.value.endswith("hasWeight")]
        assert weights == [Literal("6", Datatype.INTEGER)] * 2

        # group-citation listing: rejected as written, runs once normalized
        try:
            parse_script(read_query("group_citation.q"), table)
            raise AssertionError("the dotted property name should not parse")
        except QueryParseError as err:
            assert "bare name 'mesur.hasSourceStartTime'" in str(err)
            assert (err.line, err.column) == (24, 15)
        store = conformance_store()
        idx = index_of(store)
        normalized = read_query("group_citation.q").replace("mesur.", "mesur:")
        report = execute_script(store, parse_script(normalized, table))
        assert report.block_rows == (oracle_group_citation_rows(idx),) == (3,)
        assert single_object(report.new_triples, "hasWeight") == Literal("3", Datatype.INTEGER)

        # impact factor listing: two blocks, ratio written as stated
        store = conformance_store()
        idx = index_of(store)
        report = execute_script(store, parse_script(read_query("impact_factor.q"), table))
        wanted = (oracle_if_numerator_rows(idx, JCDL), oracle_pub_window_rows(idx, JCDL))
        assert report.block_rows == wanted == (4, 4)
        value = single_object(report.new_triples, "hasNumbericValue")
        assert value == Literal(str(ratio_6dp(*wanted)), Datatype.DECIMAL)
        assert single_object(report.new_triples, "hasStartTime") == year_literal(2007)

        # usage impact factor listing: its OR guard really is a tautology
        store = conformance_store()
        idx = index_of(store)
        report = execute_script(
            store, parse_script(read_query("usage_impact_factor.q"), table)
        )
        wanted = (
            oracle_uif_numerator_rows(idx, JCDL),
            oracle_pub_window_rows(idx, JCDL, tautology=True),
        )
        assert report.block_rows == wanted == (7, 5)
        assert oracle_pub_window_rows(idx, JCDL) == 4  # the AND reading differs
        value = single_object(report.new_triples, "hasNumericValue")
        assert value == Literal(str(ratio_6dp(*wanted)), Datatype.DECIMAL)

        assert time.perf_counter() - started < 5.0


# -- 2: rule materialization equals brute-force joins on random stores --------


def test_2_rule_oracle_equivalence():
    with criterion(2, "rule oracle equivalence"):
        started = time.perf_counter()
        rng = random.Random(0xA11CE)
        sizes = [5000, 2500] + [rng.randint(30, 600) for _ in range(48)]
        for size in sizes:
            store = random_context_store(rng, size)
            before = set(store.triples())
            idx = index_of(store)
            wanted = {name: oracle(idx) for name, oracle in RULE_ORACLES.items()}
            engine = InferenceEngine(store)
            counts = engine.run_all()
            union = set()
            for _, inserts in wanted.values():
                union |= inserts
            assert set(store.triples()) == before | union, size
            for name, (_, inserts) in wanted.items():
                fresh = inserts - before
                assert engine.ledger_entries(name) == frozenset(fresh), (size, name)
                assert counts[name] == len(fresh), (size, name)
        assert time.perf_counter() - started < 120.0


# -- 3: everything the engine writes can be taken back exactly ----------------


def test_3_retraction_losslessness():
    with criterion(3, "retraction losslessness"):
        store = conformance_store()
        baseline = snapshot(store)
        engine = InferenceEngine(store)
        engine.run_all()
        engine.derive_group_citation(
            INFORMETRICS, SCIENTOMETRICS, (2005, 2006), (2007, 2007)
        )
        engine.derive_all_coauthors()
        impact_factor(store, JCDL, 2007)
        usage_impact_factor(store, JCDL, 2007)
        assert snapshot(store) != baseline
        assert engine.retract_all() > 0
        assert snapshot(store) == baseline
        assert engine.ledger_rules() == ()

        rng = random.Random(3)
        store = random_context_store(rng, 800)
        baseline = snapshot(store)
        engine = InferenceEngine(store)
        engine.run_all()
        engine.retract_all()
        assert snapshot(store) == baseline


# -- 4: the two citation metrics, module path and script path agreeing --------


def test_4_impact_factor_exactness():
    with criterion(4, "impact factor exactness"):
        store, root = jcdl_fixture()
        impact = impact_factor(store, root, 2007)
        assert (impact.numerator, impact.denominator) == (25, 10)
        assert impact.value == Decimal("2.500000")
        assert str(impact.value) == "2.500000"
        usage = usage_impact_factor(store, root, 2007)
        assert (usage.numerator, usage.denominator) == (40, 10)
        assert str(usage.value) == "4.000000"

        store, root = jcdl_fixture()
        report = execute_script(store, parse_script(read_query("impact_factor.q")))
        assert report.block_rows == (impact.numerator, impact.denominator)
        value = single_object(report.new_triples, "hasNumbericValue")
        assert value == Literal(str(impact.value), Datatype.DECIMAL)

        store, root = jcdl_fixture()
        report = execute_script(
            store, parse_script(read_query("usage_impact_factor.q"))
        )
        assert report.block_rows == (usage.numerator, usage.denominator)
        value = single_object(report.new_triples, "hasNumericValue")
        assert value == Literal(str(usage.value), Datatype.DECIMAL)


# -- 5: literals stay in the sidecar, identifiers round-trip ------------------


def biblio_tsv(rows):
    lines = ["\t".join(BIBLIO_COLUMNS)]
    lines += ["\t".join(row.get(name, "") for name in BIBLIO_COLUMNS) for row in rows]
    return io.StringIO("\n".join(lines) + "\n")


def usage_tsv(rows):
    lines = ["\t".join(USAGE_COLUMNS)]
    lines += ["\t".join(row.get(name, "") for name in USAGE_COLUMNS) for row in rows]
    return io.StringIO("\n".join(lines) + "\n")


def citation_tsv(pairs):
    lines = ["citing_doc_id\tcited_doc_id"]
    lines += [f"{a}\t{b}" for a, b in pairs]
    return io.StringIO("\n".join(lines) + "\n")


def generated_records(rng):
    """1k bibliographic records plus usage and citations over them."""
    dates = ["{y}", "{y}-06-{d:02d}", "{y}-11-{d:02d} 08:{m:02d}:00"]
    docs = []
    for n in range(1000):
        doc = {
            "doc_id": f"gen-{n:04d}",
            "title": f"Generated Study {n}: Networks and Shelving",
            "authors": f"Author{n % 311}, A.|Mentor{n % 7}, M.",
            "collection": f"Journal of Generated Series {n % 9}",
            "publisher": f"Generated Press {n % 5}",
            "date": dates[n % 3].format(y=2004 + n % 4, d=1 + n % 28, m=n % 60),
        }
        if n % 3 == 0:
            doc["doi"] = f"10.9999/gen.{n}"
        if n % 4:
            doc["start_page"] = str(100 + n)
            doc["end_page"] = str(110 + n)
            doc["volume"] = str(1 + n % 40)
        docs.append(doc)
    pool = [d["doc_id"] for d in docs] + ["b5e1ab73-26b5-41f0-a83f-b47b4d737"]
    events = []
    for n in range(1000):
        event = {
            "event_id": f"gev-{n:04d}",
            "time": f"2007-03-{1 + n % 28:02d} 12:{n % 60:02d}:{n % 60:02d}",
            "session": f"s-{n % 17}",
            "doc_id": pool[n % len(pool)],
        }
        if n % 2:
            event["agent"] = f"AGENT{n % 37:03d}"
        if n % 5 == 0 and "agent" in event:
            event["affiliation"] = f"Generated University {n % 11}"
        if n % 7 == 0:
            event["access_type"] = "fulltext"
        events.append(event)
    pairs = set()
    while len(pairs) < 600:
        pairs.add((rng.choice(pool), rng.choice(pool)))
    return docs, events, sorted(pairs)


def test_5_hybrid_split():
    with criterion(5, "hybrid split"):
        rng = random.Random(41)
        docs, events, pairs = generated_records(rng)
        sidecar = Sidecar()
        report = sidecar.ingest_biblio(io.StringIO(SAMPLE_BIBLIO_TSV))
        assert (report.loaded, report.rejected) == (1, 0)
        report = sidecar.ingest_usage(io.StringIO(SAMPLE_USAGE_TSV))
        assert (report.loaded, report.rejected) == (1, 0)
        report = sidecar.ingest_biblio(biblio_tsv(docs))
        assert (report.loaded, report.rejected) == (1000, 0), report.problems[:3]
        report = sidecar.ingest_usage(usage_tsv(events))
        assert (report.loaded, report.rejected) == (1000, 0), report.problems[:3]
        report = sidecar.ingest_citations(citation_tsv(pairs))
        assert (report.loaded, report.rejected) == (600, 0), report.problems[:3]

        store = Store()
        mapped = sidecar.map_to_graph(store, affiliations=True)
        assert mapped.publishes == 1001
        assert mapped.uses == 1001
        assert mapped.citations == 600
        assert mapped.affiliations > 0

        # nothing literal beyond what the schema licenses crossed over
        assert literal_audit(store) == []
        strings = {
            t.object.lexical
            for t in store.triples()
            if isinstance(t.object, Literal) and t.object.datatype is Datatype.STRING
        }
        for fragment in ("Generated Study", "Author", "Convergence", "Sage"):
            assert not any(fragment in s for s in strings), fragment

        # doc_id <-> IRI is a bijection over every record, both directions
        doc_ids = sidecar.doc_ids()
        assert len(doc_ids) == 1001
        iris = set()
        for doc_id in doc_ids:
            resolution = sidecar.resolve(doc_id)
            assert resolution.doc_id == doc_id
            assert sidecar.resolve(resolution.iri).doc_id == doc_id
            iris.add(resolution.iri)
        assert len(iris) == 1001
        for event_id in ["45563ac2-c7d4-4669-ab9c-ac5129535ee5"] + [
            e["event_id"] for e in events
        ]:
            name, ctx = sidecar.resolve_event(event_id)
            assert name == event_id
            assert sidecar.resolve_event(ctx) == (event_id, ctx)


# -- 6: export/import keeps the graph identical up to blank labels ------------


def blank_census(store):
    """(ground triples, blank color census, colored triple shape).

    Colors come from four rounds of neighborhood refinement, so two stores
    compare equal exactly when some blank-node bijection maps one onto the
    other (up to refinement resolution); ground triples must match as-is.
    """
    ground = set()
    blank_triples = []
    for triple in store.triples():
        if isinstance(triple.subject, Blank) or isinstance(triple.object, Blank):
            blank_triples.append(triple)
        else:
            ground.add(triple)
    colors = {}
    for triple in blank_triples:
        for term in (triple.subject, triple.object):
            if isinstance(term, Blank):
                colors[term] = "blank"
    for _ in range(4):
        signatures = {node: [] for node in colors}
        for triple in blank_triples:
            subject, predicate, obj = triple.subject, triple.predicate, triple.object
            if isinstance(subject, Blank):
                other = colors[obj] if isinstance(obj, Blank) else serialize_term(obj)
                signatures[subject].append(("out", serialize_term(predicate), other))
            if isinstance(obj, Blank):
                other = (
                    colors[subject]
                    if isinstance(subject, Blank)
                    else serialize_term(subject)
                )
                signatures[obj].append(("in", serialize_term(predicate), other))
        colors = {
            node: hashlib.sha1(repr(sorted(sig)).encode("utf-8")).hexdigest()
            for node, sig in signatures.items()
        }
    shape = Counter()
    for triple in blank_triples:
        left = (
            colors[triple.subject]
            if isinstance(triple.subject, Blank)
            else serialize_term(triple.subject)
        )
        right = (
            colors[triple.object]
            if isinstance(triple.object, Blank)
            else serialize_term(triple.object)
        )
        shape[(left, serialize_term(triple.predicate), right)] += 1
    return ground, Counter(colors.values()), shape


def isomorphic(left, right):
    return blank_census(left) == blank_census(right)


def round_trip_store():
    """~100k triples mixing IRIs, blanks (some automorphic), all datatypes."""
    store = Store()
    subjects = [Iri(f"urn:x-rt:s{i}") for i in range(9000)]
    predicates = [Iri(f"urn:x-rt:p{i}") for i in range(15)]
    for i in range(65000):
        kind = i % 4
        if kind == 0:
            obj = Literal(str(i), Datatype.INTEGER)
        elif kind == 1:
            obj = Literal(f"{i}.25", Datatype.DECIMAL)
        elif kind == 2:
            stamp = f"2006-01-01T{i // 3600 % 24:02d}:{i // 60 % 60:02d}:{i % 60:02d}"
            obj = datetime_literal(stamp)
        else:
            obj = Iri(f"urn:x-rt:o{i}")
        store.insert(Triple(subjects[i % 9000], predicates[i % 15], obj))
    for y in range(200):  # the coarser time precisions round-trip too
        node = Iri(f"urn:x-rt:year{y}")
        store.insert(Triple(node, predicates[5], year_literal(1900 + y)))
        store.insert(Triple(node, predicates[6], datetime_literal(f"19{y % 100:02d}-07-0{1 + y % 9}")))
    types = [Iri(f"urn:x-rt:T{i}") for i in range(6)]
    rdf_type = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    blanks = [Blank(f"b{i}") for i in range(8000)]
    for i, node in enumerate(blanks):
        store.insert(Triple(node, rdf_type, types[i % 6]))
        store.insert(Triple(node, predicates[0], Literal(str(i), Datatype.INTEGER)))
        store.insert(
            Triple(node, predicates[1], Literal(f'say "{i}"\n', Datatype.STRING))
        )
        store.insert(Triple(node, predicates[2], Iri(f"urn:x-rt:o{i % 500}")))
        if i % 2:
            store.insert(Triple(node, predicates[3], blanks[i - 1]))
    for i in range(50):  # structurally identical twins: any bijection may swap them
        for tag in ("a", "b"):
            twin = Blank(f"t{i}{tag}")
            store.insert(Triple(twin, rdf_type, types[0]))
            store.insert(Triple(twin, predicates[4], Literal(f"twin-{i}", Datatype.STRING)))
    return store


def test_6_round_trip_fidelity():
    with criterion(6, "round-trip fidelity"):
        # the checker itself must be able to say no
        left, right = Store(), Store()
        left.insert(Triple(Blank("x"), Iri("urn:x-iso:p"), Iri("urn:x-iso:one")))
        right.insert(Triple(Blank("y"), Iri("urn:x-iso:q"), Iri("urn:x-iso:one")))
        assert not isomorphic(left, right)
        relabeled = Store()
        relabeled.insert(Triple(Blank("z"), Iri("urn:x-iso:p"), Iri("urn:x-iso:one")))
        assert isomorphic(left, relabeled)

        store = round_trip_store()
        assert len(store) >= 100_000
        data = snapshot(store)
        clone = Store.load(io.BytesIO(data))
        assert len(clone) == len(store)
        assert isomorphic(store, clone)


# -- 7: scale smoke test in a fresh process, measured not hoped ---------------

PERF_SCRIPT = """
import json, random, resource, time
from scholargraph.store import Store, Triple
from scholargraph.terms import Datatype, Iri, Literal

started = time.perf_counter()
store = Store()
predicates = [Iri(f"urn:x-perf:p{i}") for i in range(20)]
subjects = [Iri(f"urn:x-perf:s{i}") for i in range(50000)]
for i in range(1000000):
    if i % 3 == 0:
        obj = Literal(str(i), Datatype.INTEGER)
    else:
        obj = Iri(f"urn:x-perf:o{i}")
    store.insert(Triple(subjects[i % 50000], predicates[i % 20], obj))
ingest = time.perf_counter() - started

rng = random.Random(7)
started = time.perf_counter()
rows = 0
for _ in range(1000):
    kind = rng.randrange(3)
    if kind == 0:
        rows += sum(1 for _ in store.match_terms(rng.choice(subjects), None, None))
    elif kind == 1:
        rows += sum(1 for _ in store.match_terms(rng.choice(subjects), rng.choice(predicates), None))
    else:
        rows += sum(1 for _ in store.match_terms(None, rng.choice(predicates), Iri(f"urn:x-perf:o{rng.randrange(1000000)}")))
matches = time.perf_counter() - started

print(json.dumps({
    "triples": len(store),
    "ingest_s": ingest,
    "match_s": matches,
    "rows": rows,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def test_7_performance_smoke(tmp_path):
    with criterion(7, "performance smoke"):
        script = tmp_path / "perf_smoke.py"
        script.write_text(PERF_SCRIPT, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            encoding="utf-8",
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        stats = json.loads(result.stdout)
        assert stats["triples"] == 1_000_000
        assert stats["ingest_s"] < 60.0, stats
        assert stats["maxrss_kb"] < 2 * 1024 * 1024, stats
        assert stats["match_s"] < 1.0, stats
        assert stats["rows"] > 0


# -- 8: the parser survives garbage with a positioned error, never a crash ----


def fuzz_inputs(count):
    corpus = [read_query(name) for name in sorted(os.listdir(DATA)) if name.endswith(".q")]
    corpus.append('SELECT ?x WHERE (?x rdf:type mesur:Article) INSERT <?x mesur:hasWeight 1> .')
    alphabet = (
        list("abcxyz0189 \t\n()<>?_:.\"\\'-+/#%~|=^{}[]")
        + ["SELECT", "WHERE", "INSERT", "AND", "OR", "COUNT", "mesur:", "rdf:type",
           "urn:x:", "?x", "_1", "\u03bb", "\u00e9", "\u0000", "\u00b2", "\u0663"]
    )
    rng = random.Random(8)
    inputs = []
    for n in range(count):
        kind = n % 4
        if kind == 0:
            inputs.append("".join(rng.choice(alphabet) for _ in range(rng.randrange(120))))
        elif kind == 1:
            text = list(rng.choice(corpus))
            for _ in range(rng.randrange(1, 8)):
                position = rng.randrange(len(text))
                text[position] = rng.choice(alphabet)
            inputs.append("".join(text))
        elif kind == 2:
            text = rng.choice(corpus)
            inputs.append(text[: rng.randrange(len(text) + 1)])
        else:
            first, second = rng.choice(corpus), rng.choice(corpus)
            inputs.append(first[: rng.randrange(len(first))] + second[rng.randrange(len(second)):])
    return inputs


def test_8_parser_robustness():
    with criterion(8, "parser robustness"):
        table = NamespaceTable({"lanl": "http://library.lanl.gov/"})
        parsed = failed = 0
        for text in fuzz_inputs(10_000):
            started = time.perf_counter()
            try:
                parse_script(text, table)
                parsed += 1
            except QueryParseError as err:
                failed += 1
                assert err.line >= 1 and err.column >= 1, repr(text[:80])
                assert str(err), repr(text[:80])
            assert time.perf_counter() - started < 0.1, repr(text[:80])
        assert parsed + failed == 10_000
        assert failed > 0  # garbage really was thrown at it
