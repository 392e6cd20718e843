"""Sidecar tests: TSV ingestion, graph mapping, id resolution, audits."""

import io
import random
import sqlite3

import pytest

from oracles import SAMPLE_BIBLIO_TSV, SAMPLE_USAGE_TSV, oracle_map
from scholargraph.ontology import (
    AFFILIATION,
    ARTICLE,
    CITATION,
    GROUP,
    HAS_AFFILIATEE,
    HAS_AFFILIATOR,
    HAS_AUTHOR,
    HAS_DOCUMENT,
    HAS_GROUP,
    HAS_PROVIDER,
    HAS_PUBLISHER,
    HAS_SESSION,
    HAS_SINK,
    HAS_SOURCE,
    HAS_START_TIME,
    HAS_TIME,
    HAS_UNIT,
    HAS_USER,
    HAS_WEIGHT,
    HUMAN,
    JOURNAL,
    ORGANIZATION,
    PART_OF,
    PUBLISHES,
    RDF_TYPE,
    USES,
    literal_audit,
    validate_all,
)
from scholargraph.mapping import unit_iri
from scholargraph.sidecar import (
    BIBLIO_COLUMNS,
    DEFAULT_PROVIDER,
    Sidecar,
    SidecarError,
    UnknownIdError,
)
from scholargraph.store import Store
from scholargraph.terms import (
    Datatype,
    Iri,
    Literal,
    Triple,
    datetime_literal,
    string_literal,
)

SAMPLE_DOC = "b5e1ab73-26b5-41f0-a83f-b47b4d737"
SAMPLE_DOI = "10.1177/0165551506062327"
SAMPLE_EVENT = "45563ac2-c7d4-4669-ab9c-ac5129535ee5"


def biblio_tsv(*rows):
    lines = ["\t".join(BIBLIO_COLUMNS)]
    for row in rows:
        lines.append("\t".join(row.get(name, "") for name in BIBLIO_COLUMNS))
    return io.StringIO("\n".join(lines) + "\n")


def usage_tsv(*rows):
    columns = ("event_id", "time", "agent", "session", "affiliation", "access_type", "doc_id")
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(row.get(name, "") for name in columns))
    return io.StringIO("\n".join(lines) + "\n")


def citation_tsv(*pairs):
    lines = ["citing_doc_id\tcited_doc_id"]
    lines += [f"{a}\t{b}" for a, b in pairs]
    return io.StringIO("\n".join(lines) + "\n")


def doc(n, **extra):
    row = {"doc_id": f"doc-{n}", "date": "2006"}
    row.update(extra)
    return row


def loaded_sample():
    sc = Sidecar()
    biblio = sc.ingest_biblio(io.StringIO(SAMPLE_BIBLIO_TSV))
    usage = sc.ingest_usage(io.StringIO(SAMPLE_USAGE_TSV))
    assert (biblio.loaded, biblio.rejected) == (1, 0)
    assert (usage.loaded, usage.rejected) == (1, 0)
    return sc


# -- ingestion -----------------------------------------------------------------


def test_sample_rows_load_cleanly():
    sc = loaded_sample()
    assert sc.counts() == {"biblio": 1, "usage": 1, "citations": 0, "id_map": 0}
    assert sc.doc_ids() == [SAMPLE_DOC]


def test_empty_stream_loads_nothing():
    sc = Sidecar()
    report = sc.ingest_biblio(io.StringIO(""))
    assert (report.loaded, report.rejected) == (0, 0)


def test_header_validation():
    sc = Sidecar()
    with pytest.raises(SidecarError) as info:
        sc.ingest_biblio(io.StringIO("doc_id\tdoc_id\nx\ty\n"))
    assert "duplicate column" in str(info.value)
    with pytest.raises(SidecarError) as info:
        sc.ingest_biblio(io.StringIO("doc_id\tnickname\nx\ty\n"))
    assert "unknown column(s) in header: nickname" in str(info.value)
    with pytest.raises(SidecarError) as info:
        sc.ingest_biblio(io.StringIO("title\nx\n"))
    assert "missing required column(s): doc_id" in str(info.value)


def test_short_and_long_lines_are_rejected_individually():
    sc = Sidecar()
    stream = io.StringIO(
        "doc_id\ttitle\n"
        "doc-1\tfine\n"
        "doc-2\n"
        "doc-3\ttoo\tmany\n"
        "doc-4\talso fine\n"
    )
    report = sc.ingest_biblio(stream)
    assert report.loaded == 2
    assert report.rejected == 2
    assert report.problems == [
        (3, "expected 2 fields, got 1"),
        (4, "expected 2 fields, got 3"),
    ]


def test_biblio_key_constraints():
    sc = Sidecar()
    report = sc.ingest_biblio(biblio_tsv(
        doc(1, doi="10.1/a"),
        doc(1),  # duplicate doc_id
        doc(2, doi="10.1/a"),  # duplicate doi
        {"title": "no id"},  # missing doc_id
        doc(3, date="not-a-date"),
        doc(4, date="2006-09-27 00:00:03"),
    ))
    assert report.loaded == 2  # doc-1 and doc-4
    reasons = [reason for _, reason in report.problems]
    assert any("duplicate doc_id" in r for r in reasons)
    assert any("duplicate doi" in r for r in reasons)
    assert any("missing doc_id" in r for r in reasons)
    assert any("unparseable date" in r for r in reasons)


def test_blank_date_is_fine_blank_lines_are_skipped():
    sc = Sidecar()
    report = sc.ingest_biblio(io.StringIO("doc_id\tdate\n\ndoc-1\t\n\n"))
    assert (report.loaded, report.rejected) == (1, 0)


def test_usage_key_constraints():
    sc = Sidecar()
    sc.ingest_biblio(biblio_tsv(doc(1)))
    report = sc.ingest_usage(usage_tsv(
        {"event_id": "e1", "time": "2006-09-27 00:00:03", "doc_id": "doc-1"},
        {"event_id": "", "time": "2006", "doc_id": "doc-1"},
        {"event_id": "e2", "time": "whenever", "doc_id": "doc-1"},
        {"event_id": "e3", "time": "2006", "doc_id": "ghost"},
        {"event_id": "e1", "time": "2006", "doc_id": "doc-1"},
    ))
    assert report.loaded == 1
    reasons = [reason for _, reason in report.problems]
    assert any("missing event_id" in r for r in reasons)
    assert any("unparseable time 'whenever'" in r for r in reasons)
    assert any("doc_id 'ghost' does not resolve" in r for r in reasons)
    assert any("duplicate event_id 'e1'" in r for r in reasons)


def test_citation_key_constraints():
    sc = Sidecar()
    sc.ingest_biblio(biblio_tsv(doc(1), doc(2)))
    report = sc.ingest_citations(citation_tsv(
        ("doc-1", "doc-2"),
        ("doc-1", "ghost"),
        ("ghost", "doc-2"),
        ("doc-1", "doc-2"),
        ("doc-2", "doc-2"),  # self-citation is a data fact, not an error
    ))
    assert report.loaded == 2
    reasons = [reason for _, reason in report.problems]
    assert any("cited_doc_id 'ghost' does not resolve" in r for r in reasons)
    assert any("citing_doc_id 'ghost' does not resolve" in r for r in reasons)
    assert any("duplicate citation pair" in r for r in reasons)


def test_biblio_rows_are_rejected_with_their_first_failing_check():
    sc = Sidecar()
    stream = biblio_tsv(
        doc(1, doi="10.1/a"),
        {"title": "no id", "date": "not-a-date"},  # missing doc_id, bad date
        doc(1, doi="10.1/a"),  # duplicate doc_id, duplicate doi
        doc(1, date="not-a-date"),  # duplicate doc_id, bad date
        doc(2, doi="10.1/a", date="not-a-date"),  # duplicate doi, bad date
    )
    stream = io.StringIO(stream.getvalue() + "\tno id\n")  # short line, missing doc_id
    report = sc.ingest_biblio(stream)
    assert report.loaded == 1
    assert report.problems == [
        (3, "missing doc_id"),
        (4, "duplicate doc_id 'doc-1'"),
        (5, "duplicate doc_id 'doc-1'"),
        (6, "duplicate doi '10.1/a'"),
        (7, f"expected {len(BIBLIO_COLUMNS)} fields, got 2"),
    ]


def test_usage_rows_are_rejected_with_their_first_failing_check():
    sc = Sidecar()
    sc.ingest_biblio(biblio_tsv(doc(1)))
    report = sc.ingest_usage(usage_tsv(
        {"event_id": "e1", "time": "2006", "doc_id": "doc-1"},
        {"event_id": "", "time": "whenever", "doc_id": "ghost"},  # missing id, bad time
        {"event_id": "e2", "time": "whenever", "doc_id": "ghost"},  # bad time, unknown doc
        {"event_id": "e3", "time": "", "doc_id": "ghost"},  # no time, unknown doc
        {"event_id": "e1", "time": "2006", "doc_id": "ghost"},  # unknown doc, duplicate id
        {"event_id": "e1", "time": "whenever", "doc_id": "doc-1"},  # bad time, duplicate id
    ))
    assert report.loaded == 1
    assert report.problems == [
        (3, "missing event_id"),
        (4, "unparseable time 'whenever'"),
        (5, "unparseable time None"),
        (6, "doc_id 'ghost' does not resolve"),
        (7, "unparseable time 'whenever'"),
    ]


def test_citation_rows_are_rejected_with_their_first_failing_check():
    sc = Sidecar()
    sc.ingest_biblio(biblio_tsv(doc(1), doc(2)))
    report = sc.ingest_citations(citation_tsv(
        ("doc-1", "doc-2"),
        ("ghost", "phantom"),  # neither side resolves
        ("", "ghost"),  # empty citing side, unknown cited side
        ("doc-1", "doc-2"),  # duplicate pair
        ("doc-2", ""),  # empty cited side
    ))
    assert report.loaded == 1
    assert report.problems == [
        (3, "citing_doc_id 'ghost' does not resolve"),
        (4, "citing_doc_id None does not resolve"),
        (5, "duplicate citation pair 'doc-1' -> 'doc-2'"),
        (6, "cited_doc_id None does not resolve"),
    ]


# -- mapping --------------------------------------------------------------------


def test_sample_mapping_shapes_the_graph():
    sc = loaded_sample()
    store = Store()
    report = sc.map_to_graph(store)
    assert (report.publishes, report.uses, report.citations) == (1, 1, 0)

    unit = unit_iri(SAMPLE_DOC, SAMPLE_DOI)
    assert unit == Iri("urn:doi:10.1177/0165551506062327")
    assert store.contains(Triple(unit, RDF_TYPE, ARTICLE))

    [pub] = store.subjects(RDF_TYPE, PUBLISHES)
    assert store.contains(Triple(pub, HAS_UNIT, unit))
    assert store.contains(Triple(pub, HAS_TIME, datetime_literal("2006")))
    assert store.contains(Triple(pub, HAS_PROVIDER, Iri(DEFAULT_PROVIDER)))
    authors = set(store.objects(pub, HAS_AUTHOR))
    assert len(authors) == 3
    for author in authors:
        assert store.contains(Triple(author, RDF_TYPE, HUMAN))
    [org] = store.objects(pub, HAS_PUBLISHER)
    assert store.contains(Triple(org, RDF_TYPE, ORGANIZATION))
    [edition] = store.objects(pub, HAS_GROUP)
    assert store.contains(Triple(edition, RDF_TYPE, GROUP))
    [root] = store.objects(edition, PART_OF)
    assert store.contains(Triple(root, RDF_TYPE, JOURNAL))

    [used] = store.subjects(RDF_TYPE, USES)
    assert store.contains(Triple(used, HAS_DOCUMENT, unit))
    # the space-separated timestamp comes through normalized
    assert store.contains(
        Triple(used, HAS_TIME, datetime_literal("2006-09-27T00:00:03"))
    )
    assert store.contains(Triple(used, HAS_SESSION, string_literal("C3044206")))
    [user] = store.objects(used, HAS_USER)
    assert store.contains(Triple(user, RDF_TYPE, HUMAN))


def test_mapping_is_idempotent():
    sc = loaded_sample()
    store = Store()
    sc.map_to_graph(store)
    size = len(store)
    again = sc.map_to_graph(store)
    assert again.total == 0
    assert len(store) == size


def test_mapping_produces_no_unlicensed_literals():
    sc = loaded_sample()
    sc.ingest_biblio(biblio_tsv(doc(1, authors="Somebody", publisher="Nobody Press")))
    sc.ingest_usage(usage_tsv({
        "event_id": "e1", "time": "2006-03-04", "doc_id": "doc-1",
        "access_type": "fulltext", "session": "s-9",
    }))
    store = Store()
    sc.map_to_graph(store)
    assert literal_audit(store) == []
    # no title or author-name string sneaks in as a literal anywhere
    texts = {
        t.object.lexical
        for t in store.triples()
        if isinstance(t.object, Literal) and t.object.datatype is Datatype.STRING
    }
    assert "The Convergence of Digital Libraries ..." not in texts
    assert all("Rodriguez" not in text for text in texts)


def test_literal_audit_flags_smuggled_strings():
    sc = loaded_sample()
    store = Store()
    sc.map_to_graph(store)
    smuggled = Triple(
        unit_iri(SAMPLE_DOC, SAMPLE_DOI),
        Iri("http://purl.org/dc/elements/1.1/title"),
        string_literal("The Convergence of Digital Libraries ..."),
    )
    store.insert(smuggled)
    assert literal_audit(store) == [smuggled]


def test_literal_audit_accepts_integer_under_decimal_and_datetime():
    store = Store()
    subject = Iri("urn:x-test:n")
    store.insert(Triple(subject, HAS_WEIGHT, Literal("3", Datatype.INTEGER)))
    store.insert(Triple(subject, HAS_TIME, Literal("2006", Datatype.INTEGER)))
    assert literal_audit(store) == []
    store.insert(Triple(subject, HAS_TIME, string_literal("2006")))
    assert len(literal_audit(store)) == 1


def test_citations_map_with_unit_weight():
    sc = Sidecar()
    sc.ingest_biblio(biblio_tsv(doc(1), doc(2, doi="10.9/x")))
    sc.ingest_citations(citation_tsv(("doc-1", "doc-2")))
    store = Store()
    report = sc.map_to_graph(store)
    assert report.citations == 1
    [ctx] = store.subjects(RDF_TYPE, CITATION)
    assert list(store.objects(ctx, HAS_SOURCE)) == [unit_iri("doc-1", None)]
    assert list(store.objects(ctx, HAS_SINK)) == [unit_iri("doc-2", "10.9/x")]
    assert list(store.objects(ctx, HAS_WEIGHT)) == [Literal("1.0", Datatype.DECIMAL)]


def test_affiliations_only_on_request():
    sc = loaded_sample()
    plain = Store()
    sc.map_to_graph(plain)
    assert list(plain.subjects(RDF_TYPE, AFFILIATION)) == []

    wired = Store()
    report = sc.map_to_graph(wired, affiliations=True)
    assert report.affiliations == 1
    [aff] = wired.subjects(RDF_TYPE, AFFILIATION)
    [org] = wired.objects(aff, HAS_AFFILIATOR)
    assert wired.contains(Triple(org, RDF_TYPE, ORGANIZATION))
    [user] = wired.objects(aff, HAS_AFFILIATEE)
    [used] = wired.subjects(RDF_TYPE, USES)
    assert list(wired.objects(used, HAS_USER)) == [user]
    # Affiliation is a State: its time is a start time, not an event time.
    assert list(wired.objects(aff, HAS_START_TIME)) == [
        datetime_literal("2006-09-27T00:00:03")
    ]
    assert validate_all(wired) == []


def test_units_without_a_doi_get_doc_iris():
    assert unit_iri("doc-1", None) == Iri("urn:mesur:doc:doc-1")
    assert unit_iri("a b#c", "") == Iri("urn:mesur:doc:a%20b%23c")
    assert unit_iri("x", "10.1177/0165551506062327") == Iri(
        "urn:doi:10.1177/0165551506062327"
    )


def test_author_names_normalize_before_minting():
    sc = Sidecar()
    sc.ingest_biblio(biblio_tsv(
        doc(1, authors="Van de Sompel"),
        doc(2, authors="van  de   SOMPEL"),
    ))
    store = Store()
    sc.map_to_graph(store)
    authors = set()
    for pub in store.subjects(RDF_TYPE, PUBLISHES):
        authors.update(store.objects(pub, HAS_AUTHOR))
    assert len(authors) == 1


def test_collections_mint_one_root_and_yearly_editions():
    sc = Sidecar()
    sc.ingest_biblio(biblio_tsv(
        doc(1, collection="Journal of Information Science", date="2005"),
        doc(2, collection="Journal of Information Science", date="2006"),
        doc(3, collection="journal of information science", date="2006"),
    ))
    store = Store()
    sc.map_to_graph(store)
    roots = set(store.subjects(RDF_TYPE, JOURNAL))
    assert len(roots) == 1
    editions = set(store.subjects(PART_OF, next(iter(roots))))
    assert len(editions) == 2


def test_provider_scopes_the_minted_iris():
    first, second = Store(), Store()
    for store, provider in (
        (first, "urn:mesur:provider:alpha"),
        (second, "urn:mesur:provider:beta"),
    ):
        sc = loaded_sample()
        sc.map_to_graph(store, provider=provider)
        assert store.contains(Triple(Iri(provider), RDF_TYPE, ORGANIZATION))
    first_pubs = set(first.subjects(RDF_TYPE, PUBLISHES))
    second_pubs = set(second.subjects(RDF_TYPE, PUBLISHES))
    assert first_pubs.isdisjoint(second_pubs)


def test_two_equally_loaded_sidecars_map_identically():
    stores = []
    for _ in range(2):
        sc = loaded_sample()
        sc.ingest_biblio(biblio_tsv(doc(1, collection="X", authors="A|B")))
        store = Store()
        sc.map_to_graph(store)
        buffer = io.BytesIO()
        store.save(buffer)
        stores.append(buffer.getvalue())
    assert stores[0] == stores[1]


# -- incremental mapping ------------------------------------------------------------

DOCS = [
    doc(n, collection=("Journal A", "Journal B")[n % 2], date=f"200{n % 3 + 4}",
        authors="Ann|Bo" if n % 2 else "Cy", publisher="Press" if n % 3 else "",
        doi=f"10.5/{n}" if n % 4 == 0 else "")
    for n in range(6)
]
EVENT_BATCHES = [
    [
        {
            "event_id": f"ev-{k}-{n}", "time": f"2007-0{k + 1}-1{n} 10:00:00", "doc_id": f"doc-{n % 6}",
            "agent": f"reader-{n % 3}" if n != 2 else "", "session": f"s-{n}",
            "affiliation": ("Lab", "", "Univ")[n % 3], "access_type": "pdf" if n % 2 else "",
        }
        for n in range(5)
    ]
    for k in range(3)
]
CITATIONS = [("doc-0", "doc-1"), ("doc-2", "doc-1"), ("doc-5", "doc-0")]
ALPHA, BETA = Iri("urn:mesur:provider:alpha"), Iri("urn:mesur:provider:beta")


def records(batches=len(EVENT_BATCHES), citations=True):
    sc = Sidecar()
    sc.ingest_biblio(biblio_tsv(*DOCS))
    for batch in EVENT_BATCHES[:batches]:
        sc.ingest_usage(usage_tsv(*batch))
    if citations:
        sc.ingest_citations(citation_tsv(*CITATIONS))
    return sc


def snapshot(store):
    buffer = io.BytesIO()
    store.save(buffer)
    return buffer.getvalue()


def contexts(store):
    return tuple(len(store.subjects(RDF_TYPE, cls)) for cls in (PUBLISHES, USES, CITATION, AFFILIATION))


def mapped(sc, store, **options):
    """Map, checking that the report counts exactly the contexts the run
    added and that every doc and event resolves afterwards."""
    before = contexts(store)
    report = sc.map_to_graph(store, **options)
    created = tuple(a - b for a, b in zip(contexts(store), before))
    assert created == (report.publishes, report.uses, report.citations, report.affiliations)
    for doc_id in sc.doc_ids():
        assert sc.resolve(doc_id).doc_id == doc_id
    events = [event["event_id"] for batch in EVENT_BATCHES for event in batch]
    for event_id in events[: sc.counts()["usage"]]:  # the batches ingested so far
        _, ctx = sc.resolve_event(event_id)
        assert store.contains(Triple(Iri(ctx), RDF_TYPE, USES))
    return report


def one_map(*runs):
    """The snapshot of one map per (provider, affiliations) over the final records."""
    store = Store()
    for provider, affiliations in runs:
        records().map_to_graph(store, provider=provider, affiliations=affiliations)
    return snapshot(store)


def reloaded(store):
    """The store that a save of ``store`` and a load of it give."""
    return Store.load(io.BytesIO(snapshot(store)))


def batched(sc, store, reload=False, **options):
    """Ingest and map each usage batch, then the citations; with ``reload``,
    each map goes into the store loaded from the last one's snapshot, as
    the CLI maps.  The reports and the last store."""
    reports = []
    steps = [(sc.ingest_usage, usage_tsv(*batch)) for batch in EVENT_BATCHES]
    for ingest, lines in steps + [(sc.ingest_citations, citation_tsv(*CITATIONS))]:
        ingest(lines)
        if reload:
            store = reloaded(store)
        reports.append(mapped(sc, store, **options))
    return reports, store


RELOAD = pytest.mark.parametrize("reload", [False, True], ids=["in-memory", "reloaded"])


@RELOAD
def test_mapping_after_each_batch_equals_one_map(reload):
    sc = records(batches=0, citations=False)
    reports, store = batched(sc, Store(), reload)
    assert [(r.publishes, r.uses, r.citations) for r in reports] == [(6, 5, 0), (0, 5, 0), (0, 5, 0), (0, 0, 3)]
    assert snapshot(store) == one_map((DEFAULT_PROVIDER, False))
    assert mapped(sc, reloaded(store) if reload else store).total == 0


@RELOAD
def test_affiliations_added_later_equal_one_map_with_them(reload):
    sc = records(batches=0, citations=False)
    _, store = batched(sc, Store(), reload)
    if reload:
        store = reloaded(store)
    report = mapped(sc, store, affiliations=True)
    wanted = sum(1 for batch in EVENT_BATCHES for e in batch if e["affiliation"] and e["agent"])
    assert (report.publishes, report.uses, report.citations, report.affiliations) == (0, 0, 0, wanted)
    assert snapshot(store) == one_map((DEFAULT_PROVIDER, True))


def test_a_second_provider_maps_its_own_contexts():
    sc, store = records(batches=0, citations=False), Store()
    for batch in EVENT_BATCHES:
        sc.ingest_usage(usage_tsv(*batch))
        mapped(sc, store, provider=ALPHA)
        mapped(sc, store, provider=BETA)
    sc.ingest_citations(citation_tsv(*CITATIONS))
    assert mapped(sc, store, provider=ALPHA).citations == 3
    assert mapped(sc, store, provider=BETA).citations == 3
    assert snapshot(store) == one_map((ALPHA, False), (BETA, False))
    # the id map follows the last provider, as one map per provider leaves it
    _, ctx = sc.resolve_event("ev-0-0")
    assert ctx.startswith("urn:mesur:ctx:use:") and store.contains(Triple(Iri(ctx), HAS_PROVIDER, BETA))


def test_a_deleted_store_is_mapped_again_in_full():
    sc = records(batches=0, citations=False)
    _, store = batched(sc, Store(), affiliations=True)
    fresh = Store()
    report = mapped(sc, fresh, affiliations=True)
    assert (report.publishes, report.uses, report.citations) == (6, 15, 3)
    assert snapshot(fresh) == snapshot(store) == one_map((DEFAULT_PROVIDER, True))


def test_a_fresh_sidecar_maps_into_an_existing_store():
    store = Store()
    mapped(records(), store, affiliations=True)
    before = snapshot(store)
    fresh = records()
    assert fresh.counts()["id_map"] == 0
    assert mapped(fresh, store, affiliations=True).total == 0
    assert snapshot(store) == before
    assert fresh.counts()["id_map"] == len(DOCS) + sum(len(batch) for batch in EVENT_BATCHES)


# names that normalize equal mint one agent or group
NAMES = ["Ann Lee", "ann  lee", " ANN LEE", "Bo Chen", "bo chen", "Cy", "Dee Ray"]
# a collection, publisher or affiliation; some publishers are no one's
# affiliation, and the reverse
PLACES = ["Lab One", "lab  one", "Univ", "UNIV ", "Press Co"]
PLAIN_TIMES = ["2006", "2006-02-28", "2006-03-04 05:06:07", "2007-01-02T03:04:05"]
ODD_TIMES = ["2006-03-04T05:06:07Z", "2006-03-04 05:06:07.25", " 2005-06-07 ", "2006-03-04T05:06:07+02:00"]


def random_docs(rng, count):
    return [
        doc(
            n,
            doi=f"10.{n}/x y" if rng.random() < 0.5 else "",
            date=rng.choice(["", "2004", "2005-06-07", "2006-01-31"]),
            collection=rng.choice(["", *PLACES]),
            publisher=rng.choice(["", *PLACES[2:]]),
            authors="|".join(rng.choice([*NAMES, ""]) for _ in range(rng.randrange(4))),
        )
        for n in range(count)
    ]


def random_events(rng, batch, count, docs, odd):
    times = PLAIN_TIMES + ODD_TIMES if odd else PLAIN_TIMES
    return [
        {
            "event_id": f"ev-{batch}-{n}",
            "time": rng.choice(times),
            "doc_id": rng.choice(docs)["doc_id"],
            # some authors are never readers, and one reader never writes
            "agent": rng.choice(["", "ann lee", "Bo Chen", "Eve"]),
            "session": rng.choice(["", "s-1", f"s-{n}"]),
            "affiliation": rng.choice(["", *PLACES[:4], "Field Station"]),
            "access_type": rng.choice(["", "pdf", "html"]),
        }
        for n in range(count)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_random_map_sequences_equal_the_oracle(seed):
    """Over random sidecars, fed batch by batch, every map leaves the store
    holding what the term-level oracle projects, triple by triple, whether
    the store is the one in memory or a reload of its snapshot, with
    affiliations on or off and for either provider."""
    rng = random.Random(seed)
    sc, store, expected = Sidecar(), Store(), set()
    docs = random_docs(rng, 14)
    sc.ingest_biblio(biblio_tsv(*docs))
    for batch in range(4):
        sc.ingest_usage(usage_tsv(*random_events(rng, batch, 25, docs, odd=seed % 2)))
        if batch == 2:
            pairs = {(rng.choice(docs)["doc_id"], rng.choice(docs)["doc_id"]) for _ in range(12)}
            sc.ingest_citations(citation_tsv(*pairs))
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.5:
                store = reloaded(store)
            provider, affiliations = rng.choice([Iri(DEFAULT_PROVIDER), BETA]), rng.random() < 0.6
            expected |= oracle_map(sc._db, expected, provider, affiliations)
            sc.map_to_graph(store, provider=provider, affiliations=affiliations)
            assert set(store.triples()) == expected, (seed, batch)
            assert len(store) == len(expected) and store.verify_indexes()
    assert snapshot(reloaded(store)) == snapshot(store)


# -- resolution -------------------------------------------------------------------


def test_resolution_is_a_bijection():
    sc = loaded_sample()
    store = Store()
    sc.map_to_graph(store)

    by_id = sc.resolve(SAMPLE_DOC)
    assert by_id.iri == "urn:doi:10.1177/0165551506062327"
    assert by_id.record["title"] == "The Convergence of Digital Libraries ..."
    assert by_id.record["authors"] == "Rodriguez|Bollen|Van de Sompel"

    by_iri = sc.resolve(by_id.iri)
    assert by_iri.doc_id == SAMPLE_DOC
    assert by_iri.record == by_id.record

    event_id, ctx = sc.resolve_event(SAMPLE_EVENT)
    assert event_id == SAMPLE_EVENT
    assert sc.resolve_event(ctx) == (event_id, ctx)
    assert store.contains(Triple(Iri(ctx), RDF_TYPE, USES))


def test_resolution_requires_a_mapping_run():
    sc = loaded_sample()
    with pytest.raises(UnknownIdError):
        sc.resolve(SAMPLE_DOC)  # id_map is only written by map_to_graph


def test_unknown_identifiers_raise():
    sc = loaded_sample()
    sc.map_to_graph(Store())
    for key in ("nope", "urn:mesur:doc:nope"):
        with pytest.raises(UnknownIdError) as info:
            sc.resolve(key)
        assert repr(key) in str(info.value)
    with pytest.raises(UnknownIdError):
        sc.resolve_event("nope")


def test_a_thousand_generated_events_round_trip():
    sc = Sidecar()
    sc.ingest_biblio(biblio_tsv(*(doc(n) for n in range(10))))
    rows = [
        {
            "event_id": f"ev-{n:04d}",
            "time": f"2006-09-{(n % 28) + 1:02d} 00:{n % 60:02d}:00",
            "session": f"s-{n % 17}",
            "doc_id": f"doc-{n % 10}",
        }
        for n in range(1000)
    ]
    report = sc.ingest_usage(usage_tsv(*rows))
    assert (report.loaded, report.rejected) == (1000, 0)
    store = Store()
    mapped = sc.map_to_graph(store)
    assert mapped.uses == 1000
    assert len(set(store.subjects(RDF_TYPE, USES))) == 1000
    for probe in ("ev-0000", "ev-0500", "ev-0999"):
        event_id, ctx = sc.resolve_event(probe)
        assert event_id == probe
        assert sc.resolve_event(ctx)[0] == probe
    assert literal_audit(store) == []


# -- the file itself ----------------------------------------------------------------


def test_sidecar_file_persists(tmp_path):
    path = str(tmp_path / "records.sidecar")
    with Sidecar(path) as sc:
        sc.ingest_biblio(io.StringIO(SAMPLE_BIBLIO_TSV))
        sc.map_to_graph(Store())
    with Sidecar(path) as sc:
        assert sc.counts()["biblio"] == 1
        assert sc.resolve(SAMPLE_DOC).doc_id == SAMPLE_DOC


def test_foreign_sqlite_files_are_refused(tmp_path):
    path = str(tmp_path / "other.db")
    db = sqlite3.connect(path)
    db.execute("CREATE TABLE unrelated (x)")
    db.commit()
    db.close()
    with pytest.raises(SidecarError) as info:
        Sidecar(path)
    assert "not a sidecar file" in str(info.value)


def test_future_versions_are_refused(tmp_path):
    path = str(tmp_path / "future.sidecar")
    Sidecar(path).close()
    db = sqlite3.connect(path)
    db.execute("PRAGMA user_version = 9")
    db.commit()
    db.close()
    with pytest.raises(SidecarError) as info:
        Sidecar(path)
    assert "version 9 is not supported" in str(info.value)


def test_refused_files_leave_no_connection_open(tmp_path, monkeypatch):
    foreign = str(tmp_path / "other.db")
    db = sqlite3.connect(foreign)
    db.execute("CREATE TABLE unrelated (x)")
    db.commit()
    db.close()
    future = str(tmp_path / "future.sidecar")
    Sidecar(future).close()
    db = sqlite3.connect(future)
    db.execute("PRAGMA user_version = 9")
    db.commit()
    db.close()
    opened = []
    connect = sqlite3.connect

    def recording_connect(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", recording_connect)
    for path in (foreign, future):
        with pytest.raises(SidecarError):
            Sidecar(path)
    assert len(opened) == 2
    for db in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            db.execute("SELECT 1")
