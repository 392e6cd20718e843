"""The projection of the sidecar's records into the triple store.

:meth:`Sidecar.map_to_graph <scholargraph.sidecar.Sidecar.map_to_graph>`
calls :func:`map_to_graph` here, so an ingest, which never maps, compiles
neither this module nor the vocabulary nor :mod:`urllib.parse`.

Everything minted is a deterministic IRI derived from record keys (and the
provider IRI for name-scoped agents) by
:func:`~scholargraph.ontology.digest16`, so re-running the mapping is
idempotent and two runs over equal sidecars produce identical graphs.  A
run projects only the contexts whose type triple the store lacks, so any
sequence of runs leaves the same store as one run over the final records.
Only the store's work is in proportion to the new batch: every run still
reads every record of the sidecar and hashes its key, to find the contexts
the store holds already.

The projection is columnar, as a bulk load that encodes its strings first
and then sorts id triples (RDF-3X, Neumann & Weikum 2010).  The vocabulary
(predicates, classes, the provider and the unit weight) is interned once
per run.  Each projected row keeps its subject's IRI text, its predicate's
id, and its object as a vocabulary id or as the text of an IRI, a string
or a datetime, with one byte per row saying which.  At the end the
sidecar's times are normalized as one list
(:func:`~scholargraph.datetimes.normalize_datetimes`), each kind of text is
interned by one :meth:`Store.intern_texts` call, which checks the new texts
list-wise, and the rows go to :meth:`Store.add_rows` as three
``array('I')`` columns: no term object and no tuple is made per row.

Each subject's rows are projected together and once per run (an agent's or
a group's type triple with its first mention), and in the canonical order
of their predicates, ``rdf:type`` last, with the vocabulary interned in
canonical order.  Into an empty store the subjects' ids then rise along
the batch and each subject's rows are in order, under the store's ids and
under a snapshot's alike, so the base run and the first save find the rows
in place and sort only the few out of order (a context whose authors'
IRIs do not rise).  That order is a matter of speed only: the store orders
any batch.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Optional, Union
from urllib.parse import quote

from .datetimes import normalize_datetimes
from .ontology import (
    AFFILIATION, ARTICLE, CITATION, GROUP, HAS_ACCESS_TYPE, HAS_AFFILIATEE, HAS_AFFILIATOR, HAS_AUTHOR,
    HAS_DOCUMENT, HAS_GROUP, HAS_PROVIDER, HAS_PUBLISHER, HAS_SESSION, HAS_SINK, HAS_SOURCE, HAS_START_TIME,
    HAS_TIME, HAS_UNIT, HAS_USER, HAS_WEIGHT, HUMAN, JOURNAL, ORGANIZATION, PART_OF, PUBLISHES, USES, digest16,
)
from .record import Record
from .store_write import IdColumns
from .terms import Datatype, Iri, Literal, RDF_TYPE, term_sort_key

if TYPE_CHECKING:  # pragma: no cover
    import sqlite3

    from .store import Store

# what a projected row's object is: a vocabulary id, or the text of an IRI,
# a string or a datetime
_ID, _IRI, _STRING, _TIME = range(4)
_UNIT_WEIGHT = Literal("1.0", Datatype.DECIMAL)


class MapReport(Record, publishes=0, uses=0, citations=0, affiliations=0):
    """Contexts newly created by one mapping run (0 on a re-run)."""

    __slots__ = ("publishes", "uses", "citations", "affiliations")
    publishes: int
    uses: int
    citations: int
    affiliations: int

    @property
    def total(self) -> int:
        return self.publishes + self.uses + self.citations + self.affiliations


def _normalize_name(name: str) -> str:
    return " ".join(name.split()).casefold()


def _quote(value: str) -> str:
    return quote(value, safe="/.:_-+()")


def unit_iri(doc_id: str, doi: Optional[str]) -> Iri:
    if doi:
        return Iri("urn:doi:" + _quote(doi))
    return Iri("urn:mesur:doc:" + _quote(doc_id))


def _typed_iris(store: Store, cls: Iri) -> set[str]:
    """The IRIs of the store's nodes typed ``cls``: for a context class,
    the contexts of that class the store already holds."""
    rdf_type, class_id = store.lookup(RDF_TYPE), store.lookup(cls)
    if rdf_type is None or class_id is None:
        return set()
    # each node's text is read by id, so no term is made for it
    return store.iri_texts(s for s, _, _ in store.match_ids(None, rdf_type, class_id))


def _agent_iri(kind: str, name: str, provider: str) -> str:
    digest = digest16(f"{kind}|{_normalize_name(name)}|{provider}")
    base = "urn:mesur:agent:" if kind == "human" else "urn:mesur:org:"
    return base + digest


class _Agents(dict):
    """The IRI of each agent name of one kind, minted on first use."""

    def __init__(self, kind: str, provider: str) -> None:
        super().__init__()
        self.kind, self.provider = kind, provider

    def __missing__(self, name: str) -> str:
        iri = self[name] = _agent_iri(self.kind, name, self.provider)
        return iri


def _group_iris(collection: str, year: str, provider: str) -> tuple[str, str]:
    norm = _normalize_name(collection)
    root = "urn:mesur:group:" + digest16(f"root|{norm}|{provider}")
    edition = "urn:mesur:group:ed:" + digest16(f"{norm}|{year}|{provider}")
    return root, edition


def map_to_graph(db: sqlite3.Connection, store: Store, provider: Union[Iri, str], affiliations: bool) -> MapReport:
    """Project the sidecar ``db``'s records into the store; see
    :meth:`Sidecar.map_to_graph <scholargraph.sidecar.Sidecar.map_to_graph>`."""
    provider = Iri(provider) if isinstance(provider, str) else provider
    report = MapReport()
    cursor = db.cursor()
    vocabulary = (
        RDF_TYPE, HAS_ACCESS_TYPE, HAS_AFFILIATEE, HAS_AFFILIATOR, HAS_AUTHOR, HAS_DOCUMENT, HAS_GROUP, HAS_PROVIDER,
        HAS_PUBLISHER, HAS_SESSION, HAS_SINK, HAS_SOURCE, HAS_START_TIME, HAS_TIME, HAS_UNIT, HAS_USER, HAS_WEIGHT,
        PART_OF, AFFILIATION, ARTICLE, CITATION, GROUP, HUMAN, JOURNAL, ORGANIZATION, PUBLISHES, USES, provider,
        _UNIT_WEIGHT,
    )
    ranked = sorted(set(vocabulary), key=term_sort_key)
    ids = dict(zip(ranked, map(store.intern, ranked)))
    (
        rdf_type, has_access_type, has_affiliatee, has_affiliator, has_author, has_document, has_group, has_provider,
        has_publisher, has_session, has_sink, has_source, has_start_time, has_time, has_unit, has_user, has_weight,
        part_of, affiliation_class, article, citation, group, human_class, journal, organization, publishes, uses,
        provider_id, unit_weight,
    ) = map(ids.__getitem__, vocabulary)
    scope = provider.value  # the provider IRI that every minted IRI's key ends in

    # the rows: each subject's IRI, each predicate's id, and each object by
    # its kind, one byte a row, in the list of that kind
    subjects: list[str] = []
    predicates = array("I")
    kinds = bytearray()
    objects: list[list] = [[] for _ in range(4)]

    def add(subject: str, predicate: int, obj: Union[int, str], kind: int = _ID) -> None:
        subjects.append(subject)
        predicates.append(predicate)
        kinds.append(kind)
        objects[kind].append(obj)

    typed: set[str] = set()  # the nodes this run has typed

    def type_once(node: str, cls: int) -> None:
        if node not in typed:
            typed.add(node)
            add(node, rdf_type, cls)

    humans, orgs = _Agents("human", scope), _Agents("org", scope)
    add(scope, rdf_type, organization)
    # (kind, key, IRI) rows the id map lacks or holds with another IRI
    unrecorded: list[tuple[str, str, str]] = []

    held = _typed_iris(store, PUBLISHES)
    doc_iris: dict[str, str] = {}
    for row in cursor.execute(
        "SELECT doc_id, authors, collection, publisher, date, doi, iri FROM biblio"
        " LEFT JOIN id_map ON kind = 'doc' AND key = doc_id ORDER BY doc_id"
    ):
        doc_id, authors, collection, publisher, date, doi, recorded = row
        unit = doc_iris[doc_id] = unit_iri(doc_id, doi).value
        if recorded != unit:
            unrecorded.append(("doc", doc_id, unit))
        ctx = "urn:mesur:ctx:pub:" + digest16(f"{doc_id}|{scope}")
        if ctx in held:
            continue
        report.publishes += 1
        writers = [humans[name] for name in (authors or "").split("|") if name.strip()]
        for writer in writers:
            add(ctx, has_author, writer, _IRI)
        if collection:
            root, edition = _group_iris(collection, date.split("-")[0] if date else "", scope)
            add(ctx, has_group, edition, _IRI)
        add(ctx, has_provider, provider_id)
        if publisher:
            add(ctx, has_publisher, orgs[publisher], _IRI)
        if date:
            add(ctx, has_time, date, _TIME)
        add(ctx, has_unit, unit, _IRI)
        add(ctx, rdf_type, publishes)
        add(unit, rdf_type, article)
        if collection:
            type_once(root, journal)
            if edition not in typed:
                add(edition, part_of, root, _IRI)
                type_once(edition, group)
        if publisher:
            type_once(orgs[publisher], organization)
        for writer in writers:
            type_once(writer, human_class)

    held = _typed_iris(store, USES)
    held_affiliations = _typed_iris(store, AFFILIATION) if affiliations else set()
    for row in cursor.execute(
        "SELECT event_id, time, agent, session, affiliation, access_type, doc_id, iri"
        " FROM usage_events LEFT JOIN id_map ON kind = 'event' AND key = event_id"
        " ORDER BY event_id"
    ):
        event_id, time, agent, session, affiliation, access_type, doc_id, recorded = row
        ctx = "urn:mesur:ctx:use:" + digest16(f"{event_id}|{scope}")
        if recorded != ctx:
            unrecorded.append(("event", event_id, ctx))
        if ctx not in held:
            report.uses += 1
            if access_type:
                add(ctx, has_access_type, access_type, _STRING)
            add(ctx, has_document, doc_iris[doc_id], _IRI)
            add(ctx, has_provider, provider_id)
            if session:
                add(ctx, has_session, session, _STRING)
            add(ctx, has_time, time, _TIME)
            if agent:
                add(ctx, has_user, humans[agent], _IRI)
            add(ctx, rdf_type, uses)
            if agent:
                type_once(humans[agent], human_class)
        if not (affiliations and affiliation and agent):
            continue
        aff = "urn:mesur:ctx:aff:" + digest16(f"{event_id}|{_normalize_name(affiliation)}|{scope}")
        if aff in held_affiliations:
            continue
        report.affiliations += 1
        add(aff, has_affiliatee, humans[agent], _IRI)
        add(aff, has_affiliator, orgs[affiliation], _IRI)
        add(aff, has_start_time, time, _TIME)
        add(aff, rdf_type, affiliation_class)
        type_once(orgs[affiliation], organization)

    held = _typed_iris(store, CITATION)
    for citing, cited in cursor.execute(
        "SELECT citing_doc_id, cited_doc_id FROM citation_pairs"
        " ORDER BY citing_doc_id, cited_doc_id"
    ):
        ctx = "urn:mesur:ctx:cite:" + digest16(f"{citing}|{cited}|{scope}")
        if ctx in held:
            continue
        report.citations += 1
        add(ctx, has_sink, doc_iris[cited], _IRI)
        add(ctx, has_source, doc_iris[citing], _IRI)
        add(ctx, has_weight, unit_weight)
        add(ctx, rdf_type, citation)

    # the times first, so a bad one fails before a text is interned; then
    # the IRIs, subjects first, so a subject's id is its first sight's
    times = normalize_datetimes(objects[_TIME])
    iris = store.intern_texts(subjects + objects[_IRI])
    count = len(subjects)
    del subjects
    # each object id, taken in row order from the column of its row's kind
    columns = [
        iter(objects[_ID]),
        iter(iris[count:]),
        iter(store.intern_texts(objects[_STRING], Datatype.STRING)),
        iter(store.intern_texts(times, Datatype.DATETIME)),
    ]
    del objects, times
    store.add_rows(IdColumns(iris[:count], predicates, array("I", map(next, map(columns.__getitem__, kinds)))))
    cursor.executemany(
        "INSERT INTO id_map (kind, key, iri) VALUES (?, ?, ?)"
        " ON CONFLICT (kind, key) DO UPDATE SET iri = excluded.iri",
        unrecorded,
    )
    db.commit()
    return report
