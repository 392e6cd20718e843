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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union
from urllib.parse import quote

from .ontology import (
    AFFILIATION, ARTICLE, CITATION, GROUP, HAS_ACCESS_TYPE, HAS_AFFILIATEE, HAS_AFFILIATOR, HAS_AUTHOR,
    HAS_DOCUMENT, HAS_GROUP, HAS_PROVIDER, HAS_PUBLISHER, HAS_SESSION, HAS_SINK, HAS_SOURCE, HAS_START_TIME,
    HAS_TIME, HAS_UNIT, HAS_USER, HAS_WEIGHT, HUMAN, JOURNAL, ORGANIZATION, PART_OF, PUBLISHES, USES, digest16,
)
from .record import Record
from .terms import Datatype, Iri, Literal, RDF_TYPE, Term, datetime_literal, string_literal

if TYPE_CHECKING:  # pragma: no cover
    import sqlite3

    from .store import Store


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


def _agent_iri(kind: str, name: str, provider: Iri) -> Iri:
    digest = digest16(f"{kind}|{_normalize_name(name)}|{provider.value}")
    base = "urn:mesur:agent:" if kind == "human" else "urn:mesur:org:"
    return Iri(base + digest)


def _group_iris(collection: str, year: str, provider: Iri) -> tuple[Iri, Iri]:
    norm = _normalize_name(collection)
    root = Iri("urn:mesur:group:" + digest16(f"root|{norm}|{provider.value}"))
    edition = Iri("urn:mesur:group:ed:" + digest16(f"{norm}|{year}|{provider.value}"))
    return root, edition


def map_to_graph(db: sqlite3.Connection, store: Store, provider: Union[Iri, str], affiliations: bool) -> MapReport:
    """Project the sidecar ``db``'s records into the store; see
    :meth:`Sidecar.map_to_graph <scholargraph.sidecar.Sidecar.map_to_graph>`."""
    provider = Iri(provider) if isinstance(provider, str) else provider
    report = MapReport()
    cursor = db.cursor()
    # the ids of the projected triples, three to a triple: interning
    # each term as it is projected keeps no term object in the batch
    ids: list[int] = []
    intern = store.intern

    def add(triple: tuple[Term, Term, Term]) -> None:
        ids.extend(map(intern, triple))

    add((provider, RDF_TYPE, ORGANIZATION))
    # (kind, key, IRI) rows the id map lacks or holds with another IRI
    unrecorded: list[tuple[str, str, str]] = []

    held = _typed_iris(store, PUBLISHES)
    doc_iris: dict[str, Iri] = {}
    for row in cursor.execute(
        "SELECT doc_id, authors, collection, publisher, date, doi, iri FROM biblio"
        " LEFT JOIN id_map ON kind = 'doc' AND key = doc_id ORDER BY doc_id"
    ):
        doc_id, authors, collection, publisher, date, doi, recorded = row
        unit = doc_iris[doc_id] = unit_iri(doc_id, doi)
        if recorded != unit.value:
            unrecorded.append(("doc", doc_id, unit.value))
        ctx_iri = "urn:mesur:ctx:pub:" + digest16(f"{doc_id}|{provider.value}")
        if ctx_iri in held:
            continue
        ctx = Iri(ctx_iri)
        report.publishes += 1
        add((ctx, RDF_TYPE, PUBLISHES))
        add((ctx, HAS_UNIT, unit))
        add((unit, RDF_TYPE, ARTICLE))
        add((ctx, HAS_PROVIDER, provider))
        if date:
            add((ctx, HAS_TIME, datetime_literal(date)))
        if collection:
            year = date.split("-")[0] if date else ""
            root, edition = _group_iris(collection, year, provider)
            add((root, RDF_TYPE, JOURNAL))
            add((edition, RDF_TYPE, GROUP))
            add((edition, PART_OF, root))
            add((ctx, HAS_GROUP, edition))
        if publisher:
            org = _agent_iri("org", publisher, provider)
            add((org, RDF_TYPE, ORGANIZATION))
            add((ctx, HAS_PUBLISHER, org))
        for name in (authors or "").split("|"):
            if not name.strip():
                continue
            human = _agent_iri("human", name, provider)
            add((human, RDF_TYPE, HUMAN))
            add((ctx, HAS_AUTHOR, human))

    held = _typed_iris(store, USES)
    held_affiliations = _typed_iris(store, AFFILIATION) if affiliations else set()
    for row in cursor.execute(
        "SELECT event_id, time, agent, session, affiliation, access_type, doc_id, iri"
        " FROM usage_events LEFT JOIN id_map ON kind = 'event' AND key = event_id"
        " ORDER BY event_id"
    ):
        event_id, time, agent, session, affiliation, access_type, doc_id, recorded = row
        ctx_iri = "urn:mesur:ctx:use:" + digest16(f"{event_id}|{provider.value}")
        if recorded != ctx_iri:
            unrecorded.append(("event", event_id, ctx_iri))
        if ctx_iri not in held:
            ctx = Iri(ctx_iri)
            report.uses += 1
            add((ctx, RDF_TYPE, USES))
            add((ctx, HAS_DOCUMENT, doc_iris[doc_id]))
            add((ctx, HAS_TIME, datetime_literal(time)))
            add((ctx, HAS_PROVIDER, provider))
            if agent:
                user = _agent_iri("human", agent, provider)
                add((user, RDF_TYPE, HUMAN))
                add((ctx, HAS_USER, user))
            if session:
                add((ctx, HAS_SESSION, string_literal(session)))
            if access_type:
                add((ctx, HAS_ACCESS_TYPE, string_literal(access_type)))
        if not (affiliations and affiliation and agent):
            continue
        aff_iri = "urn:mesur:ctx:aff:" + digest16(
            f"{event_id}|{_normalize_name(affiliation)}|{provider.value}"
        )
        if aff_iri in held_affiliations:
            continue
        aff = Iri(aff_iri)
        org = _agent_iri("org", affiliation, provider)
        report.affiliations += 1
        add((org, RDF_TYPE, ORGANIZATION))
        add((aff, RDF_TYPE, AFFILIATION))
        add((aff, HAS_AFFILIATOR, org))
        add((aff, HAS_AFFILIATEE, _agent_iri("human", agent, provider)))
        add((aff, HAS_START_TIME, datetime_literal(time)))

    held = _typed_iris(store, CITATION)
    for citing, cited in cursor.execute(
        "SELECT citing_doc_id, cited_doc_id FROM citation_pairs"
        " ORDER BY citing_doc_id, cited_doc_id"
    ):
        ctx_iri = "urn:mesur:ctx:cite:" + digest16(f"{citing}|{cited}|{provider.value}")
        if ctx_iri in held:
            continue
        ctx = Iri(ctx_iri)
        report.citations += 1
        add((ctx, RDF_TYPE, CITATION))
        add((ctx, HAS_SOURCE, doc_iris[citing]))
        add((ctx, HAS_SINK, doc_iris[cited]))
        add((ctx, HAS_WEIGHT, Literal("1.0", Datatype.DECIMAL)))

    store.add_rows(zip(*[iter(ids)] * 3))  # one iterator, read three ids to a row
    cursor.executemany(
        "INSERT INTO id_map (kind, key, iri) VALUES (?, ?, ?)"
        " ON CONFLICT (kind, key) DO UPDATE SET iri = excluded.iri",
        unrecorded,
    )
    db.commit()
    return report
