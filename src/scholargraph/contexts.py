"""The id-level context scan, and the upsert that writes a derived node.

The derivations (:mod:`scholargraph.inference`) and the metrics
(:mod:`scholargraph.metrics`) read the graph through one scan,
:func:`scan_contexts`: the contexts of a class that state ``(ctx, p, o)``,
optionally timed in a window.  A term the store lacks reads as id -1
(:func:`term_id`), which no probe matches.  Both write what they derive
through :func:`upsert_node`, at an IRI that :func:`derived_iri` mints from
the node's parameters, as (predicate, object) pairs about that node: every
statement an upsert writes has the node as its subject.  This module holds
no rule script and no engine, so a metric compiles neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional

from .ontology import CITATION, HAS_GROUP, HAS_SINK, HAS_SOURCE, HAS_TIME, HAS_UNIT, PART_OF, PUBLISHES
from .ontology import UnknownNodeError, digest16
from .terms import Datatype, Iri, Literal, RDF_TYPE, Term

if TYPE_CHECKING:  # pragma: no cover
    from .store import IdTriple, Store

DERIVED_BASE = "urn:mesur:derived:"
METRIC_RULE = "metric"  # the ledger rule of every metric node


def year_of(term: Term) -> Optional[int]:
    """Leading year of a datetime (or integer) literal, else None."""
    if isinstance(term, Literal) and term.datatype in (Datatype.DATETIME, Datatype.INTEGER):
        return term.year()
    return None


def term_id(store: Store, term: Term) -> int:
    """Id of ``term``, or -1 if the store lacks it: no probe matches -1,
    whereas :meth:`Store.match_ids` reads ``None`` as a wildcard."""
    found = store.lookup(term)
    return -1 if found is None else found


def scan_contexts(
    store: Store, cls: Iri, predicate: Iri, obj: int, window: Optional[tuple[int, int]] = None
) -> Iterator[int]:
    """Ids of the contexts of class ``cls`` that state ``(ctx, predicate,
    obj)``; with ``window``, only those with a hasTime year in it.

    Every probe binds the predicate and the subject or the object, so the
    scan touches only the contexts that state ``obj``.
    """
    rdf_type, cls_id, has_time = term_id(store, RDF_TYPE), term_id(store, cls), term_id(store, HAS_TIME)
    for ctx, _, _ in store.match_ids(None, term_id(store, predicate), obj):
        if not store.contains_ids(ctx, rdf_type, cls_id):
            continue
        if window is not None:
            lo, hi = window
            years = (year_of(store.decode(time)) for _, _, time in store.match_ids(ctx, has_time, None))
            if not any(year is not None and lo <= year <= hi for year in years):
                continue
        yield ctx


def descendant_groups(store: Store, root: int, transitive: bool = True) -> set[int]:
    """Ids of the groups reachable from ``root`` against partOf (one hop or
    the closure), the root itself excluded."""
    part_of = term_id(store, PART_OF)
    seen = {root}
    frontier = [root]
    while frontier:
        fresh: list[int] = []
        for group in frontier:
            for child, _, _ in store.match_ids(None, part_of, group):
                if child not in seen:
                    seen.add(child)
                    fresh.append(child)
        if not transitive:
            break
        frontier = fresh
    seen.discard(root)
    return seen


def window_units(store: Store, root: Term, window: tuple[int, int], transitive: bool) -> set[int]:
    """Ids of the distinct units of the Publishes contexts timed in
    ``window`` whose group is under ``root``."""
    if not store.appears(root):
        raise UnknownNodeError(root)
    has_unit = term_id(store, HAS_UNIT)
    units: set[int] = set()
    for group in descendant_groups(store, term_id(store, root), transitive):
        for ctx in scan_contexts(store, PUBLISHES, HAS_GROUP, group, window):
            units.update(unit for _, _, unit in store.match_ids(ctx, has_unit, None))
    return units


def citations_of(store: Store, sinks: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """(citation, source, sink) for each source of each Citation context
    whose hasSink is one of ``sinks``."""
    has_source = term_id(store, HAS_SOURCE)
    for sink in sinks:
        for citation in scan_contexts(store, CITATION, HAS_SINK, sink):
            for _, _, source in store.match_ids(citation, has_source, None):
                yield citation, source, sink


def derived_iri(kind: str, key: str) -> Iri:
    return Iri(f"{DERIVED_BASE}{kind}:{digest16(key)}")


def upsert_node(store: Store, nodes: Mapping[Term, Iterable[tuple[Iri, Term]]], rule: str) -> bool:
    """Replace all statements about each node of ``nodes`` with its
    (predicate, object) pairs, ledgered under ``rule``; whether the store
    or its ledger changed.

    A removed statement leaves the store with its ledger tag; each new one
    is ledgered under ``rule`` alone, so the rules' entries stay disjoint.
    Only the net change is written: the statements that come in are one
    batch, the ones that go out are one, and the held statements that are
    put back are retagged under ``rule`` in one call, so nodes whose
    statements are already their pairs, all ledgered under ``rule``, are
    left as they are.  An empty mapping writes nothing and names no rule.
    """
    if not nodes:
        return False
    intern = store.intern
    held: set[IdTriple] = set()
    final: set[IdTriple] = set()
    for node, pairs in nodes.items():
        node_id = store.lookup(node)  # None: a node no statement names
        if node_id is not None:
            held.update(store.match_ids(node_id, None, None))
        final.update((intern(node), intern(predicate), intern(obj)) for predicate, obj in pairs)
    # the adds first: a full rule-name table fails them before any change
    inserted = store.add_rows(final - held, rule)
    removed = store.drop_rows(held - final)
    retagged = store.retag(final & held, rule)
    return bool(removed or inserted or retagged)
