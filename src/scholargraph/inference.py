"""Named materialization rules with exact retraction.

The five property rules are ordinary scripts in the query dialect (their
texts below) executed through the normal evaluator.  The dialect is imported,
and the scripts parsed, the first time a rule runs, so retraction never
loads the query engine.  The store's ledger records, per rule,
exactly the triples that the rule newly added: each stored row carries one
tag, 0 for a base fact or the rule that added it (:meth:`Store.add_rows`
tags what it adds).  Because the store has set semantics, facts that were
already present keep their tag, so ``ledger ∪ base = store`` and
``ledger ∩ base = ∅`` hold by construction and retraction is exact:
removing the rows a rule tags restores the store to its prior content.
The ledger has one on-disk format, the store snapshot, which carries each
row's tag: :meth:`InferenceEngine.save_ledger` writes the ledgered triples
alone as a snapshot, and :meth:`InferenceEngine.load_ledger` reads the
ledger back from one.

Aggregate derivations (group-level citation weights, coauthor weights) do
not go through scripts: scripts mint a fresh blank per run, while derivation
should be re-runnable.  Each deriver writes a node at a deterministic IRI
keyed by its parameters and upserts its statements, as (predicate, object)
pairs about that node: the node's previous statements are replaced, never
accumulated.

The derivations read the graph through the id-level context scan and write
their nodes through the upsert of :mod:`scholargraph.contexts`, which the
metrics share, so a metric compiles neither the rule scripts nor this engine.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from itertools import combinations
from typing import IO, TYPE_CHECKING, Iterable, Optional, Union

from .contexts import METRIC_RULE, citations_of, derived_iri, scan_contexts, term_id, upsert_node, window_units
from .errors import ScholarGraphError
from .ntriples import serialize_term, serialize_triple
from .ontology import (
    CITATION,
    COAUTHOR,
    HAS_AUTHOR,
    HAS_END_TIME,
    HAS_SINK,
    HAS_SINK_END_TIME,
    HAS_SINK_START_TIME,
    HAS_SOURCE,
    HAS_SOURCE_END_TIME,
    HAS_SOURCE_START_TIME,
    HAS_START_TIME,
    HAS_WEIGHT,
    PUBLISHES,
)
from .store import IdTriple, LedgerError, SnapshotError, Store
from .terms import (
    Datatype,
    Iri,
    Literal,
    RDF_TYPE,
    Term,
    Triple,
    term_sort_key,
    year_literal,
)

if TYPE_CHECKING:
    from .queryl import Script

RULE_SCRIPTS: dict[str, str] = {
    "authored_by": """\
SELECT ?a ?b
WHERE
    ( ?x rdf:type mesur:Publishes )
    ( ?x mesur:hasUnit ?a )
    ( ?x mesur:hasAuthor ?b )

INSERT < ?a mesur:authoredBy ?b >
INSERT < ?b mesur:authored ?a > .
""",
    "contained_in": """\
SELECT ?a ?b
WHERE
    ( ?x rdf:type mesur:Publishes )
    ( ?x mesur:hasUnit ?a )
    ( ?x mesur:hasGroup ?b )

INSERT < ?a mesur:containedIn ?b >
INSERT < ?b mesur:contains ?a > .
""",
    "published_by": """\
SELECT ?a ?b
WHERE
    ( ?x rdf:type mesur:Publishes )
    ( ?x mesur:hasPublisher ?a )
    ( ?x mesur:hasGroup ?b )

INSERT < ?a mesur:published ?b >
INSERT < ?b mesur:publishedBy ?a > .
""",
    "used_by": """\
SELECT ?a ?b ?c
WHERE
    ( ?x rdf:type mesur:Uses )
    ( ?x mesur:hasDocument ?a )
    ( ?a rdf:type mesur:Article )
    ( ?x mesur:hasUser ?b )
    ( ?y rdf:type mesur:Publishes )
    ( ?y mesur:hasUnit ?a )
    ( ?y mesur:hasGroup ?c )

INSERT < ?a mesur:usedBy ?b >
INSERT < ?b mesur:used ?a >
INSERT < ?c mesur:usedBy ?b >
INSERT < ?b mesur:used ?c > .
""",
    "affiliation": """\
SELECT ?a ?b
WHERE
    ( ?x rdf:type mesur:Affiliation )
    ( ?x mesur:hasAffiliator ?a )
    ( ?x mesur:hasAffiliatee ?b )

INSERT < ?a mesur:hasAffiliate ?b >
INSERT < ?b mesur:hasAffiliation ?a > .
""",
}

class InferenceError(ScholarGraphError):
    """Bad derivation arguments (self-coauthorship, empty windows, ...)."""


class UnknownRuleError(ScholarGraphError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown rule: {name!r} (known: {', '.join(sorted(RULE_SCRIPTS))})")
        self.name = name


def _weight_literal(count: int) -> Literal:
    return Literal(str(Decimal(count).quantize(Decimal("0.1"))), Datatype.DECIMAL)


def _check_window(window: tuple[int, int], name: str) -> tuple[int, int]:
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise InferenceError(f"{name} window is empty: {lo}..{hi}")
    return lo, hi


class InferenceEngine:
    """Runs registered rules and derivations against one store.

    Everything the engine materializes is recorded in the store's ledger,
    as the rule tag of each row it added (:meth:`Store.add_rows`,
    :meth:`Store.ledger_rows`), which the store snapshot carries, so
    retraction works across processes and removes by id.  Derived nodes,
    metric nodes included, enter it through :func:`upsert_node`.
    :meth:`ledger_entries` decodes one rule's rows; :meth:`save_ledger` and
    :meth:`load_ledger` dump the ledger to, and read it from, a snapshot.
    """

    GROUP_CITATION = "group_citation"
    COAUTHOR_RULE = "coauthor"
    METRIC_RULE = METRIC_RULE

    def __init__(self, store: Store) -> None:
        self.store = store
        self._scripts: Optional[dict[str, Script]] = None  # parsed when a rule first runs

    # -- property rules --------------------------------------------------------

    def rules(self) -> tuple[str, ...]:
        return tuple(sorted(RULE_SCRIPTS))

    def run_rule(self, name: str) -> int:
        """Execute one rule; ledger the new triples; return how many."""
        if name not in RULE_SCRIPTS:
            raise UnknownRuleError(name)
        from .queryl import execute_script, parse_script

        if self._scripts is None:
            self._scripts = {rule: parse_script(text) for rule, text in RULE_SCRIPTS.items()}
        return execute_script(self.store, self._scripts[name], rule=name).inserted

    def run_all(self) -> dict[str, int]:
        return {name: self.run_rule(name) for name in self.rules()}

    def retract_rule(self, name: str) -> int:
        """Remove exactly what the rule added; 0 if it never ran."""
        if name not in RULE_SCRIPTS and name not in self.store.ledger_counts():
            raise UnknownRuleError(name)
        return self._retract([name])

    def retract_all(self) -> int:
        return self._retract(self.ledger_rules())

    def _retract(self, names: Iterable[str]) -> int:
        return sum(len(self.store.drop_rows(self.store.ledger_rows(name))) for name in names)

    def ledger_entries(self, name: str) -> frozenset[Triple]:
        """The triples ``name`` added, decoded from the ledger's ids."""
        return frozenset(map(self.store.decode_triple, self.store.ledger_rows(name)))

    def ledger_rules(self) -> tuple[str, ...]:
        """The rules that ledger a triple, in name order."""
        return tuple(name for name, count in self.store.ledger_counts().items() if count)

    # -- aggregate derivations ---------------------------------------------------

    def derive_group_citation(
        self,
        source_root: Term,
        sink_root: Term,
        source_window: tuple[int, int],
        sink_window: tuple[int, int],
        transitive: bool = True,
    ) -> Iri:
        """Group-to-group citation weight node.

        Counts Citation nodes whose source unit has a Publishes in a group
        under ``source_root`` timed in ``source_window`` and whose sink unit
        likewise under ``sink_root`` in ``sink_window``.  A zero count still
        writes the node (weight 0.0).
        """
        source_window = _check_window(source_window, "source")
        sink_window = _check_window(sink_window, "sink")
        src_units = window_units(self.store, source_root, source_window, transitive)
        sink_units = window_units(self.store, sink_root, sink_window, transitive)
        cited = {citation for citation, source, _ in citations_of(self.store, sink_units) if source in src_units}
        weight = len(cited)
        key = "|".join(
            (
                serialize_term(source_root),
                serialize_term(sink_root),
                f"{source_window[0]}-{source_window[1]}",
                f"{sink_window[0]}-{sink_window[1]}",
            )
        )
        node = derived_iri("group-citation", key)
        pairs = [
            (RDF_TYPE, CITATION),
            (HAS_SOURCE, source_root),
            (HAS_SINK, sink_root),
            (HAS_WEIGHT, _weight_literal(weight)),
            (HAS_SOURCE_START_TIME, year_literal(source_window[0])),
            (HAS_SOURCE_END_TIME, year_literal(source_window[1])),
            (HAS_SINK_START_TIME, year_literal(sink_window[0])),
            (HAS_SINK_END_TIME, year_literal(sink_window[1])),
        ]
        upsert_node(self.store, {node: pairs}, self.GROUP_CITATION)
        return node

    def coauthor_weight(self, a: Term, b: Term, window: Optional[tuple[int, int]] = None) -> int:
        """Number of Publishes contexts carrying both authors (in window)."""
        store = self.store
        has_author, b_id = term_id(store, HAS_AUTHOR), term_id(store, b)
        joint = scan_contexts(store, PUBLISHES, HAS_AUTHOR, term_id(store, a), window)
        return sum(1 for ctx in joint if store.contains_ids(ctx, has_author, b_id))

    def derive_coauthor(
        self, a: Term, b: Term, window: Optional[tuple[int, int]] = None
    ) -> tuple[Iri, Iri]:
        """Both directed Coauthor nodes for a pair, equal weights."""
        if a == b:
            raise InferenceError("self-coauthorship is undefined (both authors are the same node)")
        if window is not None:
            window = _check_window(window, "coauthor")
        nodes = self._coauthor_nodes(a, b, window, self.coauthor_weight(a, b, window))
        upsert_node(self.store, nodes, self.COAUTHOR_RULE)
        first, second = nodes
        return first, second

    def _coauthor_nodes(
        self, a: Term, b: Term, window: Optional[tuple[int, int]], weight: int
    ) -> dict[Iri, list[tuple[Iri, Term]]]:
        """The statements of both directed Coauthor nodes of a pair, a to b
        first, as (predicate, object) pairs."""
        nodes: dict[Iri, list[tuple[Iri, Term]]] = {}
        window_key = "all" if window is None else f"{window[0]}-{window[1]}"
        weighted = (HAS_WEIGHT, _weight_literal(weight))
        for source, sink in ((a, b), (b, a)):
            key = "|".join((serialize_term(source), serialize_term(sink), window_key))
            node = derived_iri("coauthor", key)
            pairs = [(RDF_TYPE, COAUTHOR), (HAS_SOURCE, source), (HAS_SINK, sink), weighted]
            if window is not None:
                pairs += [(HAS_START_TIME, year_literal(window[0])), (HAS_END_TIME, year_literal(window[1]))]
            nodes[node] = pairs
        return nodes

    def derive_all_coauthors(
        self, window: Optional[tuple[int, int]] = None
    ) -> list[tuple[Iri, Iri]]:
        """Derive every author pair with at least one joint Publishes.

        One pass over the Publishes contexts (in window) counts every pair
        of distinct authors they carry, so zero-weight pairs cannot arise
        and the all-pairs quadratic blowup is avoided.  All the nodes are
        written by one upsert.
        """
        if window is not None:
            window = _check_window(window, "coauthor")
        store = self.store
        has_author = term_id(store, HAS_AUTHOR)
        weights: Counter[tuple[Term, Term]] = Counter()
        for ctx in scan_contexts(store, PUBLISHES, RDF_TYPE, term_id(store, PUBLISHES), window):
            authors = {store.decode(author) for _, _, author in store.match_ids(ctx, has_author, None)}
            weights.update(combinations(sorted(authors, key=term_sort_key), 2))
        pairs = sorted(weights, key=lambda pair: (term_sort_key(pair[0]), term_sort_key(pair[1])))
        nodes: dict[Iri, list[tuple[Iri, Term]]] = {}
        derived: list[tuple[Iri, Iri]] = []
        for a, b in pairs:
            pair_nodes = self._coauthor_nodes(a, b, window, weights[a, b])
            nodes.update(pair_nodes)
            first, second = pair_nodes
            derived.append((first, second))
        upsert_node(store, nodes, self.COAUTHOR_RULE)
        return derived

    # -- persistence ---------------------------------------------------------------

    def save_ledger(self, target: Union[str, IO[bytes]]) -> None:
        """Dump the ledger as a snapshot (:meth:`Store.save`) of the ledgered
        triples alone, each tagged with its rule."""
        store, dump = self.store, Store()

        def copied(term_id: int) -> int:
            return dump.intern(store.decode(term_id))

        for name in self.ledger_rules():
            dump.add_rows([(copied(s), copied(p), copied(o)) for s, p, o in store.ledger_rows(name)], name)
        dump.save(target)

    def load_ledger(self, source: Union[str, IO[bytes]]) -> None:
        """Replace the store's ledger, in place, with the one a snapshot
        carries: a :meth:`save_ledger` dump, or any saved store.

        Every triple the dump ledgers must be in the store; one that is not
        means store and dump are out of step, and leaves the ledger as it
        was.  A load never changes the store's triples or its term table.
        """
        try:
            dump = Store.load(source)
        except SnapshotError as exc:
            raise LedgerError(f"not a ledger dump: {exc}") from None
        store = self.store
        ledger: dict[str, list[IdTriple]] = {}
        for name in dump.ledger_counts():
            rows = ledger[name] = []
            for triple in map(dump.decode_triple, dump.ledger_rows(name)):
                row = store.lookup_triple(triple)
                if row is None or not store.contains_ids(*row):
                    raise LedgerError(
                        f"ledger triple for rule {name!r} is not in the store: {serialize_triple(triple)}"
                    )
                rows.append(row)
        for name in ledger:
            store.retag((), name)  # names each rule, so a full name table fails before any change
        for name in self.ledger_rules():
            store.retag(store.ledger_rows(name), None)
        for name, rows in ledger.items():
            store.retag(rows, name)
