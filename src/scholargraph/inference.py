"""Named materialization rules with exact retraction.

The five property rules are ordinary scripts in the query dialect (their
texts below) executed through the normal evaluator.  The dialect is imported,
and the scripts parsed, the first time a rule runs, so retraction and the
metrics never load the query engine.  The engine records, per
rule, exactly the triples that the rule newly added.  Because the store has
set semantics, facts that were already present never enter the ledger, so
``ledger ∪ base = store`` and ``ledger ∩ base = ∅`` hold by construction and
retraction is exact: removing a rule's ledger entries restores the store to
its prior content.

Aggregate derivations (group-level citation weights, coauthor weights) do
not go through scripts: scripts mint a fresh blank per run, while derivation
should be re-runnable.  Each deriver writes a node at a deterministic IRI
keyed by its parameters and upserts: the node's previous statements are
replaced, never accumulated.
"""

from __future__ import annotations

import hashlib
from decimal import Decimal
from typing import IO, TYPE_CHECKING, Iterable, Optional, Union

from .errors import ScholarGraphError
from .ntriples import parse_ntriples, serialize_term, serialize_triple
from .ontology import (
    CITATION,
    COAUTHOR,
    HAS_AUTHOR,
    HAS_END_TIME,
    HAS_GROUP,
    HAS_SINK,
    HAS_SINK_END_TIME,
    HAS_SINK_START_TIME,
    HAS_SOURCE,
    HAS_SOURCE_END_TIME,
    HAS_SOURCE_START_TIME,
    HAS_START_TIME,
    HAS_TIME,
    HAS_UNIT,
    HAS_WEIGHT,
    PART_OF,
    PUBLISHES,
    UnknownNodeError,
)
from .store import IdTriple, Store
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

DERIVED_BASE = "urn:mesur:derived:"

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

_LEDGER_MAGIC = "#scholargraph-ledger v1"


class InferenceError(ScholarGraphError):
    """Bad derivation arguments (self-coauthorship, empty windows, ...)."""


class UnknownRuleError(ScholarGraphError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown rule: {name!r} (known: {', '.join(sorted(RULE_SCRIPTS))})")
        self.name = name


class LedgerError(ScholarGraphError):
    """A ledger file is malformed or inconsistent with the store."""


# -- ontology-aware graph helpers (shared with the metrics module) -----------


def year_of(term: Term) -> Optional[int]:
    """Leading year of a datetime (or integer) literal, else None."""
    if isinstance(term, Literal) and term.datatype in (Datatype.DATETIME, Datatype.INTEGER):
        return term.year()
    return None


def partof_descendants(store: Store, root: Term, transitive: bool = True) -> set[Term]:
    """Groups reachable from ``root`` against partOf (one hop or closure)."""
    seen: set[Term] = {root}
    out: set[Term] = set()
    frontier = [root]
    while frontier:
        fresh: list[Term] = []
        for group in frontier:
            for child in store.subjects(PART_OF, group):
                if child not in seen:
                    seen.add(child)
                    out.add(child)
                    fresh.append(child)
        if not transitive:
            break
        frontier = fresh
    out.discard(root)
    return out


def units_published_in(store: Store, groups: Iterable[Term], window: tuple[int, int]) -> set[Term]:
    """Distinct units with a Publishes in one of ``groups`` timed in window."""
    lo, hi = window
    units: set[Term] = set()
    for group in groups:
        for ctx in store.subjects(HAS_GROUP, group):
            if not store.contains(Triple(ctx, RDF_TYPE, PUBLISHES)):
                continue
            years = (year_of(t) for t in store.objects(ctx, HAS_TIME))
            if any(y is not None and lo <= y <= hi for y in years):
                units.update(store.objects(ctx, HAS_UNIT))
    return units


def published_in_year(store: Store, unit: Term, year: int) -> bool:
    """True if some Publishes context carries the unit with a time in year."""
    for ctx in store.subjects(HAS_UNIT, unit):
        if not store.contains(Triple(ctx, RDF_TYPE, PUBLISHES)):
            continue
        if any(year_of(t) == year for t in store.objects(ctx, HAS_TIME)):
            return True
    return False


def derived_iri(kind: str, key: str) -> Iri:
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]
    return Iri(f"{DERIVED_BASE}{kind}:{digest}")


def _weight_literal(count: int) -> Literal:
    return Literal(str(Decimal(count).quantize(Decimal("0.1"))), Datatype.DECIMAL)


def _check_window(window: tuple[int, int], name: str) -> tuple[int, int]:
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise InferenceError(f"{name} window is empty: {lo}..{hi}")
    return lo, hi


def upsert_node(store: Store, node: Iri, triples: Iterable[Triple], rule: str) -> bool:
    """Replace all statements about ``node`` with ``triples``, ledgered
    under ``rule``; whether the store or its ledger changed.

    Each removed statement leaves every rule's entry in the store's ledger,
    so the ledger names only triples the store holds.  Each newly added one
    enters ``rule``'s entry; a statement the store already held stays a
    base fact, keeping ledger/base disjointness intact.  The old statements
    go out as one batch and the new ones come in as one; a node whose
    statements are already ``triples``, all ledgered under ``rule``, is
    left as it is.
    """
    node_id = store.lookup(node)
    held = set() if node_id is None else set(store.match_ids(node_id, None, None))
    intern = store.intern
    new = {(intern(t.subject), intern(t.predicate), intern(t.object)) for t in triples}
    ledger = store.ledger
    entry = ledger.setdefault(rule, set())
    ledgered = held <= entry and all(other.isdisjoint(held) for name, other in ledger.items() if name != rule)
    if ledgered and new == held:
        return False
    removed = store.drop_rows(held)
    for other in ledger.values():
        other.difference_update(removed)
    added = store.add_rows(new)
    entry.update(added)
    return not ledgered or set(added) != held


def _triple_sort_key(triple: Triple) -> tuple:
    return (
        term_sort_key(triple.subject),
        term_sort_key(triple.predicate),
        term_sort_key(triple.object),
    )


class InferenceEngine:
    """Runs registered rules and derivations against one store.

    Everything the engine materializes is recorded, as id triples, in the
    store's ledger (:attr:`Store.ledger`), which the store snapshot
    carries, so retraction works across processes and removes by id.
    Derived nodes, metric nodes included, enter it through
    :func:`upsert_node`.  :meth:`ledger_entries` decodes one rule's entry;
    :meth:`save_ledger` and :meth:`load_ledger` dump and read the ledger as
    N-Triples sections.
    """

    GROUP_CITATION = "group_citation"
    COAUTHOR_RULE = "coauthor"
    METRIC_RULE = "metric"

    def __init__(self, store: Store) -> None:
        self.store = store
        self._scripts: Optional[dict[str, Script]] = None  # parsed when a rule first runs

    # -- property rules --------------------------------------------------------

    def rules(self) -> tuple[str, ...]:
        return tuple(sorted(RULE_SCRIPTS))

    def rule_text(self, name: str) -> str:
        if name not in RULE_SCRIPTS:
            raise UnknownRuleError(name)
        return RULE_SCRIPTS[name]

    def run_rule(self, name: str) -> int:
        """Execute one rule; ledger the new triples; return how many."""
        if name not in RULE_SCRIPTS:
            raise UnknownRuleError(name)
        from .queryl import execute_script, parse_script

        if self._scripts is None:
            self._scripts = {rule: parse_script(text) for rule, text in RULE_SCRIPTS.items()}
        report = execute_script(self.store, self._scripts[name])
        if report.new_ids:
            self.store.ledger.setdefault(name, set()).update(report.new_ids)
        return report.inserted

    def run_all(self) -> dict[str, int]:
        return {name: self.run_rule(name) for name in self.rules()}

    def retract_rule(self, name: str) -> int:
        """Remove exactly what the rule added; 0 if it never ran."""
        if name not in RULE_SCRIPTS and name not in self.store.ledger:
            raise UnknownRuleError(name)
        return self._retract([name])

    def retract_all(self) -> int:
        return self._retract(list(self.store.ledger))

    def _retract(self, names: list[str]) -> int:
        return sum(len(self.store.drop_rows(self.store.ledger.pop(name, ()))) for name in names)

    def ledger_entries(self, name: str) -> frozenset[Triple]:
        """The triples ``name`` added, decoded from the ledger's ids."""
        return frozenset(map(self.store.decode_triple, self.store.ledger.get(name, ())))

    def ledger_rules(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, entry in self.store.ledger.items() if entry))

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
        for root in (source_root, sink_root):
            if not self.store.appears(root):
                raise UnknownNodeError(root)
        src_groups = partof_descendants(self.store, source_root, transitive)
        sink_groups = partof_descendants(self.store, sink_root, transitive)
        src_units = units_published_in(self.store, src_groups, source_window)
        sink_units = units_published_in(self.store, sink_groups, sink_window)
        weight = 0
        for citation in self.store.subjects(RDF_TYPE, CITATION):
            sources = self.store.objects(citation, HAS_SOURCE)
            if not any(s in src_units for s in sources):
                continue
            sinks = self.store.objects(citation, HAS_SINK)
            if any(k in sink_units for k in sinks):
                weight += 1
        key = "|".join(
            (
                serialize_term(source_root),
                serialize_term(sink_root),
                f"{source_window[0]}-{source_window[1]}",
                f"{sink_window[0]}-{sink_window[1]}",
            )
        )
        node = derived_iri("group-citation", key)
        triples = [
            Triple(node, RDF_TYPE, CITATION),
            Triple(node, HAS_SOURCE, source_root),
            Triple(node, HAS_SINK, sink_root),
            Triple(node, HAS_WEIGHT, _weight_literal(weight)),
            Triple(node, HAS_SOURCE_START_TIME, year_literal(source_window[0])),
            Triple(node, HAS_SOURCE_END_TIME, year_literal(source_window[1])),
            Triple(node, HAS_SINK_START_TIME, year_literal(sink_window[0])),
            Triple(node, HAS_SINK_END_TIME, year_literal(sink_window[1])),
        ]
        upsert_node(self.store, node, triples, self.GROUP_CITATION)
        return node

    def coauthor_weight(self, a: Term, b: Term, window: Optional[tuple[int, int]] = None) -> int:
        """Number of Publishes contexts carrying both authors (in window)."""
        weight = 0
        for ctx in self.store.subjects(HAS_AUTHOR, a):
            if not self.store.contains(Triple(ctx, RDF_TYPE, PUBLISHES)):
                continue
            if not self.store.contains(Triple(ctx, HAS_AUTHOR, b)):
                continue
            if window is not None:
                years = (year_of(t) for t in self.store.objects(ctx, HAS_TIME))
                if not any(y is not None and window[0] <= y <= window[1] for y in years):
                    continue
            weight += 1
        return weight

    def derive_coauthor(
        self, a: Term, b: Term, window: Optional[tuple[int, int]] = None
    ) -> tuple[Iri, Iri]:
        """Both directed Coauthor nodes for a pair, equal weights."""
        if a == b:
            raise InferenceError("self-coauthorship is undefined (both authors are the same node)")
        if window is not None:
            window = _check_window(window, "coauthor")
        weight = self.coauthor_weight(a, b, window)
        nodes: list[Iri] = []
        window_key = "all" if window is None else f"{window[0]}-{window[1]}"
        for source, sink in ((a, b), (b, a)):
            key = "|".join((serialize_term(source), serialize_term(sink), window_key))
            node = derived_iri("coauthor", key)
            triples = [
                Triple(node, RDF_TYPE, COAUTHOR),
                Triple(node, HAS_SOURCE, source),
                Triple(node, HAS_SINK, sink),
                Triple(node, HAS_WEIGHT, _weight_literal(weight)),
            ]
            if window is not None:
                triples.append(Triple(node, HAS_START_TIME, year_literal(window[0])))
                triples.append(Triple(node, HAS_END_TIME, year_literal(window[1])))
            upsert_node(self.store, node, triples, self.COAUTHOR_RULE)
            nodes.append(node)
        return (nodes[0], nodes[1])

    def derive_all_coauthors(
        self, window: Optional[tuple[int, int]] = None
    ) -> list[tuple[Iri, Iri]]:
        """Derive every author pair with at least one joint Publishes.

        Zero-weight pairs cannot arise here: candidates come from actual
        joint contexts, so the all-pairs quadratic blowup is avoided.
        """
        if window is not None:
            window = _check_window(window, "coauthor")
        pairs: set[tuple[Term, Term]] = set()
        for ctx in self.store.subjects(RDF_TYPE, PUBLISHES):
            if window is not None:
                years = (year_of(t) for t in self.store.objects(ctx, HAS_TIME))
                if not any(y is not None and window[0] <= y <= window[1] for y in years):
                    continue
            authors = sorted(set(self.store.objects(ctx, HAS_AUTHOR)), key=term_sort_key)
            for i in range(len(authors)):
                for j in range(i + 1, len(authors)):
                    pairs.add((authors[i], authors[j]))
        return [self.derive_coauthor(a, b, window) for a, b in sorted(pairs, key=lambda p: (term_sort_key(p[0]), term_sort_key(p[1])))]

    # -- persistence ---------------------------------------------------------------

    def save_ledger(self, target: Union[str, IO[bytes]]) -> None:
        """Dump the ledger as rule-name sections of N-Triples lines."""
        lines = [_LEDGER_MAGIC]
        for name in self.ledger_rules():
            lines.append(f"#rule {name}")
            for triple in sorted(self.ledger_entries(name), key=_triple_sort_key):
                lines.append(serialize_triple(triple))
        data = ("\n".join(lines) + "\n").encode("utf-8")
        if isinstance(target, str):
            with open(target, "wb") as fp:
                fp.write(data)
        else:
            target.write(data)

    def load_ledger(self, source: Union[str, IO[bytes]], verify: bool = True) -> None:
        """Replace the store's ledger, in place, with a dumped one.

        With ``verify``, every ledger triple must be present in the store;
        a mismatch means snapshot and ledger are out of step.
        """
        if isinstance(source, str):
            with open(source, "rb") as fp:
                raw = fp.read()
        else:
            raw = source.read()
        text = raw.decode("utf-8")
        lines = text.split("\n")
        if not lines or lines[0].strip() != _LEDGER_MAGIC:
            raise LedgerError("not a ledger file (missing header)")
        ledger: dict[str, set[IdTriple]] = {}
        current: Optional[str] = None
        for number, line in enumerate(lines[1:], start=2):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped == "#rule" or stripped.startswith("#rule "):
                current = stripped[len("#rule") :].strip()
                if not current:
                    raise LedgerError(f"empty rule name at line {number}")
                ledger.setdefault(current, set())
                continue
            if stripped.startswith("#"):
                raise LedgerError(f"unexpected comment at line {number}")
            if current is None:
                raise LedgerError(f"triple before any #rule section at line {number}")
            try:
                triple = next(parse_ntriples(line))
            except ScholarGraphError as exc:
                raise LedgerError(f"bad ledger line {number}: {exc}") from None
            if verify and triple not in self.store:
                raise LedgerError(
                    f"ledger triple for rule {current!r} is not in the store: {serialize_triple(triple)}"
                )
            intern = self.store.intern
            ledger[current].add((intern(triple.subject), intern(triple.predicate), intern(triple.object)))
        self.store.ledger.clear()
        self.store.ledger.update(ledger)
