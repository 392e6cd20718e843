"""Brute-force reference implementations and shared fixtures.

Everything here deliberately avoids the package's index and evaluator
machinery: joins run over plain dicts built from a frozen triple list, so a
disagreement points at the real implementation, not a shared bug.
"""

from collections import defaultdict
from decimal import Decimal, ROUND_HALF_EVEN
from itertools import groupby
import random
import re
import struct
import sys
from typing import Iterable
import zlib

from scholargraph.ontology import (
    AFFILIATION,
    ARTICLE,
    AUTHORED,
    AUTHORED_BY,
    BOOK,
    CITATION,
    CONTAINED_IN,
    CONTAINS,
    DISJOINT_SETS,
    GROUP,
    GROUPLESS_UNIT_CLASSES,
    HAS_AFFILIATE,
    HAS_AFFILIATEE,
    HAS_AFFILIATION_PROP,
    HAS_AFFILIATOR,
    HAS_AUTHOR,
    HAS_DOCUMENT,
    HAS_GROUP,
    HAS_PROVIDER,
    HAS_PUBLISHER,
    HAS_SESSION,
    HAS_SINK,
    HAS_SOURCE,
    HAS_TIME,
    HAS_UNIT,
    HAS_USER,
    HAS_WEIGHT,
    HUMAN,
    JOURNAL,
    ORGANIZATION,
    OWL_THING,
    PART_OF,
    PREPRINT_ARTICLE,
    PROCEEDINGS,
    PUBLISHED,
    PUBLISHED_BY,
    PUBLISHES,
    REQUIRED_PROPERTIES,
    SCHEMA,
    UnknownNodeError,
    USED,
    USED_BY,
    USES,
    Violation,
)
from scholargraph.ntriples import serialize_triple
from scholargraph.store import SnapshotError, Store
from scholargraph.terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    MESUR,
    RDF_TYPE,
    Term,
    TermError,
    Triple,
    datetime_literal,
    string_literal,
    term_sort_key,
    year_literal,
)


class TripleIndex:
    """Plain-dict hash join support over a frozen list of triples."""

    def __init__(self, triples):
        self.triples = list(triples)
        self._sp = defaultdict(list)
        self._po = defaultdict(list)
        for t in self.triples:
            self._sp[(t.subject, t.predicate)].append(t.object)
            self._po[(t.predicate, t.object)].append(t.subject)

    def objects(self, s, p):
        return self._sp.get((s, p), [])

    def subjects(self, p, o):
        return self._po.get((p, o), [])

    def has(self, s, p, o):
        return o in self._sp.get((s, p), [])


def index_of(store: Store) -> TripleIndex:
    return TripleIndex(store.triples())


def year_int(term):
    if isinstance(term, Literal) and term.datatype in (Datatype.DATETIME, Datatype.INTEGER):
        return term.year()
    return None


# -- rule oracles: (full row count, asserted triple set) ------------------------


def oracle_authored(idx: TripleIndex):
    rows, inserts = set(), set()
    for x in idx.subjects(RDF_TYPE, PUBLISHES):
        for a in idx.objects(x, HAS_UNIT):
            for b in idx.objects(x, HAS_AUTHOR):
                rows.add((x, a, b))
                inserts.add(Triple(a, AUTHORED_BY, b))
                inserts.add(Triple(b, AUTHORED, a))
    return len(rows), inserts


def oracle_contained(idx: TripleIndex):
    rows, inserts = set(), set()
    for x in idx.subjects(RDF_TYPE, PUBLISHES):
        for a in idx.objects(x, HAS_UNIT):
            for b in idx.objects(x, HAS_GROUP):
                rows.add((x, a, b))
                inserts.add(Triple(a, CONTAINED_IN, b))
                inserts.add(Triple(b, CONTAINS, a))
    return len(rows), inserts


def oracle_published(idx: TripleIndex):
    rows, inserts = set(), set()
    for x in idx.subjects(RDF_TYPE, PUBLISHES):
        for a in idx.objects(x, HAS_PUBLISHER):
            for b in idx.objects(x, HAS_GROUP):
                rows.add((x, a, b))
                inserts.add(Triple(a, PUBLISHED, b))
                inserts.add(Triple(b, PUBLISHED_BY, a))
    return len(rows), inserts


def oracle_used(idx: TripleIndex):
    rows, inserts = set(), set()
    for x in idx.subjects(RDF_TYPE, USES):
        for a in idx.objects(x, HAS_DOCUMENT):
            if not idx.has(a, RDF_TYPE, ARTICLE):
                continue
            for b in idx.objects(x, HAS_USER):
                for y in idx.subjects(HAS_UNIT, a):
                    if not idx.has(y, RDF_TYPE, PUBLISHES):
                        continue
                    for c in idx.objects(y, HAS_GROUP):
                        rows.add((x, a, b, y, c))
                        inserts.add(Triple(a, USED_BY, b))
                        inserts.add(Triple(b, USED, a))
                        inserts.add(Triple(c, USED_BY, b))
                        inserts.add(Triple(b, USED, c))
    return len(rows), inserts


def oracle_affiliation(idx: TripleIndex):
    rows, inserts = set(), set()
    for x in idx.subjects(RDF_TYPE, AFFILIATION):
        for a in idx.objects(x, HAS_AFFILIATOR):
            for b in idx.objects(x, HAS_AFFILIATEE):
                rows.add((x, a, b))
                inserts.add(Triple(a, HAS_AFFILIATE, b))
                inserts.add(Triple(b, HAS_AFFILIATION_PROP, a))
    return len(rows), inserts


RULE_ORACLES = {
    "authored_by": oracle_authored,
    "contained_in": oracle_contained,
    "published_by": oracle_published,
    "used_by": oracle_used,
    "affiliation": oracle_affiliation,
}


# -- listing-specific full-row counts --------------------------------------------

INFORMETRICS = Iri("urn:issn:1751-1577")
SCIENTOMETRICS = Iri("urn:issn:0138-9130")
JCDL = Iri("urn:issn:1082-9873")
MARKO = Iri("http://library.lanl.gov/marko")
HERBERTV = Iri("http://library.lanl.gov/herbertv")


def oracle_coauthor_rows(idx: TripleIndex, a, b) -> int:
    return sum(
        1
        for x in idx.subjects(RDF_TYPE, PUBLISHES)
        if idx.has(x, HAS_AUTHOR, a) and idx.has(x, HAS_AUTHOR, b)
    )


def oracle_group_citation_rows(idx: TripleIndex) -> int:
    """The group-citation listing exactly as written: source articles
    published 2005-2006 under Informetrics, sinks published 2007 under
    Scientometrics (its prose says the reverse; the patterns win here)."""
    rows = set()
    for x in idx.subjects(RDF_TYPE, CITATION):
        for a in idx.objects(x, HAS_SOURCE):
            if not idx.has(a, RDF_TYPE, ARTICLE):
                continue
            for b in idx.objects(x, HAS_SINK):
                if not idx.has(b, RDF_TYPE, ARTICLE):
                    continue
                for y in idx.subjects(HAS_UNIT, a):
                    if not idx.has(y, RDF_TYPE, PUBLISHES):
                        continue
                    for t in idx.objects(y, HAS_TIME):
                        yt = year_int(t)
                        if yt is None or not (2004 < yt < 2007):
                            continue
                        for z in idx.subjects(HAS_UNIT, b):
                            if not idx.has(z, RDF_TYPE, PUBLISHES):
                                continue
                            for u in idx.objects(z, HAS_TIME):
                                if year_int(u) != 2007:
                                    continue
                                for c in idx.objects(y, HAS_GROUP):
                                    if not idx.has(c, PART_OF, INFORMETRICS):
                                        continue
                                    for d in idx.objects(z, HAS_GROUP):
                                        if idx.has(d, PART_OF, SCIENTOMETRICS):
                                            rows.add((x, a, b, y, z, t, u, c, d))
    return len(rows)


def oracle_if_numerator_rows(idx: TripleIndex, root) -> int:
    rows = set()
    for x in idx.subjects(RDF_TYPE, PUBLISHES):
        for a in idx.objects(x, HAS_UNIT):
            for b in idx.objects(x, HAS_GROUP):
                if not idx.has(b, PART_OF, root):
                    continue
                for t in idx.objects(x, HAS_TIME):
                    yt = year_int(t)
                    if yt is None or not (2004 < yt < 2007):
                        continue
                    for y in idx.subjects(HAS_SINK, a):
                        if not idx.has(y, RDF_TYPE, CITATION):
                            continue
                        for c in idx.objects(y, HAS_SOURCE):
                            for z in idx.subjects(HAS_UNIT, c):
                                if not idx.has(z, RDF_TYPE, PUBLISHES):
                                    continue
                                for u in idx.objects(z, HAS_TIME):
                                    if year_int(u) == 2007:
                                        rows.add((x, a, b, t, y, c, z, u))
    return len(rows)


def oracle_uif_numerator_rows(idx: TripleIndex, root) -> int:
    rows = set()
    for x in idx.subjects(RDF_TYPE, USES):
        for a in idx.objects(x, HAS_DOCUMENT):
            for t in idx.objects(x, HAS_TIME):
                if year_int(t) != 2007:
                    continue
                for y in idx.subjects(HAS_UNIT, a):
                    if not idx.has(y, RDF_TYPE, PUBLISHES):
                        continue
                    for c in idx.objects(y, HAS_GROUP):
                        if not idx.has(c, PART_OF, root):
                            continue
                        for u in idx.objects(y, HAS_TIME):
                            yu = year_int(u)
                            if yu is not None and 2004 < yu < 2007:
                                rows.add((x, a, t, y, c, u))
    return len(rows)


def oracle_pub_window_rows(idx: TripleIndex, root, tautology: bool = False) -> int:
    """Denominator block shared by both metric listings.  The usage listing
    writes its year guard with OR, which any year satisfies."""
    rows = set()
    for y in idx.subjects(RDF_TYPE, PUBLISHES):
        for a in idx.objects(y, HAS_GROUP):
            if not idx.has(a, PART_OF, root):
                continue
            for t in idx.objects(y, HAS_TIME):
                yt = year_int(t)
                if yt is None:
                    continue
                if tautology or 2004 < yt < 2007:
                    rows.add((y, a, t))
    return len(rows)


# -- metric and derivation oracles: the definitions, by brute force ---------------


def _timed_in(idx: TripleIndex, ctx, window) -> bool:
    lo, hi = window
    return any(
        year_int(t) is not None and lo <= year_int(t) <= hi for t in idx.objects(ctx, HAS_TIME)
    )


def _oracle_groups(idx: TripleIndex, root, transitive: bool) -> set:
    """The groups under ``root`` against partOf, the root itself excluded."""
    children = defaultdict(set)
    for t in idx.triples:
        if t.predicate == PART_OF:
            children[t.object].add(t.subject)
    found = set(children[root])
    if transitive:
        grown = True
        while grown:
            more = set().union(*(children[g] for g in found)) - found
            found |= more
            grown = bool(more)
    found.discard(root)
    return found


def _oracle_units(idx: TripleIndex, root, window, transitive: bool) -> set:
    """Units of every Publishes context with a group under ``root`` and a
    time in ``window``, found by walking every Publishes context."""
    groups = _oracle_groups(idx, root, transitive)
    units = set()
    for x in idx.subjects(RDF_TYPE, PUBLISHES):
        if groups.intersection(idx.objects(x, HAS_GROUP)) and _timed_in(idx, x, window):
            units.update(idx.objects(x, HAS_UNIT))
    return units


def journal_roots(idx: TripleIndex) -> list:
    """Every Journal and Proceedings node, in term order."""
    roots = set(idx.subjects(RDF_TYPE, JOURNAL)) | set(idx.subjects(RDF_TYPE, PROCEEDINGS))
    return sorted(roots, key=term_sort_key)


def _metric_window(year: int, window) -> tuple[int, int]:
    return (year - 2, year - 1) if window is None else window


def oracle_impact_factor(idx: TripleIndex, root, year: int, window=None, transitive=True) -> tuple[int, int]:
    """(numerator, denominator): distinct (source, sink) pairs of Citation
    nodes whose sink is a window unit and whose source has a Publishes
    timed in ``year``, over the distinct window units."""
    units = _oracle_units(idx, root, _metric_window(year, window), transitive)
    fresh = set()
    for x in idx.subjects(RDF_TYPE, PUBLISHES):
        if _timed_in(idx, x, (year, year)):
            fresh.update(idx.objects(x, HAS_UNIT))
    pairs = set()
    for c in idx.subjects(RDF_TYPE, CITATION):
        for sink in idx.objects(c, HAS_SINK):
            for source in idx.objects(c, HAS_SOURCE):
                if sink in units and source in fresh:
                    pairs.add((source, sink))
    return len(pairs), len(units)


def oracle_usage_impact_factor(idx: TripleIndex, root, year: int, window=None, transitive=True) -> tuple[int, int]:
    """(numerator, denominator): distinct Uses contexts timed in ``year``
    whose document is a window unit, over the distinct window units."""
    units = _oracle_units(idx, root, _metric_window(year, window), transitive)
    uses = {
        x
        for x in idx.subjects(RDF_TYPE, USES)
        if _timed_in(idx, x, (year, year)) and units.intersection(idx.objects(x, HAS_DOCUMENT))
    }
    return len(uses), len(units)


def oracle_group_citation_weight(
    idx: TripleIndex, source_root, sink_root, source_window, sink_window, transitive=True
) -> int:
    """Citation nodes with a source unit published under ``source_root`` in
    ``source_window`` and a sink unit under ``sink_root`` in ``sink_window``."""
    sources = _oracle_units(idx, source_root, source_window, transitive)
    sinks = _oracle_units(idx, sink_root, sink_window, transitive)
    return sum(
        1
        for c in idx.subjects(RDF_TYPE, CITATION)
        if sources.intersection(idx.objects(c, HAS_SOURCE)) and sinks.intersection(idx.objects(c, HAS_SINK))
    )


def oracle_coauthor_weight(idx: TripleIndex, a, b, window=None) -> int:
    """Publishes contexts carrying both authors (and a time in ``window``)."""
    return sum(
        1
        for x in idx.subjects(RDF_TYPE, PUBLISHES)
        if idx.has(x, HAS_AUTHOR, a)
        and idx.has(x, HAS_AUTHOR, b)
        and (window is None or _timed_in(idx, x, window))
    )


def ratio_6dp(numerator: int, denominator: int) -> Decimal:
    return (Decimal(numerator) / Decimal(denominator)).quantize(
        Decimal("0.000001"), rounding=ROUND_HALF_EVEN
    )


# -- N-Triples escaping, one character at a time ----------------------------------


def escape_string_loop(value: str) -> str:
    out = []
    for c in value:
        if c == "\\":
            out.append("\\\\")
        elif c == '"':
            out.append('\\"')
        elif c == "\n":
            out.append("\\n")
        elif c == "\r":
            out.append("\\r")
        elif c == "\t":
            out.append("\\t")
        elif c < " " or c == "\x7f":
            out.append(f"\\u{ord(c):04X}")
        else:
            out.append(c)
    return "".join(out)


def escape_iri_loop(value: str) -> str:
    out = []
    for c in value:
        if c <= " " or c in '<>"{}|^`\\' or c == "\x7f":
            out.append(f"\\u{ord(c):04X}")
        else:
            out.append(c)
    return "".join(out)


# -- canonical N-Triples, read back ------------------------------------------------

_NT_TERM = r'<[^>]*>|_:\S+|"(?:[^"\\]|\\.)*"(?:\^\^<[^>]*>)?'
_NT_LINE = re.compile(rf"({_NT_TERM}) ({_NT_TERM}) ({_NT_TERM}) \.")
_NT_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_XSD = "http://www.w3.org/2001/XMLSchema#"
_NT_LITERALS = {
    "": lambda lexical: Literal(lexical, Datatype.STRING),
    _XSD + "integer": lambda lexical: Literal(lexical, Datatype.INTEGER),
    _XSD + "decimal": lambda lexical: Literal(lexical, Datatype.DECIMAL),
    _XSD + "gYear": datetime_literal,
    _XSD + "date": datetime_literal,
    _XSD + "dateTime": datetime_literal,
}


def unescape_loop(text: str) -> str:
    """Undo the writer's escapes: ``\\uXXXX`` and the five short ones."""
    out, i = [], 0
    while i < len(text):
        if text[i] != "\\":
            out.append(text[i])
            i += 1
        elif text[i + 1] == "u":
            out.append(chr(int(text[i + 2 : i + 6], 16)))
            i += 6
        else:
            out.append(_NT_UNESCAPES[text[i + 1]])
            i += 2
    return "".join(out)


def _nt_term(text: str) -> Term:
    if text.startswith("<"):
        return Iri(unescape_loop(text[1:-1]))
    if text.startswith("_:"):
        return Blank(text[2:])
    # no datatype IRI holds a raw quote, so the last one closes the string
    lexical, _, datatype = text[1:].rpartition('"')
    return _NT_LITERALS[datatype[3:-1]](unescape_loop(lexical))


def parse_canonical_ntriples(data: bytes) -> list[Triple]:
    """The triples of canonical N-Triples, what ``serialize_triple`` and
    ``write_ntriples`` emit, in line order: UTF-8, one triple per
    ``\\n``-ended line, terms one space apart, strings untyped.  Anything
    else fails an assertion."""
    text = data.decode("utf-8")
    assert text.endswith("\n"), "the last line is not ended"
    triples = []
    for line in text[:-1].split("\n"):
        match = _NT_LINE.fullmatch(line)
        assert match, line
        triples.append(Triple(*map(_nt_term, match.groups())))
    return triples


# -- validation, one node at a time through term-level matches ---------------


def oracle_declared_types(store: Store, node: Term) -> tuple[Iri, ...]:
    """rdf:type objects of ``node`` that are IRIs, in deterministic order."""
    out = []
    for triple in store.match_terms(node, RDF_TYPE, None):
        if isinstance(triple.object, Iri):
            out.append(triple.object)
    return tuple(out)


def oracle_type_closure(store: Store, node: Term) -> set[Iri]:
    """Declared classes of ``node`` plus all their schema ancestors."""
    closure: set[Iri] = set()
    for cls in oracle_declared_types(store, node):
        if SCHEMA.is_class(cls):
            closure.update(SCHEMA.superclasses(cls))
        else:
            closure.add(cls)
    closure.discard(OWL_THING)
    return closure


def _range_accepts_literal(rng: Datatype, lit: Literal) -> bool:
    if rng is lit.datatype:
        return True
    # A decimal-ranged property tolerates integer lexical forms.
    return rng is Datatype.DECIMAL and lit.datatype is Datatype.INTEGER


def oracle_validate_instance(store: Store, node: Term) -> list[Violation]:
    """Check one node against the schema; returns violations, worst first.

    The node must appear in at least one triple.  Checks: declared classes
    exist, property domains and ranges hold, required context properties are
    present, self-contained units carry no group, disjoint siblings are not
    mixed (warning).
    """
    if not store.appears(node):
        raise UnknownNodeError(node)

    violations: list[Violation] = []
    closure = oracle_type_closure(store, node)

    for cls in oracle_declared_types(store, node):
        if not SCHEMA.is_class(cls):
            violations.append(
                Violation(node, "unknown-class", "error", f"declared type <{cls.value}> is not a schema class")
            )

    known_closure = {c for c in closure if SCHEMA.is_class(c)}

    for group in DISJOINT_SETS:
        hit = [c for c in group if c in known_closure]
        if len(hit) > 1:
            names = ", ".join(f"<{c.value}>" for c in hit)
            violations.append(
                Violation(node, "disjoint", "warning", f"disjoint classes on one node: {names}")
            )

    seen_predicates: set[Iri] = set()
    for triple in store.match_terms(node, None, None):
        pred = triple.predicate
        if pred == RDF_TYPE:
            continue
        seen_predicates.add(pred)
        if not SCHEMA.is_property(pred):
            if pred.value.startswith(MESUR):
                violations.append(
                    Violation(node, "unknown-property", "error", f"<{pred.value}> is not in the property catalog")
                )
            continue
        pdef = SCHEMA.property_def(pred)
        if pdef.domain not in known_closure:
            violations.append(
                Violation(
                    node,
                    "domain",
                    "error",
                    f"<{pred.value}> requires the subject to be a <{pdef.domain.value}>",
                )
            )
        obj = triple.object
        if isinstance(pdef.range, Datatype):
            if not isinstance(obj, Literal) or not _range_accepts_literal(pdef.range, obj):
                violations.append(
                    Violation(
                        node,
                        "range",
                        "error",
                        f"<{pred.value}> expects a {pdef.range.name.lower()} literal, got {obj!r}",
                    )
                )
        else:
            if isinstance(obj, Literal):
                violations.append(
                    Violation(node, "range", "error", f"<{pred.value}> expects a resource, got a literal")
                )
            else:
                obj_closure = oracle_type_closure(store, obj)
                if not any(r in obj_closure for r in pdef.range):
                    allowed = " or ".join(f"<{r.value}>" for r in pdef.range)
                    violations.append(
                        Violation(node, "range", "error", f"object of <{pred.value}> must be typed {allowed}")
                    )

    for cls, required in REQUIRED_PROPERTIES.items():
        if cls in known_closure:
            for prop in required:
                if prop not in seen_predicates:
                    violations.append(
                        Violation(node, "missing-required", "error", f"<{cls.value}> node lacks <{prop.value}>")
                    )

    if PUBLISHES in known_closure:
        groupless = False
        for triple in store.match_terms(node, HAS_UNIT, None):
            unit_types = oracle_type_closure(store, triple.object)
            if any(c in unit_types for c in GROUPLESS_UNIT_CLASSES):
                groupless = True
                break
        if groupless and next(iter(store.match_terms(node, HAS_GROUP, None)), None) is not None:
            violations.append(
                Violation(
                    node,
                    "group-restriction",
                    "error",
                    "Publishes of a self-contained unit (preprint, book) must not carry hasGroup",
                )
            )

    order = {"error": 0, "warning": 1}
    violations.sort(key=lambda v: (order[v.severity], v.kind, v.message))
    return violations


def oracle_validate_all(store: Store) -> list[Violation]:
    """Validate every subject that carries an rdf:type declaration."""
    out: list[Violation] = []
    seen: set[Term] = set()
    for triple in store.match_terms(None, RDF_TYPE, None):
        node = triple.subject
        if node in seen:
            continue
        seen.add(node)
        out.extend(oracle_validate_instance(store, node))
    return out

def oracle_literal_audit(store: Store) -> list[Triple]:
    """Triples whose literal object is not licensed by the schema, found by
    decoding every triple."""
    allowed = SCHEMA.literal_properties()
    offending = []
    for triple in store.triples():
        obj = triple.object
        if not isinstance(obj, Literal):
            continue
        expected = allowed.get(triple.predicate)
        if expected is None:
            offending.append(triple)
            continue
        if obj.datatype == expected:
            continue
        if expected == Datatype.DECIMAL and obj.datatype == Datatype.INTEGER:
            continue
        if expected == Datatype.DATETIME and obj.datatype == Datatype.INTEGER:
            continue
        offending.append(triple)
    return offending


# -- fixtures ---------------------------------------------------------------------

PROVIDER = Iri("urn:mesur:provider:default")


class _Builder:
    def __init__(self):
        self.store = Store()
        self.contexts = 0

    def add(self, s, p, o):
        self.store.insert(Triple(s, p, o))

    def journal(self, iri, kind=JOURNAL):
        self.add(iri, RDF_TYPE, kind)
        return iri

    def edition(self, iri, root):
        self.add(iri, RDF_TYPE, GROUP)
        self.add(iri, PART_OF, root)
        return iri

    def article(self, iri, kind=ARTICLE):
        self.add(iri, RDF_TYPE, kind)
        return iri

    def agent(self, iri, kind=HUMAN):
        self.add(iri, RDF_TYPE, kind)
        return iri

    def publishes(self, node, unit=None, group=None, year=None, authors=(), publisher=None):
        self.add(node, RDF_TYPE, PUBLISHES)
        if unit is not None:
            self.add(node, HAS_UNIT, unit)
        if group is not None:
            self.add(node, HAS_GROUP, group)
        if year is not None:
            self.add(node, HAS_TIME, year_literal(year))
        for author in authors:
            self.add(node, HAS_AUTHOR, author)
        if publisher is not None:
            self.add(node, HAS_PUBLISHER, publisher)
        self.add(node, HAS_PROVIDER, PROVIDER)
        self.contexts += 1
        return node

    def uses(self, node, document, year=None, user=None, session=None):
        self.add(node, RDF_TYPE, USES)
        self.add(node, HAS_DOCUMENT, document)
        if year is not None:
            self.add(node, HAS_TIME, year_literal(year))
        if user is not None:
            self.add(node, HAS_USER, user)
        if session is not None:
            self.add(node, HAS_SESSION, string_literal(session))
        self.add(node, HAS_PROVIDER, PROVIDER)
        self.contexts += 1
        return node

    def citation(self, node, source, sink, weight="1.0"):
        self.add(node, RDF_TYPE, CITATION)
        self.add(node, HAS_SOURCE, source)
        self.add(node, HAS_SINK, sink)
        if weight is not None:
            self.add(node, HAS_WEIGHT, Literal(weight, Datatype.DECIMAL))
        self.contexts += 1
        return node

    def affiliation(self, node, affiliator, affiliatee, year=None):
        self.add(node, RDF_TYPE, AFFILIATION)
        self.add(node, HAS_AFFILIATOR, affiliator)
        self.add(node, HAS_AFFILIATEE, affiliatee)
        if year is not None:
            self.add(node, HAS_TIME, year_literal(year))
        self.contexts += 1
        return node


def conformance_store() -> Store:
    """Hand-built network of about fifty contexts that gives every listing
    nonzero work: coauthored papers, journal editions under the three
    journal roots the listings name, usage, citations across year windows,
    and affiliations."""
    b = _Builder()
    b.add(PROVIDER, RDF_TYPE, ORGANIZATION)

    inf = b.journal(INFORMETRICS)
    sci = b.journal(SCIENTOMETRICS)
    jcdl = b.journal(JCDL, PROCEEDINGS)
    misc = b.journal(Iri("urn:issn:4444-0000"))
    inf05 = b.edition(Iri("urn:g:inf:2005"), inf)
    inf06 = b.edition(Iri("urn:g:inf:2006"), inf)
    sci07 = b.edition(Iri("urn:g:sci:2007"), sci)
    jcdl04 = b.edition(Iri("urn:g:jcdl:2004"), jcdl)
    jcdl05 = b.edition(Iri("urn:g:jcdl:2005"), jcdl)
    jcdl06 = b.edition(Iri("urn:g:jcdl:2006"), jcdl)
    misc07 = b.edition(Iri("urn:g:misc:2007"), misc)

    marko = b.agent(MARKO)
    herbert = b.agent(HERBERTV)
    johan = b.agent(Iri("http://library.lanl.gov/johan"))
    lanl = b.agent(Iri("urn:mesur:org:lanl"), ORGANIZATION)
    csula = b.agent(Iri("urn:mesur:org:csula"), ORGANIZATION)
    sage = b.agent(Iri("urn:mesur:org:sage"), ORGANIZATION)

    # Informetrics source articles for the group-citation listing
    inf_a = [b.article(Iri(f"urn:doc:inf:{i}")) for i in range(2)]
    b.publishes(Iri("urn:ctx:pub:inf0"), inf_a[0], inf05, 2005, authors=(marko, herbert), publisher=sage)
    b.publishes(Iri("urn:ctx:pub:inf1"), inf_a[1], inf06, 2006, authors=(marko, herbert, johan), publisher=sage)

    # Scientometrics sinks published 2007
    sci_b = [b.article(Iri(f"urn:doc:sci:{i}")) for i in range(2)]
    b.publishes(Iri("urn:ctx:pub:sci0"), sci_b[0], sci07, 2007, authors=(johan,), publisher=sage)
    b.publishes(Iri("urn:ctx:pub:sci1"), sci_b[1], sci07, 2007, authors=(marko, herbert))

    # JCDL window articles (2005/2006) plus one outside the window (2004)
    jcdl_c = [b.article(Iri(f"urn:doc:jcdl:{i}")) for i in range(5)]
    b.publishes(Iri("urn:ctx:pub:jcdl0"), jcdl_c[0], jcdl05, 2005, authors=(marko,))
    b.publishes(Iri("urn:ctx:pub:jcdl1"), jcdl_c[1], jcdl05, 2005, authors=(herbert,))
    b.publishes(Iri("urn:ctx:pub:jcdl2"), jcdl_c[2], jcdl06, 2006, authors=(johan,))
    b.publishes(Iri("urn:ctx:pub:jcdl3"), jcdl_c[3], jcdl06, 2006)
    b.publishes(Iri("urn:ctx:pub:jcdl4"), jcdl_c[4], jcdl04, 2004)

    # misc 2007 articles that cite into JCDL (impact-factor numerator)
    misc_d = [b.article(Iri(f"urn:doc:misc:{i}")) for i in range(3)]
    for i, d in enumerate(misc_d):
        b.publishes(Iri(f"urn:ctx:pub:misc{i}"), d, misc07, 2007)

    # a preprint with no group and an untyped document
    preprint = b.article(Iri("urn:doc:preprint:0"), PREPRINT_ARTICLE)
    b.publishes(Iri("urn:ctx:pub:pre0"), preprint, None, 2006, authors=(johan,))
    loose = Iri("urn:doc:loose:0")  # never published, never typed

    # citations: Informetrics -> Scientometrics (listing-qualifying) and noise
    b.citation(Iri("urn:cite:0"), inf_a[0], sci_b[0])
    b.citation(Iri("urn:cite:1"), inf_a[0], sci_b[1])
    b.citation(Iri("urn:cite:2"), inf_a[1], sci_b[0])
    b.citation(Iri("urn:cite:3"), sci_b[0], inf_a[0])  # wrong direction
    b.citation(Iri("urn:cite:4"), inf_a[1], jcdl_c[0], weight=None)  # sink not in Scientometrics
    # misc 2007 -> JCDL window articles (impact-factor numerator)
    b.citation(Iri("urn:cite:5"), misc_d[0], jcdl_c[0])
    b.citation(Iri("urn:cite:6"), misc_d[0], jcdl_c[1])
    b.citation(Iri("urn:cite:7"), misc_d[1], jcdl_c[2])
    b.citation(Iri("urn:cite:8"), misc_d[2], jcdl_c[3])
    b.citation(Iri("urn:cite:9"), misc_d[2], jcdl_c[4])  # sink outside window
    b.citation(Iri("urn:cite:10"), inf_a[0], preprint)  # sink has no group

    # usage: JCDL window articles used in 2007 plus noise
    for k in range(6):
        b.uses(Iri(f"urn:ctx:use:jcdl{k}"), jcdl_c[k % 4], 2007, user=(marko, herbert, johan)[k % 3])
    b.uses(Iri("urn:ctx:use:early"), jcdl_c[0], 2006, user=marko)  # wrong year
    b.uses(Iri("urn:ctx:use:pre"), preprint, 2007, user=johan)  # doc outside JCDL
    b.uses(Iri("urn:ctx:use:loose"), loose, 2007, user=marko, session="C3044206")  # unpublished doc
    b.uses(Iri("urn:ctx:use:inf"), inf_a[0], 2007, user=herbert)
    b.uses(Iri("urn:ctx:use:nouser"), jcdl_c[1], 2007)

    # affiliations
    b.affiliation(Iri("urn:ctx:aff:0"), lanl, marko, 2006)
    b.affiliation(Iri("urn:ctx:aff:1"), lanl, herbert, 2006)
    b.affiliation(Iri("urn:ctx:aff:2"), csula, johan)

    # more coauthored papers so the coauthor count is interesting
    extra = [b.article(Iri(f"urn:doc:extra:{i}")) for i in range(6)]
    b.publishes(Iri("urn:ctx:pub:x0"), extra[0], misc07, 2007, authors=(marko, herbert))
    b.publishes(Iri("urn:ctx:pub:x1"), extra[1], misc07, 2007, authors=(marko, herbert, johan))
    b.publishes(Iri("urn:ctx:pub:x2"), extra[2], misc07, 2007, authors=(marko,))
    b.publishes(Iri("urn:ctx:pub:x3"), extra[3], misc07, 2007, authors=(herbert,))
    b.publishes(Iri("urn:ctx:pub:x4"), extra[4], None, 2003, authors=(marko, herbert))
    b.publishes(Iri("urn:ctx:pub:x5"), extra[5], misc07, 2007)

    # background usage noise
    for k in range(8):
        b.uses(Iri(f"urn:ctx:use:bg{k}"), extra[k % 6], 2007, user=(marko, johan)[k % 2])

    return b.store


def jcdl_fixture() -> tuple[Store, Iri]:
    """Exact metric fixture: 10 window articles, 25 qualifying citations
    from distinct 2007 units, 40 usage events in 2007."""
    b = _Builder()
    b.add(PROVIDER, RDF_TYPE, ORGANIZATION)
    root = b.journal(JCDL, PROCEEDINGS)
    other = b.journal(Iri("urn:issn:9999-0001"))
    ed05 = b.edition(Iri("urn:g:jcdl:ed2005"), root)
    ed06 = b.edition(Iri("urn:g:jcdl:ed2006"), root)
    oed = b.edition(Iri("urn:g:other:ed2007"), other)

    units = []
    for i in range(10):
        u = b.article(Iri(f"urn:doc:window:{i}"))
        units.append(u)
        b.publishes(
            Iri(f"urn:ctx:pub:w{i}"),
            u,
            ed05 if i % 2 else ed06,
            2005 if i % 2 else 2006,
        )
    for i in range(25):
        s = b.article(Iri(f"urn:doc:source:{i}"))
        b.publishes(Iri(f"urn:ctx:pub:s{i}"), s, oed, 2007)
        b.citation(Iri(f"urn:cite:{i}"), s, units[i % 10], weight=None)
    for k in range(40):
        b.uses(Iri(f"urn:ctx:use:{k}"), units[k % 10], 2007)
    return b.store, root


def insert_all(store: Store, triples: Iterable[Triple]) -> int:
    """Add ``triples`` to ``store`` as one batch of id rows, interning their
    terms, as ``map`` does; how many of them were new."""
    intern = store.intern
    return len(store.add_rows([(intern(t.subject), intern(t.predicate), intern(t.object)) for t in triples]))


def random_context_store(rng: random.Random, n_contexts: int) -> Store:
    """Random but well-shaped network of Publishes/Uses/Citation/Affiliation
    contexts over a pool of agents, documents and journal editions.  Only
    base facts are emitted, never inferred properties."""
    store = Store()

    def iri(kind, i):
        return Iri(f"urn:x:{kind}:{i}")

    def maybe_blank(kind, i, chance):
        if rng.random() < chance:
            return Blank(f"{kind}{i}")
        return iri(kind, i)

    agents = []
    for i in range(max(3, n_contexts // 4)):
        node = maybe_blank("agent", i, 0.2)
        agents.append(node)
        if rng.random() < 0.9:
            cls = HUMAN if rng.random() < 0.8 else ORGANIZATION
            store.insert(Triple(node, RDF_TYPE, cls))

    units = []
    for i in range(max(4, n_contexts // 2)):
        node = maybe_blank("doc", i, 0.15)
        units.append(node)
        roll = rng.random()
        if roll < 0.72:
            store.insert(Triple(node, RDF_TYPE, ARTICLE))
        elif roll < 0.82:
            store.insert(Triple(node, RDF_TYPE, PREPRINT_ARTICLE))
        elif roll < 0.88:
            store.insert(Triple(node, RDF_TYPE, BOOK))
        # else: left untyped on purpose

    editions = []
    for i in range(max(2, n_contexts // 50)):
        root = iri("journal", i)
        store.insert(Triple(root, RDF_TYPE, JOURNAL if rng.random() < 0.7 else PROCEEDINGS))
        for j in range(rng.randint(1, 3)):
            ed = iri("edition", f"{i}-{j}")
            store.insert(Triple(ed, RDF_TYPE, GROUP))
            store.insert(Triple(ed, PART_OF, root))
            editions.append(ed)
            if rng.random() < 0.2:
                sub = iri("edition", f"{i}-{j}-sub")
                store.insert(Triple(sub, RDF_TYPE, GROUP))
                store.insert(Triple(sub, PART_OF, ed))
                editions.append(sub)

    providers = [iri("provider", i) for i in range(2)]
    for p in providers:
        store.insert(Triple(p, RDF_TYPE, ORGANIZATION))

    def random_time():
        year = rng.randint(2000, 2009)
        roll = rng.random()
        if roll < 0.7:
            return year_literal(year)
        if roll < 0.9:
            return datetime_literal(f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
        return datetime_literal(
            f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d} "
            f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}"
        )

    for i in range(n_contexts):
        node = maybe_blank("ctx", i, 0.25)
        kind = rng.choices(("pub", "use", "cite", "aff"), weights=(45, 30, 15, 10))[0]
        if kind == "pub":
            store.insert(Triple(node, RDF_TYPE, PUBLISHES))
            for _ in range(2 if rng.random() < 0.05 else 1):
                store.insert(Triple(node, HAS_UNIT, rng.choice(units)))
            for _ in range(rng.choices((0, 1, 2), weights=(15, 75, 10))[0]):
                store.insert(Triple(node, HAS_GROUP, rng.choice(editions)))
            for _ in range(rng.randint(0, 3)):
                store.insert(Triple(node, HAS_AUTHOR, rng.choice(agents)))
            if rng.random() < 0.3:
                store.insert(Triple(node, HAS_PUBLISHER, rng.choice(agents)))
            for _ in range(rng.choices((0, 1, 2), weights=(8, 87, 5))[0]):
                store.insert(Triple(node, HAS_TIME, random_time()))
            if rng.random() < 0.8:
                store.insert(Triple(node, HAS_PROVIDER, rng.choice(providers)))
        elif kind == "use":
            store.insert(Triple(node, RDF_TYPE, USES))
            store.insert(Triple(node, HAS_DOCUMENT, rng.choice(units)))
            if rng.random() < 0.8:
                store.insert(Triple(node, HAS_USER, rng.choice(agents)))
            if rng.random() < 0.95:
                store.insert(Triple(node, HAS_TIME, random_time()))
            if rng.random() < 0.2:
                store.insert(Triple(node, HAS_SESSION, string_literal(f"S{rng.randint(0, 999)}")))
            if rng.random() < 0.5:
                store.insert(Triple(node, HAS_PROVIDER, rng.choice(providers)))
        elif kind == "cite":
            store.insert(Triple(node, RDF_TYPE, CITATION))
            store.insert(Triple(node, HAS_SOURCE, rng.choice(units)))
            store.insert(Triple(node, HAS_SINK, rng.choice(units)))
            if rng.random() < 0.5:
                store.insert(Triple(node, HAS_WEIGHT, Literal("1.0", Datatype.DECIMAL)))
        else:
            store.insert(Triple(node, RDF_TYPE, AFFILIATION))
            store.insert(Triple(node, HAS_AFFILIATOR, rng.choice(agents)))
            store.insert(Triple(node, HAS_AFFILIATEE, rng.choice(agents)))
            if rng.random() < 0.3:
                store.insert(Triple(node, HAS_TIME, random_time()))
    return store


# -- sidecar sample rows -----------------------------------------------------------

SAMPLE_BIBLIO_TSV = (
    "doc_id\ttitle\tauthors\tcollection\tpublisher\tdate\tstart_page\tend_page\tvolume\tissue\tdoi\n"
    "b5e1ab73-26b5-41f0-a83f-b47b4d737\tThe Convergence of Digital Libraries ...\t"
    "Rodriguez|Bollen|Van de Sompel\tJournal of Information Science\tSage Publications\t"
    "2006\t149\t159\t32\t2\t10.1177/0165551506062327\n"
)

SAMPLE_USAGE_TSV = (
    "event_id\ttime\tagent\tsession\taffiliation\tdoc_id\n"
    "45563ac2-c7d4-4669-ab9c-ac5129535ee5\t2006-09-27 00:00:03\t"
    "4AD2FD457EB59CE08AAAF6EA2A63F\tC3044206\tCalifornia State University, Los Angeles\t"
    "b5e1ab73-26b5-41f0-a83f-b47b4d737\n"
)


# -- the ledger, decoded --------------------------------------------------------


def ledger_triples(store: Store) -> dict[str, set[Triple]]:
    """The store's ledger, each rule it names with its rows decoded, so
    ledgers of two stores (or of one store before and after a snapshot)
    compare by value."""
    return {name: set(map(store.decode_triple, store.ledger_rows(name))) for name in store.ledger_counts()}


def oracle_upsert_node(
    triples: set[Triple], ledger: dict[str, set[Triple]], node: Term, new: Iterable[tuple[Iri, Term]], rule: str
) -> None:
    """``upsert_node`` one triple at a time, over a triple set and a decoded
    ledger: drop every statement about ``node`` from both, then insert the
    triple of ``node`` and each new (predicate, object) pair, ledgering
    under ``rule`` the ones the set did not hold."""
    old = {t for t in triples if t.subject == node}
    triples -= old
    for entry in ledger.values():
        entry -= old
    entry = ledger.setdefault(rule, set())
    for predicate, obj in new:
        triple = Triple(node, predicate, obj)
        if triple not in triples:
            triples.add(triple)
            entry.add(triple)


def ledger_ids(store: Store, triples: Iterable[Triple]) -> set[tuple[int, int, int]]:
    """The id triples of ``triples``, whose terms ``store`` has interned."""
    return {store.lookup_triple(triple) for triple in triples}


# -- snapshots, one term and one tuple at a time ----------------------------------
#
# The snapshot format of ``Store.save``/``Store.load``, written and read the
# plain way: every live term sorted by its sort key and encoded on its own,
# the SPO run's counts and columns and each triple's ledger tag, one value
# at a time, each term decoded by its validating constructor.
# Each raw section is then packed whole by ``zlib.compress`` at store.py's
# level.

_HEADER = struct.Struct("<HBII")
_LEVEL = 1


def _byte_order(swapped: bool) -> tuple[int, str]:
    """The header's byte-order flag and the struct prefix of a snapshot
    written in this host's byte order, or in the other one."""
    little = (sys.byteorder == "little") != swapped
    return (0, "<") if little else (1, ">")


def encoded(kind: int, payload: bytes, datatype: int | None = None) -> tuple[bytes, bytes]:
    """One term of a snapshot's term table: the head of its run (its kind,
    and its datatype for a literal) and its payload."""
    return (bytes([kind]) if datatype is None else bytes([kind, datatype])), payload


def _encode_term(term: Term) -> tuple[bytes, bytes]:
    if isinstance(term, Iri):
        return encoded(0, term.value.encode("utf-8"))
    if isinstance(term, Blank):
        return encoded(1, term.label.encode("utf-8"))
    return encoded(2, term.lexical.encode("utf-8"), int(term.datatype))


def term_section(terms: Iterable[tuple[bytes, bytes]], order: str = "=") -> bytes:
    """The raw term section of encoded terms, in the given order: each run
    of consecutive terms with one head as the head, the run's term count,
    each payload's length and then each payload."""
    body = []
    for head, run in groupby(terms, key=lambda term: term[0]):
        payloads = [payload for _, payload in run]
        body.append(head + struct.pack(order + "I", len(payloads)))
        for payload in payloads:
            body.append(struct.pack(order + "I", len(payload)))
        body += payloads
    return b"".join(body)


def spo_section(term_count: int, rows: list[tuple[int, int, int]], order: str = "=") -> bytes:
    """The raw SPO run of ``rows`` (ascending id triples): each term id's
    count of rows with it as subject, then the predicates, then the objects."""
    counts = [0] * term_count
    for s, _, _ in rows:
        counts[s] += 1
    values = counts + [p for _, p, _ in rows] + [o for _, _, o in rows]
    return b"".join(struct.pack(order + "I", value) for value in values)


def ledger_section(rules: list[str], tags: list[int], order: str = "=") -> bytes:
    """The raw ledger section: the rule count, then each rule's name size
    and name, then the tag count and each tag as one byte."""
    body = [struct.pack(order + "I", len(rules))]
    for name in rules:
        raw = name.encode("utf-8")
        body.append(struct.pack(order + "I", len(raw)) + raw)
    body.append(struct.pack(order + "I", len(tags)))
    for tag in tags:
        body.append(bytes([tag]))
    return b"".join(body)


def packed(raw: bytes) -> bytes:
    """A raw section as a snapshot holds it: its length and the length of
    its zlib stream, then the stream."""
    stream = zlib.compress(raw, _LEVEL)
    return struct.pack("<QQ", len(raw), len(stream)) + stream


def snapshot_header(term_count: int, triple_count: int, swapped: bool = False) -> bytes:
    """A version-4 snapshot's magic and header."""
    flag, _ = _byte_order(swapped)
    return b"SGRAPH" + _HEADER.pack(4, flag, term_count, triple_count)


def oracle_sections(store: Store, swapped: bool = False) -> tuple[bytes, list[bytes]]:
    """The header and the raw term, SPO and ledger sections that
    ``store.save`` must write for ``store``'s triples and ledger (in the
    other byte order, if ``swapped``)."""
    _, order = _byte_order(swapped)
    triples = list(store.triples())
    terms = sorted({term for t in triples for term in (t.subject, t.predicate, t.object)}, key=term_sort_key)
    number = {term: n for n, term in enumerate(terms)}

    def ids(t: Triple) -> tuple[int, int, int]:
        return (number[t.subject], number[t.predicate], number[t.object])

    # each rule that ledgers a triple, numbered from 1 in name order, and
    # each triple's tag: its rule's number, or 0 for a base fact
    ledger = {name: entry for name, entry in ledger_triples(store).items() if entry}
    rules = sorted(ledger)
    tag_of = {triple: rules.index(name) + 1 for name, entry in ledger.items() for triple in entry}
    triples.sort(key=ids)
    sections = [
        term_section(map(_encode_term, terms), order),
        spo_section(len(terms), list(map(ids, triples)), order),
        ledger_section(rules, [tag_of.get(triple, 0) for triple in triples], order),
    ]
    return snapshot_header(len(terms), len(triples), swapped), sections


def oracle_snapshot(store: Store, swapped: bool = False) -> bytes:
    """The bytes ``store.save`` must write for ``store``'s triples and
    ledger; ``swapped`` writes them in the other byte order, as a host of
    that order would."""
    header, sections = oracle_sections(store, swapped)
    return header + b"".join(map(packed, sections))


def term_table_snapshot(
    *encoded_terms: tuple[bytes, bytes], rows: Iterable[tuple[int, int, int]] = (), cut: int = 0
) -> bytes:
    """A snapshot of a term table in the given order and of ``rows`` (id
    triples into it, ascending), with no ledger rules; ``cut`` drops that
    many bytes from the end of the raw term section before it is packed."""
    rows = list(rows)
    terms = term_section(encoded_terms)
    sections = [terms[: len(terms) - cut], spo_section(len(encoded_terms), rows), ledger_section([], [0] * len(rows))]
    return snapshot_header(len(encoded_terms), len(rows)) + b"".join(map(packed, sections))


def oracle_export(store: Store) -> bytes:
    """The bytes ``export`` must write for ``store``: every triple sorted
    by the canonical order of its subject, predicate and object, one
    N-Triples line each."""
    def key(t: Triple) -> tuple:
        return term_sort_key(t.subject), term_sort_key(t.predicate), term_sort_key(t.object)

    return b"".join(f"{serialize_triple(t)}\n".encode("utf-8") for t in sorted(store.triples(), key=key))


def oracle_load_terms(data: bytes) -> list[Term]:
    """The term table of a snapshot, each term decoded by its constructor;
    raises the :class:`SnapshotError` a snapshot load raises for the table."""
    _, endian, count, _ = _HEADER.unpack_from(data, 6)
    u32 = struct.Struct(("<" if endian == 0 else ">") + "I").unpack_from
    offset = 6 + _HEADER.size
    _, size = struct.unpack_from("<QQ", data, offset)
    raw = zlib.decompress(data[offset + 16 : offset + 16 + size])
    datatypes = {int(datatype): datatype for datatype in Datatype}
    terms: list[Term] = []
    offset = 0
    try:
        while offset < len(raw):
            kind = raw[offset]
            if kind == 2:
                datatype = datatypes.get(raw[offset + 1])
                if datatype is None:
                    raise SnapshotError(f"bad term section: unknown datatype {raw[offset + 1]}")
                offset += 2
            elif kind > 2:
                raise SnapshotError(f"unknown term kind: {kind}")
            else:
                offset += 1
            (run,) = u32(raw, offset)
            offset += 4
            lengths = []
            for _ in range(run):
                lengths.append(u32(raw, offset)[0])
                offset += 4
            for length in lengths:
                if offset + length > len(raw):
                    raise SnapshotError("truncated term payload")
                text = raw[offset : offset + length].decode("utf-8")
                offset += length
                terms.append(Iri(text) if kind == 0 else Blank(text) if kind == 1 else Literal(text, datatype))
    except (IndexError, struct.error):
        raise SnapshotError("truncated term section") from None
    except (ValueError, TermError) as exc:
        raise SnapshotError(f"bad term section: {exc}") from None
    if len(terms) != count:
        raise SnapshotError(f"term section holds {len(terms)} terms, not the header's {count}")
    if len(set(terms)) != count:
        raise SnapshotError("duplicate terms in snapshot")
    return terms


# -- graph comparison up to blank relabeling ---------------------------------


def _blanks_of(triple: Triple) -> tuple[Blank, ...]:
    out = []
    if isinstance(triple.subject, Blank):
        out.append(triple.subject)
    if isinstance(triple.object, Blank) and triple.object != triple.subject:
        out.append(triple.object)
    return tuple(out)


def _refine_colors(triples: set[Triple], blanks: set[Blank]) -> dict[Blank, tuple]:
    touching: dict[Blank, list[Triple]] = {b: [] for b in blanks}
    for t in triples:
        for b in _blanks_of(t):
            touching[b].append(t)
    colors: dict[Blank, tuple] = {b: () for b in blanks}
    for _ in range(len(blanks) + 1):
        fresh: dict[Blank, tuple] = {}
        for b, ts in touching.items():
            sig = []
            for t in ts:
                subj = ("b", colors[t.subject]) if isinstance(t.subject, Blank) else ("g", term_sort_key(t.subject))
                obj = ("b", colors[t.object]) if isinstance(t.object, Blank) else ("g", term_sort_key(t.object))
                role = "s" if t.subject == b else "o"
                if t.subject == b and t.object == b:
                    role = "so"
                sig.append((role, t.predicate.value, subj, obj))
            fresh[b] = tuple(sorted(sig))
        if fresh == colors:
            break
        colors = fresh
    return colors


def _apply_mapping(triples: set[Triple], mapping: dict[Blank, Blank]) -> set[Triple]:
    out = set()
    for t in triples:
        s = mapping.get(t.subject, t.subject) if isinstance(t.subject, Blank) else t.subject
        o = mapping.get(t.object, t.object) if isinstance(t.object, Blank) else t.object
        out.add(Triple(s, t.predicate, o))
    return out


def isomorphic(left: Iterable[Triple], right: Iterable[Triple]) -> bool:
    """True when the two triple sets are equal up to a blank-label bijection."""
    a, b = set(left), set(right)
    if a == b:
        return True
    if len(a) != len(b):
        return False
    blanks_a = {bl for t in a for bl in _blanks_of(t)}
    blanks_b = {bl for t in b for bl in _blanks_of(t)}
    if len(blanks_a) != len(blanks_b):
        return False
    ground_a = {t for t in a if not _blanks_of(t)}
    ground_b = {t for t in b if not _blanks_of(t)}
    if ground_a != ground_b:
        return False
    colors_a = _refine_colors(a, blanks_a)
    colors_b = _refine_colors(b, blanks_b)
    by_color_a: dict[tuple, list[Blank]] = {}
    for bl, color in colors_a.items():
        by_color_a.setdefault(color, []).append(bl)
    by_color_b: dict[tuple, list[Blank]] = {}
    for bl, color in colors_b.items():
        by_color_b.setdefault(color, []).append(bl)
    if set(by_color_a) != set(by_color_b):
        return False
    if any(len(by_color_a[c]) != len(by_color_b[c]) for c in by_color_a):
        return False

    ordered_a = [bl for c in sorted(by_color_a) for bl in sorted(by_color_a[c], key=lambda x: x.label)]
    candidates = {bl: sorted(by_color_b[colors_a[bl]], key=lambda x: x.label) for bl in ordered_a}

    used: set[Blank] = set()
    mapping: dict[Blank, Blank] = {}

    def assign(i: int) -> bool:
        if i == len(ordered_a):
            return _apply_mapping(a, mapping) == b
        bl = ordered_a[i]
        for cand in candidates[bl]:
            if cand in used:
                continue
            mapping[bl] = cand
            used.add(cand)
            if assign(i + 1):
                return True
            used.discard(cand)
            del mapping[bl]
        return False

    return assign(0)
