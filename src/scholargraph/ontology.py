"""Vocabulary and schema for the scholarly semantic network.

The class taxonomy and property catalog are compiled in rather than parsed
from an ontology file: the schema is small, versioned with the code, and the
tests assert structural invariants (distinct IRIs, known parents, inverse
symmetry, domain/range sanity) directly against this catalog.  There is one
vocabulary, the module-level :data:`SCHEMA`, and every check, the catalog
and the query dialect's datetime coercion read it.

Instance validation is advisory: it reports violations, it never mutates the
store.  Predicates outside the ``mesur`` namespace are ignored (stores may
carry foreign vocabulary); ``mesur``-namespace predicates that the catalog
does not know are reported, since they are almost always typos.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Iterable, Union

try:
    # CPython's own SHA-1, which hashlib falls back to: importing hashlib
    # loads OpenSSL's libcrypto, a few MB of memory for every command
    from _sha1 import sha1
except ImportError:  # pragma: no cover - an interpreter built without it
    from hashlib import sha1

from .errors import ScholarGraphError
from .record import FrozenRecord
from .terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    MESUR,
    NamespaceTable,
    OWL_NS,
    RDF_TYPE,
    Term,
    Triple,
)

if TYPE_CHECKING:  # pragma: no cover
    from .store import Store


def digest16(key: str) -> str:
    """The first 16 hex digits of the SHA-1 of ``key`` in UTF-8: the part of
    every minted IRI (the sidecar's contexts, agents and groups, and the
    derived nodes) that makes it a deterministic function of its key."""
    return sha1(key.encode("utf-8")).hexdigest()[:16]


OWL_THING = Iri(OWL_NS + "Thing")

# -- classes ----------------------------------------------------------------

AGENT = Iri(MESUR + "Agent")
HUMAN = Iri(MESUR + "Human")
ORGANIZATION = Iri(MESUR + "Organization")

DOCUMENT = Iri(MESUR + "Document")
GROUP = Iri(MESUR + "Group")
UNIT = Iri(MESUR + "Unit")
JOURNAL = Iri(MESUR + "Journal")
PROCEEDINGS = Iri(MESUR + "Proceedings")
EDITED_BOOK = Iri(MESUR + "EditedBook")
ARTICLE = Iri(MESUR + "Article")
PREPRINT_ARTICLE = Iri(MESUR + "PreprintArticle")
BOOK = Iri(MESUR + "Book")

CONTEXT = Iri(MESUR + "Context")
EVENT = Iri(MESUR + "Event")
STATE = Iri(MESUR + "State")
PUBLISHES = Iri(MESUR + "Publishes")
USES = Iri(MESUR + "Uses")
WEIGHTED_RELATIONSHIP = Iri(MESUR + "WeightedRelationship")
AFFILIATION = Iri(MESUR + "Affiliation")
METRIC = Iri(MESUR + "Metric")
CITATION = Iri(MESUR + "Citation")
COAUTHOR = Iri(MESUR + "Coauthor")
NUMERIC_METRIC = Iri(MESUR + "NumericMetric")
NOMINAL_METRIC = Iri(MESUR + "NominalMetric")
IMPACT_FACTOR = Iri(MESUR + "ImpactFactor")
USAGE_IMPACT_FACTOR = Iri(MESUR + "UsageImpactFactor")

# -- properties: context (asserted on context nodes) ------------------------

HAS_UNIT = Iri(MESUR + "hasUnit")
HAS_GROUP = Iri(MESUR + "hasGroup")
HAS_AUTHOR = Iri(MESUR + "hasAuthor")
HAS_PUBLISHER = Iri(MESUR + "hasPublisher")
HAS_PROVIDER = Iri(MESUR + "hasProvider")
HAS_TIME = Iri(MESUR + "hasTime")
HAS_DOCUMENT = Iri(MESUR + "hasDocument")
HAS_USER = Iri(MESUR + "hasUser")
HAS_SESSION = Iri(MESUR + "hasSession")
HAS_ACCESS_TYPE = Iri(MESUR + "hasAccessType")
HAS_SOURCE = Iri(MESUR + "hasSource")
HAS_SINK = Iri(MESUR + "hasSink")
HAS_WEIGHT = Iri(MESUR + "hasWeight")
HAS_SOURCE_START_TIME = Iri(MESUR + "hasSourceStartTime")
HAS_SOURCE_END_TIME = Iri(MESUR + "hasSourceEndTime")
HAS_SINK_START_TIME = Iri(MESUR + "hasSinkStartTime")
HAS_SINK_END_TIME = Iri(MESUR + "hasSinkEndTime")
HAS_AFFILIATOR = Iri(MESUR + "hasAffiliator")
HAS_AFFILIATEE = Iri(MESUR + "hasAffiliatee")
HAS_OBJECT = Iri(MESUR + "hasObject")
HAS_START_TIME = Iri(MESUR + "hasStartTime")
HAS_END_TIME = Iri(MESUR + "hasEndTime")
HAS_NUMERIC_VALUE = Iri(MESUR + "hasNumericValue")

# -- properties: inferred (materialized between entities) -------------------

AUTHORED = Iri(MESUR + "authored")
AUTHORED_BY = Iri(MESUR + "authoredBy")
PUBLISHED = Iri(MESUR + "published")
PUBLISHED_BY = Iri(MESUR + "publishedBy")
USED = Iri(MESUR + "used")
USED_BY = Iri(MESUR + "usedBy")
CONTAINS = Iri(MESUR + "contains")
CONTAINED_IN = Iri(MESUR + "containedIn")
HAS_AFFILIATE = Iri(MESUR + "hasAffiliate")
HAS_AFFILIATION_PROP = Iri(MESUR + "hasAffiliation")

# -- properties: structural --------------------------------------------------

PART_OF = Iri(MESUR + "partOf")


class PropertyKind(Enum):
    CONTEXT = "context"
    INFERRED = "inferred"
    STRUCTURAL = "structural"


Range = Union[tuple[Iri, ...], Datatype]


class ClassDef(FrozenRecord):
    __slots__ = ("iri", "parent")
    iri: Iri
    parent: Iri  # OWL_THING for taxonomy roots


class PropertyDef(FrozenRecord, inverse=None):
    __slots__ = ("iri", "kind", "domain", "range", "inverse")
    iri: Iri
    kind: PropertyKind
    domain: Iri
    range: Range
    inverse: Iri | None


class UnknownClassError(ScholarGraphError):
    def __init__(self, iri: Iri) -> None:
        super().__init__(f"unknown class: <{iri.value}>")
        self.iri = iri


class UnknownNodeError(ScholarGraphError):
    def __init__(self, node: Term) -> None:
        super().__init__(f"node not present in store: {node!r}")
        self.node = node


_CLASS_PARENTS: tuple[tuple[Iri, Iri], ...] = (
    (AGENT, OWL_THING),
    (HUMAN, AGENT),
    (ORGANIZATION, AGENT),
    (DOCUMENT, OWL_THING),
    (GROUP, DOCUMENT),
    (UNIT, DOCUMENT),
    (JOURNAL, GROUP),
    (PROCEEDINGS, GROUP),
    (EDITED_BOOK, GROUP),
    (ARTICLE, UNIT),
    (PREPRINT_ARTICLE, UNIT),
    (BOOK, UNIT),
    (CONTEXT, OWL_THING),
    (EVENT, CONTEXT),
    (STATE, CONTEXT),
    (PUBLISHES, EVENT),
    (USES, EVENT),
    (WEIGHTED_RELATIONSHIP, STATE),
    (AFFILIATION, STATE),
    (METRIC, STATE),
    (CITATION, WEIGHTED_RELATIONSHIP),
    (COAUTHOR, WEIGHTED_RELATIONSHIP),
    (NUMERIC_METRIC, METRIC),
    (NOMINAL_METRIC, METRIC),
    (IMPACT_FACTOR, NUMERIC_METRIC),
    (USAGE_IMPACT_FACTOR, NUMERIC_METRIC),
)

_PROPERTIES: tuple[PropertyDef, ...] = (
    # Context properties.
    PropertyDef(HAS_UNIT, PropertyKind.CONTEXT, PUBLISHES, (UNIT,)),
    PropertyDef(HAS_GROUP, PropertyKind.CONTEXT, PUBLISHES, (GROUP,)),
    PropertyDef(HAS_AUTHOR, PropertyKind.CONTEXT, PUBLISHES, (AGENT,)),
    PropertyDef(HAS_PUBLISHER, PropertyKind.CONTEXT, PUBLISHES, (AGENT,)),
    PropertyDef(HAS_PROVIDER, PropertyKind.CONTEXT, EVENT, (ORGANIZATION,)),
    PropertyDef(HAS_TIME, PropertyKind.CONTEXT, EVENT, Datatype.DATETIME),
    PropertyDef(HAS_DOCUMENT, PropertyKind.CONTEXT, USES, (DOCUMENT,)),
    PropertyDef(HAS_USER, PropertyKind.CONTEXT, USES, (AGENT,)),
    PropertyDef(HAS_SESSION, PropertyKind.CONTEXT, USES, Datatype.STRING),
    PropertyDef(HAS_ACCESS_TYPE, PropertyKind.CONTEXT, USES, Datatype.STRING),
    PropertyDef(HAS_SOURCE, PropertyKind.CONTEXT, WEIGHTED_RELATIONSHIP, (AGENT, DOCUMENT)),
    PropertyDef(HAS_SINK, PropertyKind.CONTEXT, WEIGHTED_RELATIONSHIP, (AGENT, DOCUMENT)),
    PropertyDef(HAS_WEIGHT, PropertyKind.CONTEXT, WEIGHTED_RELATIONSHIP, Datatype.DECIMAL),
    PropertyDef(HAS_SOURCE_START_TIME, PropertyKind.CONTEXT, CITATION, Datatype.DATETIME),
    PropertyDef(HAS_SOURCE_END_TIME, PropertyKind.CONTEXT, CITATION, Datatype.DATETIME),
    PropertyDef(HAS_SINK_START_TIME, PropertyKind.CONTEXT, CITATION, Datatype.DATETIME),
    PropertyDef(HAS_SINK_END_TIME, PropertyKind.CONTEXT, CITATION, Datatype.DATETIME),
    PropertyDef(HAS_AFFILIATOR, PropertyKind.CONTEXT, AFFILIATION, (AGENT,)),
    PropertyDef(HAS_AFFILIATEE, PropertyKind.CONTEXT, AFFILIATION, (AGENT,)),
    PropertyDef(HAS_OBJECT, PropertyKind.CONTEXT, METRIC, (AGENT, DOCUMENT)),
    PropertyDef(HAS_START_TIME, PropertyKind.CONTEXT, STATE, Datatype.DATETIME),
    PropertyDef(HAS_END_TIME, PropertyKind.CONTEXT, STATE, Datatype.DATETIME),
    PropertyDef(HAS_NUMERIC_VALUE, PropertyKind.CONTEXT, NUMERIC_METRIC, Datatype.DECIMAL),
    # Inferred properties, in inverse pairs.
    PropertyDef(AUTHORED, PropertyKind.INFERRED, AGENT, (DOCUMENT,), AUTHORED_BY),
    PropertyDef(AUTHORED_BY, PropertyKind.INFERRED, DOCUMENT, (AGENT,), AUTHORED),
    PropertyDef(PUBLISHED, PropertyKind.INFERRED, AGENT, (DOCUMENT,), PUBLISHED_BY),
    PropertyDef(PUBLISHED_BY, PropertyKind.INFERRED, DOCUMENT, (AGENT,), PUBLISHED),
    PropertyDef(USED, PropertyKind.INFERRED, AGENT, (DOCUMENT,), USED_BY),
    PropertyDef(USED_BY, PropertyKind.INFERRED, DOCUMENT, (AGENT,), USED),
    PropertyDef(CONTAINS, PropertyKind.INFERRED, GROUP, (UNIT,), CONTAINED_IN),
    PropertyDef(CONTAINED_IN, PropertyKind.INFERRED, UNIT, (GROUP,), CONTAINS),
    PropertyDef(HAS_AFFILIATE, PropertyKind.INFERRED, AGENT, (AGENT,), HAS_AFFILIATION_PROP),
    PropertyDef(HAS_AFFILIATION_PROP, PropertyKind.INFERRED, AGENT, (AGENT,), HAS_AFFILIATE),
    # Structural.
    PropertyDef(PART_OF, PropertyKind.STRUCTURAL, GROUP, (GROUP,)),
)

# Minimum property requirements for context nodes, by class.
REQUIRED_PROPERTIES: dict[Iri, tuple[Iri, ...]] = {
    PUBLISHES: (HAS_UNIT, HAS_PROVIDER, HAS_TIME),
    USES: (HAS_DOCUMENT, HAS_USER, HAS_TIME),
    CITATION: (HAS_SOURCE, HAS_SINK),
    AFFILIATION: (HAS_AFFILIATOR, HAS_AFFILIATEE),
}

# Sibling classes an individual should not mix (reported as warnings).
DISJOINT_SETS: tuple[tuple[Iri, ...], ...] = (
    (AGENT, DOCUMENT, CONTEXT),
    (HUMAN, ORGANIZATION),
    (GROUP, UNIT),
)

# A Publishes whose unit is self-contained (preprint, book) takes no group.
GROUPLESS_UNIT_CLASSES: tuple[Iri, ...] = (PREPRINT_ARTICLE, BOOK)


class Schema:
    """Immutable class taxonomy plus property catalog with lookups."""

    def __init__(self, classes: Iterable[ClassDef], properties: Iterable[PropertyDef]) -> None:
        self._classes = {cdef.iri: cdef for cdef in classes}
        self._properties = {pdef.iri: pdef for pdef in properties}

    def is_class(self, iri: Iri) -> bool:
        return iri in self._classes

    def is_property(self, iri: Iri) -> bool:
        return iri in self._properties

    def class_def(self, iri: Iri) -> ClassDef:
        try:
            return self._classes[iri]
        except KeyError:
            raise UnknownClassError(iri) from None

    def property_def(self, iri: Iri) -> PropertyDef:
        try:
            return self._properties[iri]
        except KeyError:
            raise ScholarGraphError(f"unknown property: <{iri.value}>") from None

    def classes(self) -> tuple[ClassDef, ...]:
        return tuple(self._classes.values())

    def properties(self) -> tuple[PropertyDef, ...]:
        return tuple(self._properties.values())

    def superclasses(self, iri: Iri) -> tuple[Iri, ...]:
        """The class itself, its ancestors in order, and owl:Thing last."""
        chain = [iri]
        current = self.class_def(iri)
        while current.parent != OWL_THING:
            chain.append(current.parent)
            current = self.class_def(current.parent)
        chain.append(OWL_THING)
        return tuple(chain)

    def literal_properties(self) -> dict[Iri, Datatype]:
        """Predicates allowed to carry a literal object, with its datatype."""
        return {
            p.iri: p.range for p in self._properties.values() if isinstance(p.range, Datatype)
        }


SCHEMA = Schema((ClassDef(iri, parent) for iri, parent in _CLASS_PARENTS), _PROPERTIES)


def export_catalog() -> str:
    """Render the schema as a deterministic, line-oriented catalog.

    One line per fact.  Grammar of each line:

    - ``class <curie> subClassOf <curie>``
    - ``property <curie> kind=<k> domain=<curie> range=<spec> [inverse=<curie>]``
    - ``requires <class-curie> <prop-curie>...``
    - ``disjoint <curie>...``
    - ``restriction Publishes-without-group-for <curie>...``
    """
    nt = NamespaceTable()

    def c(iri: Iri) -> str:
        return nt.compact(iri) or f"<{iri.value}>"

    lines: list[str] = []
    for cdef in sorted(SCHEMA.classes(), key=lambda d: d.iri.value):
        parent = "owl:Thing" if cdef.parent == OWL_THING else c(cdef.parent)
        lines.append(f"class {c(cdef.iri)} subClassOf {parent}")
    for pdef in sorted(SCHEMA.properties(), key=lambda d: d.iri.value):
        if isinstance(pdef.range, Datatype):
            rng = pdef.range.name.lower()
        else:
            rng = "|".join(c(r) for r in pdef.range)
        line = (
            f"property {c(pdef.iri)} kind={pdef.kind.value} "
            f"domain={c(pdef.domain)} range={rng}"
        )
        if pdef.inverse is not None:
            line += f" inverse={c(pdef.inverse)}"
        lines.append(line)
    for cls in sorted(REQUIRED_PROPERTIES, key=lambda i: i.value):
        props = " ".join(c(p) for p in REQUIRED_PROPERTIES[cls])
        lines.append(f"requires {c(cls)} {props}")
    for group in DISJOINT_SETS:
        lines.append("disjoint " + " ".join(c(i) for i in group))
    lines.append(
        "restriction Publishes-without-group-for "
        + " ".join(c(i) for i in GROUPLESS_UNIT_CLASSES)
    )
    return "\n".join(lines) + "\n"


class Violation(FrozenRecord):
    __slots__ = ("node", "kind", "severity", "message")
    node: Term
    kind: str  # unknown-class | unknown-property | domain | range | missing-required | group-restriction | disjoint
    severity: str  # "error" or "warning"
    message: str


def validate_instance(store: "Store", node: Term) -> list[Violation]:
    """Check one node against the schema; returns violations, worst first.

    The node must appear in at least one triple.  Checks: declared classes
    exist, property domains and ranges hold, required context properties are
    present, self-contained units carry no group, disjoint siblings are not
    mixed (warning).  This is :func:`validate_all`'s pass restricted to one
    node, typed or not.
    """
    from .validation import IdPass

    node_id = store.lookup(node)
    if node_id is None or not store.appears(node):
        raise UnknownNodeError(node)
    checks = IdPass(store)
    return checks.check(node_id, checks.closures_around(node_id))


def validate_all(store: "Store") -> list[Violation]:
    """Validate every subject that carries an rdf:type declaration.

    One pass at the id level: each typed node's class closure is computed
    once from the rdf:type POS column, and then each node's statements are
    checked by id.  Nodes come in rdf:type POS order (by class id, then
    subject id, each node where it first appears), each with its
    violations worst first.
    """
    from .validation import IdPass

    checks = IdPass(store)
    closures = checks.typed_closures()
    out: list[Violation] = []
    for node in closures:
        out.extend(checks.check(node, closures))
    return out


def literal_audit(store: "Store") -> list[Triple]:
    """Triples whose literal object is not licensed by the schema, in SPO
    order.

    The permitted set is exactly the literal-ranged properties (times,
    weights, session/access-type strings, metric values); anything else,
    for example a smuggled title or author name, is reported.  Each
    predicate's POS column is walked by id, and each distinct object in it
    is decoded once.
    """
    allowed = SCHEMA.literal_properties()
    decode = store.decode
    offending: list[tuple[int, int, int]] = []
    for pred_id in store.predicate_ids():
        expected = allowed.get(decode(pred_id))  # type: ignore[arg-type]
        last, bad = None, False
        for subj_id, _, obj_id in store.match_ids(None, pred_id, None):
            if obj_id != last:
                obj = decode(obj_id)
                last = obj_id
                bad = isinstance(obj, Literal) and not (
                    expected is not None
                    and (
                        obj.datatype is expected
                        or obj.datatype is Datatype.INTEGER
                        and expected in (Datatype.DECIMAL, Datatype.DATETIME)
                    )
                )
            if bad:
                offending.append((subj_id, pred_id, obj_id))
    return [store.decode_triple(ids) for ids in sorted(offending)]
