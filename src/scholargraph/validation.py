"""The id-level validation pass behind :func:`ontology.validate_all` and
:func:`ontology.validate_instance`.

It lives apart from the vocabulary so that the many modules that import
only the vocabulary (the sidecar, the query dialect, the rules, the
metrics) never load it; the two entry points import it when they run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .ontology import (
    DISJOINT_SETS,
    GROUPLESS_UNIT_CLASSES,
    HAS_GROUP,
    HAS_UNIT,
    PUBLISHES,
    REQUIRED_PROPERTIES,
    SCHEMA,
    Violation,
)
from .terms import Datatype, Iri, Literal, MESUR, RDF_TYPE

if TYPE_CHECKING:  # pragma: no cover
    from .store import Store


def _range_accepts_literal(rng: Datatype, lit: Literal) -> bool:
    if rng is lit.datatype:
        return True
    # A decimal-ranged property tolerates integer lexical forms.
    return rng is Datatype.DECIMAL and lit.datatype is Datatype.INTEGER


class IdPass:
    """The vocabulary (:data:`ontology.SCHEMA`) compiled against one
    store's term ids.

    Each schema class gets one bit, so a node's class closure is an int
    and every class test is one ``&``.  What checking a statement needs is
    worked out once per class id and per predicate id; terms are decoded
    only to write a message.
    """

    def __init__(self, store: "Store") -> None:
        self.store = store
        self.bit = {cdef.iri: 1 << k for k, cdef in enumerate(SCHEMA.classes())}
        self.rdf_type = store.lookup(RDF_TYPE)
        self.has_unit = store.lookup(HAS_UNIT)
        self.has_group = store.lookup(HAS_GROUP)
        self.publishes = self.mask((PUBLISHES,))
        self.groupless = self.mask(GROUPLESS_UNIT_CLASSES)
        self.disjoint = [(self.mask(group), group) for group in DISJOINT_SETS]
        self.required = [
            (self.mask((cls,)), [(store.lookup(prop), f"<{cls.value}> node lacks <{prop.value}>") for prop in props])
            for cls, props in REQUIRED_PROPERTIES.items()
        ]
        # class id -> (closure bits, unknown-class message or None)
        self._classes: dict[int, tuple[int, Optional[str]]] = {}
        # predicate id -> None (not checked), an unknown-property message,
        # or the domain and range check of a catalog property (see predicate)
        self._predicates: dict[int, object] = {}

    def mask(self, classes: Iterable[Iri]) -> int:
        bit = self.bit
        out = 0
        for cls in classes:
            out |= bit.get(cls, 0)
        return out

    def declared(self, class_id: int) -> tuple[int, Optional[str]]:
        """What declaring a node of the class with this id adds to its
        closure, and the error if the class is not in the schema."""
        entry = self._classes.get(class_id)
        if entry is None:
            cls = self.store.decode(class_id)
            if not isinstance(cls, Iri):
                entry = (0, None)
            elif SCHEMA.is_class(cls):
                entry = (self.mask(SCHEMA.superclasses(cls)), None)
            else:
                entry = (0, f"declared type <{cls.value}> is not a schema class")
            self._classes[class_id] = entry
        return entry

    def typed_closures(self) -> dict[int, int]:
        """Every typed node's closure bits, in rdf:type POS order."""
        closures: dict[int, int] = {}
        if self.rdf_type is None:
            return closures
        for node, _, class_id in self.store.match_ids(None, self.rdf_type, None):
            closures[node] = closures.get(node, 0) | self.declared(class_id)[0]
        return closures

    def closures_around(self, node: int) -> dict[int, int]:
        """The closure bits of ``node`` and of the nodes its statements
        name, each read from its SPO run, for those that are typed."""
        closures: dict[int, int] = {}
        if self.rdf_type is None:
            return closures
        for term_id in {node, *(o for _, _, o in self.store.match_ids(node, None, None))}:
            for _, _, class_id in self.store.match_ids(term_id, self.rdf_type, None):
                closures[term_id] = closures.get(term_id, 0) | self.declared(class_id)[0]
        return closures

    def predicate(self, pred_id: int) -> object:
        """How statements with this predicate are checked: None for a
        foreign predicate, a message for an unknown ``mesur`` one, else
        (domain bit, domain message, the predicate, literal datatype or
        None, range bits, literal message, untyped message)."""
        if pred_id in self._predicates:
            return self._predicates[pred_id]
        pred = self.store.decode(pred_id)
        rule: object = None
        if isinstance(pred, Iri) and SCHEMA.is_property(pred):
            pdef = SCHEMA.property_def(pred)
            datatype = pdef.range if isinstance(pdef.range, Datatype) else None
            allowed = () if datatype is not None else pdef.range
            rule = (
                self.mask((pdef.domain,)),
                f"<{pred.value}> requires the subject to be a <{pdef.domain.value}>",
                pred,
                datatype,
                self.mask(allowed),  # type: ignore[arg-type]
                f"<{pred.value}> expects a resource, got a literal",
                "object of <{}> must be typed {}".format(pred.value, " or ".join(f"<{r.value}>" for r in allowed)),
            )
        elif isinstance(pred, Iri) and pred.value.startswith(MESUR):
            rule = f"<{pred.value}> is not in the property catalog"
        self._predicates[pred_id] = rule
        return rule

    def check(self, node: int, closures: dict[int, int]) -> list[Violation]:
        """The violations of one node, worst first; ``closures`` holds the
        closure bits of every typed node the node's statements name."""
        decode = self.store.decode
        closure = closures.get(node, 0)
        found: list[tuple[int, str, str]] = []  # (severity rank, kind, message)
        seen: set[int] = set()
        groupless = has_group = False
        for _, pred_id, obj_id in self.store.match_ids(node, None, None):
            if pred_id == self.rdf_type:
                unknown = self.declared(obj_id)[1]
                if unknown is not None:
                    found.append((0, "unknown-class", unknown))
                continue
            seen.add(pred_id)
            if pred_id == self.has_unit:
                groupless = groupless or bool(closures.get(obj_id, 0) & self.groupless)
            elif pred_id == self.has_group:
                has_group = True
            rule = self.predicate(pred_id)
            if rule is None:
                continue
            if isinstance(rule, str):
                found.append((0, "unknown-property", rule))
                continue
            domain, domain_message, pred, datatype, allowed, literal_message, untyped_message = rule  # type: ignore[misc]
            if not closure & domain:
                found.append((0, "domain", domain_message))
            if datatype is not None:
                obj = decode(obj_id)
                if not isinstance(obj, Literal) or not _range_accepts_literal(datatype, obj):
                    message = f"<{pred.value}> expects a {datatype.name.lower()} literal, got {obj!r}"
                    found.append((0, "range", message))
                continue
            obj_closure = closures.get(obj_id)
            if obj_closure is None and isinstance(decode(obj_id), Literal):
                found.append((0, "range", literal_message))
            elif not (obj_closure or 0) & allowed:
                found.append((0, "range", untyped_message))
        for group_bits, group in self.disjoint:
            hit = closure & group_bits
            if hit & (hit - 1):
                names = ", ".join(f"<{c.value}>" for c in group if closure & self.bit.get(c, 0))
                found.append((1, "disjoint", f"disjoint classes on one node: {names}"))
        for cls_bit, props in self.required:
            if closure & cls_bit:
                for prop_id, message in props:
                    if prop_id not in seen:
                        found.append((0, "missing-required", message))
        if closure & self.publishes and groupless and has_group:
            message = "Publishes of a self-contained unit (preprint, book) must not carry hasGroup"
            found.append((0, "group-restriction", message))
        if not found:
            return []
        found.sort()
        term = decode(node)
        severity = ("error", "warning")
        return [Violation(term, kind, severity[rank], message) for rank, kind, message in found]
