import pathlib
import random

import pytest

from oracles import (
    conformance_store,
    jcdl_fixture,
    oracle_literal_audit,
    oracle_validate_all,
    oracle_validate_instance,
    random_context_store,
)

from scholargraph.ontology import (
    AFFILIATION,
    AGENT,
    ARTICLE,
    BOOK,
    CITATION,
    CONTEXT,
    DISJOINT_SETS,
    DOCUMENT,
    GROUP,
    HAS_AFFILIATEE,
    HAS_AFFILIATOR,
    HAS_AUTHOR,
    HAS_DOCUMENT,
    HAS_GROUP,
    HAS_NUMERIC_VALUE,
    HAS_PROVIDER,
    HAS_TIME,
    HAS_UNIT,
    HAS_USER,
    HAS_WEIGHT,
    HUMAN,
    IMPACT_FACTOR,
    JOURNAL,
    ORGANIZATION,
    OWL_THING,
    PREPRINT_ARTICLE,
    PUBLISHES,
    SCHEMA,
    UNIT,
    USES,
    UnknownClassError,
    UnknownNodeError,
    _CLASS_PARENTS,
    _PROPERTIES,
    export_catalog,
    literal_audit,
    validate_all,
    validate_instance,
)
from scholargraph.store import Store
from scholargraph.terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    MESUR,
    RDF_TYPE,
    Triple,
    integer_literal,
    string_literal,
    year_literal,
)

PKG_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "scholargraph"


def publishes_fixture():
    store = Store()
    ctx = Iri("urn:ctx:1")
    unit = Iri("urn:doc:1")
    agent = Iri("urn:agent:1")
    prov = Iri("urn:prov:1")
    store.insert(Triple(ctx, RDF_TYPE, PUBLISHES))
    store.insert(Triple(ctx, HAS_UNIT, unit))
    store.insert(Triple(ctx, HAS_PROVIDER, prov))
    store.insert(Triple(ctx, HAS_TIME, year_literal(2006)))
    store.insert(Triple(ctx, HAS_AUTHOR, agent))
    store.insert(Triple(unit, RDF_TYPE, ARTICLE))
    store.insert(Triple(agent, RDF_TYPE, HUMAN))
    store.insert(Triple(prov, RDF_TYPE, ORGANIZATION))
    return store, ctx, unit, agent


def test_schema_taxonomy_shape():
    assert UNIT in SCHEMA.superclasses(ARTICLE)
    assert DOCUMENT in SCHEMA.superclasses(ARTICLE)
    assert GROUP in SCHEMA.superclasses(JOURNAL)
    assert CONTEXT in SCHEMA.superclasses(PUBLISHES)
    assert CONTEXT in SCHEMA.superclasses(CITATION)
    assert CONTEXT in SCHEMA.superclasses(IMPACT_FACTOR)
    assert DOCUMENT not in SCHEMA.superclasses(AGENT)
    assert ARTICLE in SCHEMA.superclasses(ARTICLE)
    assert OWL_THING in SCHEMA.superclasses(ARTICLE)


def test_catalog_iris_are_distinct_and_every_parent_is_known():
    """The compiled-in tables name each class and each property once (a
    repeat would silently replace the first), and every class's parent is
    owl:Thing or a class of the catalog."""
    assert len(SCHEMA.classes()) == len(_CLASS_PARENTS)
    assert len(SCHEMA.properties()) == len(_PROPERTIES)
    for cdef in SCHEMA.classes():
        assert cdef.parent == OWL_THING or SCHEMA.is_class(cdef.parent), cdef


def test_superclasses_chain_order():
    chain = SCHEMA.superclasses(ARTICLE)
    assert chain[0] == ARTICLE
    assert chain[1] == UNIT
    assert chain[2] == DOCUMENT
    assert chain[-1] == OWL_THING


def test_unknown_class_raises():
    with pytest.raises(UnknownClassError):
        SCHEMA.superclasses(Iri(MESUR + "NoSuchClass"))


def test_every_property_resolves():
    for pdef in SCHEMA.properties():
        assert SCHEMA.is_class(pdef.domain)
        if isinstance(pdef.range, Datatype):
            continue
        for cls in pdef.range:
            assert SCHEMA.is_class(cls)
        if pdef.inverse is not None:
            assert SCHEMA.is_property(pdef.inverse)
            assert SCHEMA.property_def(pdef.inverse).inverse == pdef.iri


def test_rebuild_is_stable():
    assert export_catalog() == export_catalog()


def test_catalog_mentions_everything():
    catalog = export_catalog()
    for cdef in SCHEMA.classes():
        assert cdef.iri.value.rsplit("#", 1)[-1] in catalog
    for pdef in SCHEMA.properties():
        assert pdef.iri.value.rsplit("#", 1)[-1] in catalog
    assert "disjoint" in catalog
    assert "requires" in catalog


def test_validate_clean_publishes():
    store, ctx, _, _ = publishes_fixture()
    assert validate_instance(store, ctx) == []


def test_validate_unknown_node():
    store = Store()
    with pytest.raises(UnknownNodeError):
        validate_instance(store, Iri("urn:never:seen"))


def test_validate_missing_required():
    store, ctx, _, _ = publishes_fixture()
    store.remove(Triple(ctx, HAS_TIME, year_literal(2006)))
    kinds = [v.kind for v in validate_instance(store, ctx)]
    assert "missing-required" in kinds


def test_validate_literal_in_resource_range():
    store, ctx, _, _ = publishes_fixture()
    store.insert(Triple(ctx, HAS_GROUP, string_literal("not a node")))
    violations = validate_instance(store, ctx)
    assert any(v.kind == "range" and "resource" in v.message for v in violations)


def test_validate_resource_in_literal_range():
    store, ctx, unit, _ = publishes_fixture()
    cite = Iri("urn:cite:1")
    store.insert(Triple(cite, RDF_TYPE, CITATION))
    store.insert(Triple(cite, Iri(MESUR + "hasSource"), unit))
    store.insert(Triple(cite, Iri(MESUR + "hasSink"), unit))
    store.insert(Triple(cite, HAS_WEIGHT, Iri("urn:not:a:literal")))
    violations = validate_instance(store, cite)
    assert any(v.kind == "range" for v in violations)


def test_validate_decimal_accepts_integer_lexical():
    store, ctx, unit, _ = publishes_fixture()
    cite = Iri("urn:cite:2")
    store.insert(Triple(cite, RDF_TYPE, CITATION))
    store.insert(Triple(cite, Iri(MESUR + "hasSource"), unit))
    store.insert(Triple(cite, Iri(MESUR + "hasSink"), unit))
    store.insert(Triple(cite, HAS_WEIGHT, integer_literal(2)))
    assert validate_instance(store, cite) == []


def test_validate_wrongly_typed_object():
    store, ctx, unit, agent = publishes_fixture()
    store.insert(Triple(ctx, HAS_GROUP, agent))  # agent is a Human, not a Group
    violations = validate_instance(store, ctx)
    assert any(v.kind == "range" and "hasGroup" in v.message for v in violations)


def test_validate_unknown_vocabulary_predicate_is_error():
    store, ctx, _, _ = publishes_fixture()
    store.insert(Triple(ctx, Iri(MESUR + "hasNumbericValue"), string_literal("2.5")))
    violations = validate_instance(store, ctx)
    assert any(v.kind == "unknown-property" for v in violations)


def test_validate_foreign_predicate_ignored():
    store, ctx, _, _ = publishes_fixture()
    store.insert(Triple(ctx, Iri("http://purl.org/dc/terms/title"), string_literal("t")))
    assert validate_instance(store, ctx) == []


def test_validate_disjoint_warning():
    store, ctx, unit, _ = publishes_fixture()
    store.insert(Triple(unit, RDF_TYPE, GROUP))
    violations = validate_instance(store, unit)
    assert any(v.kind == "disjoint" and v.severity == "warning" for v in violations)


def test_validate_group_restriction_for_preprints():
    store = Store()
    ctx = Iri("urn:ctx:p")
    pre = Iri("urn:doc:p")
    grp = Iri("urn:grp:1")
    prov = Iri("urn:prov:1")
    store.insert(Triple(ctx, RDF_TYPE, PUBLISHES))
    store.insert(Triple(ctx, HAS_UNIT, pre))
    store.insert(Triple(ctx, HAS_PROVIDER, prov))
    store.insert(Triple(ctx, HAS_TIME, year_literal(2006)))
    store.insert(Triple(ctx, HAS_GROUP, grp))
    store.insert(Triple(pre, RDF_TYPE, PREPRINT_ARTICLE))
    store.insert(Triple(grp, RDF_TYPE, GROUP))
    store.insert(Triple(prov, RDF_TYPE, ORGANIZATION))
    violations = validate_instance(store, ctx)
    assert any(v.kind == "group-restriction" for v in violations)
    # the same shape with a Book unit is also restricted
    store2 = Store()
    book = Iri("urn:doc:b")
    store2.insert(Triple(ctx, RDF_TYPE, PUBLISHES))
    store2.insert(Triple(ctx, HAS_UNIT, book))
    store2.insert(Triple(ctx, HAS_PROVIDER, prov))
    store2.insert(Triple(ctx, HAS_TIME, year_literal(2006)))
    store2.insert(Triple(book, RDF_TYPE, BOOK))
    store2.insert(Triple(prov, RDF_TYPE, ORGANIZATION))
    assert not any(v.kind == "group-restriction" for v in validate_instance(store2, ctx))


def test_validate_all_reports_only_typed_subjects():
    store, ctx, _, _ = publishes_fixture()
    store.remove(Triple(ctx, HAS_TIME, year_literal(2006)))
    violations = validate_all(store)
    assert violations
    assert all(v.node is not None for v in violations)


def test_validate_uses_affiliation_required():
    store = Store()
    use = Iri("urn:use:1")
    store.insert(Triple(use, RDF_TYPE, USES))
    kinds = [v.kind for v in validate_instance(store, use)]
    assert kinds.count("missing-required") == 3  # hasDocument, hasUser, hasTime
    aff = Iri("urn:aff:1")
    store.insert(Triple(aff, RDF_TYPE, AFFILIATION))
    kinds = [v.kind for v in validate_instance(store, aff)]
    assert kinds.count("missing-required") == 2  # hasAffiliator, hasAffiliatee


def test_disjoint_sets_cover_core_splits():
    flat = [frozenset(group) for group in DISJOINT_SETS]
    assert frozenset((AGENT, DOCUMENT, CONTEXT)) in flat
    assert frozenset((HUMAN, ORGANIZATION)) in flat
    assert frozenset((GROUP, UNIT)) in flat


def test_vocabulary_stays_in_one_module():
    # The namespace string may appear only where the vocabulary is defined.
    allowed = {"ontology.py", "terms.py"}
    for path in PKG_DIR.rglob("*.py"):
        if path.name in allowed:
            continue
        assert "mesur.org" not in path.read_text(encoding="utf-8"), path


def test_rule_scripts_use_only_catalog_vocabulary():
    from scholargraph.inference import RULE_SCRIPTS
    from scholargraph.queryl import parse_script

    for name, text in RULE_SCRIPTS.items():
        script = parse_script(text)
        terms = []
        for block in script.blocks:
            for item in block.patterns:
                terms.extend((item.pattern.subject, item.pattern.predicate, item.pattern.object))
        for template in script.templates:
            terms.extend((template.subject, template.predicate, template.object))
        for term in terms:
            if isinstance(term, Iri) and term.value.startswith(MESUR):
                assert SCHEMA.is_class(term) or SCHEMA.is_property(term), (name, term)


# -- the one-pass validator against the per-node oracle -------------------------------


def every_kind_store():
    """A clean Publishes context plus one node per violation kind."""
    store, _, unit, agent = publishes_fixture()

    def add(s, p, o):
        store.insert(Triple(s, p, o))

    def publishes(node, unit):
        add(node, RDF_TYPE, PUBLISHES)
        add(node, HAS_UNIT, unit)
        add(node, HAS_PROVIDER, Iri("urn:prov:1"))
        add(node, HAS_TIME, year_literal(2006))
        return node

    add(Iri("urn:x:unknown-class"), RDF_TYPE, Iri(MESUR + "Jounral"))
    add(Iri("urn:x:disjoint"), RDF_TYPE, HUMAN)
    add(Iri("urn:x:disjoint"), RDF_TYPE, ORGANIZATION)
    add(publishes(Iri("urn:x:unknown-property"), unit), Iri(MESUR + "hasNumbericValue"), string_literal("2.5"))
    add(Iri("urn:x:domain"), RDF_TYPE, ARTICLE)
    add(Iri("urn:x:domain"), HAS_TIME, year_literal(2006))
    cite = Iri("urn:x:range-literal")
    add(cite, RDF_TYPE, CITATION)
    add(cite, Iri(MESUR + "hasSource"), unit)
    add(cite, Iri(MESUR + "hasSink"), Blank("sink"))
    add(cite, HAS_WEIGHT, string_literal("heavy"))
    add(publishes(Iri("urn:x:range-resource"), unit), HAS_GROUP, agent)
    add(publishes(Iri("urn:x:range-resource-literal"), unit), HAS_GROUP, string_literal("not a node"))
    add(Iri("urn:x:missing-required"), RDF_TYPE, USES)
    preprint = Iri("urn:doc:preprint")
    add(preprint, RDF_TYPE, PREPRINT_ARTICLE)
    edition = Iri("urn:group:1")
    add(edition, RDF_TYPE, GROUP)
    add(publishes(Iri("urn:x:group-restriction"), preprint), HAS_GROUP, edition)
    add(Iri("urn:x:untyped"), HAS_TIME, string_literal("then"))
    return store


def assert_matches_oracle(store):
    assert validate_all(store) == oracle_validate_all(store)
    nodes = {t.subject for t in store.triples()}
    nodes |= {t.object for t in store.triples() if not isinstance(t.object, Literal)}
    for node in nodes:
        assert validate_instance(store, node) == oracle_validate_instance(store, node), node
    assert literal_audit(store) == oracle_literal_audit(store)


def test_every_violation_kind_matches_the_oracle():
    store = every_kind_store()
    kinds = {v.kind for v in validate_all(store)}
    assert kinds == {
        "unknown-class", "disjoint", "unknown-property", "domain", "range", "missing-required", "group-restriction"
    }
    messages = [v.message for v in validate_all(store) if v.kind == "range"]
    assert any("literal, got" in m for m in messages)
    assert any("expects a resource" in m for m in messages)
    assert any("must be typed" in m for m in messages)
    assert_matches_oracle(store)


def test_the_fixtures_match_the_oracle():
    for store in (conformance_store(), jcdl_fixture()[0]):
        assert_matches_oracle(store)


@pytest.mark.parametrize("seed", range(32))
def test_random_stores_match_the_oracle(seed):
    assert_matches_oracle(random_context_store(random.Random(seed), 60))


def test_validate_instance_still_refuses_absent_nodes():
    store, ctx, _, _ = publishes_fixture()
    gone = Iri("urn:x:gone")
    store.insert(Triple(gone, RDF_TYPE, ARTICLE))
    store.remove(Triple(gone, RDF_TYPE, ARTICLE))  # interned, in no triple
    for node in (gone, Iri("urn:never:seen"), string_literal("never seen")):
        with pytest.raises(UnknownNodeError):
            validate_instance(store, node)
