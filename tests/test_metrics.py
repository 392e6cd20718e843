"""Metric tests: windows, numerator semantics, node writes, script parity."""

import io
import os
import random
from decimal import Decimal
from itertools import product

import pytest

from oracles import (
    index_of,
    insert_all,
    journal_roots,
    jcdl_fixture,
    ledger_triples,
    oracle_impact_factor,
    oracle_usage_impact_factor,
    random_context_store,
    ratio_6dp,
)
from scholargraph.inference import InferenceEngine
from scholargraph.metrics import (
    MetricError,
    UndefinedMetricError,
    impact_factor,
    resolve_window,
    usage_impact_factor,
)
from scholargraph.ontology import (
    ARTICLE,
    CITATION,
    GROUP,
    HAS_AUTHOR,
    HAS_DOCUMENT,
    HAS_END_TIME,
    HAS_GROUP,
    HAS_NUMERIC_VALUE,
    HAS_OBJECT,
    HAS_SINK,
    HAS_SOURCE,
    HAS_START_TIME,
    HAS_TIME,
    HAS_UNIT,
    HAS_WEIGHT,
    IMPACT_FACTOR,
    JOURNAL,
    PART_OF,
    PUBLISHES,
    RDF_TYPE,
    USAGE_IMPACT_FACTOR,
    USES,
    UnknownNodeError,
)
from scholargraph.queryl import execute_script, parse_script
from scholargraph.store import Store
from scholargraph.terms import (
    Datatype,
    Iri,
    Literal,
    Triple,
    year_literal,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def read_query(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return handle.read()


def node(name):
    return Iri("urn:x-test:" + name)


def snapshot_bytes(store):
    buffer = io.BytesIO()
    store.save(buffer)
    return buffer.getvalue()


def small_journal():
    """Journal with two window units (2005) and one 2007 source article."""
    store = Store()
    root, ed = node("J"), node("ed")
    store.insert(Triple(root, RDF_TYPE, JOURNAL))
    store.insert(Triple(ed, RDF_TYPE, GROUP))
    store.insert(Triple(ed, PART_OF, root))
    for i, label in enumerate(("w1", "w2")):
        unit = node(label)
        ctx = node(f"pub-{label}")
        store.insert(Triple(unit, RDF_TYPE, ARTICLE))
        store.insert(Triple(ctx, RDF_TYPE, PUBLISHES))
        store.insert(Triple(ctx, HAS_UNIT, unit))
        store.insert(Triple(ctx, HAS_GROUP, ed))
        store.insert(Triple(ctx, HAS_TIME, year_literal(2005)))
    source = node("s")
    store.insert(Triple(source, RDF_TYPE, ARTICLE))
    ctx = node("pub-s")
    store.insert(Triple(ctx, RDF_TYPE, PUBLISHES))
    store.insert(Triple(ctx, HAS_UNIT, source))
    store.insert(Triple(ctx, HAS_TIME, year_literal(2007)))
    return store, root, source


def cite(store, label, source, sink):
    ctx = node(label)
    store.insert(Triple(ctx, RDF_TYPE, Iri(
        "http://www.mesur.org/schemas/2007-01/mesur#Citation")))
    store.insert(Triple(ctx, HAS_SOURCE, source))
    store.insert(Triple(ctx, HAS_SINK, sink))


def use(store, label, doc, year):
    ctx = node(label)
    store.insert(Triple(ctx, RDF_TYPE, USES))
    store.insert(Triple(ctx, HAS_DOCUMENT, doc))
    store.insert(Triple(ctx, HAS_TIME, year_literal(year)))


# -- windows -------------------------------------------------------------------


def test_default_window_is_the_two_preceding_years():
    assert resolve_window(2007, None) == (2005, 2006)
    assert resolve_window(1997, None) == (1995, 1996)


def test_explicit_window_passes_through():
    assert resolve_window(2007, (2004, 2006)) == (2004, 2006)
    assert resolve_window(2007, (2006, 2006)) == (2006, 2006)


def test_empty_window_is_an_error():
    with pytest.raises(MetricError) as info:
        resolve_window(2007, (2006, 2005))
    assert "window is empty" in str(info.value)


def test_window_must_end_before_the_target_year():
    for bad in ((2005, 2007), (2007, 2008), (2008, 2009)):
        with pytest.raises(MetricError) as info:
            resolve_window(2007, bad)
        assert "must end before the target year" in str(info.value)


# -- the reference fixture -------------------------------------------------------


def test_impact_factor_on_the_reference_fixture():
    store, root = jcdl_fixture()
    result = impact_factor(store, root, 2007)
    assert (result.numerator, result.denominator) == (25, 10)
    assert result.value == Decimal("2.500000")
    assert result.window == (2005, 2006)
    assert list(store.objects(result.node, HAS_NUMERIC_VALUE)) == [
        Literal("2.500000", Datatype.DECIMAL)
    ]


def test_usage_impact_factor_on_the_reference_fixture():
    store, root = jcdl_fixture()
    result = usage_impact_factor(store, root, 2007)
    assert (result.numerator, result.denominator) == (40, 10)
    assert result.value == Decimal("4.000000")
    assert list(store.objects(result.node, HAS_NUMERIC_VALUE)) == [
        Literal("4.000000", Datatype.DECIMAL)
    ]


def test_metric_nodes_carry_object_year_and_class():
    store, root = jcdl_fixture()
    fact = impact_factor(store, root, 2007)
    usage = usage_impact_factor(store, root, 2007)
    for result, kind in ((fact, IMPACT_FACTOR), (usage, USAGE_IMPACT_FACTOR)):
        derived = result.node
        assert set(store.match_terms(derived, None, None)) == {
            Triple(derived, RDF_TYPE, kind),
            Triple(derived, HAS_OBJECT, root),
            Triple(derived, HAS_START_TIME, year_literal(2007)),
            Triple(derived, HAS_END_TIME, year_literal(2007)),
            Triple(derived, HAS_NUMERIC_VALUE,
                   Literal(str(result.value), Datatype.DECIMAL)),
        }
    assert fact.node != usage.node


def test_metric_node_iris_are_reproducible():
    first_store, first_root = jcdl_fixture()
    second_store, second_root = jcdl_fixture()
    a = impact_factor(first_store, first_root, 2007)
    b = impact_factor(second_store, second_root, 2007)
    assert a.node == b.node
    assert a.node.value.startswith("urn:mesur:derived:impact-factor:")


def test_recomputing_updates_in_place():
    store, root = jcdl_fixture()
    first = impact_factor(store, root, 2007)
    before = set(store.triples())
    again = impact_factor(store, root, 2007)
    assert again.node == first.node
    assert set(store.triples()) == before
    # new qualifying citation: the node's value follows, no stale literal
    extra = Iri("urn:doc:source:extra")
    store.insert(Triple(extra, RDF_TYPE, ARTICLE))
    ctx = Iri("urn:ctx:pub:extra")
    store.insert(Triple(ctx, RDF_TYPE, PUBLISHES))
    store.insert(Triple(ctx, HAS_UNIT, extra))
    store.insert(Triple(ctx, HAS_TIME, year_literal(2007)))
    cite(store, "extra-cite", extra, Iri("urn:doc:window:0"))
    bumped = impact_factor(store, root, 2007)
    assert bumped.node == first.node
    assert bumped.numerator == 26
    assert list(store.objects(first.node, HAS_NUMERIC_VALUE)) == [
        Literal("2.600000", Datatype.DECIMAL)
    ]


# -- numerator semantics -----------------------------------------------------------


def test_duplicate_citation_nodes_count_once():
    store, root, source = small_journal()
    cite(store, "c1", source, node("w1"))
    cite(store, "c2", source, node("w1"))
    result = impact_factor(store, root, 2007)
    assert (result.numerator, result.denominator) == (1, 2)
    assert result.value == Decimal("0.500000")


def test_one_source_citing_two_window_units_counts_twice():
    store, root, source = small_journal()
    cite(store, "c1", source, node("w1"))
    cite(store, "c2", source, node("w2"))
    result = impact_factor(store, root, 2007)
    assert result.numerator == 2
    assert result.value == Decimal("1.000000")


def test_sources_must_be_published_in_the_target_year():
    store, root, source = small_journal()
    stale = node("old-source")
    store.insert(Triple(stale, RDF_TYPE, ARTICLE))
    ctx = node("pub-old")
    store.insert(Triple(ctx, RDF_TYPE, PUBLISHES))
    store.insert(Triple(ctx, HAS_UNIT, stale))
    store.insert(Triple(ctx, HAS_TIME, year_literal(2006)))
    cite(store, "c1", stale, node("w1"))
    cite(store, "c2", source, node("w1"))
    result = impact_factor(store, root, 2007)
    assert result.numerator == 1


def test_a_source_published_by_the_context_with_id_zero_counts():
    store = Store()
    ctx = node("pub-first")
    store.insert(Triple(ctx, RDF_TYPE, PUBLISHES))  # interned first: id 0
    assert store.lookup(ctx) == 0
    journal, root, source = small_journal()
    insert_all(store, journal.triples())
    store.remove(Triple(node("pub-s"), HAS_TIME, year_literal(2007)))
    store.insert(Triple(ctx, HAS_UNIT, source))
    store.insert(Triple(ctx, HAS_TIME, year_literal(2007)))
    cite(store, "c1", source, node("w1"))
    assert impact_factor(store, root, 2007).numerator == 1


def test_sinks_outside_the_window_do_not_count():
    store, root, source = small_journal()
    outsider = node("outsider")
    store.insert(Triple(outsider, RDF_TYPE, ARTICLE))
    cite(store, "c1", source, outsider)
    result = impact_factor(store, root, 2007)
    assert result.numerator == 0
    assert result.value == Decimal("0.000000")


def test_usage_counts_contexts_not_documents():
    store, root, _ = small_journal()
    use(store, "u1", node("w1"), 2007)
    use(store, "u2", node("w1"), 2007)  # same document, second event
    use(store, "u3", node("w2"), 2006)  # wrong year
    use(store, "u4", node("s"), 2007)  # not a window unit
    result = usage_impact_factor(store, root, 2007)
    assert (result.numerator, result.denominator) == (2, 2)
    assert result.value == Decimal("1.000000")


def test_direct_only_restricts_to_one_hop():
    store, root, source = small_journal()
    # rewire: ed partOf mid partOf root, so direct lookups see nothing
    mid = node("mid")
    store.remove(Triple(node("ed"), PART_OF, root))
    store.insert(Triple(mid, PART_OF, root))
    store.insert(Triple(node("ed"), PART_OF, mid))
    cite(store, "c1", source, node("w1"))
    deep = impact_factor(store, root, 2007)
    assert deep.denominator == 2
    with pytest.raises(UndefinedMetricError):
        impact_factor(store, root, 2007, transitive=False)


def test_metrics_match_their_definitions_on_random_stores():
    """Both metrics for every journal root, several target years, the
    default and an explicit window, and both partOf modes, against
    brute-force evaluations of the module docstring's definitions."""
    counted = {"impact factor": 0, "usage impact factor": 0}
    for seed in range(3):
        store = random_context_store(random.Random(seed), 300)
        idx = index_of(store)
        roots = journal_roots(idx)
        metrics = ((impact_factor, oracle_impact_factor), (usage_impact_factor, oracle_usage_impact_factor))
        for root, year, explicit, transitive, (compute, oracle) in product(
            roots, (2004, 2007, 2009), (False, True), (True, False), metrics
        ):
            window = (year - 5, year - 2) if explicit else None
            case = (seed, root, year, window, transitive, compute.__name__)
            numerator, denominator = oracle(idx, root, year, window, transitive)
            if denominator == 0:
                with pytest.raises(UndefinedMetricError):
                    compute(store, root, year, window=window, transitive=transitive)
                continue
            result = compute(store, root, year, window=window, transitive=transitive)
            assert (result.numerator, result.denominator) == (numerator, denominator), case
            assert result.value == ratio_6dp(numerator, denominator), case
            counted[result.metric] += numerator > 0
    # the stores exercise both numerators, not only the zero case
    assert min(counted.values()) >= 10, counted


# -- failure modes ------------------------------------------------------------------


def test_zero_denominator_raises_and_writes_nothing():
    store, root, _ = small_journal()
    reference = snapshot_bytes(store)
    with pytest.raises(UndefinedMetricError) as info:
        impact_factor(store, root, 2007, window=(1990, 1991))
    assert "impact factor is undefined" in str(info.value)
    assert "no units published in the window" in str(info.value)
    assert snapshot_bytes(store) == reference
    with pytest.raises(UndefinedMetricError):
        usage_impact_factor(store, root, 2007, window=(1990, 1991))
    assert snapshot_bytes(store) == reference


def test_unknown_object_is_an_error():
    store, _ = jcdl_fixture()
    with pytest.raises(UnknownNodeError):
        impact_factor(store, node("nowhere"), 2007)


# -- vocabulary the store lacks ---------------------------------------------------------

OTHER_JOURNAL = Iri("urn:issn:9999-0001")


def coauthored_jcdl():
    """The reference fixture plus one author pair on two window units and
    one 2007 source."""
    store, root = jcdl_fixture()
    for ctx in ("urn:ctx:pub:w0", "urn:ctx:pub:w1", "urn:ctx:pub:s0"):
        for author in (node("alice"), node("bob")):
            store.insert(Triple(Iri(ctx), HAS_AUTHOR, author))
    return store, root


@pytest.mark.parametrize(
    "dropped, expected",
    [
        ((), ((25, 10), (40, 10), [2], 25)),
        ((HAS_TIME,), ("undefined", "undefined", [], 0)),
        ((PART_OF,), ("undefined", "undefined", [2], 0)),
        ((USES, HAS_DOCUMENT), ((25, 10), (0, 10), [2], 25)),
        ((CITATION,), ((0, 10), (40, 10), [2], 0)),
    ],
)
def test_absent_vocabulary_matches_nothing_and_scans_nothing(dropped, expected):
    """On a store that never interned a term the metrics and derivations
    read, they count nothing for it, and no probe takes the missing id for
    a wildcard: each binds the subject, or the predicate and the object."""
    full, root = coauthored_jcdl()
    store = Store()
    insert_all(store, (t for t in full.triples() if t.predicate not in dropped and t.object not in dropped))
    assert all(store.lookup(term) is None for term in dropped)
    shapes = []
    match_ids = store.match_ids

    def recorded(s, p, o):
        shapes.append((s, p, o))
        return match_ids(s, p, o)

    store.match_ids = recorded
    engine = InferenceEngine(store)

    def counts(compute):
        try:
            result = compute(store, root, 2007)
        except UndefinedMetricError:
            return "undefined"
        return (result.numerator, result.denominator)

    def weight(derived):
        return int(Decimal(store.objects(derived, HAS_WEIGHT)[0].lexical))

    got = (
        counts(impact_factor),
        counts(usage_impact_factor),
        [weight(forward) for forward, _ in engine.derive_all_coauthors((2005, 2006))],
        # last: the derived node is itself typed Citation
        weight(engine.derive_group_citation(OTHER_JOURNAL, root, (2007, 2007), (2005, 2006))),
    )
    assert got == expected
    assert shapes
    for s, p, o in shapes:
        assert s is not None or (p is not None and o is not None), (s, p, o)


# -- engine integration --------------------------------------------------------------


def test_metrics_enter_the_engine_ledger_and_retract():
    store, root = jcdl_fixture()
    reference = snapshot_bytes(store)
    engine = InferenceEngine(store)
    impact_factor(store, root, 2007)
    usage_impact_factor(store, root, 2007)
    assert engine.ledger_rules() == (engine.METRIC_RULE,)
    assert len(engine.ledger_entries(engine.METRIC_RULE)) == 10
    engine.retract_all()
    assert snapshot_bytes(store) == reference


def test_a_metric_rewritten_without_an_engine_leaves_no_stale_ledger_triple():
    store, root = jcdl_fixture()
    engine = InferenceEngine(store)
    assert impact_factor(store, root, 2007).value == Decimal("2.500000")
    citation = Iri("urn:cite:0")
    assert store.remove(Triple(citation, RDF_TYPE, CITATION))
    result = impact_factor(store, root, 2007)
    assert result.value == Decimal("2.400000")
    # the node's old statements left the ledger with the store; the
    # rewritten node's five statements are the metric rule's whole entry
    assert engine.ledger_rules() == (engine.METRIC_RULE,)
    assert engine.ledger_entries(engine.METRIC_RULE) == frozenset(
        store.match_terms(result.node, None, None)
    )
    assert len(engine.ledger_entries(engine.METRIC_RULE)) == 5
    back = Store.load(io.BytesIO(snapshot_bytes(store)))
    assert set(back.triples()) == set(store.triples())
    assert ledger_triples(back) == ledger_triples(store)


def test_adding_a_qualifying_citation_never_lowers_the_value():
    store, root = jcdl_fixture()
    last = impact_factor(store, root, 2007).value
    for i in range(5):
        extra = Iri(f"urn:doc:source:more:{i}")
        store.insert(Triple(extra, RDF_TYPE, ARTICLE))
        ctx = Iri(f"urn:ctx:pub:more:{i}")
        store.insert(Triple(ctx, RDF_TYPE, PUBLISHES))
        store.insert(Triple(ctx, HAS_UNIT, extra))
        store.insert(Triple(ctx, HAS_TIME, year_literal(2007)))
        cite(store, f"more-{i}", extra, Iri(f"urn:doc:window:{i}"))
        value = impact_factor(store, root, 2007).value
        assert value >= last
        last = value


# -- parity with the query scripts ------------------------------------------------------


def test_impact_factor_script_matches_the_operation():
    store, root = jcdl_fixture()
    op = impact_factor(store, root, 2007)
    report = execute_script(store, parse_script(read_query("impact_factor.q")))
    assert report.block_rows == (25, 10)
    assert (op.numerator, op.denominator) == report.block_rows
    values = [
        t.object for t in report.new_triples
        if t.predicate.value.endswith("hasNumbericValue")
    ]
    assert values == [Literal(str(op.value), Datatype.DECIMAL)]


def test_usage_impact_factor_script_matches_the_operation():
    store, root = jcdl_fixture()
    op = usage_impact_factor(store, root, 2007)
    report = execute_script(
        store, parse_script(read_query("usage_impact_factor.q"))
    )
    assert report.block_rows == (40, 10)
    assert (op.numerator, op.denominator) == report.block_rows
    values = [
        t.object for t in report.new_triples
        if t.predicate == HAS_NUMERIC_VALUE
    ]
    assert values == [Literal(str(op.value), Datatype.DECIMAL)]
