"""Inference engine tests: rule runs, ledgers, retraction, derivations."""

import io
import random
from decimal import Decimal
from itertools import combinations, product

import pytest

from oracles import (
    RULE_ORACLES,
    conformance_store,
    index_of,
    insert_all,
    journal_roots,
    ledger_triples,
    oracle_coauthor_rows,
    oracle_coauthor_weight,
    oracle_group_citation_weight,
    oracle_upsert_node,
    random_context_store,
)
from scholargraph.contexts import descendant_groups, upsert_node, year_of
from scholargraph.inference import (
    InferenceEngine,
    InferenceError,
    LedgerError,
    RULE_SCRIPTS,
    UnknownRuleError,
)
from scholargraph.ontology import (
    ARTICLE,
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
    JOURNAL,
    PART_OF,
    PUBLISHES,
    RDF_TYPE,
    UnknownNodeError,
)
from scholargraph.queryl import execute_script, parse_script
from scholargraph.store import Store
from scholargraph.terms import (
    Datatype,
    Iri,
    Literal,
    Triple,
    decimal_literal,
    term_sort_key,
    year_literal,
)


def node(name):
    return Iri("urn:x-test:" + name)


def snapshot_bytes(store):
    buffer = io.BytesIO()
    store.save(buffer)
    return buffer.getvalue()


def publishes(store, label, unit, group=None, year=None, authors=()):
    ctx = node(label)
    store.insert(Triple(ctx, RDF_TYPE, PUBLISHES))
    store.insert(Triple(ctx, HAS_UNIT, unit))
    if group is not None:
        store.insert(Triple(ctx, HAS_GROUP, group))
    if year is not None:
        store.insert(Triple(ctx, HAS_TIME, year_literal(year)))
    for author in authors:
        store.insert(Triple(ctx, HAS_AUTHOR, author))
    return ctx


def citation(store, label, source, sink):
    ctx = node(label)
    store.insert(Triple(ctx, RDF_TYPE, CITATION))
    store.insert(Triple(ctx, HAS_SOURCE, source))
    store.insert(Triple(ctx, HAS_SINK, sink))
    return ctx


def two_journal_store():
    """G1 units u1,u2 published 2005 cite G2 unit v1 published 2006.

    The u1->v1 pair carries two distinct Citation nodes, so node-counting
    and pair-counting disagree on purpose (3 vs 2).
    """
    store = Store()
    g1, g2 = node("G1"), node("G2")
    e1, e2 = node("e1"), node("e2")
    for g in (g1, g2):
        store.insert(Triple(g, RDF_TYPE, JOURNAL))
    store.insert(Triple(e1, PART_OF, g1))
    store.insert(Triple(e2, PART_OF, g2))
    u1, u2, v1 = node("u1"), node("u2"), node("v1")
    for unit in (u1, u2, v1):
        store.insert(Triple(unit, RDF_TYPE, ARTICLE))
    publishes(store, "p1", u1, group=e1, year=2005)
    publishes(store, "p2", u2, group=e1, year=2005)
    publishes(store, "p3", v1, group=e2, year=2006)
    citation(store, "c1", u1, v1)
    citation(store, "c2", u2, v1)
    citation(store, "c3", u1, v1)
    return store, g1, g2


# -- rule catalog ------------------------------------------------------------


def test_rule_catalog_is_sorted_and_complete():
    engine = InferenceEngine(Store())
    assert engine.rules() == tuple(sorted(RULE_SCRIPTS))
    assert set(engine.rules()) == {
        "affiliation", "authored_by", "contained_in", "published_by", "used_by"
    }
    for name in engine.rules():
        assert "SELECT" in RULE_SCRIPTS[name]


def test_unknown_rule_everywhere():
    engine = InferenceEngine(Store())
    for call in (engine.run_rule, engine.retract_rule):
        with pytest.raises(UnknownRuleError):
            call("no_such_rule")


# -- rule runs against the independent oracles ---------------------------------


def test_rules_match_oracles_on_random_stores():
    for seed in range(5):
        store = random_context_store(random.Random(seed), 50)
        for name, oracle in RULE_ORACLES.items():
            engine = InferenceEngine(store)
            _, wanted = oracle(index_of(store))
            before = set(store.triples())
            count = engine.run_rule(name)
            assert set(store.triples()) == before | wanted, (seed, name)
            assert count == len(wanted - before), (seed, name)
            assert engine.ledger_entries(name) == wanted - before, (seed, name)


def test_second_run_adds_nothing():
    store = random_context_store(random.Random(99), 40)
    engine = InferenceEngine(store)
    first = engine.run_all()
    assert sum(first.values()) > 0
    second = engine.run_all()
    assert set(second.values()) == {0}
    # and the ledger still covers exactly the first run's contribution
    for name in engine.rules():
        for triple in engine.ledger_entries(name):
            assert triple in store


def test_run_all_covers_every_rule():
    store = conformance_store()
    engine = InferenceEngine(store)
    report = engine.run_all()
    assert tuple(sorted(report)) == engine.rules()


# -- retraction ----------------------------------------------------------------


def test_retract_restores_the_exact_snapshot():
    store = random_context_store(random.Random(7), 60)
    reference = snapshot_bytes(store)
    engine = InferenceEngine(store)
    engine.run_all()
    assert snapshot_bytes(store) != reference
    removed = engine.retract_all()
    assert removed > 0
    assert snapshot_bytes(store) == reference
    assert engine.ledger_rules() == ()


def test_retraction_leaves_preexisting_facts_alone():
    # A fact a rule would also derive, asserted in the base data, must
    # survive run + retract: the ledger only holds what the run added.
    store = Store()
    author = node("alice")
    unit = node("paper")
    store.insert(Triple(unit, RDF_TYPE, ARTICLE))
    publishes(store, "p1", unit, year=2005, authors=[author])
    handmade = Triple(
        unit, Iri("http://www.mesur.org/schemas/2007-01/mesur#authoredBy"), author
    )
    store.insert(handmade)
    engine = InferenceEngine(store)
    engine.run_rule("authored_by")
    assert handmade not in engine.ledger_entries("authored_by")
    engine.retract_rule("authored_by")
    assert store.contains(handmade)


def test_retract_single_rule_is_exact():
    store = random_context_store(random.Random(13), 50)
    engine = InferenceEngine(store)
    engine.run_all()
    after_all = set(store.triples())
    used = engine.ledger_entries("used_by")
    removed = engine.retract_rule("used_by")
    assert removed == len(used)
    assert set(store.triples()) == after_all - used
    assert "used_by" not in engine.ledger_rules()
    # retracting again is a no-op, not an error (the rule exists)
    assert engine.retract_rule("used_by") == 0


# -- ledger persistence ----------------------------------------------------------


def test_ledger_roundtrip_through_bytes():
    store = random_context_store(random.Random(21), 40)
    engine = InferenceEngine(store)
    engine.run_all()
    engine.derive_all_coauthors()
    buffer = io.BytesIO()
    engine.save_ledger(buffer)
    raw = buffer.getvalue()
    # the dump is a snapshot of the ledgered triples alone, each under its rule
    dump = Store.load(io.BytesIO(raw))
    assert len(dump) == sum(store.ledger_counts().values())
    assert ledger_triples(dump) == ledger_triples(store)

    for name in engine.ledger_rules():
        store.retag(store.ledger_rows(name), None)
    resumed = InferenceEngine(store)
    resumed.load_ledger(io.BytesIO(raw))
    assert resumed.ledger_rules() == engine.ledger_rules()
    assert ledger_triples(store) == ledger_triples(dump)


def test_ledger_roundtrip_through_a_file(tmp_path):
    store = random_context_store(random.Random(22), 30)
    engine = InferenceEngine(store)
    engine.run_rule("authored_by")
    path = str(tmp_path / "run.ledger")
    engine.save_ledger(path)
    entries = engine.ledger_entries("authored_by")
    engine.retract_rule("authored_by")
    insert_all(store, entries)
    resumed = InferenceEngine(store)
    resumed.load_ledger(path)
    assert resumed.ledger_entries("authored_by") == entries


def test_ledger_save_is_deterministic():
    store = random_context_store(random.Random(23), 30)
    base = io.BytesIO()
    store.save(base)
    engine = InferenceEngine(store)
    engine.run_all()
    first, second = io.BytesIO(), io.BytesIO()
    engine.save_ledger(first)
    engine.save_ledger(second)
    assert first.getvalue() == second.getvalue()
    # the same rules on a loaded copy, whose term ids are in another order,
    # dump the same bytes
    other = InferenceEngine(Store.load(io.BytesIO(base.getvalue())))
    other.run_all()
    third = io.BytesIO()
    other.save_ledger(third)
    assert third.getvalue() == first.getvalue()


def test_ledger_rejects_bad_input():
    store = random_context_store(random.Random(24), 10)
    engine = InferenceEngine(store)
    engine.run_rule("authored_by")
    buffer = io.BytesIO()
    engine.save_ledger(buffer)
    raw = buffer.getvalue()
    before = ledger_triples(store)
    for bad in (b"not a ledger\n", b"#scholargraph-ledger v1\n", raw[: len(raw) // 2], raw[:-1], raw + b"\0"):
        with pytest.raises(LedgerError, match="not a ledger dump"):
            engine.load_ledger(io.BytesIO(bad))
        assert ledger_triples(store) == before


def test_ledger_verification_needs_the_triples_present():
    held = Triple(node("a"), node("p"), node("c"))
    dumped = Store()
    missing = [Triple(node("a"), node("p"), node("b")), Triple(Iri("urn:x"), Iri("urn:q"), Iri("urn:y"))]
    insert_all(dumped, [held, *missing])
    dumped.retag([dumped.lookup_triple(triple) for triple in dumped.triples()], "authored_by")
    raw = io.BytesIO()
    dumped.save(raw)
    store = Store()
    store.insert(held)
    store.retag([store.lookup_triple(held)], "contained_in")
    engine = InferenceEngine(store)
    with pytest.raises(LedgerError) as info:
        engine.load_ledger(io.BytesIO(raw.getvalue()))
    assert "is not in the store" in str(info.value)
    # nothing changed: the ledger is as it was, and no triple or term was added
    assert ledger_triples(store) == {"contained_in": {held}}
    assert len(store) == 1 and store.term_count() == 3


def test_load_ledger_reads_a_stores_own_snapshot():
    store = random_context_store(random.Random(25), 30)
    engine = InferenceEngine(store)
    engine.run_all()
    engine.derive_all_coauthors()
    expected = ledger_triples(store)
    snapshot = io.BytesIO()
    store.save(snapshot)
    for name in engine.ledger_rules():
        store.retag(store.ledger_rows(name), None)
    assert engine.ledger_rules() == ()
    size, terms = len(store), store.term_count()
    engine.load_ledger(io.BytesIO(snapshot.getvalue()))
    assert ledger_triples(store) == expected
    assert len(store) == size and store.term_count() == terms


# -- group citation derivation ----------------------------------------------------


def test_group_citation_counts_nodes_and_shapes_the_node():
    store, g1, g2 = two_journal_store()
    engine = InferenceEngine(store)
    derived = engine.derive_group_citation(g1, g2, (2005, 2005), (2006, 2006))
    assert derived.value.startswith("urn:mesur:derived:group-citation:")
    facts = set(store.match_terms(derived, None, None))
    assert facts == {
        Triple(derived, RDF_TYPE, CITATION),
        Triple(derived, HAS_SOURCE, g1),
        Triple(derived, HAS_SINK, g2),
        Triple(derived, HAS_WEIGHT, decimal_literal("3.0")),
        Triple(derived, HAS_SOURCE_START_TIME, year_literal(2005)),
        Triple(derived, HAS_SOURCE_END_TIME, year_literal(2005)),
        Triple(derived, HAS_SINK_START_TIME, year_literal(2006)),
        Triple(derived, HAS_SINK_END_TIME, year_literal(2006)),
    }


def test_group_citation_rederivation_upserts():
    store, g1, g2 = two_journal_store()
    engine = InferenceEngine(store)
    first = engine.derive_group_citation(g1, g2, (2005, 2005), (2006, 2006))
    before = set(store.triples())
    again = engine.derive_group_citation(g1, g2, (2005, 2005), (2006, 2006))
    assert again == first
    assert set(store.triples()) == before

    # data changes, the weight follows, no stale weight survives
    store.remove(Triple(node("c3"), HAS_SINK, node("v1")))
    engine.derive_group_citation(g1, g2, (2005, 2005), (2006, 2006))
    weights = list(store.objects(first, HAS_WEIGHT))
    assert weights == [decimal_literal("2.0")]
    for triple in engine.ledger_entries(engine.GROUP_CITATION):
        assert triple in store


def test_group_citation_zero_weight_written_on_request():
    store, g1, g2 = two_journal_store()
    engine = InferenceEngine(store)
    derived = engine.derive_group_citation(g1, g2, (1999, 1999), (2006, 2006))
    assert list(store.objects(derived, HAS_WEIGHT)) == [decimal_literal("0.0")]


def test_group_citation_windows_and_roots_validated():
    store, g1, g2 = two_journal_store()
    engine = InferenceEngine(store)
    with pytest.raises(InferenceError):
        engine.derive_group_citation(g1, g2, (2006, 2005), (2006, 2006))
    with pytest.raises(UnknownNodeError):
        engine.derive_group_citation(node("ghost"), g2, (2005, 2005), (2006, 2006))


def test_group_citation_transitive_vs_direct():
    store, g1, g2 = two_journal_store()
    # push e1 one level down: e1 partOf mid partOf G1
    mid = node("mid")
    store.remove(Triple(node("e1"), PART_OF, g1))
    store.insert(Triple(mid, PART_OF, g1))
    store.insert(Triple(node("e1"), PART_OF, mid))
    engine = InferenceEngine(store)
    deep = engine.derive_group_citation(g1, g2, (2005, 2005), (2006, 2006))
    assert list(store.objects(deep, HAS_WEIGHT)) == [decimal_literal("3.0")]
    shallow = engine.derive_group_citation(
        g1, g2, (2005, 2005), (2006, 2006), transitive=False
    )
    assert list(store.objects(shallow, HAS_WEIGHT)) == [decimal_literal("0.0")]


def weight_of(store, derived):
    (weight,) = store.objects(derived, HAS_WEIGHT)
    return int(Decimal(weight.lexical))


def test_group_citation_matches_its_definition_on_random_stores():
    nonzero = 0
    for seed in range(3):
        store = random_context_store(random.Random(seed), 300)
        idx = index_of(store)
        roots = journal_roots(idx)
        engine = InferenceEngine(store)
        windows = (((2006, 2008), (2002, 2005)), ((2000, 2009), (2000, 2009)))
        for source, sink, (source_window, sink_window), transitive in product(
            roots, roots, windows, (True, False)
        ):
            expected = oracle_group_citation_weight(idx, source, sink, source_window, sink_window, transitive)
            derived = engine.derive_group_citation(source, sink, source_window, sink_window, transitive)
            assert weight_of(store, derived) == expected, (seed, source, sink, source_window, transitive)
            nonzero += expected > 0
    assert nonzero >= 10


def test_coauthor_weights_match_their_definition_on_random_stores():
    for seed in range(3):
        store = random_context_store(random.Random(seed), 300)
        idx = index_of(store)
        joint = set()
        for ctx in idx.subjects(RDF_TYPE, PUBLISHES):
            authors = sorted(set(idx.objects(ctx, HAS_AUTHOR)), key=term_sort_key)
            joint.update(combinations(authors, 2))
        assert len(joint) >= 10
        engine = InferenceEngine(store)
        for window in (None, (2003, 2006)):
            for a, b in sorted(joint, key=lambda pair: tuple(map(term_sort_key, pair))):
                expected = oracle_coauthor_weight(idx, a, b, window)
                assert engine.coauthor_weight(a, b, window) == expected, (seed, a, b, window)
                assert engine.coauthor_weight(b, a, window) == expected, (seed, a, b, window)
            derived = engine.derive_all_coauthors(window)
            expected_pairs = {pair for pair in joint if oracle_coauthor_weight(idx, *pair, window)}
            assert len(derived) == len(expected_pairs)
            for forward, backward in derived:
                (a,) = store.objects(forward, HAS_SOURCE)
                (b,) = store.objects(forward, HAS_SINK)
                assert (a, b) in expected_pairs
                assert store.objects(backward, HAS_SOURCE) == [b]
                assert store.objects(backward, HAS_SINK) == [a]
                assert weight_of(store, forward) == weight_of(store, backward) == oracle_coauthor_weight(idx, a, b, window)


def test_distinct_windows_get_distinct_nodes():
    store, g1, g2 = two_journal_store()
    engine = InferenceEngine(store)
    one = engine.derive_group_citation(g1, g2, (2005, 2005), (2006, 2006))
    other = engine.derive_group_citation(g1, g2, (2004, 2005), (2006, 2006))
    assert one != other


# -- coauthor derivation -----------------------------------------------------------


def coauthor_fixture():
    store = Store()
    a, b, c = node("alice"), node("bob"), node("carol")
    publishes(store, "p1", node("u1"), year=2005, authors=[a, b])
    publishes(store, "p2", node("u2"), year=2007, authors=[a, b])
    publishes(store, "p3", node("u3"), year=2005, authors=[a, b, c])
    return store, a, b, c


def test_coauthor_weight_counts_joint_contexts():
    store, a, b, c = coauthor_fixture()
    engine = InferenceEngine(store)
    assert engine.coauthor_weight(a, b) == 3
    assert engine.coauthor_weight(a, b, (2005, 2005)) == 2
    assert engine.coauthor_weight(a, c) == 1
    assert engine.coauthor_weight(b, c, (2007, 2007)) == 0
    assert engine.coauthor_weight(a, b) == oracle_coauthor_rows(index_of(store), a, b)


def test_derive_coauthor_writes_both_directions():
    store, a, b, _ = coauthor_fixture()
    engine = InferenceEngine(store)
    forward, backward = engine.derive_coauthor(a, b)
    assert forward != backward
    for derived, src, snk in ((forward, a, b), (backward, b, a)):
        facts = set(store.match_terms(derived, None, None))
        assert facts == {
            Triple(derived, RDF_TYPE, COAUTHOR),
            Triple(derived, HAS_SOURCE, src),
            Triple(derived, HAS_SINK, snk),
            Triple(derived, HAS_WEIGHT, decimal_literal("3.0")),
        }


def test_derive_coauthor_with_window_carries_the_window():
    store, a, b, _ = coauthor_fixture()
    engine = InferenceEngine(store)
    forward, _ = engine.derive_coauthor(a, b, (2005, 2006))
    assert list(store.objects(forward, HAS_WEIGHT)) == [decimal_literal("2.0")]
    assert list(store.objects(forward, HAS_START_TIME)) == [year_literal(2005)]
    assert list(store.objects(forward, HAS_END_TIME)) == [year_literal(2006)]


def test_self_coauthorship_is_an_error():
    store, a, _, _ = coauthor_fixture()
    engine = InferenceEngine(store)
    with pytest.raises(InferenceError):
        engine.derive_coauthor(a, a)


def test_derive_all_coauthors_covers_every_joint_pair():
    store, a, b, c = coauthor_fixture()
    engine = InferenceEngine(store)
    pairs = engine.derive_all_coauthors()
    assert len(pairs) == 3  # (a,b) (a,c) (b,c)
    derived = set(store.subjects(RDF_TYPE, COAUTHOR))
    assert len(derived) == 6
    # weights: never the zero literal, since candidates come from real contexts
    for n in derived:
        assert list(store.objects(n, HAS_WEIGHT)) != [decimal_literal("0.0")]


def test_derive_all_coauthors_windowed_skips_pairs_outside():
    store, a, b, c = coauthor_fixture()
    engine = InferenceEngine(store)
    pairs = engine.derive_all_coauthors((2007, 2007))
    assert len(pairs) == 1  # only p2 falls in the window, authors a and b
    forward, _ = pairs[0]
    assert set(store.objects(forward, HAS_SOURCE)) == {a}
    assert set(store.objects(forward, HAS_SINK)) == {b}
    assert list(store.objects(forward, HAS_WEIGHT)) == [decimal_literal("1.0")]


def test_derivations_are_retractable_like_rules():
    store, g1, g2 = two_journal_store()
    reference = snapshot_bytes(store)
    engine = InferenceEngine(store)
    engine.derive_group_citation(g1, g2, (2005, 2005), (2006, 2006))
    engine.run_all()
    engine.derive_all_coauthors()
    engine.retract_all()
    assert snapshot_bytes(store) == reference


# -- shared helpers ------------------------------------------------------------------


def test_descendant_groups_excludes_the_root():
    store = Store()
    g, mid, leaf = node("g"), node("mid"), node("leaf")
    store.insert(Triple(mid, PART_OF, g))
    store.insert(Triple(leaf, PART_OF, mid))
    ids = store.lookup
    assert descendant_groups(store, ids(g)) == {ids(mid), ids(leaf)}
    assert descendant_groups(store, ids(g), transitive=False) == {ids(mid)}
    assert descendant_groups(store, ids(leaf)) == set()


def test_descendant_groups_survives_cycles():
    store = Store()
    a, b = node("a"), node("b")
    store.insert(Triple(a, PART_OF, b))
    store.insert(Triple(b, PART_OF, a))
    ids = store.lookup
    assert descendant_groups(store, ids(a)) == {ids(b)}
    assert descendant_groups(store, ids(b)) == {ids(a)}


def test_year_of_reads_years_and_nothing_else():
    assert year_of(year_literal(2005)) == 2005
    assert year_of(Literal("2006-03-04", Datatype.DATETIME)) == 2006
    assert year_of(Literal("2007", Datatype.INTEGER)) == 2007
    assert year_of(Literal("x", Datatype.STRING)) is None
    assert year_of(node("n")) is None


def test_upsert_node_synchronizes_a_ledger():
    store = Store()
    target = node("t")
    upsert_node(store, {target: [(HAS_WEIGHT, decimal_literal("1.0"))]}, "rule")
    first = {Triple(target, HAS_WEIGHT, decimal_literal("1.0"))}
    assert ledger_triples(store) == {"rule": first}
    upsert_node(store, {target: [(HAS_WEIGHT, decimal_literal("2.0"))]}, "rule")
    second = {Triple(target, HAS_WEIGHT, decimal_literal("2.0"))}
    assert ledger_triples(store) == {"rule": second}
    assert set(store.triples()) == second


def test_an_upsert_of_no_nodes_writes_nothing_and_names_no_rule():
    store = Store()
    assert upsert_node(store, {}, "r") is False
    assert store.ledger_counts() == {} and len(store) == 0


def test_an_upsert_past_a_full_rule_table_changes_nothing():
    store = Store()
    target = node("t")
    upsert_node(store, {target: [(HAS_WEIGHT, decimal_literal("1.0"))]}, "rule000")
    for k in range(1, 255):
        upsert_node(store, {node(f"n{k}"): [(HAS_WEIGHT, decimal_literal("1.0"))]}, f"rule{k:03}")
    triples, ledger = set(store.triples()), ledger_triples(store)
    with pytest.raises(LedgerError, match="at most 255 rules"):
        upsert_node(store, {target: [(HAS_WEIGHT, decimal_literal("2.0"))]}, "one too many")
    assert set(store.triples()) == triples and ledger_triples(store) == ledger


def test_upsert_node_against_the_one_triple_oracle():
    """Random upserts over nodes with base facts, ledgered statements and
    repeats leave the store and ledger the oracle leaves, and report a
    change exactly when the triples or a non-empty ledger entry changed."""
    rng = random.Random(21)
    nodes = [node(f"n{k}") for k in range(4)]
    weights = [decimal_literal(f"{k}.0") for k in range(3)]
    store = Store()
    for k, target in enumerate(nodes[:2]):  # base facts about two nodes
        store.insert(Triple(target, HAS_WEIGHT, weights[k]))
    store.insert(Triple(nodes[3], PART_OF, nodes[0]))
    triples = set(store.triples())
    ledger: dict[str, set[Triple]] = {}

    def state():
        return triples.copy(), {name: entry.copy() for name, entry in ledger.items() if entry}

    for step in range(200):
        target = rng.choice(nodes)
        pool = [(HAS_WEIGHT, w) for w in weights] + [(RDF_TYPE, COAUTHOR), (PART_OF, rng.choice(nodes))]
        new = rng.sample(pool, rng.randrange(0, 4))
        rule = rng.choice(("coauthor", "metric"))
        before = state()
        oracle_upsert_node(triples, ledger, target, new, rule)
        changed = upsert_node(store, {target: new}, rule)
        assert set(store.triples()) == triples, step
        assert ledger_triples(store) == ledger, step
        assert changed == (state() != before), step
        assert store.verify_indexes()
    assert snapshot_bytes(store) == snapshot_bytes(Store.load(io.BytesIO(snapshot_bytes(store))))


@pytest.mark.parametrize("loaded", [False, True])
def test_upserting_many_nodes_equals_the_oracle_node_by_node(loaded):
    """One upsert of several nodes (or of none), whose statements may name
    each other, leaves the store and ledger that the one-triple oracle
    leaves applied node by node, and reports a change exactly when one
    happened.  Seed 2 draws an empty upsert before any rule is named."""
    for seed in (22, 2):
        _upsert_many_against_the_oracle(random.Random(seed), loaded)


def _upsert_many_against_the_oracle(rng, loaded):
    nodes = [node(f"n{k}") for k in range(6)]
    weights = [decimal_literal(f"{k}.0") for k in range(3)]
    store = Store()
    for k, target in enumerate(nodes[:3]):  # base facts about three nodes
        store.insert(Triple(target, HAS_WEIGHT, weights[k]))
    store.insert(Triple(nodes[5], PART_OF, nodes[0]))
    if loaded:
        store = Store.load(io.BytesIO(snapshot_bytes(store)))
    triples = set(store.triples())
    ledger: dict[str, set[Triple]] = {}

    def state():
        return triples.copy(), {name: entry.copy() for name, entry in ledger.items() if entry}

    for step in range(120):
        batch = {}
        for target in rng.sample(nodes, rng.randrange(0, 5)):
            pool = [(HAS_WEIGHT, w) for w in weights] + [(RDF_TYPE, COAUTHOR), (PART_OF, rng.choice(nodes))]
            batch[target] = rng.sample(pool, rng.randrange(0, 4))
        rule = rng.choice(("coauthor", "metric"))
        before = state()
        for target, new in batch.items():
            oracle_upsert_node(triples, ledger, target, new, rule)
        changed = upsert_node(store, batch, rule)
        assert set(store.triples()) == triples, step
        assert ledger_triples(store) == ledger, step
        assert changed == (state() != before), step
        assert store.verify_indexes()
    assert snapshot_bytes(store) == snapshot_bytes(Store.load(io.BytesIO(snapshot_bytes(store))))


def test_rule_reports_name_what_each_rule_added():
    for seed in range(4):
        store = random_context_store(random.Random(seed), 80)
        for name in sorted(RULE_SCRIPTS):
            before = set(store.triples())
            report = execute_script(store, parse_script(RULE_SCRIPTS[name]))
            assert set(report.new_triples) == set(store.triples()) - before, (seed, name)
            assert report.inserted == len(report.new_triples) == len(set(report.new_ids))
