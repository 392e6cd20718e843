"""Evaluator tests: joins, filters, aggregates, template dispatch.

The naive_* helpers are an independent oracle: a pattern-order nested-loop
join over store.triples() with filters applied at the end.  The engine
reorders patterns and pushes filters early, so agreement with the oracle on
randomized stores pins the semantics, not the implementation.
"""

import random

import pytest

from oracles import insert_all, random_context_store
from scholargraph.ontology import (
    ARTICLE,
    CITATION,
    HAS_NUMERIC_VALUE,
    HAS_SINK,
    HAS_SOURCE,
    HAS_START_TIME,
    HAS_TIME,
    HAS_UNIT,
    HAS_WEIGHT,
    METRIC,
    PUBLISHES,
    RDF_TYPE,
)
from scholargraph.queryl import parse_script
from scholargraph.queryl.ast import AndFilter, Comparison, OrFilter
from scholargraph.queryl.evaluator import EvaluationError, evaluate_block, execute_script
from scholargraph.store import Store, Var
from scholargraph.terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    Triple,
    datetime_literal,
    integer_literal,
    string_literal,
)


def block_of(text):
    return parse_script(text).blocks[0]


def node(name):
    return Iri("urn:x-test:" + name)


def filled_store(*triples):
    store = Store()
    insert_all(store, triples)
    return store


def citation_store():
    """Three articles, two of them cited; one pair is cited twice."""
    a1, a2, a3 = node("a1"), node("a2"), node("a3")
    x1, x2 = node("x1"), node("x2")
    triples = [
        Triple(a, RDF_TYPE, ARTICLE) for a in (a1, a2, a3, x1, x2)
    ]
    for label, src, snk in (
        ("c1", x1, a1),
        ("c2", x1, a2),
        ("c3", x2, a1),
        ("c3dup", x2, a1),
    ):
        c = node(label)
        triples += [
            Triple(c, RDF_TYPE, CITATION),
            Triple(c, HAS_SOURCE, src),
            Triple(c, HAS_SINK, snk),
        ]
    for label, unit, time in (
        ("p1", a1, "2005"),
        ("p2", a2, "2006-03-04"),
        ("p3", a3, "2006-09-27T10:00:00"),
    ):
        p = node(label)
        triples += [
            Triple(p, RDF_TYPE, PUBLISHES),
            Triple(p, HAS_UNIT, unit),
            Triple(p, HAS_TIME, datetime_literal(time)),
        ]
    return filled_store(*triples)


# -- joins -------------------------------------------------------------------


def test_empty_store_yields_no_rows():
    block = block_of("SELECT ?x WHERE (?x rdf:type mesur:Article) .")
    assert evaluate_block(Store(), block) == ()


def test_unknown_constant_short_circuits():
    block = block_of("SELECT ?x WHERE (?x rdf:type mesur:EditedBook) .")
    assert evaluate_block(citation_store(), block) == ()


def test_literal_subject_matches_nothing():
    store = citation_store()
    block = block_of('SELECT ?p WHERE ("2005" ?p ?o) .')
    assert evaluate_block(store, block) == ()


def test_repeated_variable_means_same_binding():
    store = citation_store()
    loop = node("selfcite")
    store.insert(Triple(loop, HAS_SOURCE, loop))
    block = block_of("SELECT ?x WHERE (?x mesur:hasSource ?x) .")
    rows = evaluate_block(store, block)
    assert [row["x"] for row in rows] == [loop]


def test_join_order_does_not_change_rows():
    store = citation_store()
    orders = [
        "SELECT ?src ?snk WHERE (?c rdf:type mesur:Citation)"
        " (?c mesur:hasSource ?src) (?c mesur:hasSink ?snk) .",
        "SELECT ?src ?snk WHERE (?c mesur:hasSink ?snk)"
        " (?c rdf:type mesur:Citation) (?c mesur:hasSource ?src) .",
        "SELECT ?src ?snk WHERE (?c mesur:hasSource ?src)"
        " (?c mesur:hasSink ?snk) (?c rdf:type mesur:Citation) .",
    ]
    results = []
    for text in orders:
        rows = evaluate_block(store, block_of(text))
        results.append({(row["src"], row["snk"]) for row in rows})
    assert results[0] == results[1] == results[2]
    assert results[0] == {
        (node("x1"), node("a1")),
        (node("x1"), node("a2")),
        (node("x2"), node("a1")),
    }


def test_filter_waits_until_its_variable_binds():
    # The guard sits on the first pattern but ?t only binds in the second.
    store = citation_store()
    block = block_of(
        "SELECT ?u ?t WHERE"
        " (?p mesur:hasUnit ?u) AND ?t > 2005"
        " (?p mesur:hasTime ?t)"
        " .")
    rows = evaluate_block(store, block)
    assert {row["u"] for row in rows} == {node("a2"), node("a3")}


# -- filters -----------------------------------------------------------------


def year_rows(store, comparison):
    block = block_of(
        "SELECT ?u WHERE (?p mesur:hasUnit ?u) (?p mesur:hasTime ?t)"
        f" AND {comparison} .")
    return {row["u"] for row in evaluate_block(store, block)}


def test_year_comparisons_span_precisions():
    store = citation_store()
    assert year_rows(store, "?t > 2005") == {node("a2"), node("a3")}
    assert year_rows(store, "?t = 2006") == {node("a2"), node("a3")}
    assert year_rows(store, "?t < 2006") == {node("a1")}
    assert year_rows(store, "?t = 2005") == {node("a1")}
    assert year_rows(store, "?t > 2006") == set()


def test_year_precision_widens_datetime_equality():
    # A bare-year literal equals any same-year instant; two instant
    # literals only compare equal if they really coincide.
    store = filled_store(
        Triple(node("e1"), HAS_TIME, datetime_literal("2006")),
        Triple(node("e2"), HAS_TIME, datetime_literal("2006-03-04")),
        Triple(node("e3"), HAS_TIME, datetime_literal("2006-09-27T10:00:00")),
    )
    block = block_of(
        "SELECT ?a ?b WHERE"
        " (?a mesur:hasTime ?x) (?b mesur:hasTime ?y) AND ?x = ?y .")
    pairs = {(r["a"], r["b"]) for r in evaluate_block(store, block)}
    distinct = {p for p in pairs if p[0] != p[1]}
    assert (node("e1"), node("e2")) in distinct
    assert (node("e1"), node("e3")) in distinct
    assert (node("e2"), node("e3")) not in distinct


def test_timestamps_compare_chronologically():
    store = filled_store(
        Triple(node("e1"), HAS_TIME, datetime_literal("2006-09-27T00:00:03")),
        Triple(node("e2"), HAS_TIME, datetime_literal("2006-09-27T00:00:04")),
    )
    block = block_of(
        "SELECT ?a ?b WHERE"
        " (?a mesur:hasTime ?x) (?b mesur:hasTime ?y) AND ?x < ?y .")
    rows = evaluate_block(store, block)
    assert [(r["a"], r["b"]) for r in rows] == [(node("e1"), node("e2"))]


def test_string_comparisons_are_lexicographic():
    store = filled_store(
        Triple(node("s1"), HAS_TIME, string_literal("alpha")),
        Triple(node("s2"), HAS_TIME, string_literal("beta")),
    )
    block = block_of(
        'SELECT ?a WHERE (?a mesur:hasTime ?v) AND ?v < "beta" .')
    rows = evaluate_block(store, block)
    assert [r["a"] for r in rows] == [node("s1")]


def test_or_and_nesting_in_guards():
    store = citation_store()
    assert year_rows(store, "?t = 2005 OR ?t = 2006") == {
        node("a1"), node("a2"), node("a3")
    }
    assert year_rows(store, "?t > 2004 AND ?t < 2006 OR ?t > 2006") == {node("a1")}
    assert year_rows(store, "?t > 2004 AND (?t < 2006 OR ?t > 2006)") == {node("a1")}


def test_comparing_string_with_number_is_an_error():
    store = filled_store(Triple(node("s1"), HAS_TIME, string_literal("x")))
    block = block_of("SELECT ?a WHERE (?a mesur:hasTime ?v) AND ?v > 5 .")
    with pytest.raises(EvaluationError) as info:
        evaluate_block(store, block)
    assert "cannot compare" in str(info.value)


def test_iri_equality_is_allowed_but_ordering_is_not():
    store = citation_store()
    equal = block_of(
        "SELECT ?c ?d WHERE"
        " (?c mesur:hasSink ?x) (?d mesur:hasSink ?y) AND ?x = ?y .")
    rows = evaluate_block(store, equal)
    assert len(rows) == 10  # 3x3 pairs over the a1 citers, plus c2 with itself
    ordered = block_of(
        "SELECT ?c ?d WHERE"
        " (?c mesur:hasSink ?x) (?d mesur:hasSink ?y) AND ?x < ?y .")
    with pytest.raises(EvaluationError):
        evaluate_block(store, ordered)


def test_iri_against_literal_is_an_error():
    store = citation_store()
    block = block_of("SELECT ?s WHERE (?c mesur:hasSink ?s) AND ?s = 5 .")
    with pytest.raises(EvaluationError) as info:
        evaluate_block(store, block)
    assert "cannot compare" in str(info.value)


def test_integer_pattern_constant_coerces_under_time_predicates():
    store = citation_store()
    block = block_of("SELECT ?p WHERE (?p mesur:hasTime 2005) .")
    rows = evaluate_block(store, block)
    assert [r["p"] for r in rows] == [node("p1")]
    # term-level match, so the date-precision 2006 rows do not surface
    block = block_of("SELECT ?p WHERE (?p mesur:hasTime 2006) .")
    assert evaluate_block(store, block) == ()


# -- aggregates and templates --------------------------------------------------


def test_count_counts_full_rows_not_projected_values():
    store = citation_store()
    script = parse_script(
        "SELECT ?snk WHERE (?c rdf:type mesur:Citation) (?c mesur:hasSink ?snk)"
        " INSERT < urn:x-test:n mesur:hasNumericValue COUNT(?snk) > .")
    report = execute_script(store, script)
    # four citation nodes over two distinct sinks
    assert report.block_rows == (4,)
    assert len(report.bindings[0]) == 2
    assert report.new_triples[0].object == integer_literal(4)


def test_count_inserts_an_integer_literal():
    store = citation_store()
    script = parse_script(
        "SELECT ?a WHERE (?a rdf:type mesur:Article)"
        " INSERT < urn:x-test:n mesur:hasNumericValue COUNT(?a) > .")
    report = execute_script(store, script)
    obj = report.new_triples[0].object
    assert obj.datatype is Datatype.INTEGER
    assert obj.lexical == "5"


def test_ratio_quantizes_to_six_places():
    store = Store()
    store.insert(Triple(node("m"), RDF_TYPE, METRIC))
    for i in range(3):
        store.insert(Triple(node(f"a{i}"), RDF_TYPE, ARTICLE))
    script = parse_script(
        "SELECT ?x WHERE (?x rdf:type mesur:Metric)"
        " SELECT ?y WHERE (?y rdf:type mesur:Article)"
        " INSERT < urn:x-test:n mesur:hasNumericValue (COUNT(?x) / COUNT(?y)) > .")
    report = execute_script(store, script)
    assert report.new_triples[0].object == Literal("0.333333", Datatype.DECIMAL)


def test_ratio_rounds_half_to_even():
    # 1/128 = 0.0078125 exactly; the 6-place tie must round to ...12.
    store = Store()
    store.insert(Triple(node("m"), RDF_TYPE, METRIC))
    insert_all(store, (Triple(node(f"a{i}"), RDF_TYPE, ARTICLE) for i in range(128)))
    script = parse_script(
        "SELECT ?x WHERE (?x rdf:type mesur:Metric)"
        " SELECT ?y WHERE (?y rdf:type mesur:Article)"
        " INSERT < urn:x-test:n mesur:hasNumericValue (COUNT(?x) / COUNT(?y)) > .")
    report = execute_script(store, script)
    assert report.new_triples[0].object == Literal("0.007812", Datatype.DECIMAL)


def test_division_by_zero_is_an_evaluation_error():
    store = citation_store()
    script = parse_script(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " SELECT ?y WHERE (?y rdf:type mesur:EditedBook)"
        " INSERT < urn:x-test:n mesur:hasNumericValue (COUNT(?x) / COUNT(?y)) > .")
    with pytest.raises(EvaluationError) as info:
        execute_script(store, script)
    assert "division by zero in (COUNT(?x) / COUNT(?y))" in str(info.value)


def test_earlier_templates_land_before_a_failing_one():
    store = citation_store()
    marker = node("marker")
    script = parse_script(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " SELECT ?y WHERE (?y rdf:type mesur:EditedBook)"
        " INSERT < urn:x-test:marker rdf:type mesur:Metric >"
        " INSERT < urn:x-test:n mesur:hasNumericValue (COUNT(?x) / COUNT(?y)) > .")
    with pytest.raises(EvaluationError):
        execute_script(store, script)
    assert store.contains(Triple(marker, RDF_TYPE, METRIC))


def test_constant_template_runs_once():
    store = citation_store()
    script = parse_script(
        "SELECT ?a WHERE (?a rdf:type mesur:Article)"
        " INSERT < urn:x-test:marker rdf:type mesur:Metric > .")
    report = execute_script(store, script)
    assert report.block_rows == (5,)
    assert report.template_rows == (1,)
    assert report.inserted == 1


def test_row_templates_run_per_full_row_and_dedupe():
    store = citation_store()
    script = parse_script(
        "SELECT ?src ?snk WHERE (?c rdf:type mesur:Citation)"
        " (?c mesur:hasSource ?src) (?c mesur:hasSink ?snk)"
        " INSERT < ?src mesur:cites ?snk > .")
    report = execute_script(store, script)
    assert report.template_rows == (4,)  # one per full row
    assert report.inserted == 3  # but only three distinct pairs
    again = execute_script(store, parse_script(
        "SELECT ?src ?snk WHERE (?c rdf:type mesur:Citation)"
        " (?c mesur:hasSource ?src) (?c mesur:hasSink ?snk)"
        " INSERT < ?src mesur:cites ?snk > ."))
    assert again.inserted == 0


def test_placeholders_mint_one_blank_shared_across_templates():
    store = citation_store()
    text = (
        "SELECT ?a WHERE (?a rdf:type mesur:Article)"
        " INSERT < _7 rdf:type mesur:Metric >"
        " INSERT < _7 mesur:hasNumericValue COUNT(?a) > .")
    first = execute_script(store, parse_script(text))
    assert set(first.created_blanks) == {"7"}
    blank = first.created_blanks["7"]
    assert isinstance(blank, Blank)
    subjects = {t.subject for t in first.new_triples}
    assert subjects == {blank}
    second = execute_script(store, parse_script(text))
    assert second.created_blanks["7"] != blank
    assert second.inserted == 2  # fresh blank, fresh triples


def test_integer_object_becomes_year_under_time_predicates():
    store = citation_store()
    script = parse_script(
        "SELECT ?a WHERE (?a rdf:type mesur:Article)"
        " INSERT < urn:x-test:n mesur:hasStartTime 2004 > .")
    report = execute_script(store, script)
    obj = report.new_triples[0].object
    assert obj.datatype is Datatype.DATETIME
    assert obj.precision == "year"
    assert obj.lexical == "2004"


def test_integer_object_stays_integer_elsewhere():
    store = citation_store()
    script = parse_script(
        "SELECT ?a WHERE (?a rdf:type mesur:Article)"
        " INSERT < urn:x-test:n mesur:hasWeight 7 > .")
    report = execute_script(store, script)
    assert report.new_triples[0].object == integer_literal(7)


def test_template_subject_bound_to_literal_is_an_error():
    store = filled_store(Triple(node("s"), HAS_WEIGHT, integer_literal(3)))
    script = parse_script(
        "SELECT ?v WHERE (?s mesur:hasWeight ?v)"
        " INSERT < ?v rdf:type mesur:Metric > .")
    with pytest.raises(EvaluationError) as info:
        execute_script(store, script)
    assert "template subject resolved to a literal" in str(info.value)


def test_template_predicate_must_resolve_to_an_iri():
    store = filled_store(Triple(node("s"), HAS_WEIGHT, integer_literal(3)))
    script = parse_script(
        "SELECT ?v WHERE (?s mesur:hasWeight ?v)"
        " INSERT < urn:x-test:n ?v urn:x-test:m > .")
    with pytest.raises(EvaluationError) as info:
        execute_script(store, script)
    assert "not an IRI" in str(info.value)


def test_a_template_failing_on_a_later_row_inserts_none_of_its_rows():
    # the hasWeight column lists the IRI object before the literal one
    store = filled_store(
        Triple(node("s1"), HAS_WEIGHT, node("w")),
        Triple(node("s2"), HAS_WEIGHT, integer_literal(3)),
    )
    before = set(store.triples())
    script = parse_script(
        "SELECT ?s ?v WHERE (?s mesur:hasWeight ?v)"
        " INSERT < ?s rdf:type mesur:Metric >"
        " INSERT < ?v rdf:type mesur:Metric > .")
    with pytest.raises(EvaluationError, match="^template subject resolved to a literal$"):
        execute_script(store, script)
    # the first template landed whole, the second not at all
    assert set(store.triples()) - before == {
        Triple(node("s1"), RDF_TYPE, METRIC), Triple(node("s2"), RDF_TYPE, METRIC)
    }
    script = parse_script(
        "SELECT ?v WHERE (?s mesur:hasWeight ?v)"
        " INSERT < urn:x-test:n ?v urn:x-test:m > .")
    with pytest.raises(EvaluationError) as info:
        execute_script(store, script)
    assert str(info.value) == f"template predicate resolved to {integer_literal(3)!r}, not an IRI"
    assert not store.contains(Triple(node("n"), node("w"), node("m")))


def test_report_bindings_match_evaluate_block():
    store = citation_store()
    script = parse_script(
        "SELECT ?src ?snk WHERE (?c rdf:type mesur:Citation)"
        " (?c mesur:hasSource ?src) (?c mesur:hasSink ?snk) .")
    report = execute_script(store, script)
    direct = evaluate_block(store, script.blocks[0])
    assert report.bindings == (direct,)


# -- randomized agreement with a nested-loop oracle ----------------------------


def naive_unify(row, pattern, triple):
    fresh = dict(row)
    for slot, value in (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    ):
        if isinstance(slot, Var):
            prior = fresh.get(slot.name)
            if prior is None:
                fresh[slot.name] = value
            elif prior != value:
                return None
        elif slot != value:
            return None
    return fresh


def naive_compare(left, op, right):
    if isinstance(left, Literal) and isinstance(right, Literal):
        kinds = {left.datatype, right.datatype}
        if kinds <= {Datatype.INTEGER, Datatype.DECIMAL}:
            a, b = float(left.lexical), float(right.lexical)
        elif kinds == {Datatype.DATETIME, Datatype.INTEGER} or (
            kinds == {Datatype.DATETIME}
            and "year" in (left.precision, right.precision)
        ):
            a, b = left.year(), right.year()
        elif kinds == {Datatype.DATETIME}:
            a, b = left.lexical, right.lexical  # ISO order within precision
        else:
            a, b = left.lexical, right.lexical
        return {"=": a == b, "<": a < b, ">": a > b}[op]
    return op == "=" and left == right


def naive_guard(expr, row):
    if isinstance(expr, Comparison):
        left = row[expr.left.name] if isinstance(expr.left, Var) else expr.left
        right = row[expr.right.name] if isinstance(expr.right, Var) else expr.right
        return naive_compare(left, expr.op, right)
    if isinstance(expr, AndFilter):
        return all(naive_guard(p, row) for p in expr.parts)
    if isinstance(expr, OrFilter):
        return any(naive_guard(p, row) for p in expr.parts)
    raise AssertionError(expr)


def naive_rows(store, block):
    triples = list(store.triples())
    rows = [{}]
    for guarded in block.patterns:
        rows = [
            fresh
            for row in rows
            for triple in triples
            for fresh in [naive_unify(row, guarded.pattern, triple)]
            if fresh is not None
        ]
    for guarded in block.patterns:
        if guarded.guard is not None:
            rows = [row for row in rows if naive_guard(guarded.guard, row)]
    distinct = {frozenset(row.items()) for row in rows}
    projected = {
        tuple(dict(row)[v.name] for v in block.projected) for row in distinct
    }
    return len(distinct), projected


ORACLE_QUERIES = [
    "SELECT ?src ?snk WHERE (?c rdf:type mesur:Citation)"
    " (?c mesur:hasSource ?src) (?c mesur:hasSink ?snk) .",
    "SELECT ?u ?t WHERE (?p rdf:type mesur:Publishes)"
    " (?p mesur:hasUnit ?u) (?p mesur:hasTime ?t) AND ?t > 2004 .",
    "SELECT ?a ?g WHERE (?a mesur:partOf ?e) (?e mesur:partOf ?g) .",
    "SELECT ?d WHERE (?c rdf:type mesur:Uses) (?c mesur:hasDocument ?d)"
    " (?c mesur:hasTime ?t) AND ?t > 2004 AND ?t < 2007 .",
]


def test_random_stores_agree_with_nested_loop_oracle():
    for seed in range(6):
        store = random_context_store(random.Random(seed), 40)
        for text in ORACLE_QUERIES:
            script = parse_script(text)
            block = script.blocks[0]
            expect_count, expect_projected = naive_rows(store, block)
            report = execute_script(store, script)
            assert report.block_rows == (expect_count,), (seed, text)
            got = {
                tuple(row[v.name] for v in block.projected)
                for row in report.bindings[0]
            }
            assert got == expect_projected, (seed, text)
