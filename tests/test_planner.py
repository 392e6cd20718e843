"""Join planning regressions: connected joins, no cross products.

The fixture builder below writes a small scholarly network straight into a
store: journals with one edition per year, one Publishes context per
article, Uses contexts with a reader each, and Citation contexts.  A store
subclass counts ``match_ids`` probes and stops a query that runs past its
budget, so a plan that falls into a cross product fails fast instead of
exhausting memory.
"""

import os
import random

from oracles import index_of, insert_all, oracle_pub_window_rows, oracle_uif_numerator_rows
from scholargraph.inference import RULE_SCRIPTS
from scholargraph.metrics import impact_factor
from scholargraph.ontology import (
    ARTICLE,
    CITATION,
    GROUP,
    HAS_DOCUMENT,
    HAS_GROUP,
    HAS_SINK,
    HAS_SOURCE,
    HAS_TIME,
    HAS_UNIT,
    HAS_USER,
    HUMAN,
    JOURNAL,
    PART_OF,
    PUBLISHES,
    RDF_TYPE,
    USES,
)
from scholargraph.queryl import execute_script, parse_script
from scholargraph.store import Store
from scholargraph.terms import Iri, Triple, year_literal

DATA = os.path.join(os.path.dirname(__file__), "data")
YEARS = range(2001, 2008)


class ProbeBudgetExceeded(AssertionError):
    pass


class CountingStore(Store):
    """A store that counts index probes and fails past a budget."""

    def __init__(self, budget):
        super().__init__()
        self.budget = budget
        self.probes = 0

    def match_ids(self, s, p, o):
        self.probes += 1
        if self.probes > self.budget:
            raise ProbeBudgetExceeded(f"more than {self.budget} match_ids probes")
        return super().match_ids(s, p, o)


def scholarly_store(seed, docs, events, citations, journals, budget):
    """A network shaped like a mapped collection; journal 0 is the largest."""
    rng = random.Random(seed)
    store = CountingStore(budget)
    triples = []

    def iri(kind, i):
        return Iri(f"urn:x-plan:{kind}:{i}")

    roots = [iri("journal", j) for j in range(journals)]
    editions = {}
    for j, root in enumerate(roots):
        triples.append(Triple(root, RDF_TYPE, JOURNAL))
        for year in YEARS:
            edition = iri("edition", f"{j}-{year}")
            editions[j, year] = edition
            triples += [Triple(edition, RDF_TYPE, GROUP), Triple(edition, PART_OF, root)]
    weights = [1.0 / (j + 1) for j in range(journals)]
    year_of = []
    for d in range(docs):
        unit, ctx = iri("doc", d), iri("pub", d)
        journal = rng.choices(range(journals), weights)[0]
        year = YEARS[d % len(YEARS)]
        year_of.append(year)
        triples += [
            Triple(unit, RDF_TYPE, ARTICLE),
            Triple(ctx, RDF_TYPE, PUBLISHES),
            Triple(ctx, HAS_UNIT, unit),
            Triple(ctx, HAS_GROUP, editions[journal, year]),
            Triple(ctx, HAS_TIME, year_literal(year)),
        ]
    readers = [iri("reader", r) for r in range(max(1, events // 8))]
    triples += [Triple(reader, RDF_TYPE, HUMAN) for reader in readers]
    for e in range(events):
        ctx = iri("use", e)
        triples += [
            Triple(ctx, RDF_TYPE, USES),
            Triple(ctx, HAS_DOCUMENT, iri("doc", rng.randrange(docs))),
            Triple(ctx, HAS_USER, rng.choice(readers)),
            Triple(ctx, HAS_TIME, year_literal(rng.choice(YEARS))),
        ]
    pairs = set()
    while len(pairs) < citations:
        citing, cited = rng.randrange(docs), rng.randrange(docs)
        if citing != cited and year_of[cited] <= year_of[citing]:
            pairs.add((citing, cited))
    for n, (citing, cited) in enumerate(sorted(pairs)):
        ctx = iri("cite", n)
        triples += [
            Triple(ctx, RDF_TYPE, CITATION),
            Triple(ctx, HAS_SOURCE, iri("doc", citing)),
            Triple(ctx, HAS_SINK, iri("doc", cited)),
        ]
    insert_all(store, triples)
    return store, roots[0]


def test_used_by_joins_stay_within_the_output_size():
    store, _ = scholarly_store(seed=3, docs=120, events=1200, citations=0, journals=4, budget=20_000)
    report = execute_script(store, parse_script(RULE_SCRIPTS["used_by"]))
    [full_rows] = report.block_rows
    assert full_rows == 1200  # one row per usage event
    [plan] = report.plans
    assert len(plan) == 7
    for step in plan:
        assert step.actual <= 2 * full_rows, step
    assert store.probes <= 3 * full_rows


def test_paper_impact_factor_script_counts_the_numerator():
    store, journal = scholarly_store(seed=7, docs=200, events=0, citations=800, journals=8, budget=20_000)
    with open(os.path.join(DATA, "impact_factor.q"), encoding="utf-8") as fp:
        text = fp.read().replace("urn:issn:1082-9873", journal.value)
    report = execute_script(store, parse_script(text))
    probes = store.probes
    store.budget = float("inf")
    expected = impact_factor(store, journal, 2007)
    assert expected.numerator > 0
    assert report.block_rows[0] == expected.numerator
    assert report.block_rows[1] == expected.denominator
    assert probes <= 1_000


def test_a_block_without_a_connecting_variable_still_crosses():
    store, _ = scholarly_store(seed=1, docs=6, events=0, citations=0, journals=1, budget=1_000)
    report = execute_script(
        store,
        parse_script(
            "SELECT ?a ?j WHERE (?a rdf:type mesur:Article) (?j rdf:type mesur:Journal) ."
        ),
    )
    assert report.block_rows == (6,)
    assert [step.actual for step in report.plans[0]] == [1, 6]


def test_explain_counts_come_from_the_run():
    store, _ = scholarly_store(seed=2, docs=14, events=0, citations=0, journals=1, budget=1_000)
    report = execute_script(
        store,
        parse_script(
            "SELECT ?u WHERE (?p rdf:type mesur:Publishes) (?p mesur:hasUnit ?u)"
            " (?p mesur:hasTime ?t) AND ?t = 2007 ."
        ),
    )
    assert report.block_rows == (2,)
    plan = report.plans[0]
    # all three patterns tie at 14; the filtered one runs first and its
    # filter, which the estimate does not see, cuts the rows to 2
    assert plan[0].pattern.predicate == HAS_TIME
    assert [step.estimated for step in plan] == [14.0, 14.0, 14.0]
    assert [step.actual for step in plan] == [2, 2, 2]


def test_a_filtered_pattern_wins_an_estimate_tie():
    store, journal = scholarly_store(seed=5, docs=200, events=2000, citations=0, journals=8, budget=20_000)
    with open(os.path.join(DATA, "usage_impact_factor.q"), encoding="utf-8") as fp:
        text = fp.read().replace("urn:issn:1082-9873", journal.value)
    report = execute_script(store, parse_script(text))
    index = index_of(store)
    assert report.block_rows == (
        oracle_uif_numerator_rows(index, journal),
        oracle_pub_window_rows(index, journal, tautology=True),
    )
    plan = report.plans[0]
    steps = {(step.pattern.subject.name, step.pattern.predicate): n for n, step in enumerate(plan)}
    for var, filtered, unfiltered in (("y", HAS_TIME, (RDF_TYPE, HAS_UNIT)), ("x", HAS_TIME, (RDF_TYPE,))):
        first = steps[var, filtered]
        for predicate in unfiltered:
            tied = steps[var, predicate]
            assert plan[tied].estimated == plan[first].estimated
            assert first < tied
            # the filter has already cut the rows the tied step extends
            assert plan[tied].actual <= plan[first].actual < plan[first - 1].actual
