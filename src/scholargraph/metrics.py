"""Journal-level citation and usage metrics over the semantic network.

Both metrics share one denominator: the distinct units published in the
object group's partOf descendants during the window (two calendar years
ending before the target year unless overridden).  The Impact Factor
numerator counts distinct (source unit, sink unit) citation pairs where the
sink is a window unit and the source was published in the target year; a
source citing two window units contributes two, duplicate Citation nodes
between one pair contribute one.  The Usage Impact Factor numerator counts
distinct Uses contexts timed in the target year whose document is a window
unit.

A computed metric is written back as a NumericMetric node at a
deterministic IRI (re-running updates in place), and its statements are
recorded in the store's ledger under the ``metric`` rule, so retracting
that rule takes every metric node back.  A zero denominator raises
instead, and writes nothing: 0/0 is not a metric value.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN
from typing import Optional

from .errors import ScholarGraphError
from .inference import (
    InferenceEngine,
    derived_iri,
    partof_descendants,
    published_in_year,
    units_published_in,
    upsert_node,
    year_of,
)
from .ntriples import serialize_term
from .ontology import (
    CITATION,
    HAS_DOCUMENT,
    HAS_END_TIME,
    HAS_NUMERIC_VALUE,
    HAS_OBJECT,
    HAS_SINK,
    HAS_SOURCE,
    HAS_START_TIME,
    HAS_TIME,
    IMPACT_FACTOR,
    USAGE_IMPACT_FACTOR,
    USES,
    UnknownNodeError,
)
from .store import Store
from .terms import Datatype, Iri, Literal, RDF_TYPE, Term, Triple, year_literal

VALUE_QUANTUM = Decimal("0.000001")


class MetricError(ScholarGraphError):
    """Bad metric arguments (target year inside or before the window)."""


class UndefinedMetricError(MetricError):
    """No units published in the window: the ratio has no value."""

    def __init__(self, metric: str, obj: Term) -> None:
        super().__init__(
            f"{metric} is undefined for {serialize_term(obj)}: "
            "no units published in the window"
        )
        self.metric = metric
        self.object = obj


@dataclass
class MetricResult:
    """Outcome of one metric computation, including the node written."""

    metric: str
    object: Term
    year: int
    window: tuple[int, int]
    numerator: int
    denominator: int
    value: Decimal
    node: Iri
    changed: bool  # the node was written and the store or its ledger changed


def resolve_window(year: int, window: Optional[tuple[int, int]]) -> tuple[int, int]:
    """Default window is the two years before ``year``; any override must
    be a non-empty range that ends before ``year``."""
    if window is None:
        window = (year - 2, year - 1)
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise MetricError(f"window is empty: {lo}..{hi}")
    if hi >= year:
        raise MetricError(f"window {lo}..{hi} must end before the target year {year}")
    return (lo, hi)


def _window_units(
    store: Store, obj: Term, window: tuple[int, int], transitive: bool
) -> set[Term]:
    if not store.appears(obj):
        raise UnknownNodeError(obj)
    groups = partof_descendants(store, obj, transitive)
    return units_published_in(store, groups, window)


def _value(numerator: int, denominator: int) -> Decimal:
    return (Decimal(numerator) / Decimal(denominator)).quantize(
        VALUE_QUANTUM, rounding=ROUND_HALF_EVEN
    )


def _node(kind_slug: str, obj: Term, year: int, window: tuple[int, int]) -> Iri:
    return derived_iri(kind_slug, f"{serialize_term(obj)}|{year}|{window[0]}-{window[1]}")


def _write_node(
    store: Store, node: Iri, metric_class: Iri, obj: Term, year: int, value: Decimal
) -> bool:
    triples = [
        Triple(node, RDF_TYPE, metric_class),
        Triple(node, HAS_OBJECT, obj),
        Triple(node, HAS_START_TIME, year_literal(year)),
        Triple(node, HAS_END_TIME, year_literal(year)),
        Triple(node, HAS_NUMERIC_VALUE, Literal(str(value), Datatype.DECIMAL)),
    ]
    return upsert_node(store, node, triples, InferenceEngine.METRIC_RULE)


def impact_factor(
    store: Store,
    obj: Term,
    year: int,
    window: Optional[tuple[int, int]] = None,
    transitive: bool = True,
    write: bool = True,
) -> MetricResult:
    window = resolve_window(year, window)
    units = _window_units(store, obj, window, transitive)
    denominator = len(units)
    if denominator == 0:
        raise UndefinedMetricError("impact factor", obj)
    pairs: set[tuple[Term, Term]] = set()
    for citation in store.subjects(RDF_TYPE, CITATION):
        sinks = [k for k in store.objects(citation, HAS_SINK) if k in units]
        if not sinks:
            continue
        for source in store.objects(citation, HAS_SOURCE):
            if not published_in_year(store, source, year):
                continue
            for sink in sinks:
                pairs.add((source, sink))
    numerator = len(pairs)
    value = _value(numerator, denominator)
    node = _node("impact-factor", obj, year, window)
    changed = write and _write_node(store, node, IMPACT_FACTOR, obj, year, value)
    return MetricResult("impact factor", obj, year, window, numerator, denominator, value, node, changed)


def usage_impact_factor(
    store: Store,
    obj: Term,
    year: int,
    window: Optional[tuple[int, int]] = None,
    transitive: bool = True,
    write: bool = True,
) -> MetricResult:
    window = resolve_window(year, window)
    units = _window_units(store, obj, window, transitive)
    denominator = len(units)
    if denominator == 0:
        raise UndefinedMetricError("usage impact factor", obj)
    numerator = 0
    for ctx in store.subjects(RDF_TYPE, USES):
        if not any(year_of(t) == year for t in store.objects(ctx, HAS_TIME)):
            continue
        if any(doc in units for doc in store.objects(ctx, HAS_DOCUMENT)):
            numerator += 1
    value = _value(numerator, denominator)
    node = _node("usage-impact-factor", obj, year, window)
    changed = write and _write_node(store, node, USAGE_IMPACT_FACTOR, obj, year, value)
    return MetricResult(
        "usage impact factor", obj, year, window, numerator, denominator, value, node, changed
    )
