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

Both read the graph through the id-level scan
:func:`~scholargraph.contexts.scan_contexts`, starting from the journal's
own groups and units, so a metric touches that journal's contexts, not the
whole collection: the IF probes the Citation contexts under each window
unit's hasSink, the UIF the Uses contexts under its hasDocument.

A computed metric is written back as a NumericMetric node at a
deterministic IRI (re-running updates in place): its five (predicate,
object) pairs replace the node's statements, and they are recorded in the
store's ledger under the ``metric`` rule, so retracting that rule takes
every metric node back.  A zero denominator raises instead, and writes
nothing: 0/0 is not a metric value.  The scan and the write are
:mod:`scholargraph.contexts`'s, so a metric compiles no rule script and no
rule engine.
"""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_EVEN
from typing import Optional

from .contexts import METRIC_RULE, citations_of, derived_iri, scan_contexts, upsert_node, window_units
from .errors import ScholarGraphError
from .ntriples import serialize_term
from .ontology import (
    HAS_DOCUMENT,
    HAS_END_TIME,
    HAS_NUMERIC_VALUE,
    HAS_OBJECT,
    HAS_START_TIME,
    HAS_UNIT,
    IMPACT_FACTOR,
    PUBLISHES,
    USAGE_IMPACT_FACTOR,
    USES,
)
from .record import Record
from .store import Store
from .terms import Datatype, Iri, Literal, RDF_TYPE, Term, year_literal

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


class MetricResult(Record):
    """Outcome of one metric computation, including the node written."""

    __slots__ = ("metric", "object", "year", "window", "numerator", "denominator", "value", "node", "changed")
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


def _record(
    store: Store, metric: str, metric_class: Iri, obj: Term, year: int, window: tuple[int, int],
    numerator: int, denominator: int,
) -> MetricResult:
    """Write the metric's node and return the result."""
    value = (Decimal(numerator) / Decimal(denominator)).quantize(
        VALUE_QUANTUM, rounding=ROUND_HALF_EVEN
    )
    slug = metric.replace(" ", "-")
    node = derived_iri(slug, f"{serialize_term(obj)}|{year}|{window[0]}-{window[1]}")
    pairs = [
        (RDF_TYPE, metric_class),
        (HAS_OBJECT, obj),
        (HAS_START_TIME, year_literal(year)),
        (HAS_END_TIME, year_literal(year)),
        (HAS_NUMERIC_VALUE, Literal(str(value), Datatype.DECIMAL)),
    ]
    changed = upsert_node(store, {node: pairs}, METRIC_RULE)
    return MetricResult(metric, obj, year, window, numerator, denominator, value, node, changed)


def impact_factor(
    store: Store,
    obj: Term,
    year: int,
    window: Optional[tuple[int, int]] = None,
    transitive: bool = True,
) -> MetricResult:
    window = resolve_window(year, window)
    units = window_units(store, obj, window, transitive)
    if not units:
        raise UndefinedMetricError("impact factor", obj)
    pairs: set[tuple[int, int]] = set()
    for _, source, sink in citations_of(store, units):
        published = scan_contexts(store, PUBLISHES, HAS_UNIT, source, (year, year))
        if next(published, None) is not None:  # not any(): a context may have id 0
            pairs.add((source, sink))
    return _record(store, "impact factor", IMPACT_FACTOR, obj, year, window, len(pairs), len(units))


def usage_impact_factor(
    store: Store,
    obj: Term,
    year: int,
    window: Optional[tuple[int, int]] = None,
    transitive: bool = True,
) -> MetricResult:
    window = resolve_window(year, window)
    units = window_units(store, obj, window, transitive)
    if not units:
        raise UndefinedMetricError("usage impact factor", obj)
    uses: set[int] = set()
    for unit in units:
        uses.update(scan_contexts(store, USES, HAS_DOCUMENT, unit, (year, year)))
    return _record(store, "usage impact factor", USAGE_IMPACT_FACTOR, obj, year, window, len(uses), len(units))
