"""Embedded semantic-network store for scholarly communication data.

A triple store with two permutation indexes (SPO, POS) and
dictionary-encoded terms, a compiled-in publication/usage vocabulary, a
small query dialect with INSERT templates, retractable materialization
rules, journal metrics, and a keyed record sidecar for the literals
deliberately kept out of the graph.

Importing the package imports none of its modules: each name below is
imported from its module on first access (PEP 562), so a program that uses
only the store never pays for the query dialect, the rules or the sidecar.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("PositionedError", "ScholarGraphError"),
    "inference": ("InferenceEngine", "RULE_SCRIPTS"),
    "metrics": ("MetricResult", "UndefinedMetricError", "impact_factor", "usage_impact_factor"),
    "ntriples": ("serialize_term", "serialize_triple", "write_ntriples"),
    "ontology": ("SCHEMA", "Schema", "literal_audit", "validate_all", "validate_instance"),
    "queryl": ("QueryParseError", "evaluate_block", "execute_script", "parse_script"),
    "sidecar": ("Sidecar",),
    "store": ("Store", "TriplePattern", "Var"),
    "terms": (
        "Blank",
        "Datatype",
        "Iri",
        "Literal",
        "NamespaceTable",
        "Triple",
        "datetime_literal",
        "decimal_literal",
        "integer_literal",
        "string_literal",
        "year_literal",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
