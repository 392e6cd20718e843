"""Embedded semantic-network store for scholarly communication data.

A triple store with three permutation indexes and dictionary-encoded
terms, a compiled-in publication/usage vocabulary, a small query dialect
with INSERT templates, retractable materialization rules, journal metrics,
and a keyed record sidecar for the literals deliberately kept out of the
graph.
"""

from .errors import PositionedError, ScholarGraphError
from .inference import InferenceEngine, RULE_SCRIPTS
from .metrics import MetricResult, UndefinedMetricError, impact_factor, usage_impact_factor
from .ntriples import (
    NTriplesParseError,
    parse_ntriples,
    serialize_ntriples,
    serialize_term,
    serialize_triple,
    write_ntriples,
)
from .ontology import SCHEMA, Schema, validate_all, validate_instance
from .queryl import QueryParseError, evaluate_block, execute_script, parse_script
from .sidecar import Sidecar, literal_audit
from .store import Store, TriplePattern, Var
from .terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    NamespaceTable,
    Triple,
    datetime_literal,
    decimal_literal,
    integer_literal,
    string_literal,
    year_literal,
)

__version__ = "0.1.0"

__all__ = [
    "Blank",
    "Datatype",
    "InferenceEngine",
    "Iri",
    "Literal",
    "MetricResult",
    "NTriplesParseError",
    "NamespaceTable",
    "PositionedError",
    "QueryParseError",
    "RULE_SCRIPTS",
    "SCHEMA",
    "Schema",
    "ScholarGraphError",
    "Sidecar",
    "Store",
    "Triple",
    "TriplePattern",
    "UndefinedMetricError",
    "Var",
    "datetime_literal",
    "decimal_literal",
    "evaluate_block",
    "execute_script",
    "impact_factor",
    "integer_literal",
    "literal_audit",
    "parse_ntriples",
    "parse_script",
    "serialize_ntriples",
    "serialize_term",
    "serialize_triple",
    "string_literal",
    "usage_impact_factor",
    "validate_all",
    "validate_instance",
    "write_ntriples",
    "year_literal",
]
