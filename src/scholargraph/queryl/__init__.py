"""Query dialect: SELECT/WHERE blocks, AND filters, COUNT, INSERT templates.

This is the small declarative language the store speaks.  It is not W3C
SPARQL: patterns are parenthesized with no trailing dots, filters attach to
patterns with AND, COUNT behaves like the SQL aggregate, and INSERT adds its
triple argument to the store.  See ``parser`` for the grammar and
``evaluator`` for join and dispatch semantics.
"""

from .ast import (
    AndFilter,
    Block,
    Comparison,
    CountOf,
    OrFilter,
    GuardedPattern,
    Placeholder,
    RatioOf,
    Script,
    Template,
)
from .parser import QueryParseError, parse_script
from .evaluator import EvaluationError, ExecutionReport, PlanStep, evaluate_block, execute_script

__all__ = [
    "AndFilter",
    "Block",
    "Comparison",
    "CountOf",
    "EvaluationError",
    "ExecutionReport",
    "GuardedPattern",
    "OrFilter",
    "Placeholder",
    "PlanStep",
    "QueryParseError",
    "RatioOf",
    "Script",
    "Template",
    "evaluate_block",
    "execute_script",
    "parse_script",
]
