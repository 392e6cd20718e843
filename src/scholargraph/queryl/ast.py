"""Syntax tree for the query dialect."""

from __future__ import annotations

from typing import Union

from ..record import FrozenRecord
from ..store import TriplePattern, Var
from ..terms import Literal, Term


class Comparison(FrozenRecord):
    __slots__ = ("left", "op", "right")
    left: Union[Var, Literal]
    op: str  # "=", "<" or ">"
    right: Union[Var, Literal]


class AndFilter(FrozenRecord):
    __slots__ = ("parts",)
    parts: tuple["Filter", ...]


class OrFilter(FrozenRecord):
    __slots__ = ("parts",)
    parts: tuple["Filter", ...]


Filter = Union[Comparison, AndFilter, OrFilter]


def filter_variables(expr: Filter) -> frozenset[str]:
    if isinstance(expr, Comparison):
        names = set()
        if isinstance(expr.left, Var):
            names.add(expr.left.name)
        if isinstance(expr.right, Var):
            names.add(expr.right.name)
        return frozenset(names)
    out: set[str] = set()
    for part in expr.parts:
        out |= filter_variables(part)
    return frozenset(out)


class GuardedPattern(FrozenRecord, guard=None):
    """A triple pattern with its optional attached filter."""

    __slots__ = ("pattern", "guard")
    pattern: TriplePattern
    guard: Filter | None


class Block(FrozenRecord):
    """One SELECT/WHERE block.  Variables are scoped to the block."""

    __slots__ = ("projected", "patterns")
    projected: tuple[Var, ...]
    patterns: tuple[GuardedPattern, ...]

    def pattern_variables(self) -> frozenset[str]:
        names: set[str] = set()
        for gp in self.patterns:
            for v in gp.pattern.variables():
                names.add(v.name)
        return frozenset(names)


class CountOf(FrozenRecord):
    __slots__ = ("var",)
    var: Var


class RatioOf(FrozenRecord):
    __slots__ = ("numerator", "denominator")
    numerator: "Aggregate"
    denominator: "Aggregate"


Aggregate = Union[CountOf, RatioOf]


class Placeholder(FrozenRecord):
    """A blank-node placeholder such as ``_123``; label excludes the ``_``."""

    __slots__ = ("label",)
    label: str


TemplateSlot = Union[Term, Var, Placeholder]
TemplateObject = Union[Term, Var, Placeholder, CountOf, RatioOf]


class Template(FrozenRecord):
    __slots__ = ("subject", "predicate", "object")
    subject: TemplateSlot
    predicate: TemplateSlot
    object: TemplateObject

    def row_variables(self) -> tuple[Var, ...]:
        """Variables occupying slots directly (COUNT arguments excluded)."""
        out: list[Var] = []
        for slot in (self.subject, self.predicate, self.object):
            if isinstance(slot, Var) and slot not in out:
                out.append(slot)
        return tuple(out)


class Script(FrozenRecord, templates=()):
    __slots__ = ("blocks", "templates")
    blocks: tuple[Block, ...]
    templates: tuple[Template, ...]
