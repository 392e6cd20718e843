"""Block evaluation and script execution.

Join planning: a block is a conjunctive join of its patterns, run one
pattern per step, index-nested-loop style.  The planner picks each next
pattern greedily.  While some remaining pattern shares a variable with the
variables already bound, only such connected patterns are candidates (a
pattern without variables always is one), so a cross product happens only
when a block has no connecting variable left.  Candidates rank by estimated
rows per input row: the pattern's constants-only ``match_count``, divided
for each slot that a bound variable fills by the number of distinct keys in
that slot, as RDF-3X estimates join fan-out (Neumann & Weikum, VLDB J.
2010).  Ties go to a pattern that carries a filter, since the filter may
cut rows the estimate does not see, then to the pattern written first.  The
counts are read from the store's indexes once per block.

Execution: each pattern is compiled once into slot positions.  Rows are
tuples of term ids that stream through one generator per step; filters run
at the earliest step where all their variables are bound.  A row binds
every variable of the block, and since every step extends a row by distinct
triples, the rows are exactly the distinct full bindings.  Each step counts
the rows it yields, which is what ``query --explain`` prints next to the
planner's estimate.

The public ``evaluate_block`` deduplicates rows on the projected variables
(what a SELECT caller sees), as rows stream: the first full row of each
projected key is kept.  Aggregates and INSERT dispatch operate on the full
row set: ``COUNT(?v)`` is the number of distinct full rows of the block
projecting ``?v``, which is what makes a count of citation rows count
citations rather than cited documents.

INSERT dispatch: a template whose slot variables are projected by a block
executes once per row of that block; a template of constants, placeholders
and aggregates executes once per script.  Rows that agree on the projection
instantiate the same triple, so each projected key is instantiated once
while ``template_rows`` still counts full rows.  Every placeholder label
maps to one fresh blank node per execution, shared across templates.  A
template's rows are built as id triples: a variable slot reads the row's
id, and a constant, placeholder or aggregate literal is checked and
interned once.  A variable slot is checked through the store's decode,
which makes each term once and keeps it, and each template's rows go into
the store as one batch.

An integer literal under a datetime-ranged predicate of the vocabulary
(:data:`ontology.SCHEMA`), in a pattern or a template, reads as a year.
"""

from __future__ import annotations

from functools import cached_property
from decimal import Decimal, ROUND_HALF_EVEN
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterator, Optional, Union

from ..errors import ScholarGraphError
from ..ontology import SCHEMA
from ..record import FrozenRecord, Record
from ..store import IdTriple, Store, TriplePattern, Var
from ..terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    Term,
    Triple,
    datetime_sort_value,
)
from .ast import (
    Aggregate,
    AndFilter,
    Block,
    Comparison,
    CountOf,
    Filter,
    Placeholder,
    RatioOf,
    Script,
    filter_variables,
)

QUANTUM = Decimal("0.000001")


class EvaluationError(ScholarGraphError):
    """A script failed during evaluation (filters, aggregates, templates)."""


class PlanStep(Record, actual=0):
    """One join step: its pattern, the planner's estimate of the rows after
    it, and the rows it yielded after its filters when it ran."""

    __slots__ = ("pattern", "estimated", "actual")
    pattern: TriplePattern
    estimated: float
    actual: int


class ExecutionReport(FrozenRecord, hidden=("solved", "store")):
    """What one script execution did.  Rows and new triples are kept as
    ids; ``bindings`` and ``new_triples`` decode them when first asked
    (and cache them in the instance's ``__dict__``)."""

    __slots__ = ("block_rows", "template_rows", "new_ids", "created_blanks", "plans", "solved", "store", "__dict__")
    block_rows: tuple[int, ...]  # distinct full rows per block
    template_rows: tuple[int, ...]  # instantiations attempted per template
    new_ids: tuple[IdTriple, ...]  # triples newly added, template by template
    created_blanks: dict[str, Blank]  # placeholder label -> fresh node
    plans: tuple[tuple[PlanStep, ...], ...]  # per block, steps in join order
    solved: tuple[_Solved, ...]  # hidden: not compared or shown
    store: Store  # hidden: decodes the ids

    @property
    def inserted(self) -> int:
        """How many triples were newly added."""
        return len(self.new_ids)

    @cached_property
    def new_triples(self) -> tuple[Triple, ...]:
        return tuple(map(self.store.decode_triple, self.new_ids))

    @cached_property
    def bindings(self) -> tuple[tuple[dict[str, Term], ...], ...]:
        """Per block, the rows deduplicated on the projection."""
        return tuple(_decoded(result, self.store.decode) for result in self.solved)


_Slot = Union[int, str]  # a constant's term id, or a variable's name
_Row = tuple[int, ...]  # term ids, one per variable in binding order


def _coerce_year(obj: Literal) -> Literal:
    """Integer literal under a datetime-ranged predicate becomes a year."""
    value = int(obj.lexical)
    if 0 < value <= 9999:
        return Literal(f"{value:04d}", Datatype.DATETIME)
    return obj


_DATETIME_RANGED = frozenset(p.iri for p in SCHEMA.properties() if p.range is Datatype.DATETIME)


def _prepare_pattern(store: Store, pattern: TriplePattern) -> Optional[tuple[_Slot, _Slot, _Slot]]:
    """Slots with constants interned; None when nothing can match."""
    subject, predicate, obj = pattern.subject, pattern.predicate, pattern.object
    if isinstance(obj, Literal) and obj.datatype is Datatype.INTEGER and predicate in _DATETIME_RANGED:
        obj = _coerce_year(obj)
    slots: list[_Slot] = []
    for index, slot in enumerate((subject, predicate, obj)):
        if isinstance(slot, Var):
            slots.append(slot.name)
            continue
        if index == 0 and isinstance(slot, Literal):
            return None  # literals never occupy subject position
        term_id = store.lookup(slot)
        if term_id is None:
            return None
        slots.append(term_id)
    return (slots[0], slots[1], slots[2])


def _compare(left: Term, op: str, right: Term) -> bool:
    if isinstance(left, Literal) and isinstance(right, Literal):
        lt, rt = left.datatype, right.datatype
        a: object
        b: object
        if lt in (Datatype.INTEGER, Datatype.DECIMAL) and rt in (Datatype.INTEGER, Datatype.DECIMAL):
            a, b = Decimal(left.lexical), Decimal(right.lexical)
        elif lt is Datatype.STRING and rt is Datatype.STRING:
            a, b = left.lexical, right.lexical
        elif lt is Datatype.DATETIME and rt is Datatype.DATETIME:
            if left.precision == "year" or right.precision == "year":
                a, b = left.year(), right.year()
            else:
                a, b = datetime_sort_value(left), datetime_sort_value(right)
        elif {lt, rt} == {Datatype.DATETIME, Datatype.INTEGER}:
            a, b = left.year(), right.year()
        else:
            raise EvaluationError(
                f"cannot compare a {lt.name.lower()} literal with a {rt.name.lower()} literal"
            )
        if op == "=":
            return a == b
        if op == "<":
            return a < b  # type: ignore[operator]
        return a > b  # type: ignore[operator]
    if op == "=" and not isinstance(left, Literal) and not isinstance(right, Literal):
        return left == right
    raise EvaluationError(f"cannot compare {left!r} with {right!r} using {op!r}")


def _eval_filter(expr: Filter, value: Callable[[str], Term]) -> bool:
    if isinstance(expr, Comparison):
        left = value(expr.left.name) if isinstance(expr.left, Var) else expr.left
        right = value(expr.right.name) if isinstance(expr.right, Var) else expr.right
        return _compare(left, expr.op, right)
    if isinstance(expr, AndFilter):
        return all(_eval_filter(part, value) for part in expr.parts)
    return any(_eval_filter(part, value) for part in expr.parts)


def _guard(expr: Filter, positions: dict[str, int], decode: Callable[[int], Term]) -> Callable[[_Row], bool]:
    def passes(row: _Row) -> bool:
        return _eval_filter(expr, lambda name: decode(row[positions[name]]))

    return passes


class _Step(FrozenRecord):
    """A pattern compiled against the row layout of the steps before it."""

    __slots__ = ("probe", "bound", "fresh", "repeats", "guards", "explain")
    probe: tuple[Optional[int], ...]  # constant ids by slot
    bound: tuple[Optional[int], ...]  # row positions of bound variables by slot
    fresh: Callable[[tuple[int, int, int]], tuple[int, ...]]  # new values from a hit
    repeats: tuple[tuple[int, int], ...]  # slot pairs one new variable fills twice
    guards: tuple[Callable[[_Row], bool], ...]
    explain: PlanStep


def _plan(store: Store, block: Block) -> tuple[list[_Step], dict[str, int]]:
    """Join steps in execution order and the row position of each variable.

    No steps when some constant of the block is absent from the store.
    """
    positions: dict[str, int] = {}
    specs = []
    for gp in block.patterns:
        spec = _prepare_pattern(store, gp.pattern)
        if spec is None:
            return [], positions
        specs.append(spec)
    probes = [tuple(None if isinstance(slot, str) else slot for slot in spec) for spec in specs]
    names = [frozenset(slot for slot in spec if isinstance(slot, str)) for spec in specs]
    matches = [store.match_count(*probe) for probe in probes]
    keys: dict[tuple[int, int], int] = {}

    def fan_out(index: int) -> float:
        """Estimated rows per input row, given the variables bound so far."""
        estimate = float(matches[index])
        for slot, name in enumerate(specs[index]):
            if name in positions:
                if (index, slot) not in keys:
                    keys[index, slot] = store.distinct_count(*probes[index], slot)
                distinct = keys[index, slot]
                estimate = estimate / distinct if distinct else 0.0
        return estimate

    pending = [
        (gp.guard, filter_variables(gp.guard)) for gp in block.patterns if gp.guard is not None
    ]
    remaining = list(range(len(specs)))
    steps: list[_Step] = []
    estimate = 1.0
    while remaining:
        connected = [i for i in remaining if not names[i] or names[i] & positions.keys()]
        best = min(connected or remaining, key=lambda i: (fan_out(i), block.patterns[i].guard is None, i))
        estimate *= fan_out(best)
        remaining.remove(best)
        bound: list[Optional[int]] = [None, None, None]
        fresh: list[int] = []
        repeats: list[tuple[int, int]] = []
        first_slot: dict[str, int] = {}
        for slot, name in enumerate(specs[best]):
            if not isinstance(name, str):
                continue
            if name in positions:
                bound[slot] = positions[name]
            elif name in first_slot:
                repeats.append((first_slot[name], slot))
            else:
                first_slot[name] = slot
                fresh.append(slot)
        for name in first_slot:
            positions[name] = len(positions)
        ready = [expr for expr, needs in pending if needs <= positions.keys()]
        pending = [(expr, needs) for expr, needs in pending if not needs <= positions.keys()]
        if len(fresh) == 1:
            only = fresh[0]
            pick: Callable = lambda hit, only=only: (hit[only],)
        else:
            pick = itemgetter(*fresh) if fresh else (lambda hit: ())
        steps.append(
            _Step(
                probe=probes[best],
                bound=tuple(bound),
                fresh=pick,
                repeats=tuple(repeats),
                guards=tuple(_guard(expr, positions, store.decode) for expr in ready),
                explain=PlanStep(block.patterns[best].pattern, estimate),
            )
        )
    return steps, positions


def _run_step(store: Store, rows: Iterator[_Row], step: _Step) -> Iterator[_Row]:
    s0, p0, o0 = step.probe
    bs, bp, bo = step.bound
    fresh, repeats, guards = step.fresh, step.repeats, step.guards
    match_ids = store.match_ids
    yielded = 0
    try:
        for row in rows:
            s = s0 if bs is None else row[bs]
            p = p0 if bp is None else row[bp]
            o = o0 if bo is None else row[bo]
            for hit in match_ids(s, p, o):
                if repeats and any(hit[a] != hit[b] for a, b in repeats):
                    continue
                out = row + fresh(hit)
                if guards and not all(passes(out) for passes in guards):
                    continue
                yielded += 1
                yield out
    finally:
        step.explain.actual = yielded


class _Solved(FrozenRecord):
    """One block's result: full row count and the first full row per
    projected key, in the order rows streamed."""

    __slots__ = ("full_rows", "rows", "positions", "plan")
    full_rows: int
    rows: list[_Row]
    positions: dict[str, int]
    plan: tuple[PlanStep, ...]


def _solve_block(store: Store, block: Block) -> _Solved:
    steps, positions = _plan(store, block)
    plan = tuple(step.explain for step in steps)
    if not steps:
        return _Solved(0, [], positions, plan)
    rows: Iterator[_Row] = iter([()])
    for step in steps:
        rows = _run_step(store, rows, step)
    where = [positions[var.name] for var in block.projected]
    key = itemgetter(*where) if where else (lambda row: ())
    first: dict[object, _Row] = {}
    full_rows = 0
    for row in rows:
        full_rows += 1
        first.setdefault(key(row), row)
    return _Solved(full_rows, list(first.values()), positions, plan)


def _decoded(solved: _Solved, decode: Callable[[int], Term]) -> tuple[dict[str, Term], ...]:
    names = list(solved.positions)
    return tuple({name: decode(i) for name, i in zip(names, row)} for row in solved.rows)


def evaluate_block(store: Store, block: Block) -> tuple[dict[str, Term], ...]:
    """Rows of one block: full bindings, deduplicated on the projection.

    The result is a set (order is deterministic for a given store).  An
    empty result is an empty tuple, never an error.
    """
    return _decoded(_solve_block(store, block), store.decode)


def _projected_by(script: Script) -> dict[str, int]:
    out: dict[str, int] = {}
    for index, block in enumerate(script.blocks):
        for var in block.projected:
            out[var.name] = index
    return out


def _render_aggregate(agg: Aggregate) -> str:
    if isinstance(agg, CountOf):
        return f"COUNT(?{agg.var.name})"
    return f"({_render_aggregate(agg.numerator)} / {_render_aggregate(agg.denominator)})"


def _aggregate_exact(agg: Aggregate, counts: dict[str, int]) -> Decimal:
    if isinstance(agg, CountOf):
        return Decimal(counts[agg.var.name])
    numerator = _aggregate_exact(agg.numerator, counts)
    denominator = _aggregate_exact(agg.denominator, counts)
    if denominator == 0:
        raise EvaluationError(f"division by zero in {_render_aggregate(agg)}")
    return numerator / denominator


def _aggregate_literal(agg: Aggregate, counts: dict[str, int]) -> Literal:
    if isinstance(agg, CountOf):
        return Literal(str(counts[agg.var.name]), Datatype.INTEGER)
    value = _aggregate_exact(agg, counts).quantize(QUANTUM, rounding=ROUND_HALF_EVEN)
    return Literal(str(value), Datatype.DECIMAL)


def execute_script(store: Store, script: Script, rule: str | None = None) -> ExecutionReport:
    """Evaluate all blocks, then apply INSERT templates in order, ledgering
    the triples they add under ``rule`` (None: as base facts).

    Set semantics make re-runs of placeholder-free scripts no-ops; each run
    mints fresh blanks for placeholders.  Raises :class:`EvaluationError` on
    filter type clashes, division by zero, or templates that resolve to an
    invalid triple.  Each template is applied atomically: its rows are
    built as id triples, checked, and inserted as one batch, so a template
    that fails on any row inserts none of its rows, while the templates
    before it keep what they inserted.
    """
    solved = [_solve_block(store, block) for block in script.blocks]
    projected_by = _projected_by(script)
    counts = {name: solved[index].full_rows for name, index in projected_by.items()}
    intern, decode = store.intern, store.decode

    blanks: dict[str, Blank] = {}

    def blank_for(label: str) -> Blank:
        if label not in blanks:
            blanks[label] = store.fresh_blank()
        return blanks[label]

    new_ids: list[IdTriple] = []
    template_rows: list[int] = []
    for template in script.templates:
        aggregate = template.object if isinstance(template.object, (CountOf, RatioOf)) else None
        object_constant = _aggregate_literal(aggregate, counts) if aggregate is not None else None
        row_vars = template.row_variables()
        if row_vars:
            home = solved[projected_by[row_vars[0].name]]
            rows, positions = home.rows, home.positions
            template_rows.append(home.full_rows)
        else:
            rows, positions = [()], {}
            template_rows.append(1)
        if not rows:
            continue
        # each slot: a column of ids (a variable) or one term (a constant)
        slots: list[Union[list[int], Term]] = []
        for slot in (template.subject, template.predicate, template.object if aggregate is None else object_constant):
            if isinstance(slot, Var):
                slots.append(list(map(itemgetter(positions[slot.name]), rows)))
            else:
                slots.append(blank_for(slot.label) if isinstance(slot, Placeholder) else slot)
        subject, predicate, obj = slots
        bad_subject = _first_row(subject, decode, lambda term: isinstance(term, Literal))
        bad_predicate = _first_row(predicate, decode, lambda term: not isinstance(term, Iri))
        if bad_subject is not None and (bad_predicate is None or bad_subject <= bad_predicate):
            raise EvaluationError("template subject resolved to a literal")
        if bad_predicate is not None:
            wrong = decode(predicate[bad_predicate]) if isinstance(predicate, list) else predicate
            raise EvaluationError(f"template predicate resolved to {wrong!r}, not an IRI")
        count = len(rows)
        subjects = subject if isinstance(subject, list) else [intern(subject)] * count
        predicates = predicate if isinstance(predicate, list) else [intern(predicate)] * count
        ranged = {p for p in set(predicates) if decode(p) in _DATETIME_RANGED}
        if ranged:
            objects = _object_ids(store, obj, predicates, ranged)
        else:
            objects = obj if isinstance(obj, list) else [intern(obj)] * count
        new_ids += store.add_rows(zip(subjects, predicates, objects), rule)

    return ExecutionReport(
        block_rows=tuple(result.full_rows for result in solved),
        template_rows=tuple(template_rows),
        new_ids=tuple(new_ids),
        created_blanks=blanks,
        plans=tuple(result.plan for result in solved),
        solved=tuple(solved),
        store=store,
    )


def _first_row(
    slot: Union[list[int], Term], decode: Callable[[int], Term], bad: Callable[[Term], bool]
) -> Optional[int]:
    """The first row whose term in ``slot`` is ``bad``, or None; each
    distinct id of a column is decoded and checked once."""
    if not isinstance(slot, list):
        return 0 if bad(slot) else None
    wrong = {term_id for term_id in set(slot) if bad(decode(term_id))}
    if not wrong:
        return None
    return next(row for row, term_id in enumerate(slot) if term_id in wrong)


def _object_ids(store: Store, obj: Union[list[int], Term], predicates: list[int], ranged: set[int]) -> list[int]:
    """The object ids of a template's rows, an integer literal under a
    datetime-ranged predicate coerced to a year; each distinct (coerced?,
    object) is resolved once."""
    resolved: dict[tuple[bool, Union[int, Term]], int] = {}

    def object_id(coerce: bool, key: Union[int, Term]) -> int:
        found = resolved.get((coerce, key))
        if found is None:
            term = store.decode(key) if isinstance(key, int) else key
            if coerce and isinstance(term, Literal) and term.datatype is Datatype.INTEGER:
                found = store.intern(_coerce_year(term))
            else:
                found = key if isinstance(key, int) else store.intern(term)
            resolved[(coerce, key)] = found
        return found

    keys = obj if isinstance(obj, list) else repeat(obj)
    return [object_id(p in ranged, key) for p, key in zip(predicates, keys)]
