"""``query``: parse and run a script, printing each block's rows."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from ..cli import Config, _emit, _open_store, _read_lines, _writer_lock
from ..terms import Iri, NamespaceTable, term_sort_key

if TYPE_CHECKING:  # pragma: no cover
    from ..store import TriplePattern


def configure(parser: argparse.ArgumentParser, command: str):
    parser.add_argument("--file", default="-", help="script file ('-' for stdin)")
    parser.add_argument(
        "--explain", action="store_true", help="after each block, print its join steps with estimated and actual rows"
    )
    return query


def _render_pattern(pattern: TriplePattern, table: NamespaceTable) -> str:
    from ..ntriples import serialize_term
    from ..store import Var

    slots = []
    for slot in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(slot, Var):
            slots.append(repr(slot))
        else:
            slots.append((isinstance(slot, Iri) and table.compact(slot)) or serialize_term(slot))
    return "( " + " ".join(slots) + " )"


def query(args: argparse.Namespace, cfg: Config) -> int:
    from ..ntriples import serialize_term
    from ..queryl import execute_script, parse_script

    with _read_lines(args.file) as lines:
        text = "".join(lines)
    namespaces = cfg.namespaces or NamespaceTable()
    script = parse_script(text, namespaces)
    mutates = bool(script.templates)
    if mutates:
        with _writer_lock(cfg.store):
            store = _open_store(cfg)
            report = execute_script(store, script)
            # a query only inserts, so no new triple means an unchanged store
            if report.inserted:
                store.save(cfg.store)
    else:
        report = execute_script(_open_store(cfg), script)

    human: list[str] = []
    rows: list[list[str]] = []
    for index, block in enumerate(script.blocks):
        names = [var.name for var in block.projected]
        header = "\t".join("?" + n for n in names)
        human.append(f"block {index + 1}: {header}")
        printable = sorted(
            report.bindings[index],
            key=lambda row: tuple(term_sort_key(row[n]) for n in names),
        )
        for row in printable:
            rendered = [serialize_term(row[n]) for n in names]
            human.append("\t".join(rendered))
            rows.append([str(index + 1)] + rendered)
        human.append(f"({len(printable)} row(s), {report.block_rows[index]} full match(es))")
        if args.explain:
            human.append(f"plan for block {index + 1}: step, pattern, estimated rows, actual rows")
            if not report.plans[index]:
                human.append("  (no step ran: a constant of the block is not in the store)")
            for number, step in enumerate(report.plans[index], 1):
                pattern = _render_pattern(step.pattern, namespaces)
                estimated = f"{step.estimated:.1f}"
                human.append(f"  {number}. {pattern}  estimated {estimated}  actual {step.actual}")
                rows.append(["plan", str(index + 1), str(number), pattern, estimated, str(step.actual)])
    if mutates:
        human.append(f"inserted {report.inserted} new triple(s)")
        rows.append(["inserted", str(report.inserted)])
    _emit(args, human, rows)
    return 0
