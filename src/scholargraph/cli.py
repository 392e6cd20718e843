"""Operator command line for the store, sidecar, rules and metrics.

Configuration precedence, highest first: command-line flags, then the
SCHOLARGRAPH_STORE / SCHOLARGRAPH_SIDECAR environment variables, then an
optional JSON config file (--config), then built-in defaults.

Mutating subcommands take an advisory lock (`<store>.lock`) so two
processes cannot write the same store.  The store snapshot is the only
state file: it carries the materialization ledger as its last section, and
each save replaces it atomically.  A `map`, `query`, `infer`, `retract` or
`metric` that changes nothing leaves the snapshot file alone.

`export` writes N-Triples sorted by subject, predicate and object, each in
canonical term order (IRIs, then blanks, then literals by datatype): the
order of the snapshot's SPO run, which it writes with nothing sorted.

Exit codes: 0 success, 1 domain or data error, 2 usage error.

Each subcommand imports the modules it uses inside its handler, so a
command pays only for its own imports: `stats` loads the store's reader and
the term model alone, `stats`, `validate` and a SELECT-only `query` never
load the store's writer (`store_write`), `export` adds it and the N-Triples
writer, no command loads the N-Triples reader, `map` and the `ingest-*`
commands load neither N-Triples nor `decimal`, the `ingest-*` commands never
load the store, `query` never loads the rules, the metrics or the sidecar,
and `metric` and `retract` never load the query dialect.  No command loads
OpenSSL: the IRIs that `map`, the rules and the metrics mint are hashed
with CPython's own SHA-1 (:func:`scholargraph.ontology.digest16`).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .errors import ScholarGraphError
from .record import Record
from .terms import Iri, NamespaceTable, RDF_TYPE, term_sort_key

if TYPE_CHECKING:  # pragma: no cover
    from .store import Store, TriplePattern

DEFAULT_STORE = "scholargraph.store"
DEFAULT_SIDECAR = "scholargraph.sidecar"


class Config(Record):
    __slots__ = ("store", "sidecar", "provider", "namespaces", "precision", "verbose")
    store: str
    sidecar: str
    provider: Optional[str]  # None: the sidecar's default provider
    namespaces: NamespaceTable
    precision: int
    verbose: int


def _load_config(args: argparse.Namespace) -> Config:
    file_cfg: dict = {}
    if args.config:
        import json

        with open(args.config, "r", encoding="utf-8") as fp:
            try:
                file_cfg = json.load(fp)
            except json.JSONDecodeError as exc:
                raise ScholarGraphError(f"{args.config}: not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ScholarGraphError(f"{args.config}: config must be a JSON object")
    for key in ("store", "sidecar", "provider"):
        if not isinstance(file_cfg.get(key, ""), str):
            raise ScholarGraphError(f"{args.config}: {key} must be a string, got {file_cfg[key]!r}")
    store = (
        args.store
        or os.environ.get("SCHOLARGRAPH_STORE")
        or file_cfg.get("store")
        or DEFAULT_STORE
    )
    sidecar = (
        args.sidecar
        or os.environ.get("SCHOLARGRAPH_SIDECAR")
        or file_cfg.get("sidecar")
        or DEFAULT_SIDECAR
    )
    provider = args.provider or file_cfg.get("provider") or None
    if provider is not None and ":" not in provider:
        raise ScholarGraphError(f"provider IRI must be absolute: {provider!r}")
    namespaces = file_cfg.get("namespaces") or {}
    if not isinstance(namespaces, dict) or not all(isinstance(iri, str) for iri in namespaces.values()):
        raise ScholarGraphError(f"{args.config}: namespaces must be a JSON object of prefix to IRI")
    bindings = dict(namespaces)
    for pair in args.namespace or []:
        prefix, _, iri = pair.partition("=")
        if not prefix or not iri:
            raise ScholarGraphError(f"--namespace needs prefix=iri, got {pair!r}")
        bindings[prefix] = iri
    namespaces = NamespaceTable(bindings)
    precision = file_cfg.get("precision", 6)
    # a JSON true is a Python int too
    if type(precision) is not int:
        raise ScholarGraphError(f"{args.config}: precision must be an integer, got {precision!r}")
    if not 0 < precision <= 28:
        raise ScholarGraphError(f"precision out of range: {precision}")
    return Config(store, sidecar, provider, namespaces, precision, args.verbose)


@contextmanager
def _writer_lock(store_path: str) -> Iterator[None]:
    lock_path = store_path + ".lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ScholarGraphError(_lock_holder(lock_path)) from None
    try:
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(fd)
        yield
    finally:
        os.unlink(lock_path)


def _lock_holder(lock_path: str) -> str:
    """Why the lock is taken: the PID it names and whether that still runs."""
    message = f"{lock_path}: another process holds the store lock"
    try:
        with open(lock_path, "r", encoding="ascii") as fp:
            pid = int(fp.read())
    except (OSError, ValueError):
        pid = 0
    if pid <= 0:
        return message + " (it names no valid PID)"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return (
            message + f" (PID {pid}, which is no longer running: the lock is stale;"
            f" if no other command uses this store, delete {lock_path} by hand)"
        )
    except PermissionError:
        pass  # the process exists but belongs to another user
    return message + f" (PID {pid}, which is still running)"


def _open_store(cfg: Config) -> Store:
    from .store import Store

    if os.path.exists(cfg.store):
        _note(cfg, f"loading store {cfg.store}")
        store = Store.load(cfg.store)
        # Nothing the load made forms a cycle: keep the first collection
        # after it from walking them all.
        gc.freeze()
        return store
    _note(cfg, f"starting with an empty store (no {cfg.store} yet)")
    return Store()


def _note(cfg: Config, message: str) -> None:
    """A progress line on stderr, shown with -v."""
    if cfg.verbose:
        sys.stderr.write(f"INFO {message}\n")


def _emit(args: argparse.Namespace, human: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    if args.format == "tsv":
        for row in rows:
            sys.stdout.write("\t".join(row) + "\n")
    else:
        for line in human:
            sys.stdout.write(line + "\n")


def _report_problems(problems: Sequence[tuple[int, str]]) -> None:
    for line, reason in problems:
        sys.stderr.write(f"line {line}: rejected: {reason}\n")


# -- subcommand handlers --------------------------------------------------------


def _ingest(args: argparse.Namespace, cfg: Config) -> int:
    from .sidecar import Sidecar

    with Sidecar(cfg.sidecar) as sidecar:
        method = getattr(sidecar, f"ingest_{args.table}")
        if args.input == "-":
            report = method(sys.stdin)
        else:
            with open(args.input, "r", encoding="utf-8") as fp:
                report = method(fp)
    _report_problems(report.problems)
    _emit(
        args,
        [f"loaded {report.loaded} record(s), rejected {report.rejected}"],
        [[str(report.loaded), str(report.rejected)]],
    )
    return 0


def cmd_map(args: argparse.Namespace, cfg: Config) -> int:
    from .sidecar import DEFAULT_PROVIDER, Sidecar

    with _writer_lock(cfg.store):
        store = _open_store(cfg)
        before = len(store)
        with Sidecar(cfg.sidecar) as sidecar:
            report = sidecar.map_to_graph(
                store, provider=cfg.provider or DEFAULT_PROVIDER, affiliations=args.affiliations
            )
        # map never removes a triple, so an unchanged size is an unchanged store
        if len(store) != before:
            store.save(cfg.store)
    _emit(
        args,
        [
            f"publishes contexts created: {report.publishes}",
            f"uses contexts created: {report.uses}",
            f"citation contexts created: {report.citations}",
            f"affiliation contexts created: {report.affiliations}",
            f"store now holds {len(store)} triple(s)",
        ],
        [
            ["publishes", str(report.publishes)],
            ["uses", str(report.uses)],
            ["citations", str(report.citations)],
            ["affiliations", str(report.affiliations)],
        ],
    )
    return 0


def cmd_validate(args: argparse.Namespace, cfg: Config) -> int:
    from .ntriples import serialize_term, serialize_triple
    from .ontology import literal_audit, validate_all

    store = _open_store(cfg)
    violations = validate_all(store)
    audit = literal_audit(store)
    human = []
    rows = []
    for v in violations:
        human.append(f"{v.severity}: {serialize_term(v.node)}: {v.kind}: {v.message}")
        rows.append([v.severity, serialize_term(v.node), v.kind, v.message])
    for triple in audit:
        message = f"literal not licensed by the vocabulary: {serialize_triple(triple)}"
        human.append(f"error: {serialize_term(triple.subject)}: stray-literal: {message}")
        rows.append(["error", serialize_term(triple.subject), "stray-literal", message])
    if not human:
        human = ["no violations"]
    _emit(args, human, rows)
    errors = sum(1 for v in violations if v.severity == "error") + len(audit)
    return 1 if errors else 0


def _render_pattern(pattern: TriplePattern, table: NamespaceTable) -> str:
    from .ntriples import serialize_term
    from .store import Var

    slots = []
    for slot in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(slot, Var):
            slots.append(repr(slot))
        else:
            slots.append((isinstance(slot, Iri) and table.compact(slot)) or serialize_term(slot))
    return "( " + " ".join(slots) + " )"


def cmd_query(args: argparse.Namespace, cfg: Config) -> int:
    from .ntriples import serialize_term
    from .queryl import execute_script, parse_script

    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fp:
            text = fp.read()
    script = parse_script(text, cfg.namespaces)
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
                pattern = _render_pattern(step.pattern, cfg.namespaces)
                estimated = f"{step.estimated:.1f}"
                human.append(f"  {number}. {pattern}  estimated {estimated}  actual {step.actual}")
                rows.append(["plan", str(index + 1), str(number), pattern, estimated, str(step.actual)])
    if mutates:
        human.append(f"inserted {report.inserted} new triple(s)")
        rows.append(["inserted", str(report.inserted)])
    _emit(args, human, rows)
    return 0


def cmd_infer(args: argparse.Namespace, cfg: Config) -> int:
    from .inference import InferenceEngine

    with _writer_lock(cfg.store):
        engine = InferenceEngine(_open_store(cfg))
        if args.all:
            counts = engine.run_all()
        elif args.rule:
            counts = {args.rule: engine.run_rule(args.rule)}
        else:
            raise ScholarGraphError("infer needs --rule NAME or --all")
        if any(counts.values()):
            engine.store.save(cfg.store)
    human = [f"{name}: {count} new triple(s)" for name, count in counts.items()]
    human.append(f"total: {sum(counts.values())}")
    rows = [[name, str(count)] for name, count in counts.items()]
    _emit(args, human, rows)
    return 0


def cmd_retract(args: argparse.Namespace, cfg: Config) -> int:
    from .inference import InferenceEngine

    with _writer_lock(cfg.store):
        engine = InferenceEngine(_open_store(cfg))
        if args.all:
            removed = engine.retract_all()
            label = "all rules"
        elif args.rule:
            removed = engine.retract_rule(args.rule)
            label = args.rule
        else:
            raise ScholarGraphError("retract needs --rule NAME or --all")
        # a rule's rows are the stored rows its tag marks, so removing none means it ledgered none
        if removed:
            engine.store.save(cfg.store)
    _emit(
        args,
        [f"retracted {removed} triple(s) from {label}"],
        [[label, str(removed)]],
    )
    return 0


def _parse_window(text: Optional[str]) -> Optional[tuple[int, int]]:
    if text is None:
        return None
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ScholarGraphError(f"--window needs START:END, got {text!r}")
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise ScholarGraphError(f"--window needs integer years, got {text!r}") from None


def cmd_metric(args: argparse.Namespace, cfg: Config) -> int:
    from .metrics import impact_factor, usage_impact_factor
    from .ntriples import serialize_term

    window = _parse_window(args.window)
    compute = {"if": impact_factor, "uif": usage_impact_factor}[args.kind]
    with _writer_lock(cfg.store):
        store = _open_store(cfg)
        result = compute(
            store, Iri(args.object), args.year, window=window, transitive=not args.direct_only
        )
        if result.changed:
            store.save(cfg.store)
    shown = format(result.value, f".{cfg.precision}f")
    _emit(
        args,
        [
            f"{result.metric} of {serialize_term(result.object)} for {result.year} "
            f"(window {result.window[0]}..{result.window[1]}): {shown}",
            f"numerator {result.numerator}, denominator {result.denominator}",
            f"node {serialize_term(result.node)}",
        ],
        [
            [
                result.metric.replace(" ", "-"),
                result.object.value,
                str(result.year),
                str(result.numerator),
                str(result.denominator),
                shown,
            ]
        ],
    )
    return 0


def cmd_export(args: argparse.Namespace, cfg: Config) -> int:
    from .ntriples import write_ntriples

    terms, run = _open_store(cfg).canonical_run()
    if args.output == "-":
        count = write_ntriples(terms, run, sys.stdout.buffer)
    else:
        with open(args.output, "wb") as fp:
            count = write_ntriples(terms, run, fp)
    sys.stderr.write(f"exported {count} triple(s)\n")
    return 0


def cmd_catalog(args: argparse.Namespace, cfg: Config) -> int:
    from .ontology import export_catalog

    sys.stdout.write(export_catalog())
    return 0


def cmd_stats(args: argparse.Namespace, cfg: Config) -> int:
    store = _open_store(cfg)
    pairs: list[tuple[str, int]] = [
        ("triples", len(store)),
        ("terms", store.term_count()),
    ]
    rdf_type = store.lookup(RDF_TYPE)
    if rdf_type is not None:
        members = Counter(store.predicate_objects(rdf_type))
        classes = {store.decode(o): count for o, count in members.items()}
        for iri in sorted((term for term in classes if isinstance(term, Iri)), key=term_sort_key):
            pairs.append((f"class {iri.value}", classes[iri]))
    for name, count in store.ledger_counts().items():
        if count:
            pairs.append((f"ledger {name}", count))
    human = [f"{key}: {value}" for key, value in pairs]
    rows = [[key, str(value)] for key, value in pairs]
    _emit(args, human, rows)
    return 0


# -- argument parsing ------------------------------------------------------------


class _RuleHelp(argparse.HelpFormatter):
    """Names the registered rules in ``infer --help``, importing the rule
    registry only when that help is printed."""

    def _get_help_string(self, action: argparse.Action) -> Optional[str]:
        if action.dest != "rule":
            return action.help
        from .inference import RULE_SCRIPTS

        return f"rule name ({', '.join(sorted(RULE_SCRIPTS))})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scholargraph",
        description="Scholarly semantic-network store: ingest, map, query, infer, measure.",
    )
    parser.add_argument("--store", help=f"store snapshot path (default {DEFAULT_STORE})")
    parser.add_argument("--sidecar", help=f"record store path (default {DEFAULT_SIDECAR})")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--provider", help="provider IRI minted into mapped contexts")
    parser.add_argument(
        "--namespace",
        action="append",
        metavar="PREFIX=IRI",
        help="extra namespace binding for scripts (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "tsv"),
        default="human",
        help="report format on stdout",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, func, help_text: str, **options) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, **options)
        p.set_defaults(func=func)
        return p

    for table, records in (
        ("biblio", "bibliographic records"),
        ("usage", "usage events"),
        ("citations", "citation pairs"),
    ):
        p = add(f"ingest-{table}", _ingest, f"load {records} from TSV")
        p.add_argument("--input", default="-", help="TSV file ('-' for stdin)")
        p.set_defaults(table=table)

    p = add("map", cmd_map, "project sidecar records into the triple store")
    p.add_argument(
        "--affiliations",
        action="store_true",
        help="also mint Affiliation contexts from usage affiliation strings",
    )

    add("validate", cmd_validate, "check instances against the vocabulary")

    p = add("query", cmd_query, "parse and run a script (SELECT/INSERT)")
    p.add_argument("--file", default="-", help="script file ('-' for stdin)")
    p.add_argument(
        "--explain",
        action="store_true",
        help="after each block, print its join steps with estimated and actual rows",
    )

    p = add("infer", cmd_infer, "run materialization rules", formatter_class=_RuleHelp)
    p.add_argument("--rule", help="rule name")
    p.add_argument("--all", action="store_true", help="run every registered rule")

    p = add("retract", cmd_retract, "remove exactly what a rule materialized")
    p.add_argument("--rule", help="rule name")
    p.add_argument("--all", action="store_true", help="retract every rule")

    p = add("metric", cmd_metric, "compute a journal metric and write its node")
    p.add_argument("kind", choices=("if", "uif"), help="if = impact factor, uif = usage impact factor")
    p.add_argument("--object", required=True, help="group IRI the metric is about")
    p.add_argument("--year", type=int, required=True, help="target year")
    p.add_argument("--window", help="publication window START:END (default year-2:year-1)")
    p.add_argument(
        "--direct-only",
        action="store_true",
        help="treat partOf as one hop instead of its closure",
    )

    p = add("export", cmd_export, "write the store as sorted N-Triples: IRIs, then blanks, then literals by datatype")
    p.add_argument("--output", default="-", help="output file ('-' for stdout)")

    add("catalog", cmd_catalog, "print the built-in vocabulary")
    add("stats", cmd_stats, "triple, class and ledger counts")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _load_config(args)
        return args.func(args, cfg)
    except ScholarGraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
