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

This module is only the dispatcher: the configuration, the store lock, the
store's opening, the report output and :func:`main`, with one table,
``COMMANDS``, of each command's name, handler module and help text.  The
handlers live in :mod:`scholargraph.commands`, and a run imports only its
own command's module and adds only that command's options: each
subcommand's parser is a ``_CommandParser``, which imports its module and
lets it add the options when it first parses (``COMMAND --help`` and a
usage error parse too), so help and usage print what a parser built whole
prints.  Standard input (``--input -``, ``--file -``) is read as UTF-8,
as files are, whatever the locale's encoding; an input that is not UTF-8
ends the command with one ``error:`` line, ``FILE: line N: ...`` (FILE is
``<stdin>`` for ``-``), and exit 1.

Each handler imports the library modules it uses when it runs, so a
command pays only for its own imports: `stats` loads the store's reader and
the term model alone, `stats`, `validate` and a SELECT-only `query` never
load the store's writer (`store_write`), `export` adds it and the N-Triples
writer (the package has no N-Triples reader), `map` and the `ingest-*`
commands load neither N-Triples nor `decimal`, the `ingest-*` commands load
neither the store, the term model (`terms`, which this module imports only
to check `--namespace` bindings) nor the vocabulary (`ontology`), the
projection (`mapping`) or `urllib.parse`, `query` never loads the rules,
the metrics or the sidecar, `metric` loads neither the rules (`inference`)
nor the query dialect, reading and writing through `contexts`, and
`retract` never loads the query dialect.  No command loads OpenSSL: the IRIs that
`map`, the rules and the metrics mint are hashed with CPython's own SHA-1
(:func:`scholargraph.ontology.digest16`).
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from contextlib import contextmanager
from typing import IO, TYPE_CHECKING, Iterator, Optional, Sequence

from .errors import ScholarGraphError
from .record import Record

if TYPE_CHECKING:  # pragma: no cover
    from .store import Store
    from .terms import NamespaceTable

DEFAULT_STORE = "scholargraph.store"
DEFAULT_SIDECAR = "scholargraph.sidecar"


class Config(Record):
    __slots__ = ("store", "sidecar", "provider", "namespaces", "precision", "verbose")
    store: str
    sidecar: str
    provider: Optional[str]  # None: the sidecar's default provider
    namespaces: Optional[NamespaceTable]  # None: no binding beyond the defaults
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
    store = args.store or os.environ.get("SCHOLARGRAPH_STORE") or file_cfg.get("store") or DEFAULT_STORE
    sidecar = args.sidecar or os.environ.get("SCHOLARGRAPH_SIDECAR") or file_cfg.get("sidecar") or DEFAULT_SIDECAR
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
    namespaces = None
    if bindings:
        # only query reads the table, but a bad binding fails any command
        from .terms import NamespaceTable

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


@contextmanager
def _read_lines(path: str) -> Iterator[Iterator[str]]:
    """Open ``path`` on entry, and give its lines read as UTF-8; ``-`` is
    standard input, read as UTF-8 too, whatever the locale's encoding (the
    exit closes stdin).  A line that is not UTF-8 raises a
    :class:`ScholarGraphError` naming the file and the line; the decoder's
    position in it counts within the line."""
    name = "<stdin>" if path == "-" else path
    binary = sys.stdin.buffer if path == "-" else open(path, "rb")
    # a byte that does not decode comes through as a lone surrogate, which
    # no UTF-8 text holds
    with io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape") as fp:
        yield _utf8_lines(name, fp)


def _utf8_lines(name: str, fp: IO[str]) -> Iterator[str]:
    for number, line in enumerate(fp, 1):
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ScholarGraphError(f"{name}: line {number}: {exc}") from None
        yield line


# -- argument parsing ------------------------------------------------------------

# name, handler module under scholargraph.commands, help text
COMMANDS = (
    ("ingest-biblio", "ingest", "load bibliographic records from TSV"),
    ("ingest-usage", "ingest", "load usage events from TSV"),
    ("ingest-citations", "ingest", "load citation pairs from TSV"),
    ("map", "map", "project sidecar records into the triple store"),
    ("validate", "validate", "check instances against the vocabulary"),
    ("query", "query", "parse and run a script (SELECT/INSERT)"),
    ("infer", "rules", "run materialization rules"),
    ("retract", "rules", "remove exactly what a rule materialized"),
    ("metric", "metric", "compute a journal metric and write its node"),
    ("export", "export", "write the store as sorted N-Triples: IRIs, then blanks, then literals by datatype"),
    ("catalog", "catalog", "print the built-in vocabulary"),
    ("stats", "stats", "triple, class and ledger counts"),
)


class _CommandParser(argparse.ArgumentParser):
    """One command's parser.  Its handler module is imported, and its
    options added, when it first parses, which ``COMMAND --help`` and a
    usage error do too: a run imports and builds only the chosen command."""

    def __init__(self, handler: str = "", **options) -> None:
        super().__init__(**options)
        self.handler = handler

    def parse_known_args(self, args=None, namespace=None):
        if self.get_default("func") is None:
            # an import statement's machinery, unlike importlib's, shows in -X importtime
            module = __import__(f"{__package__}.commands.{self.handler}", fromlist=["configure"])
            # the module adds the options of the command (the last word of
            # "scholargraph COMMAND") and names its handler
            self.set_defaults(func=module.configure(self, self.prog.rpartition(" ")[2]))
        return super().parse_known_args(args, namespace)


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
        "--namespace", action="append", metavar="PREFIX=IRI", help="extra namespace binding for scripts (repeatable)"
    )
    parser.add_argument("--format", choices=("human", "tsv"), default="human", help="report format on stdout")
    parser.add_argument("-v", "--verbose", action="count", default=0)

    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_CommandParser)
    for name, handler, help_text in COMMANDS:
        sub.add_parser(name, help=help_text, handler=handler)
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
    # a config that is not UTF-8 is a data error too, not a crash
    except (ScholarGraphError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    # run as ``python -m scholargraph.cli``: the handlers' ``from ..cli import``
    # finds this module rather than compiling the file again
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
