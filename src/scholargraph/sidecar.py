"""Keyed record store for the literals kept out of the triple store.

Bibliographic and usage records live in a small SQLite file; only the
identifiers, times, and group/agent relationships are projected into the
semantic network.  Titles, author names, pages, volumes and issues never
become triples: queries that need them resolve back through the doc_id
bridge (see :func:`Sidecar.resolve`).

Ingestion reads UTF-8 TSV with one header line, which must name only the
table's columns, each once, and all its required ones.  Each data line is
checked in a fixed order, and a line that fails is rejected with its line
number and its first failing check only; the rest of the batch still
loads, in one commit.  Every table first checks the line's field count
against the header, then:

- biblio: missing doc_id, duplicate doc_id, duplicate doi, unparseable date;
- usage: missing event_id, unparseable time, doc_id that does not resolve,
  duplicate event_id;
- citations: citing_doc_id that does not resolve, cited_doc_id that does
  not resolve, duplicate citation pair.

A duplicate is checked against the rows already loaded, earlier in the
batch included.

The projection into the triple store, :meth:`Sidecar.map_to_graph`, lives
in :mod:`scholargraph.mapping` behind a one-line delegate, so an ingest
compiles neither the projection nor the vocabulary it mints from, nor
:mod:`urllib.parse`; the date check is :mod:`scholargraph.datetimes`, so
it compiles no term model either.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from .datetimes import normalize_datetime
from .errors import ScholarGraphError, TermError
from .record import Record

if TYPE_CHECKING:  # pragma: no cover
    from .mapping import MapReport
    from .store import Store
    from .terms import Iri

SIDECAR_VERSION = 1
# the provider IRI a mapping mints with unless told another, as text, so an
# ingest builds no term
DEFAULT_PROVIDER = "urn:mesur:provider:default"

BIBLIO_COLUMNS = (
    "doc_id",
    "title",
    "authors",
    "collection",
    "publisher",
    "date",
    "start_page",
    "end_page",
    "volume",
    "issue",
    "doi",
)
USAGE_COLUMNS = ("event_id", "time", "agent", "session", "affiliation", "access_type", "doc_id")
CITATION_COLUMNS = ("citing_doc_id", "cited_doc_id")
Row = dict[str, Optional[str]]  # column to value; None for an empty field

_SCHEMA_SQL = """
CREATE TABLE biblio (
    doc_id TEXT PRIMARY KEY,
    title TEXT,
    authors TEXT,
    collection TEXT,
    publisher TEXT,
    date TEXT,
    start_page TEXT,
    end_page TEXT,
    volume TEXT,
    issue TEXT,
    doi TEXT UNIQUE
);
CREATE TABLE usage_events (
    event_id TEXT PRIMARY KEY,
    time TEXT NOT NULL,
    agent TEXT,
    session TEXT,
    affiliation TEXT,
    access_type TEXT,
    doc_id TEXT NOT NULL REFERENCES biblio(doc_id)
);
CREATE INDEX usage_events_doc ON usage_events(doc_id);
CREATE TABLE citation_pairs (
    citing_doc_id TEXT NOT NULL REFERENCES biblio(doc_id),
    cited_doc_id TEXT NOT NULL REFERENCES biblio(doc_id),
    PRIMARY KEY (citing_doc_id, cited_doc_id)
);
CREATE TABLE id_map (
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    iri TEXT NOT NULL,
    PRIMARY KEY (kind, key),
    UNIQUE (kind, iri)
);
"""


class SidecarError(ScholarGraphError):
    """Malformed input stream or incompatible sidecar file."""


class UnknownIdError(SidecarError):
    def __init__(self, key: str) -> None:
        super().__init__(f"unknown identifier: {key!r}")
        self.key = key


class IngestReport(Record, loaded=0, rejected=0, problems=list):
    __slots__ = ("loaded", "rejected", "problems")
    loaded: int
    rejected: int
    problems: list[tuple[int, str]]  # (line, reason); a fresh list per report

    def reject(self, line: int, reason: str) -> None:
        self.rejected += 1
        self.problems.append((line, reason))


class Resolution(Record):
    __slots__ = ("doc_id", "iri", "record")
    doc_id: str
    iri: str
    record: Row


def _valid_time(value: str) -> bool:
    try:
        normalize_datetime(value)
    except TermError:
        return False
    return True


def _read_tsv(
    lines: Iterable[str],
    allowed: tuple[str, ...],
    required: tuple[str, ...],
) -> Iterator[tuple[int, Optional[Row], Optional[str]]]:
    """Yield (line number, row dict, problem).  Exactly one of row/problem
    is set per data line.  An entirely empty stream yields nothing."""
    iterator = iter(lines)
    header_line = next(iterator, None)
    if header_line is None:
        return
    names = [part.strip() for part in header_line.rstrip("\r\n").split("\t")]
    if len(set(names)) != len(names):
        raise SidecarError("duplicate column in header")
    unknown = [n for n in names if n not in allowed]
    if unknown:
        raise SidecarError(f"unknown column(s) in header: {', '.join(unknown)}")
    missing = [n for n in required if n not in names]
    if missing:
        raise SidecarError(f"missing required column(s): {', '.join(missing)}")
    for number, raw in enumerate(iterator, start=2):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(names):
            yield number, None, f"expected {len(names)} fields, got {len(parts)}"
            continue
        row = {name: (value if value != "" else None) for name, value in zip(names, parts)}
        yield number, row, None


def _held(cursor: sqlite3.Cursor, table: str, key: Row) -> bool:
    """Whether ``table`` has a row with these ``key`` column values.  The
    table and column names are this module's own, never input."""
    where = " AND ".join(f"{column} = ?" for column in key)
    found = cursor.execute(f"SELECT 1 FROM {table} WHERE {where}", tuple(key.values()))
    return found.fetchone() is not None


def _biblio_problem(cursor: sqlite3.Cursor, row: Row) -> Optional[str]:
    doc_id, doi, date = row["doc_id"], row.get("doi"), row.get("date")
    if not doc_id:
        return "missing doc_id"
    if _held(cursor, "biblio", {"doc_id": doc_id}):
        return f"duplicate doc_id {doc_id!r}"
    if doi and _held(cursor, "biblio", {"doi": doi}):
        return f"duplicate doi {doi!r}"
    if date and not _valid_time(date):
        return f"unparseable date {date!r}"
    return None


def _usage_problem(cursor: sqlite3.Cursor, row: Row) -> Optional[str]:
    event_id, time, doc_id = row["event_id"], row["time"], row["doc_id"]
    if not event_id:
        return "missing event_id"
    if not time or not _valid_time(time):
        return f"unparseable time {time!r}"
    if not doc_id or not _held(cursor, "biblio", {"doc_id": doc_id}):
        return f"doc_id {doc_id!r} does not resolve"
    if _held(cursor, "usage_events", {"event_id": event_id}):
        return f"duplicate event_id {event_id!r}"
    return None


def _citation_problem(cursor: sqlite3.Cursor, row: Row) -> Optional[str]:
    pair = {column: row[column] for column in CITATION_COLUMNS}
    for column, doc_id in pair.items():
        if not doc_id or not _held(cursor, "biblio", {"doc_id": doc_id}):
            return f"{column} {doc_id!r} does not resolve"
    if _held(cursor, "citation_pairs", pair):
        return "duplicate citation pair {!r} -> {!r}".format(*pair.values())
    return None


class Sidecar:
    """One SQLite file holding biblio, usage, citation and id-map tables."""

    def __init__(self, path: str = ":memory:", create: bool = True) -> None:
        """Open the sidecar at ``path``, writing the schema into a file that
        has no tables; with ``create`` false, as ``map`` opens it, such a
        file is refused and left as it is."""
        self.path = path
        db: Optional[sqlite3.Connection] = None
        try:
            db = sqlite3.connect(path)
            db.execute("PRAGMA foreign_keys = ON")
            version = db.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                tables = db.execute("SELECT count(*) FROM sqlite_master WHERE type = 'table'").fetchone()[0]
                if tables:
                    raise SidecarError(f"{path}: not a sidecar file")
                if not create:
                    raise SidecarError(f"{path}: an empty file, not a sidecar; ingest records into it first")
                db.executescript(_SCHEMA_SQL)
                db.execute(f"PRAGMA user_version = {SIDECAR_VERSION}")
                db.commit()
            elif version != SIDECAR_VERSION:
                raise SidecarError(
                    f"{path}: sidecar format version {version} is not supported "
                    f"(expected {SIDECAR_VERSION})"
                )
        except BaseException as exc:
            # a refused file leaves no connection open
            if db is not None:
                db.close()
            # a directory, a missing parent or a file that is not SQLite
            if isinstance(exc, sqlite3.Error):
                raise SidecarError(f"{path}: cannot open as a sidecar: {exc}") from None
            raise
        self._db = db

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "Sidecar":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- ingestion -------------------------------------------------------------

    def ingest_biblio(self, lines: Iterable[str]) -> IngestReport:
        return self._ingest(lines, "biblio", BIBLIO_COLUMNS, ("doc_id",), _biblio_problem)

    def ingest_usage(self, lines: Iterable[str]) -> IngestReport:
        return self._ingest(lines, "usage_events", USAGE_COLUMNS, ("event_id", "time", "doc_id"), _usage_problem)

    def ingest_citations(self, lines: Iterable[str]) -> IngestReport:
        return self._ingest(lines, "citation_pairs", CITATION_COLUMNS, CITATION_COLUMNS, _citation_problem)

    def _ingest(
        self, lines: Iterable[str], table: str, columns: tuple[str, ...], required: tuple[str, ...],
        problem_of: Callable[[sqlite3.Cursor, Row], Optional[str]],
    ) -> IngestReport:
        """Load each row of ``lines`` that passes :func:`_read_tsv` and
        ``problem_of`` into ``table``; reject any other with its first
        problem.  The batch is committed once."""
        report = IngestReport()
        cursor = self._db.cursor()
        marks = ", ".join("?" * len(columns))
        insert = f"INSERT INTO {table} ({', '.join(columns)}) VALUES ({marks})"
        for number, row, problem in _read_tsv(lines, columns, required):
            if row is not None:
                problem = problem_of(cursor, row)
            if problem is not None:
                report.reject(number, problem)
                continue
            cursor.execute(insert, tuple(map(row.get, columns)))
            report.loaded += 1
        self._db.commit()
        return report

    # -- inspection -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        out = {}
        for name, table in (
            ("biblio", "biblio"),
            ("usage", "usage_events"),
            ("citations", "citation_pairs"),
            ("id_map", "id_map"),
        ):
            out[name] = self._db.execute(f"SELECT count(*) FROM {table}").fetchone()[0]
        return out

    def doc_ids(self) -> list[str]:
        rows = self._db.execute("SELECT doc_id FROM biblio ORDER BY doc_id").fetchall()
        return [row[0] for row in rows]

    def _biblio_row(self, doc_id: str) -> Optional[Row]:
        columns = ", ".join(BIBLIO_COLUMNS)
        row = self._db.execute(
            f"SELECT {columns} FROM biblio WHERE doc_id = ?", (doc_id,)
        ).fetchone()
        if row is None:
            return None
        return dict(zip(BIBLIO_COLUMNS, row))

    # -- mapping into the triple store -------------------------------------------

    def map_to_graph(
        self,
        store: Store,
        provider: Union[Iri, str] = DEFAULT_PROVIDER,
        affiliations: bool = False,
    ) -> MapReport:
        """Project the records into the store as MESUR contexts, skipping
        every context the store already holds.

        A row is decided context by context (Publishes, Uses, Citation, and
        the Affiliation context of a usage row): a context whose
        ``rdf:type`` triple is in the store is skipped with all its
        triples, and any other is projected and counted.  The type triple
        is the store's own record of what it holds, so this stays right
        when the store was deleted or replaced, or when an earlier run used
        another provider or left out affiliations.  The projection is
        columnar: each kind of text it mints is interned by one
        :meth:`Store.intern_texts` call, and the rows go in as one batch of
        three id columns through one :meth:`Store.add_rows` call, so no
        term object and no tuple is made per row.  Every doc and event is
        recorded in the id map either way, which is what :meth:`resolve`
        and :meth:`resolve_event` read.

        Only identifiers, group/agent links and times cross over; no title,
        author-name, or page literal ever does.  Counts report the contexts
        this run projected, so a second run reports 0.  The projection is
        :func:`scholargraph.mapping.map_to_graph`, imported on first call.
        """
        from .mapping import map_to_graph

        return map_to_graph(self._db, store, provider, affiliations)

    # -- resolution ---------------------------------------------------------------

    def resolve(self, key: str) -> Resolution:
        """Accepts a doc_id or a minted unit IRI; returns both plus the record."""
        row = self._db.execute(
            "SELECT key, iri FROM id_map WHERE kind = 'doc' AND key = ?", (key,)
        ).fetchone()
        if row is None:
            row = self._db.execute(
                "SELECT key, iri FROM id_map WHERE kind = 'doc' AND iri = ?", (key,)
            ).fetchone()
        if row is None:
            raise UnknownIdError(key)
        doc_id, iri = row
        record = self._biblio_row(doc_id)
        if record is None:
            raise UnknownIdError(key)
        return Resolution(doc_id=doc_id, iri=iri, record=record)

    def resolve_event(self, key: str) -> tuple[str, str]:
        """Accepts an event_id or a Uses-context IRI; returns (event_id, IRI)."""
        row = self._db.execute(
            "SELECT key, iri FROM id_map WHERE kind = 'event' AND (key = ? OR iri = ?)",
            (key, key),
        ).fetchone()
        if row is None:
            raise UnknownIdError(key)
        return (row[0], row[1])

