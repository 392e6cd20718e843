"""N-Triples import: the reader of the format that :mod:`.ntriples` writes.

One triple per line, UTF-8, ``.``-terminated.  Supported terms: IRI
references, ``_:label`` blanks, and literals (plain strings or
``"..."^^<datatype>`` with the xsd string/integer/decimal/dateTime/date/gYear
datatypes).  Language tags and any other datatype are rejected with an error
naming the offender, with its line and column.  No command reads N-Triples
but a ledger dump's load (:meth:`InferenceEngine.load_ledger`), which
imports this module when it runs, so no other command compiles it.
"""

from __future__ import annotations

import io
import re
from typing import IO, Iterable, Iterator, Union

from .errors import PositionedError
from .terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    TermError,
    Triple,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_STRING,
    datetime_literal,
)


class NTriplesParseError(PositionedError):
    """Malformed N-Triples input."""


_ECHAR = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_DATATYPE_TAGS = {
    XSD_STRING.value: Datatype.STRING,
    XSD_INTEGER.value: Datatype.INTEGER,
    XSD_DECIMAL.value: Datatype.DECIMAL,
    XSD_DATETIME.value: Datatype.DATETIME,
    XSD_DATE.value: Datatype.DATETIME,
    XSD_GYEAR.value: Datatype.DATETIME,
}

_BLANK_LABEL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")

Source = Union[str, bytes, IO[str], IO[bytes], Iterable[str]]


def _lines(source: Source) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, decoded line without terminator)."""
    if isinstance(source, bytes):
        raw: Iterable[Union[str, bytes]] = source.split(b"\n")
    elif isinstance(source, str):
        raw = source.split("\n")
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        raw = source
    else:
        raw = source  # text file object or any iterable of lines
    for number, line in enumerate(raw, start=1):
        if isinstance(line, bytes):
            line = line.rstrip(b"\r\n")
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise NTriplesParseError(f"invalid UTF-8: {exc}", number, 1) from None
        else:
            text = line.rstrip("\r\n")
        yield number, text


class _LineParser:
    def __init__(self, text: str, lineno: int) -> None:
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> NTriplesParseError:
        column = (self.pos if pos is None else pos) + 1
        return NTriplesParseError(message, self.lineno, column)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end_or_comment(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text) or self.text[self.pos] == "#"

    def _read_escape(self, what: str) -> str:
        # self.pos sits on the backslash
        start = self.pos
        self.pos += 1
        if self.pos >= len(self.text):
            raise self.error(f"dangling backslash in {what}", start)
        c = self.text[self.pos]
        self.pos += 1
        if c in ("u", "U"):
            width = 4 if c == "u" else 8
            digits = self.text[self.pos : self.pos + width]
            if len(digits) < width or not re.match(r"[0-9A-Fa-f]+\Z", digits):
                raise self.error(f"bad \\{c} escape in {what}", start)
            self.pos += width
            code = int(digits, 16)
            if code > 0x10FFFF:
                raise self.error(f"\\{c} escape out of range in {what}", start)
            return chr(code)
        if what == "IRI":
            raise self.error(f"escape \\{c} not allowed in IRI", start)
        if c not in _ECHAR:
            raise self.error(f"unknown escape \\{c} in {what}", start)
        return _ECHAR[c]

    def read_iri(self) -> Iri:
        start = self.pos
        assert self.text[self.pos] == "<"
        self.pos += 1
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated IRI", start)
            c = self.text[self.pos]
            if c == ">":
                self.pos += 1
                break
            if c == "\\":
                out.append(self._read_escape("IRI"))
                continue
            if c == "<" or c == '"' or c <= " ":
                raise self.error(f"character {c!r} not allowed in IRI")
            out.append(c)
            self.pos += 1
        try:
            return Iri("".join(out))
        except TermError as exc:
            raise self.error(str(exc), start) from None

    def read_blank(self) -> Blank:
        start = self.pos
        if not self.text.startswith("_:", self.pos):
            raise self.error("expected blank node")
        m = _BLANK_LABEL_RE.match(self.text, self.pos + 2)
        if m is None:
            raise self.error("missing blank node label", start)
        self.pos = m.end()
        try:
            return Blank(m.group())
        except TermError as exc:
            raise self.error(str(exc), start) from None

    def read_string_body(self) -> str:
        start = self.pos
        assert self.text[self.pos] == '"'
        self.pos += 1
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string literal", start)
            c = self.text[self.pos]
            if c == '"':
                self.pos += 1
                return "".join(out)
            if c == "\\":
                out.append(self._read_escape("string"))
                continue
            out.append(c)
            self.pos += 1

    def read_literal(self) -> Literal:
        start = self.pos
        lexical = self.read_string_body()
        if self.pos < len(self.text) and self.text[self.pos] == "@":
            raise self.error("language-tagged literals are not supported")
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            if self.pos >= len(self.text) or self.text[self.pos] != "<":
                raise self.error("expected datatype IRI after ^^")
            dt_pos = self.pos
            datatype_iri = self.read_iri()
            tag = _DATATYPE_TAGS.get(datatype_iri.value)
            if tag is None:
                raise self.error(
                    f"unsupported datatype IRI <{datatype_iri.value}>", dt_pos
                )
        else:
            tag = Datatype.STRING
        try:
            if tag is Datatype.DATETIME:
                return datetime_literal(lexical)
            return Literal(lexical, tag)
        except TermError as exc:
            raise self.error(str(exc), start) from None

    def read_subject(self) -> Iri | Blank:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("expected subject")
        c = self.text[self.pos]
        if c == "<":
            return self.read_iri()
        if c == "_":
            return self.read_blank()
        if c == '"':
            raise self.error("literal in subject position")
        raise self.error(f"expected subject, found {c!r}")

    def read_predicate(self) -> Iri:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != "<":
            raise self.error("expected predicate IRI")
        return self.read_iri()

    def read_object(self) -> Iri | Blank | Literal:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("expected object")
        c = self.text[self.pos]
        if c == "<":
            return self.read_iri()
        if c == "_":
            return self.read_blank()
        if c == '"':
            return self.read_literal()
        raise self.error(f"expected object, found {c!r}")

    def parse(self) -> Triple:
        subject = self.read_subject()
        predicate = self.read_predicate()
        obj = self.read_object()
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ".":
            raise self.error("expected '.' terminator")
        self.pos += 1
        if not self.at_end_or_comment():
            raise self.error("unexpected content after '.'")
        return Triple(subject, predicate, obj)


def parse_ntriples(source: Source) -> Iterator[Triple]:
    """Parse N-Triples from a string, bytes, file object or line iterable.

    Yields triples in input order (duplicates included; the store collapses
    them).  Raises :class:`NTriplesParseError` with the offending line and
    column on malformed input.
    """
    for lineno, text in _lines(source):
        parser = _LineParser(text, lineno)
        if parser.at_end_or_comment():
            continue
        yield parser.parse()
