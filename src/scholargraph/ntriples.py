"""N-Triples export.

One triple per line, UTF-8, ``.``-terminated.  Serialization is canonical:
strings stay untyped, numbers carry their xsd type, and datetimes pick
gYear/date/dateTime by precision, so ``parse(serialize(g))`` reproduces
``g`` exactly.  N-Triples is an export only: the package reads no
N-Triples back, since its one on-disk format is the store snapshot.
"""

from __future__ import annotations

import re
from typing import IO, Sequence

from .terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    Term,
    Triple,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_GYEAR,
    XSD_INTEGER,
)

_STRING_SPECIAL = re.compile(r'[\\"\x00-\x1f\x7f]')
_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_IRI_SPECIAL = re.compile(r'[\x00-\x20<>"{}|^`\\\x7f]')


def _unicode_escape(match: re.Match) -> str:
    return f"\\u{ord(match.group()):04X}"


def _string_escape(match: re.Match) -> str:
    return _STRING_ESCAPES.get(match.group()) or _unicode_escape(match)


def _escape_string(value: str) -> str:
    return _STRING_SPECIAL.sub(_string_escape, value)


def _escape_iri(value: str) -> str:
    return _IRI_SPECIAL.sub(_unicode_escape, value)


_DATETIME_TYPES = {"year": XSD_GYEAR, "date": XSD_DATE, "timestamp": XSD_DATETIME}


def serialize_term(term: Iri | Blank | Literal) -> str:
    if isinstance(term, Iri):
        return f"<{_escape_iri(term.value)}>"
    if isinstance(term, Blank):
        return f"_:{term.label}"
    body = f'"{_escape_string(term.lexical)}"'
    if term.datatype is Datatype.STRING:
        return body
    if term.datatype is Datatype.INTEGER:
        return f"{body}^^<{XSD_INTEGER.value}>"
    if term.datatype is Datatype.DECIMAL:
        return f"{body}^^<{XSD_DECIMAL.value}>"
    return f"{body}^^<{_DATETIME_TYPES[term.precision].value}>"


def serialize_triple(triple: Triple) -> str:
    return (
        f"{serialize_term(triple.subject)} "
        f"{serialize_term(triple.predicate)} "
        f"{serialize_term(triple.object)} ."
    )


def write_ntriples(terms: Sequence[Term], run: Sequence[int], fp: IO[bytes]) -> int:
    """Write ``run``, flat (s, p, o) ids into ``terms`` as
    :meth:`Store.canonical_run` gives them, one line per row in its order,
    with each term serialized once; returns the row count."""
    names = [serialize_term(term).encode("utf-8") for term in terms]
    columns = (map(names.__getitem__, run[k::3]) for k in range(3))
    fp.writelines(map(b"%s %s %s .\n".__mod__, zip(*columns)))
    return len(run) // 3
