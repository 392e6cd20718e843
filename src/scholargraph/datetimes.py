"""ISO-8601 dates and times in the shapes a datetime literal holds.

A datetime literal's lexical form is a year (``2007``), a date
(``2007-05-01``) or a timestamp (``2007-05-01T10:30:00``, with any
fraction and offset :meth:`datetime.isoformat` writes).
:func:`normalize_datetime` turns an input string into that form; the term
model (:func:`scholargraph.terms.datetime_literal`) and the sidecar's ingest
check both call it, so an ingest compiles no term model.
:func:`normalize_datetimes` does the same for a list.
"""

from __future__ import annotations

import datetime as _dt
import re
from collections import deque
from typing import Iterator, Optional

from .errors import TermError

_YEAR = r"[0-9]{4}"
_DATE = r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
_YEAR_RE = re.compile(_YEAR + r"\Z")
_DATE_RE = re.compile(_DATE + r"\Z")
_DATE_LINES = rf"(?m)^{_DATE}$"
_TIMESTAMP_LINES = r"(?m)^.{10}T.*$"
# the lines whose normal form a list reaches in C: a year, a date, or a date
# and a time to the second, joined by "T" or one space
_PLAIN_LINES = rf"(?:(?:{_YEAR}|{_DATE}(?:[T ][0-9]{{2}}:[0-9]{{2}}:[0-9]{{2}})?)\n)*\Z"
# the values a list check takes as one text: ``re`` keeps state for each
# pass of a repetition over the lines, so a chunk bounds it
_CHUNK = 4096


def normalize_datetime(lexical: str) -> str:
    """The lexical form of the datetime literal that ``lexical`` names.

    Accepts a bare year, a date, or a timestamp with either 'T' or a single
    space between date and time ('Z' is folded to '+00:00').  The result is
    canonical: re-normalizing it is the identity.  Anything else raises
    :class:`~scholargraph.errors.TermError`.
    """
    lex = lexical.strip()
    if _YEAR_RE.match(lex):
        return lex
    if _DATE_RE.match(lex):
        try:
            _dt.date.fromisoformat(lex)
        except ValueError as exc:
            raise TermError(f"not an ISO-8601 date: {lexical!r}") from exc
        return lex
    if len(lex) > 10 and lex[10] in ("T", " "):
        candidate = lex[:10] + "T" + lex[11:].replace("Z", "+00:00")
        try:
            parsed = _dt.datetime.fromisoformat(candidate)
        except ValueError as exc:
            raise TermError(f"not an ISO-8601 date/time: {lexical!r}") from exc
        return parsed.isoformat()
    raise TermError(f"not an ISO-8601 date/time: {lexical!r}")


def normalize_datetimes(values: list[str]) -> list[str]:
    """:func:`normalize_datetime` of each value, in order, list-wise.

    When every value is a year, a date, or a date and a time to the second
    joined by "T" or one space, the values are checked as a few texts
    (:func:`line_texts`): one regex, then the calendar (:func:`real_dates`),
    and each space becomes the "T" that :func:`normalize_datetime` puts
    there.  Any other list is normalized value by value, so it raises what
    the first bad value raises.
    """
    out: list[str] = []
    for text in line_texts(values):
        if text is None or not re.match(_PLAIN_LINES, text):
            break
        # only a date and a time can be joined by a space
        text = text.replace(" ", "T")
        if not real_dates(text):
            break
        out += text[:-1].split("\n")
    else:
        return out
    return list(map(normalize_datetime, values))


def line_texts(values: list[str]) -> Iterator[Optional[str]]:
    """The values, :data:`_CHUNK` at a time, each chunk as one text of
    newline-ended lines, for a check by one regex in C; None for a chunk in
    which a value holds a newline."""
    for start in range(0, len(values), _CHUNK):
        chunk = values[start : start + _CHUNK]
        text = "\n".join(chunk) + "\n"
        yield text if text.count("\n") == len(chunk) else None


def real_dates(text: str) -> bool:
    """Whether each line of ``text`` that is a date, or a timestamp with
    "T" at index 10, names a real date or date and time."""
    try:
        deque(map(_dt.date.fromisoformat, re.findall(_DATE_LINES, text)), maxlen=0)
        deque(map(_dt.datetime.fromisoformat, re.findall(_TIMESTAMP_LINES, text)), maxlen=0)
    except ValueError:
        return False
    return True
