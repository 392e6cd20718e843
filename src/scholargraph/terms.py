"""RDF term model: IRIs, typed literals, blank nodes, triples, namespaces.

Literals carry one of four datatype tags (string, integer, decimal,
datetime).  Datetime literals keep their precision in the lexical form:
``"2007"`` is a year, ``"2007-05-01"`` a date, ``"2007-05-01T10:30:00"`` a
timestamp.  Comparison and serialization code downstream rely on that shape,
so ``Literal`` validates it on construction; use the ``*_literal`` helpers
when building literals from raw application data.
"""

from __future__ import annotations

import datetime as _dt
import re
from collections import deque
from enum import IntEnum
from itertools import repeat
from typing import TYPE_CHECKING, Union

from .errors import ScholarGraphError
from .record import FrozenRecord

if TYPE_CHECKING:
    from decimal import Decimal

# Namespace bases.
MESUR = "http://www.mesur.org/schemas/2007-01/mesur#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"


class Datatype(IntEnum):
    """Datatype tag of a literal.  Order matters only for canonical sorting."""

    STRING = 0
    INTEGER = 1
    DECIMAL = 2
    DATETIME = 3


class TermError(ScholarGraphError):
    """A term or triple violated a structural invariant."""


_WHITESPACE_RE = re.compile(r"\s")  # the code points str.isspace() accepts
_BLANK = r"[A-Za-z0-9_][A-Za-z0-9_.-]*"
_INTEGER = r"[+-]?[0-9]+"
_DECIMAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_YEAR = r"[0-9]{4}"
_DATE = r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
_INTEGER_RE = re.compile(_INTEGER + r"\Z")
_DECIMAL_RE = re.compile(_DECIMAL + r"\Z")
_YEAR_RE = re.compile(_YEAR + r"\Z")
_DATE_RE = re.compile(_DATE + r"\Z")


def _valid_datetime_lexical(lex: str) -> bool:
    """True if ``lex`` is one of the three normalized datetime shapes."""
    if _YEAR_RE.match(lex):
        return True
    if _DATE_RE.match(lex):
        try:
            _dt.date.fromisoformat(lex)
        except ValueError:
            return False
        return True
    if len(lex) > 10 and lex[10] == "T":
        try:
            _dt.datetime.fromisoformat(lex)
        except ValueError:
            return False
        return True
    return False


# The term classes are written out by hand: they are built and hashed on
# every hot path.  They refuse assignment, so __init__ sets each slot
# through object.__setattr__.
_setattr = object.__setattr__


class Iri(FrozenRecord):
    """An IRI reference.  Must be nonempty and contain no whitespace."""

    __slots__ = ("value",)
    value: str

    def __init__(self, value: str) -> None:
        if not value:
            raise TermError("IRI must be nonempty")
        if _WHITESPACE_RE.search(value):
            raise TermError(f"IRI contains whitespace: {value!r}")
        _setattr(self, "value", value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"<{self.value}>"


class Blank(FrozenRecord):
    """A blank node with a local label."""

    __slots__ = ("label",)
    label: str

    def __init__(self, label: str) -> None:
        if not label:
            raise TermError("blank node label must be nonempty")
        if not re.match(_BLANK + r"\Z", label) or label.endswith("."):
            raise TermError(f"bad blank node label: {label!r}")
        _setattr(self, "label", label)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.label == other.label
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.label,))

    def __repr__(self) -> str:
        return f"_:{self.label}"


class Literal(FrozenRecord):
    """A typed literal: lexical form plus datatype tag.

    Equality is lexical: ``Literal("2", INTEGER)`` and
    ``Literal("+2", INTEGER)`` are distinct terms.
    """

    __slots__ = ("lexical", "datatype")
    lexical: str
    datatype: Datatype

    def __init__(self, lexical: str, datatype: Datatype) -> None:
        if datatype is Datatype.STRING:
            pass
        elif datatype is Datatype.INTEGER:
            if not _INTEGER_RE.match(lexical):
                raise TermError(f"not an integer lexical form: {lexical!r}")
        elif datatype is Datatype.DECIMAL:
            if not _DECIMAL_RE.match(lexical):
                raise TermError(f"not a decimal lexical form: {lexical!r}")
        elif datatype is Datatype.DATETIME:
            if not _valid_datetime_lexical(lexical):
                raise TermError(
                    f"not a normalized ISO-8601 date/time: {lexical!r} "
                    "(expected YYYY, YYYY-MM-DD, or YYYY-MM-DDThh:mm:ss[...])"
                )
        else:  # pragma: no cover - enum is closed
            raise TermError(f"unknown datatype: {datatype!r}")
        _setattr(self, "lexical", lexical)
        _setattr(self, "datatype", datatype)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.lexical == other.lexical and self.datatype == other.datatype
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lexical, self.datatype))

    @property
    def precision(self) -> str:
        """For datetime literals: ``"year"``, ``"date"`` or ``"timestamp"``."""
        if self.datatype is not Datatype.DATETIME:
            raise TermError("precision is only defined for datetime literals")
        if len(self.lexical) == 4:
            return "year"
        if len(self.lexical) == 10:
            return "date"
        return "timestamp"

    def year(self) -> int:
        """Leading year of a datetime literal (also accepts integers)."""
        if self.datatype is Datatype.DATETIME:
            return int(self.lexical[:4])
        if self.datatype is Datatype.INTEGER:
            return int(self.lexical)
        raise TermError(f"no year in a {self.datatype.name.lower()} literal")

    def __repr__(self) -> str:
        if self.datatype is Datatype.STRING:
            return f'"{self.lexical}"'
        return f'"{self.lexical}"^^{self.datatype.name.lower()}'


Term = Union[Iri, Blank, Literal]


def string_literal(value: str) -> Literal:
    return Literal(value, Datatype.STRING)


def integer_literal(value: int | str) -> Literal:
    return Literal(str(value), Datatype.INTEGER)


def decimal_literal(value: Decimal | int | str) -> Literal:
    from decimal import Decimal

    if not isinstance(value, Decimal):
        value = Decimal(str(value))
    return Literal(str(value), Datatype.DECIMAL)


def year_literal(year: int) -> Literal:
    if not 0 < year <= 9999:
        raise TermError(f"year out of range: {year}")
    return Literal(f"{year:04d}", Datatype.DATETIME)


def datetime_literal(lexical: str) -> Literal:
    """Normalize an ISO-8601-ish string into a datetime literal.

    Accepts a bare year, a date, or a timestamp with either 'T' or a single
    space between date and time ('Z' is folded to '+00:00').  The result is
    canonical: re-normalizing it is the identity.
    """
    lex = lexical.strip()
    if _YEAR_RE.match(lex):
        return Literal(lex, Datatype.DATETIME)
    if _DATE_RE.match(lex):
        try:
            _dt.date.fromisoformat(lex)
        except ValueError as exc:
            raise TermError(f"not an ISO-8601 date: {lexical!r}") from exc
        return Literal(lex, Datatype.DATETIME)
    if len(lex) > 10 and lex[10] in ("T", " "):
        candidate = lex[:10] + "T" + lex[11:].replace("Z", "+00:00")
        try:
            parsed = _dt.datetime.fromisoformat(candidate)
        except ValueError as exc:
            raise TermError(f"not an ISO-8601 date/time: {lexical!r}") from exc
        return Literal(parsed.isoformat(), Datatype.DATETIME)
    raise TermError(f"not an ISO-8601 date/time: {lexical!r}")


def datetime_sort_value(lit: Literal) -> tuple:
    """Chronological comparison key honoring the literal's precision.

    Year-precision values compare as bare years; finer values compare
    componentwise, so a date sorts before any timestamp within that date.
    """
    lex = lit.lexical
    if len(lex) == 4:
        return (int(lex),)
    if len(lex) == 10:
        d = _dt.date.fromisoformat(lex)
        return (d.year, d.month, d.day)
    t = _dt.datetime.fromisoformat(lex)
    return (t.year, t.month, t.day, t.hour, t.minute, t.second, t.microsecond)


class Triple(FrozenRecord):
    """One statement.  Subjects are IRIs or blanks, predicates are IRIs."""

    __slots__ = ("subject", "predicate", "object")
    subject: Union[Iri, Blank]
    predicate: Iri
    object: Term

    def __init__(self, subject: Union[Iri, Blank], predicate: Iri, object: Term) -> None:
        if isinstance(subject, Literal):
            raise TermError("literal in subject position")
        if not isinstance(subject, (Iri, Blank)):
            raise TermError(f"bad subject: {subject!r}")
        if not isinstance(predicate, Iri):
            raise TermError(f"predicate must be an IRI: {predicate!r}")
        if not isinstance(object, (Iri, Blank, Literal)):
            raise TermError(f"bad object: {object!r}")
        _setattr(self, "subject", subject)
        _setattr(self, "predicate", predicate)
        _setattr(self, "object", object)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.subject == other.subject
                and self.predicate == other.predicate
                and self.object == other.object
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.subject, self.predicate, self.object))


def term_sort_key(term: Term) -> tuple:
    """Total deterministic order over terms: IRIs, then blanks, then literals."""
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, Blank):
        return (1, term.label)
    return (2, int(term.datatype), term.lexical)


# -- many terms of one kind at once ---------------------------------------------
#
# A snapshot load checks every term of the store but builds none.  These
# checks take a whole list by the constructors' rules in a few C-level passes
# (a regex over the values joined by newlines, which the count of newlines
# shows no value holds).  If a check fails, the constructors run over the
# list, so the error is the one the first bad value's constructor raises.
# The patterns are compiled (and cached by ``re``) on first use, so a
# command that checks no term list does not compile them.

_BLANK_LINES = rf"(?:{_BLANK}(?<!\.)\n)*\Z"
_LEXICAL_LINES = {
    Datatype.INTEGER: rf"(?:(?:{_INTEGER})\n)*\Z",
    Datatype.DECIMAL: rf"(?:(?:{_DECIMAL})\n)*\Z",
    # a year, a date, or anything with a "T" at index 10 (a timestamp)
    Datatype.DATETIME: rf"(?:(?:{_YEAR}|{_DATE}|.{{10}}T.*)\n)*\Z",
}
_DATE_LINES = rf"(?m)^{_DATE}$"
_TIMESTAMP_LINES = r"(?m)^.{10}T.*$"


def check_iris(values: list[str]) -> None:
    """Raise what ``Iri(v)`` raises for the first bad value, checked list-wise."""
    if not all(values) or _WHITESPACE_RE.search("".join(values)):
        _construct(Iri, values)


def check_blanks(labels: list[str]) -> None:
    """Raise what ``Blank(v)`` raises for the first bad label, checked list-wise."""
    text = _lines(labels)
    if text is None or not re.match(_BLANK_LINES, text):
        _construct(Blank, labels)


def check_literals(lexicals: list[str], datatype: Datatype) -> None:
    """Raise what ``Literal(v, datatype)`` raises for the first bad lexical
    form, checked list-wise."""
    if datatype is not Datatype.STRING and not _valid_lexicals(lexicals, datatype):
        _construct(Literal, lexicals, repeat(datatype))


def _construct(cls: type, *columns) -> None:
    """Run the constructor of ``cls`` over ``columns``, raising its error."""
    deque(map(cls, *columns), maxlen=0)


def _lines(values: list[str]) -> str | None:
    """Each value followed by a newline; None if a value holds a newline."""
    text = "\n".join(values) + "\n"
    return text if text.count("\n") == len(values) else None


def _valid_lexicals(lexicals: list[str], datatype: Datatype) -> bool:
    text = _lines(lexicals)
    if text is None or not re.match(_LEXICAL_LINES[datatype], text):
        return False
    if datatype is Datatype.DATETIME:
        try:
            deque(map(_dt.date.fromisoformat, re.findall(_DATE_LINES, text)), maxlen=0)
            deque(map(_dt.datetime.fromisoformat, re.findall(_TIMESTAMP_LINES, text)), maxlen=0)
        except ValueError:
            return False
    return True


RDF_TYPE = Iri(RDF_NS + "type")

# Datatype IRIs understood by the N-Triples layer.
XSD_STRING = Iri(XSD_NS + "string")
XSD_INTEGER = Iri(XSD_NS + "integer")
XSD_DECIMAL = Iri(XSD_NS + "decimal")
XSD_DATETIME = Iri(XSD_NS + "dateTime")
XSD_DATE = Iri(XSD_NS + "date")
XSD_GYEAR = Iri(XSD_NS + "gYear")


class NamespaceError(ScholarGraphError):
    """Prefix registration or expansion failed."""


class UnknownPrefixError(NamespaceError):
    def __init__(self, prefix: str) -> None:
        super().__init__(f"unknown namespace prefix: {prefix!r}")
        self.prefix = prefix


class NamespaceTable:
    """Prefix-to-base mapping with expansion and longest-match compaction.

    Prefixes are unique; re-registering a prefix with a different base is an
    error, re-registering the same binding is a no-op.
    """

    _DEFAULTS = {
        "mesur": MESUR,
        "rdf": RDF_NS,
        "rdfs": RDFS_NS,
        "owl": OWL_NS,
        "xsd": XSD_NS,
    }

    def __init__(self, bindings: dict[str, str] | None = None) -> None:
        self._by_prefix: dict[str, str] = dict(self._DEFAULTS)
        for prefix, base in (bindings or {}).items():
            self.register(prefix, base)

    def register(self, prefix: str, base: str) -> None:
        if not prefix or not re.match(r"[A-Za-z][A-Za-z0-9_.-]*\Z", prefix):
            raise NamespaceError(f"bad namespace prefix: {prefix!r}")
        Iri(base)  # validates shape
        existing = self._by_prefix.get(prefix)
        if existing is not None and existing != base:
            raise NamespaceError(
                f"prefix {prefix!r} is already bound to {existing!r}"
            )
        self._by_prefix[prefix] = base

    def base(self, prefix: str) -> str:
        try:
            return self._by_prefix[prefix]
        except KeyError:
            raise UnknownPrefixError(prefix) from None

    def is_registered(self, prefix: str) -> bool:
        return prefix in self._by_prefix

    def expand(self, name: str) -> Iri:
        """Expand ``prefix:local`` to an IRI."""
        prefix, sep, local = name.partition(":")
        if not sep:
            raise NamespaceError(f"not a prefixed name: {name!r}")
        return Iri(self.base(prefix) + local)

    def compact(self, iri: Iri | str) -> str | None:
        """Compact an IRI to ``prefix:local`` using the longest matching base."""
        value = iri.value if isinstance(iri, Iri) else iri
        best: tuple[int, str] | None = None
        for prefix, base in self._by_prefix.items():
            if value.startswith(base) and (best is None or len(base) > best[0]):
                best = (len(base), prefix)
        if best is None:
            return None
        _, prefix = best
        return f"{prefix}:{value[len(self._by_prefix[prefix]):]}"
