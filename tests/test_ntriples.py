import io
import random

import pytest

from scholargraph.ntriples import (
    _escape_iri,
    _escape_string,
    serialize_term,
    serialize_triple,
    write_ntriples,
)
from scholargraph.terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    TermError,
    Triple,
    datetime_literal,
    decimal_literal,
    integer_literal,
    string_literal,
    year_literal,
)

from oracles import escape_iri_loop, escape_string_loop, parse_canonical_ntriples, random_context_store


def rt(line):
    return parse_canonical_ntriples(f"{line}\n".encode("utf-8"))


def test_parse_basic_triple():
    (t,) = rt("<urn:s> <urn:p> <urn:o> .")
    assert t == Triple(Iri("urn:s"), Iri("urn:p"), Iri("urn:o"))


def test_parse_blank_nodes():
    (t,) = rt("_:a <urn:p> _:b .")
    assert t.subject == Blank("a")
    assert t.object == Blank("b")


def test_parse_string_with_escapes():
    (t,) = rt('<urn:s> <urn:p> "line\\nbreak \\"q\\" \\u00e9" .')
    assert t.object == string_literal('line\nbreak "q" é')


def test_parse_typed_literals():
    (t,) = rt('<urn:s> <urn:p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    assert t.object == integer_literal(42)
    (t,) = rt('<urn:s> <urn:p> "2.5"^^<http://www.w3.org/2001/XMLSchema#decimal> .')
    assert t.object == decimal_literal("2.5")
    (t,) = rt('<urn:s> <urn:p> "2007"^^<http://www.w3.org/2001/XMLSchema#gYear> .')
    assert t.object == year_literal(2007)
    (t,) = rt('<urn:s> <urn:p> "2006-09-27"^^<http://www.w3.org/2001/XMLSchema#date> .')
    assert t.object == datetime_literal("2006-09-27")


def test_parse_rejects_literal_subject():
    with pytest.raises(TermError):
        rt('"lit" <urn:p> <urn:o> .')


def test_serialize_strings_untyped():
    line = serialize_triple(Triple(Iri("urn:s"), Iri("urn:p"), string_literal("plain")))
    assert line == '<urn:s> <urn:p> "plain" .'


def test_serialize_datetime_by_precision():
    assert 'gYear' in serialize_term(year_literal(2007))
    assert '#date>' in serialize_term(datetime_literal("2006-09-27"))
    assert 'dateTime' in serialize_term(datetime_literal("2006-09-27 01:02:03"))


def test_control_characters_escaped():
    line = serialize_triple(Triple(Iri("urn:s"), Iri("urn:p"), string_literal("a\x00b")))
    assert "\\u0000" in line
    (t,) = rt(line)
    assert t.object.lexical == "a\x00b"


def test_escaping_matches_the_character_loops():
    rng = random.Random(20261018)
    alphabet = [chr(c) for c in range(128)] + list("é€ñ漢\u2028\U0001F600\x80\xa0")
    for _ in range(20000):
        value = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        assert _escape_string(value) == escape_string_loop(value), repr(value)
        assert _escape_iri(value) == escape_iri_loop(value), repr(value)


def written(triples) -> bytes:
    """What ``write_ntriples`` writes for ``triples``, in their order, from
    a term table in first-use order and a run of ids into it."""
    terms = list(dict.fromkeys(term for t in triples for term in (t.subject, t.predicate, t.object)))
    number = {term: n for n, term in enumerate(terms)}
    run = [number[term] for t in triples for term in (t.subject, t.predicate, t.object)]
    buf = io.BytesIO()
    assert write_ntriples(terms, run, buf) == len(triples)
    return buf.getvalue()


def test_round_trip_every_term_kind():
    triples = [
        Triple(Iri("urn:s"), Iri("urn:p"), Iri("urn:oé")),
        Triple(Blank("node1"), Iri("urn:p"), string_literal("tab\there")),
        Triple(Iri("urn:s"), Iri("urn:p"), integer_literal(-5)),
        Triple(Iri("urn:s"), Iri("urn:p"), decimal_literal("0.000001")),
        Triple(Iri("urn:s"), Iri("urn:p"), year_literal(999)),
        Triple(Iri("urn:s"), Iri("urn:p"), datetime_literal("2006-09-27 00:00:03")),
    ]
    assert parse_canonical_ntriples(written(triples)) == triples
    lines = "".join(f"{serialize_triple(t)}\n" for t in triples)
    assert parse_canonical_ntriples(lines.encode("utf-8")) == triples


def test_round_trip_random_store():
    rng = random.Random(20260815)
    store = random_context_store(rng, 150)
    original = set(store.triples())
    buf = io.BytesIO()
    assert write_ntriples(*store.canonical_run(), buf) == len(original)
    back = parse_canonical_ntriples(buf.getvalue())
    assert len(back) == len(original) and set(back) == original


def test_write_ntriples_returns_count():
    buf = io.BytesIO()
    n = write_ntriples([Iri("urn:s"), Iri("urn:p"), Iri("urn:o")], [0, 1, 2], buf)
    assert n == 1
    assert buf.getvalue().endswith(b" .\n")
