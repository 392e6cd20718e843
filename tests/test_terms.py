import copy
import pickle
import sys

import pytest

from scholargraph.terms import (
    Blank,
    Datatype,
    Iri,
    Literal,
    NamespaceTable,
    TermError,
    Triple,
    UnknownPrefixError,
    datetime_literal,
    datetime_sort_value,
    decimal_literal,
    integer_literal,
    check_blanks,
    check_iris,
    check_literals,
    string_literal,
    term_sort_key,
    year_literal,
)


def test_iri_rejects_whitespace_and_empty():
    with pytest.raises(TermError):
        Iri("")
    with pytest.raises(TermError):
        Iri("urn:has space")
    assert Iri("urn:ok").value == "urn:ok"
    for code in range(sys.maxunicode + 1):
        c = chr(code)
        if c.isspace():
            with pytest.raises(TermError):
                Iri(f"urn:a{c}b")
        elif code % 97 == 0 or code < 0x3100:
            assert Iri(f"urn:a{c}b").value == f"urn:a{c}b"


def test_blank_label_rules():
    assert Blank("a1").label == "a1"
    with pytest.raises(TermError):
        Blank("")
    with pytest.raises(TermError):
        Blank("has space")


def test_string_literal_any_text():
    lit = string_literal("hello\nworld\t\"quoted\"")
    assert lit.datatype == Datatype.STRING
    assert lit.lexical == "hello\nworld\t\"quoted\""


def test_integer_literal_lexical_check():
    assert integer_literal(42).lexical == "42"
    assert integer_literal("-7").lexical == "-7"
    with pytest.raises(TermError):
        Literal("4.2", Datatype.INTEGER)
    with pytest.raises(TermError):
        Literal("", Datatype.INTEGER)


def test_decimal_literal_lexical_check():
    assert decimal_literal("2.500000").lexical == "2.500000"
    assert decimal_literal(3).lexical == "3"
    with pytest.raises(TermError):
        Literal("abc", Datatype.DECIMAL)


def test_year_literal_range():
    assert year_literal(2007).lexical == "2007"
    assert year_literal(800).lexical == "0800"
    with pytest.raises(TermError):
        year_literal(0)
    with pytest.raises(TermError):
        year_literal(10000)


def test_datetime_precision_from_shape():
    assert year_literal(2007).precision == "year"
    assert datetime_literal("2006-09-27").precision == "date"
    assert datetime_literal("2006-09-27 00:00:03").precision == "timestamp"
    assert datetime_literal("2006-09-27T00:00:03").precision == "timestamp"


def test_datetime_space_normalized_to_t():
    lit = datetime_literal("2006-09-27 00:00:03")
    assert "T" in lit.lexical
    assert lit.year() == 2006


def test_datetime_rejects_garbage():
    for bad in ("200", "2006-13-01", "2006-02-30", "yesterday", "2006/09/27"):
        with pytest.raises(TermError):
            datetime_literal(bad)


def test_datetime_sort_value_orders_precisions():
    a = year_literal(2006)
    b = datetime_literal("2006-09-27")
    c = datetime_literal("2006-09-27 10:00:00")
    d = year_literal(2007)
    values = [datetime_sort_value(x) for x in (a, b, c, d)]
    assert values == sorted(values)


def test_literal_year_for_integers():
    assert integer_literal(2007).year() == 2007


def test_triple_rejects_literal_subject_and_noniri_predicate():
    with pytest.raises(TermError):
        Triple(string_literal("x"), Iri("urn:p"), Iri("urn:o"))
    with pytest.raises(TermError):
        Triple(Iri("urn:s"), Blank("b"), Iri("urn:o"))
    t = Triple(Blank("b"), Iri("urn:p"), string_literal("v"))
    assert t.subject == Blank("b")


def test_term_sort_key_total_order():
    terms = [
        string_literal("zz"),
        integer_literal(5),
        Iri("urn:b"),
        Blank("x"),
        Iri("urn:a"),
        decimal_literal("1.5"),
        year_literal(2001),
    ]
    ordered = sorted(terms, key=term_sort_key)
    kinds = [term_sort_key(t)[0] for t in ordered]
    assert kinds == sorted(kinds)
    # IRIs before blanks before literals
    assert isinstance(ordered[0], Iri) and isinstance(ordered[2], Blank)


def test_namespace_preload_and_register():
    ns = NamespaceTable()
    assert ns.is_registered("mesur")
    assert ns.expand("rdf:type").value.endswith("#type")
    ns.register("lanl", "http://library.lanl.gov/")
    assert ns.expand("lanl:marko") == Iri("http://library.lanl.gov/marko")
    # same binding again is fine, different binding is not
    ns.register("lanl", "http://library.lanl.gov/")
    with pytest.raises(Exception):
        ns.register("lanl", "http://other.example/")


def test_namespace_expand_unknown_prefix():
    ns = NamespaceTable()
    with pytest.raises(UnknownPrefixError):
        ns.expand("nosuch:name")


def test_namespace_compact_longest_match():
    ns = NamespaceTable()
    ns.register("a", "http://x.example/")
    ns.register("b", "http://x.example/deep/")
    assert ns.compact("http://x.example/deep/leaf") == "b:leaf"
    assert ns.compact("http://x.example/leaf") == "a:leaf"
    assert ns.compact("http://unrelated.example/x") is None


# -- value semantics of the term classes ---------------------------------------


def test_terms_equal_only_within_their_class():
    assert Iri("x") == Iri("x") and Iri("x") != Iri("y")
    assert Iri("x") != Blank("x")
    assert Blank("x") != Iri("x")
    assert Literal("2", Datatype.INTEGER) != Literal("2", Datatype.STRING)
    assert Literal("2", Datatype.INTEGER) != Literal("+2", Datatype.INTEGER)
    assert Iri("x") != "x" and Literal("x", Datatype.STRING) != "x"
    triple = Triple(Iri("urn:s"), Iri("urn:p"), Literal("1", Datatype.INTEGER))
    assert triple == Triple(Iri("urn:s"), Iri("urn:p"), Literal("1", Datatype.INTEGER))
    assert triple != Triple(Iri("urn:s"), Iri("urn:p"), Literal("1", Datatype.DECIMAL))


def test_terms_hash_as_the_tuple_of_their_fields():
    # set and dict order, and so every output under a fixed hash seed,
    # depend on these values
    for value in ("urn:a", "http://example.org/x#y", "é"):
        assert hash(Iri(value)) == hash((value,))
    assert hash(Blank("b1")) == hash(("b1",))
    literal = Literal("2007", Datatype.DATETIME)
    assert hash(literal) == hash(("2007", Datatype.DATETIME)) == hash(("2007", 3))
    s, p = Iri("urn:s"), Iri("urn:p")
    assert hash(Triple(s, p, literal)) == hash((s, p, literal))


def test_term_fields_cannot_be_assigned():
    triple = Triple(Iri("urn:s"), Iri("urn:p"), Blank("o"))
    for term, field in (
        (Iri("urn:a"), "value"),
        (Blank("b"), "label"),
        (Literal("1", Datatype.INTEGER), "lexical"),
        (Literal("1", Datatype.INTEGER), "datatype"),
        (triple, "object"),
    ):
        with pytest.raises(AttributeError):
            setattr(term, field, getattr(term, field))
        with pytest.raises(AttributeError):
            delattr(term, field)


def test_term_reprs():
    s, p = Iri("urn:s"), Iri("urn:p")
    assert repr(s) == "<urn:s>"
    assert repr(Blank("b1")) == "_:b1"
    assert repr(Literal("x", Datatype.STRING)) == '"x"'
    assert repr(Literal("2", Datatype.INTEGER)) == '"2"^^integer'
    assert repr(Literal("2007-05-01", Datatype.DATETIME)) == '"2007-05-01"^^datetime'
    assert repr(Triple(s, p, Literal("2", Datatype.INTEGER))) == (
        'Triple(subject=<urn:s>, predicate=<urn:p>, object="2"^^integer)'
    )


def test_list_wise_checks_raise_what_the_constructors_raise():
    check_iris(["urn:a", "urn:b"])
    check_blanks(["b1", "x.y"])
    check_literals(["1", "-2"], Datatype.INTEGER)
    check_literals(["2007", "2007-05-01", "2007-05-01T10:30:00"], Datatype.DATETIME)
    check_literals(["a b", "line\nbreak"], Datatype.STRING)
    bad = [
        (check_iris, (["urn:a", "urn:b c", ""],), lambda: Iri("urn:b c")),
        (check_iris, (["urn:a", ""],), lambda: Iri("")),
        (check_blanks, (["b1", "a\nb"],), lambda: Blank("a\nb")),
        (check_blanks, (["ab."],), lambda: Blank("ab.")),
        (check_literals, (["1", "7.5"], Datatype.INTEGER), lambda: Literal("7.5", Datatype.INTEGER)),
        (check_literals, (["2007-02-30"], Datatype.DATETIME), lambda: Literal("2007-02-30", Datatype.DATETIME)),
    ]
    for check, args, construct in bad:
        with pytest.raises(TermError) as expected:
            construct()
        with pytest.raises(TermError) as raised:
            check(*args)
        assert str(raised.value) == str(expected.value)


def test_terms_copy_and_pickle_by_value():
    triple = Triple(Iri("urn:s"), Iri("urn:p"), Literal("2007", Datatype.DATETIME))
    for value in (triple, triple.subject, Blank("b"), triple.object):
        assert copy.copy(value) == value and copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
