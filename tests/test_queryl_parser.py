"""Parser-level tests: tokenizing, grammar, name resolution, static checks.

Most cases go through parse_script().  A few poke the private _lex directly
because token boundaries (names swallowing dots, punctuation splits) are
invisible once the grammar has consumed them.
"""

import os

import pytest

from scholargraph.cli import Config
from scholargraph.inference import RULE_SCRIPTS
from scholargraph.mapping import MapReport
from scholargraph.metrics import MetricResult
from scholargraph.queryl.ast import (
    AndFilter,
    Block,
    Comparison,
    CountOf,
    GuardedPattern,
    OrFilter,
    Placeholder,
    RatioOf,
    Script,
)
from scholargraph.queryl.evaluator import PlanStep
from scholargraph.queryl.parser import QueryParseError, Token, _lex, parse_script
from scholargraph.sidecar import IngestReport
from scholargraph.store import TriplePattern, Var
from scholargraph.terms import Datatype, Iri, Literal, NamespaceTable

DATA = os.path.join(os.path.dirname(__file__), "data")
MESUR = "http://www.mesur.org/schemas/2007-01/mesur#"
RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


def read_query(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return handle.read()


def parse_error(text, namespaces=None):
    with pytest.raises(QueryParseError) as info:
        parse_script(text, namespaces)
    return info.value


# -- happy path --------------------------------------------------------------


def test_minimal_script_shape():
    script = parse_script("SELECT ?x WHERE (?x rdf:type mesur:Article) .")
    assert len(script.blocks) == 1
    assert script.templates == ()
    block = script.blocks[0]
    assert block.projected == (Var("x"),)
    assert len(block.patterns) == 1
    guarded = block.patterns[0]
    assert guarded.guard is None
    pattern = guarded.pattern
    assert pattern.subject == Var("x")
    assert pattern.predicate == RDF_TYPE
    assert pattern.object == Iri(MESUR + "Article")


def test_pattern_accepts_every_term_kind():
    script = parse_script(
        'SELECT ?x WHERE'
        ' (?x <http://example.org/p> "title")'
        " (?x mesur:hasNumericValue 2.5)"
        " (?x mesur:hasStartTime 2004)"
        " .")
    patterns = [g.pattern for g in script.blocks[0].patterns]
    assert patterns[0].predicate == Iri("http://example.org/p")
    assert patterns[0].object == Literal("title", Datatype.STRING)
    assert patterns[1].object == Literal("2.5", Datatype.DECIMAL)
    assert patterns[2].object == Literal("2004", Datatype.INTEGER)


def test_guards_attach_to_their_own_pattern():
    script = parse_script(
        "SELECT ?a ?t WHERE"
        " (?a rdf:type mesur:Article)"
        " (?a mesur:hasStartTime ?t) AND ?t > 2004"
        " .")
    first, second = script.blocks[0].patterns
    assert first.guard is None
    assert second.guard == Comparison(Var("t"), ">", Literal("2004", Datatype.INTEGER))


def test_and_binds_tighter_than_or():
    script = parse_script(
        "SELECT ?t WHERE (?c mesur:hasTime ?t)"
        " AND ?t > 2004 AND ?t < 2007 OR ?t = 1999 ."
    )
    guard = script.blocks[0].patterns[0].guard
    assert isinstance(guard, OrFilter)
    left, right = guard.parts
    assert isinstance(left, AndFilter)
    assert len(left.parts) == 2
    assert right == Comparison(Var("t"), "=", Literal("1999", Datatype.INTEGER))


def test_parentheses_regroup_filters():
    script = parse_script(
        "SELECT ?t WHERE (?c mesur:hasTime ?t)"
        " AND ?t > 2004 AND (?t < 2007 OR ?t = 1999) ."
    )
    guard = script.blocks[0].patterns[0].guard
    assert isinstance(guard, AndFilter)
    assert isinstance(guard.parts[1], OrFilter)


def test_filter_comparing_two_variables():
    script = parse_script(
        "SELECT ?a ?b WHERE"
        " (?x mesur:hasStartTime ?a)"
        " (?x mesur:hasEndTime ?b) AND ?a = ?b"
        " .")
    guard = script.blocks[0].patterns[1].guard
    assert guard == Comparison(Var("a"), "=", Var("b"))


def test_template_with_variables_and_names():
    script = parse_script(
        "SELECT ?a ?b WHERE (?a mesur:hasSource ?b)"
        " INSERT < ?a mesur:cites ?b >"
        " INSERT < ?a rdf:type mesur:Document > .")
    first, second = script.templates
    assert first.subject == Var("a")
    assert first.predicate == Iri(MESUR + "cites")
    assert first.object == Var("b")
    assert second.object == Iri(MESUR + "Document")


def test_template_placeholders_share_labels():
    script = parse_script(
        "SELECT ?a WHERE (?a rdf:type mesur:Article)"
        " INSERT < _1 mesur:hasDocument ?a >"
        " INSERT < _1 rdf:type mesur:Citation > .")
    first, second = script.templates
    assert first.subject == Placeholder("1")
    assert second.subject == Placeholder("1")
    assert first.subject == second.subject


def test_template_literal_objects():
    script = parse_script(
        "SELECT ?a WHERE (?a rdf:type mesur:Article)"
        ' INSERT < ?a mesur:hasWeight 2.5 >'
        ' INSERT < ?a mesur:hasStartTime 2004 >'
        ' INSERT < ?a <http://example.org/label> "x" > .')
    objects = [t.object for t in script.templates]
    assert objects[0] == Literal("2.5", Datatype.DECIMAL)
    assert objects[1] == Literal("2004", Datatype.INTEGER)
    assert objects[2] == Literal("x", Datatype.STRING)


def test_count_and_ratio_aggregates():
    script = parse_script(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " SELECT ?y WHERE (?y rdf:type mesur:Journal)"
        " INSERT < _1 mesur:hasNumericValue (COUNT(?x) / COUNT(?y)) >"
        " INSERT < _2 mesur:hasNumericValue COUNT(?x) > .")
    ratio = script.templates[0].object
    assert isinstance(ratio, RatioOf)
    assert ratio.numerator == CountOf(Var("x"))
    assert ratio.denominator == CountOf(Var("y"))
    assert script.templates[1].object == CountOf(Var("x"))


def test_nested_ratio_parses():
    script = parse_script(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " SELECT ?y WHERE (?y rdf:type mesur:Journal)"
        " SELECT ?z WHERE (?z rdf:type mesur:Group)"
        " INSERT < _1 mesur:hasNumericValue ((COUNT(?x) / COUNT(?y)) / COUNT(?z)) > .")
    outer = script.templates[0].object
    assert isinstance(outer, RatioOf)
    assert isinstance(outer.numerator, RatioOf)
    assert outer.denominator == CountOf(Var("z"))


def test_multi_block_scripts_keep_blocks_ordered():
    script = parse_script(
        "SELECT ?a WHERE (?a rdf:type mesur:Article)"
        " SELECT ?j WHERE (?j rdf:type mesur:Journal)"
        " .")
    assert [b.projected for b in script.blocks] == [(Var("a"),), (Var("j"),)]


def test_string_escapes_decode():
    script = parse_script(
        'SELECT ?x WHERE (?x mesur:hasValue "a\\tb\\nc\\"d\\\\e\\u00e9") .'
    )
    literal = script.blocks[0].patterns[0].pattern.object
    assert literal == Literal('a\tb\nc"d\\eé', Datatype.STRING)


# -- name resolution ---------------------------------------------------------


def test_uri_schemes_pass_through_opaque():
    script = parse_script(
        "SELECT ?x WHERE"
        " (?x mesur:partOf urn:issn:1082-9873)"
        " (?x mesur:hasValue doi:10.1000/182)"
        " .")
    patterns = [g.pattern for g in script.blocks[0].patterns]
    assert patterns[0].object == Iri("urn:issn:1082-9873")
    assert patterns[1].object == Iri("doi:10.1000/182")


def test_registered_prefix_expands():
    table = NamespaceTable({"lanl": "http://library.lanl.gov/"})
    script = parse_script(
        "SELECT ?x WHERE (lanl:marko mesur:hasCoauthor ?x) .", table
    )
    assert script.blocks[0].patterns[0].pattern.subject == Iri(
        "http://library.lanl.gov/marko"
    )


def test_unknown_prefix_is_positioned_error():
    err = parse_error("SELECT ?x WHERE (lanl:marko mesur:hasCoauthor ?x) .")
    assert "unknown namespace prefix 'lanl'" in str(err)
    assert (err.line, err.column) == (1, 18)


def test_bare_name_is_positioned_error():
    # A dot inside a name keeps it one token, so a colon typo surfaces as a
    # single bare name instead of three mystery tokens.
    err = parse_error("SELECT ?x WHERE (?x mesur.hasSource ?y) .")
    assert "bare name 'mesur.hasSource' is not a prefixed name" in str(err)
    assert (err.line, err.column) == (1, 21)


# -- tokenizer ---------------------------------------------------------------


def test_lex_gives_back_trailing_dots():
    tokens = _lex("mesur:Article. urn:a.b:c")
    kinds = [(t.kind, t.text) for t in tokens]
    assert kinds[0] == ("prefixed name", "mesur:Article")
    assert kinds[1] == ("'.'", ".")
    assert kinds[2] == ("prefixed name", "urn:a.b:c")


def test_lex_tracks_line_and_column():
    tokens = _lex("SELECT ?x\nWHERE (?x)")
    where = tokens[2]
    assert (where.kind, where.line, where.column) == ("WHERE", 2, 1)
    lparen = tokens[3]
    assert (lparen.line, lparen.column) == (2, 7)


def test_lex_splits_punctuation_runs():
    tokens = _lex(">).")
    assert [t.kind for t in tokens] == ["'>'", "')'", "'.'", "end of input"]


def test_lex_name_charset_covers_iri_punctuation():
    tokens = _lex("urn:doi:10.1177%2F0165551506062327+x_y~z")
    assert tokens[0].kind == "prefixed name"
    assert tokens[0].text == "urn:doi:10.1177%2F0165551506062327+x_y~z"


def test_lex_signed_numbers():
    tokens = _lex("-3 +4.5")
    assert (tokens[0].kind, tokens[0].text) == ("integer", "-3")
    assert (tokens[1].kind, tokens[1].text) == ("decimal", "+4.5")


def test_lex_tokens_cover_the_bundled_scripts_where_they_stand():
    # every token sits at its own (line, column), and the tokens together
    # hold every character of the source that is not whitespace
    texts = [read_query(name) for name in sorted(os.listdir(DATA)) if name.endswith(".q")]
    texts += [RULE_SCRIPTS[name] for name in sorted(RULE_SCRIPTS)]
    for text in texts:
        lines = text.split("\n")
        tokens = _lex(text)
        for token in tokens:
            line = lines[token.line - 1]
            assert line[token.column - 1 : token.column - 1 + len(token.text)] == token.text, token
        assert "".join(token.text for token in tokens) == "".join(text.split())


# -- malformed input ---------------------------------------------------------


def test_empty_script_is_an_error():
    err = parse_error("")
    assert "unexpected end of input" in str(err)
    assert "SELECT" in str(err)


def test_missing_final_dot():
    err = parse_error("SELECT ?x WHERE (?x rdf:type mesur:Article)")
    assert "expected '.'" in str(err)
    assert (err.line, err.column) == (1, 44)


def test_trailing_tokens_after_dot():
    err = parse_error("SELECT ?x WHERE (?x rdf:type mesur:Article) .\nSELECT")
    assert "expected end of input" in str(err)
    assert (err.line, err.column) == (2, 1)


def test_select_without_variables():
    err = parse_error("SELECT WHERE (?x rdf:type mesur:Article) .")
    assert "expected variable" in str(err)


def test_where_without_patterns():
    err = parse_error("SELECT ?x WHERE INSERT < ?x rdf:type mesur:Article > .")
    assert "expected '('" in str(err)


def test_pattern_with_too_few_terms():
    err = parse_error("SELECT ?x WHERE (?x rdf:type) .")
    assert "unexpected ')'" in str(err)


def test_pattern_with_too_many_terms():
    err = parse_error("SELECT ?x WHERE (?x rdf:type mesur:Article ?y) .")
    assert "expected ')'" in str(err)


def test_lone_question_mark():
    err = parse_error("SELECT ? WHERE (?x rdf:type mesur:Article) .")
    assert "lone '?' is not a variable" in str(err)
    assert (err.line, err.column) == (1, 8)


def test_placeholder_needs_digits():
    err = parse_error(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " INSERT < _a mesur:hasDocument ?x > .")
    assert "blank placeholder must be '_' followed by digits" in str(err)


def test_unterminated_string():
    err = parse_error('SELECT ?x WHERE (?x mesur:hasValue "oops) .')
    assert "unterminated string literal" in str(err)
    assert (err.line, err.column) == (1, 36)


def test_unknown_string_escape():
    err = parse_error('SELECT ?x WHERE (?x mesur:hasValue "a\\qb") .')
    assert "unknown escape" in str(err)


def test_bad_unicode_escape():
    err = parse_error('SELECT ?x WHERE (?x mesur:hasValue "\\u12") .')
    assert "bad \\u escape" in str(err)


def test_unicode_escape_out_of_range():
    err = parse_error('SELECT ?x WHERE (?x mesur:hasValue "\\U00110000") .')
    assert "out of range" in str(err)


@pytest.mark.parametrize("escape", ["\\uD800", "\\udfff", "\\U0000DC00"])
def test_unicode_escape_of_a_surrogate(escape):
    # no UTF-8 text can hold a lone surrogate, so the snapshot could not
    # store the literal
    err = parse_error('SELECT ?x WHERE (?x mesur:hasValue "a' + escape + '") .')
    assert f"\\{escape[1]} escape names a surrogate code point" in str(err)
    assert (err.line, err.column) == (1, 36)


def test_unexpected_character():
    err = parse_error("SELECT ?x WHERE (?x rdf:type mesur:Article) ; .")
    assert "unexpected character ';'" in str(err)
    assert (err.line, err.column) == (1, 45)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_a_digit_that_is_not_ascii_is_an_unexpected_character(digit):
    err = parse_error("SELECT ?x\nWHERE (?x <urn:p> " + digit + ") .")
    assert f"unexpected character {digit!r}" in str(err)
    assert (err.line, err.column) == (2, 19)


def test_empty_iriref():
    err = parse_error("SELECT ?x WHERE (?x rdf:type <>) .")
    assert "IRI must be nonempty" in str(err)
    assert (err.line, err.column) == (1, 30)


def test_literal_cannot_start_a_template():
    err = parse_error(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " INSERT < 5 mesur:hasDocument ?x > .")
    assert "in template subject" in str(err)


def test_count_requires_parentheses():
    err = parse_error(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " INSERT < _1 mesur:hasNumericValue COUNT ?x > .")
    assert "expected '('" in str(err)


def test_ratio_sides_must_be_aggregates():
    err = parse_error(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " INSERT < _1 mesur:hasNumericValue (COUNT(?x) / 10) > .")
    assert "expected '(', COUNT" in str(err)


def test_filter_operand_cannot_be_a_name():
    err = parse_error(
        "SELECT ?x WHERE (?x mesur:hasTime ?t) AND ?t = mesur:thing ."
    )
    assert "unexpected prefixed name" in str(err)


# -- static validation -------------------------------------------------------


def test_duplicate_projected_variable():
    err = parse_error("SELECT ?x ?x WHERE (?x rdf:type mesur:Article) .")
    assert "duplicate projected variable ?x" in str(err)
    assert (err.line, err.column) == (1, 11)


def test_projected_variable_must_occur_in_patterns():
    err = parse_error("SELECT ?x WHERE (?y rdf:type mesur:Article) .")
    assert "?x does not occur in any pattern" in str(err)
    assert (err.line, err.column) == (1, 8)


def test_projected_names_unique_across_blocks():
    err = parse_error(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " SELECT ?x WHERE (?x rdf:type mesur:Journal) .")
    assert "already projected by an earlier block" in str(err)


def test_filter_variable_must_be_bound_in_its_block():
    err = parse_error(
        "SELECT ?x WHERE (?x rdf:type mesur:Article) AND ?t > 2004 ."
    )
    assert "filter variable ?t is not bound" in str(err)


def test_filter_variable_from_another_block_does_not_count():
    err = parse_error(
        "SELECT ?t WHERE (?c mesur:hasTime ?t)"
        " SELECT ?x WHERE (?x rdf:type mesur:Article) AND ?t > 2004 ."
    )
    assert "filter variable ?t is not bound" in str(err)


def test_template_variable_must_be_projected():
    err = parse_error(
        "SELECT ?x WHERE (?x mesur:hasSource ?y)"
        " INSERT < ?x mesur:cites ?y > .")
    assert "?y is not projected by any block" in str(err)


def test_template_cannot_mix_blocks():
    err = parse_error(
        "SELECT ?a WHERE (?a rdf:type mesur:Article)"
        " SELECT ?j WHERE (?j rdf:type mesur:Journal)"
        " INSERT < ?a mesur:partOf ?j > .")
    assert "template mixes row variables from different blocks" in str(err)
    assert "?a from block 1" in str(err)
    assert "?j from block 2" in str(err)


def test_count_variable_must_be_projected():
    err = parse_error(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " INSERT < _1 mesur:hasNumericValue COUNT(?y) > .")
    assert "COUNT variable ?y is not projected" in str(err)


def test_placeholder_cannot_be_a_predicate():
    err = parse_error(
        "SELECT ?x WHERE (?x rdf:type mesur:Article)"
        " INSERT < ?x _1 mesur:Article > .")
    assert "a blank node cannot be a predicate" in str(err)


# -- the bundled query files -------------------------------------------------

PARSEABLE_QUERIES = [
    "rule_authored.q",
    "rule_contained.q",
    "rule_published.q",
    "rule_used.q",
    "coauthor.q",
    "affiliation.q",
    "impact_factor.q",
    "usage_impact_factor.q",
]


def test_bundled_queries_parse():
    table = NamespaceTable({"lanl": "http://library.lanl.gov/"})
    for name in PARSEABLE_QUERIES:
        script = parse_script(read_query(name), table)
        assert script.blocks, name


def test_group_citation_query_has_a_colon_typo():
    # The file writes mesur.hasSourceStartTime with a dot; the parser points
    # straight at it instead of failing somewhere downstream.
    err = parse_error(read_query("group_citation.q"))
    assert "bare name 'mesur.hasSourceStartTime'" in str(err)
    assert (err.line, err.column) == (24, 15)


def test_group_citation_query_parses_once_normalized():
    text = read_query("group_citation.q").replace("mesur.", "mesur:")
    script = parse_script(text)
    assert len(script.blocks) == 1
    assert len(script.templates) >= 8


def test_impact_factor_query_shape():
    script = parse_script(read_query("impact_factor.q"))
    assert len(script.blocks) == 2
    names = [tuple(v.name for v in b.projected) for b in script.blocks]
    assert names == [("x",), ("y",)]
    ratio_templates = [
        t for t in script.templates if isinstance(t.object, RatioOf)
    ]
    assert len(ratio_templates) == 1


# -- value semantics of variables, patterns and syntax nodes -------------------


def test_var_and_pattern_values():
    s = Var("s")
    assert s == Var("s") and s != Var("o") and s != "s"
    assert hash(s) == hash(("s",))
    pattern = TriplePattern(s, RDF_TYPE, Var("o"))
    assert pattern == TriplePattern(Var("s"), RDF_TYPE, Var("o"))
    assert hash(pattern) == hash((s, RDF_TYPE, Var("o")))
    assert pattern.variables() == (s, Var("o"))
    for value, field in ((s, "name"), (pattern, "subject")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_var_pattern_and_node_reprs():
    pattern = TriplePattern(Var("s"), Iri("urn:p"), Var("o"))
    assert repr(Var("x")) == "?x"
    assert repr(pattern) == "TriplePattern(subject=?s, predicate=<urn:p>, object=?o)"
    guarded = GuardedPattern(pattern, Comparison(Var("o"), "<", Literal("2", Datatype.INTEGER)))
    assert repr(guarded) == (
        "GuardedPattern(pattern=TriplePattern(subject=?s, predicate=<urn:p>, object=?o), "
        "guard=Comparison(left=?o, op='<', right=\"2\"^^integer))"
    )
    assert repr(Token("name", "x", 1, 2)) == "Token(kind='name', text='x', line=1, column=2)"
    assert repr(PlanStep(pattern, 2.5)) == (
        "PlanStep(pattern=TriplePattern(subject=?s, predicate=<urn:p>, object=?o), estimated=2.5, actual=0)"
    )


def test_nodes_build_by_position_or_keyword_with_defaults():
    pattern = TriplePattern(Var("s"), RDF_TYPE, Var("o"))
    assert GuardedPattern(pattern=pattern) == GuardedPattern(pattern, None)
    assert GuardedPattern(pattern=pattern).guard is None
    script = Script(blocks=(Block((Var("s"),), (GuardedPattern(pattern),)),))
    assert script.templates == ()
    assert script == Script(script.blocks, ())
    assert hash(script) == hash((script.blocks, ()))
    assert Script(blocks=()) != Block((), ())
    with pytest.raises(AttributeError):
        script.templates = ()
    with pytest.raises(TypeError):
        GuardedPattern()
    with pytest.raises(TypeError):
        GuardedPattern(pattern, None, None)
    with pytest.raises(TypeError):
        GuardedPattern(pattern, pattern=pattern)
    with pytest.raises(TypeError):
        GuardedPattern(pattern, filter=None)


def test_mutable_records_are_unhashable_and_keep_their_defaults():
    pattern = TriplePattern(Var("s"), RDF_TYPE, Var("o"))
    step = PlanStep(pattern, 1.0)
    step.actual = 3
    assert step == PlanStep(pattern, 1.0, actual=3)
    first, second = IngestReport(), IngestReport()
    first.reject(2, "bad")
    assert (first.rejected, first.problems, second.problems) == (1, [(2, "bad")], [])
    assert MapReport(uses=2).total == 2
    result = MetricResult("impact factor", RDF_TYPE, 2007, (2005, 2006), 1, 2, 0.5, RDF_TYPE, True)
    config = Config("s", "c", None, NamespaceTable(), 6, 0)
    for record in (step, first, MapReport(), result, config):
        with pytest.raises(TypeError):
            hash(record)
