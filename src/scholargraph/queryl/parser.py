"""Tokenizer and recursive-descent parser for the query dialect.

Grammar::

    script      := block+ template* "."
    block       := "SELECT" var+ "WHERE" patternItem+
    patternItem := "(" term term term ")" [ "AND" filter ]
    filter      := orExpr
    orExpr      := andExpr ("OR" andExpr)*
    andExpr     := atom ("AND" atom)*
    atom        := comparison | "(" filter ")"
    comparison  := operand ("=" | "<" | ">") operand
    operand     := var | literal
    template    := "INSERT" "<" itemTerm itemTerm itemObj ">"
    itemTerm    := iri | prefixedName | var | placeholder
    itemObj     := itemTerm | literal | aggExpr
    aggExpr     := "COUNT" "(" var ")" | "(" aggExpr "/" aggExpr ")"

Lexing is one compiled regex with one named group per token kind, tried
in order at each position: an ``<...>`` IRI before a lone ``<``, a
decimal before an integer.  Numbers are ASCII digits only.  A name may
hold dots but never ends on one, so a name glued to the script's final
``.`` gives the dot back.  Where no token starts, the character is the
error.  A string's escapes are ``\\t \\b \\n \\r \\f \\" \\' \\\\``,
``\\uXXXX`` and ``\\UXXXXXXXX``; a code point past U+10FFFF or a
surrogate is an error, since no UTF-8 text can hold it.

Prefixed names expand through the namespace table.  An unregistered prefix
that is really a URI scheme (urn:, http:, ...) denotes an opaque IRI, so
operands like ``urn:issn:1082-9873`` work without a declaration; any other
unknown prefix is a positioned error.

Static validation happens here too: projected variables must occur in their
block's patterns, filter variables must be bound in the same block, projected
names are unique across blocks (variables are otherwise block-scoped), and a
template's variables must all be projected by one single block.
"""

from __future__ import annotations

import re

from ..errors import PositionedError
from ..record import FrozenRecord
from ..store import TriplePattern, Var
from ..terms import Datatype, Iri, Literal, NamespaceTable, Term, TermError
from .ast import (
    Aggregate,
    AndFilter,
    Block,
    Comparison,
    CountOf,
    Filter,
    GuardedPattern,
    OrFilter,
    Placeholder,
    RatioOf,
    Script,
    Template,
)


class QueryParseError(PositionedError):
    """Syntax or validation error, with position and an expected-token set."""

    def __init__(
        self,
        message: str,
        line: int,
        column: int,
        expected: frozenset[str] = frozenset(),
    ) -> None:
        if expected:
            message = f"{message} (expected {', '.join(sorted(expected))})"
        super().__init__(message, line, column)
        self.expected = expected


# Token kinds double as display names in error messages.
SELECT, WHERE, INSERT, AND, OR, COUNT = "SELECT", "WHERE", "INSERT", "AND", "OR", "COUNT"
VARIABLE = "variable"
PLACEHOLDER = "placeholder"
IRIREF = "IRI"
NAME = "prefixed name"
INTEGER = "integer"
DECIMAL = "decimal"
STRING = "string"
LPAREN, RPAREN = "'('", "')'"
LANGLE, RANGLE = "'<'", "'>'"
EQUALS, SLASH, DOT = "'='", "'/'", "'.'"
EOF = "end of input"

_KEYWORDS = {SELECT, WHERE, INSERT, AND, OR, COUNT}

# Unregistered prefixes that are URI schemes denote opaque IRIs.
_SCHEMES = frozenset({"urn", "http", "https", "doi", "info", "mailto", "file", "ftp", "tag"})

_TOKEN = re.compile(
    r"""(?P<space>[ \t\r]+)
      | (?P<newline>\n)
      | (?P<iri><[^<>\s]*>)
      | (?P<variable>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<placeholder>_[0-9]+)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<decimal>[+-]?[0-9]+\.[0-9]+)
      | (?P<integer>[+-]?[0-9]+)
      | (?P<name>[A-Za-z](?:[A-Za-z0-9_.:#/%+~-]*[A-Za-z0-9_:#/%+~-])?)
      | (?P<punct>[()<>=/.])""",
    re.X,
)
_GROUP_KINDS = {
    "iri": IRIREF,
    "variable": VARIABLE,
    "placeholder": PLACEHOLDER,
    "string": STRING,
    "decimal": DECIMAL,
    "integer": INTEGER,
}
# what a character that starts no token means, where it says more than itself
_NO_TOKEN = {
    "?": "lone '?' is not a variable",
    "_": "blank placeholder must be '_' followed by digits",
    '"': "unterminated string literal",
}

_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")
_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


class Token(FrozenRecord):
    __slots__ = ("kind", "text", "line", "column")
    kind: str
    text: str
    line: int
    column: int


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            c = text[pos]
            raise QueryParseError(_NO_TOKEN.get(c, f"unexpected character {c!r}"), line, pos - line_start + 1)
        group, word = m.lastgroup, m.group()
        if group == "newline":
            line += 1
            line_start = m.end()
        elif group == "name":
            tokens.append(Token(word if word in _KEYWORDS else NAME, word, line, pos - line_start + 1))
        elif group == "punct":
            tokens.append(Token(f"'{word}'", word, line, pos - line_start + 1))
        elif group != "space":
            tokens.append(Token(_GROUP_KINDS[group], word, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token(EOF, "", line, len(text) - line_start + 1))
    return tokens


def _unescape(token: Token) -> str:
    """A string token's text without its quotes, its escapes decoded."""

    def decode(m: re.Match[str]) -> str:
        e = m.group()[1]
        digits = m.group(1) or m.group(2)
        if digits is None:
            if e in "uU":
                raise QueryParseError(f"bad \\{e} escape in string", token.line, token.column)
            if e not in _STRING_ESCAPES:
                raise QueryParseError(f"unknown escape \\{e} in string", token.line, token.column)
            return _STRING_ESCAPES[e]
        code = int(digits, 16)
        if code > 0x10FFFF:
            raise QueryParseError(f"\\{e} escape out of range", token.line, token.column)
        if 0xD800 <= code <= 0xDFFF:
            raise QueryParseError(f"\\{e} escape names a surrogate code point", token.line, token.column)
        return chr(code)

    return _ESCAPE.sub(decode, token.text[1:-1])


_LITERALS = frozenset({INTEGER, DECIMAL, STRING})
_PATTERN_TERMS = frozenset({VARIABLE, IRIREF, NAME}) | _LITERALS
_OPERANDS = frozenset({VARIABLE}) | _LITERALS
_ITEM_TERMS = frozenset({VARIABLE, PLACEHOLDER, IRIREF, NAME})

# A variable's name and the token that names it, as the parser meets them.
VarTokens = list[tuple[str, Token]]


class _Parser:
    def __init__(self, tokens: list[Token], namespaces: NamespaceTable) -> None:
        self.tokens = tokens
        self.at = 0
        self.ns = namespaces

    def peek(self) -> Token:
        return self.tokens[self.at]

    def advance(self) -> Token:
        token = self.tokens[self.at]
        if token.kind != EOF:
            self.at += 1
        return token

    def error(self, message: str, token: Token, expected: frozenset[str] = frozenset()) -> QueryParseError:
        return QueryParseError(message, token.line, token.column, expected)

    def unexpected(self, token: Token, kinds: frozenset[str], where: str = "") -> QueryParseError:
        return self.error(f"unexpected {token.kind} {token.text!r}{where}", token, kinds)

    def expect(self, *kinds: str) -> Token:
        token = self.peek()
        if token.kind not in kinds:
            got = token.kind if token.kind == EOF else f"{token.kind} {token.text!r}"
            raise self.error(f"unexpected {got}", token, frozenset(kinds))
        return self.advance()

    def parse_term(
        self, kinds: frozenset[str], where: str = "", seen: VarTokens | None = None
    ) -> Term | Var | Placeholder:
        """The next token as a term, if its kind is one of ``kinds``; a
        variable's token goes to ``seen`` for the static checks."""
        token = self.peek()
        kind, text = token.kind, token.text
        if kind not in kinds:
            raise self.unexpected(token, kinds, where)
        self.advance()
        if kind == VARIABLE:
            if seen is not None:
                seen.append((text[1:], token))
            return Var(text[1:])
        if kind == PLACEHOLDER:
            return Placeholder(text[1:])
        if kind == IRIREF:
            try:
                return Iri(text[1:-1])
            except TermError as exc:
                raise self.error(str(exc), token) from None
        if kind == NAME:
            if ":" not in text:
                raise self.error(f"bare name {text!r} is not a prefixed name", token)
            prefix = text.partition(":")[0]
            if self.ns.is_registered(prefix):
                return self.ns.expand(text)
            if prefix in _SCHEMES:
                return Iri(text)
            raise self.error(f"unknown namespace prefix {prefix!r}", token)
        if kind == STRING:
            return Literal(_unescape(token), Datatype.STRING)
        return Literal(text, Datatype.INTEGER if kind == INTEGER else Datatype.DECIMAL)

    # -- grammar ---------------------------------------------------------------

    def parse_script(self) -> Script:
        blocks: list[tuple[Block, dict[str, Token], VarTokens]] = []
        while self.peek().kind == SELECT or not blocks:
            blocks.append(self.parse_block())
        templates: list[tuple[Template, VarTokens, VarTokens]] = []
        while self.peek().kind == INSERT:
            templates.append(self.parse_template())
        self.expect(DOT)
        self.expect(EOF)
        self._validate(blocks, templates)
        return Script(tuple(b[0] for b in blocks), tuple(t[0] for t in templates))

    def parse_block(self) -> tuple[Block, dict[str, Token], VarTokens]:
        self.expect(SELECT)
        select_tokens: dict[str, Token] = {}
        while not select_tokens or self.peek().kind != WHERE:
            token = self.peek()
            if token.kind != VARIABLE:
                raise self.unexpected(token, frozenset({VARIABLE, WHERE} if select_tokens else {VARIABLE}))
            self.advance()
            if token.text[1:] in select_tokens:
                raise self.error(f"duplicate projected variable {token.text}", token)
            select_tokens[token.text[1:]] = token
        self.advance()
        patterns: list[GuardedPattern] = []
        filter_tokens: VarTokens = []
        while not patterns or self.peek().kind == LPAREN:
            token = self.peek()
            if token.kind != LPAREN:
                raise self.unexpected(token, frozenset({LPAREN}))
            self.advance()
            pattern = TriplePattern(*(self.parse_term(_PATTERN_TERMS) for _ in range(3)))
            self.expect(RPAREN)
            guard = None
            if self.peek().kind == AND:
                self.advance()
                guard = self.parse_filter(filter_tokens)
            patterns.append(GuardedPattern(pattern, guard))
        block = Block(tuple(map(Var, select_tokens)), tuple(patterns))
        return block, select_tokens, filter_tokens

    def parse_filter(self, seen: VarTokens) -> Filter:
        """Atoms joined by AND and OR, AND binding tighter: an OR of AND runs."""
        runs: list[list[Filter]] = [[]]
        while True:
            if self.peek().kind == LPAREN:
                self.advance()
                runs[-1].append(self.parse_filter(seen))
                self.expect(RPAREN)
            else:
                left = self.parse_term(_OPERANDS, seen=seen)
                symbol = self.expect(EQUALS, LANGLE, RANGLE).text
                runs[-1].append(Comparison(left, symbol, self.parse_term(_OPERANDS, seen=seen)))
            kind = self.peek().kind
            if kind == OR:
                runs.append([])
            elif kind != AND:
                break
            self.advance()
        ands = [run[0] if len(run) == 1 else AndFilter(tuple(run)) for run in runs]
        return ands[0] if len(ands) == 1 else OrFilter(tuple(ands))

    def parse_template(self) -> tuple[Template, VarTokens, VarTokens]:
        self.expect(INSERT)
        self.expect(LANGLE)
        var_tokens: VarTokens = []
        count_tokens: VarTokens = []
        subject = self.parse_term(_ITEM_TERMS, " in template subject", var_tokens)
        predicate_token = self.peek()
        predicate = self.parse_term(_ITEM_TERMS, " in template predicate", var_tokens)
        if isinstance(predicate, Placeholder):
            raise self.error("a blank node cannot be a predicate", predicate_token)
        kind = self.peek().kind
        if kind in (COUNT, LPAREN):
            obj = self.parse_aggregate(count_tokens)
        elif kind in _LITERALS:
            obj = self.parse_term(_LITERALS)
        else:
            obj = self.parse_term(_ITEM_TERMS, " in template object", var_tokens)
        self.expect(RANGLE)
        return Template(subject, predicate, obj), var_tokens, count_tokens

    def parse_aggregate(self, count_tokens: VarTokens) -> Aggregate:
        token = self.peek()
        if token.kind == COUNT:
            self.advance()
            self.expect(LPAREN)
            var_token = self.expect(VARIABLE)
            self.expect(RPAREN)
            count_tokens.append((var_token.text[1:], var_token))
            return CountOf(Var(var_token.text[1:]))
        if token.kind == LPAREN:
            self.advance()
            numerator = self.parse_aggregate(count_tokens)
            self.expect(SLASH)
            denominator = self.parse_aggregate(count_tokens)
            self.expect(RPAREN)
            return RatioOf(numerator, denominator)
        raise self.unexpected(token, frozenset({COUNT, LPAREN}))

    # -- static validation -------------------------------------------------------

    def _validate(
        self,
        blocks: list[tuple[Block, dict[str, Token], VarTokens]],
        templates: list[tuple[Template, VarTokens, VarTokens]],
    ) -> None:
        projected_by: dict[str, int] = {}
        for index, (block, select_tokens, filter_tokens) in enumerate(blocks):
            bound = block.pattern_variables()
            for name, token in select_tokens.items():
                if name not in bound:
                    raise self.error(
                        f"projected variable ?{name} does not occur in any pattern of its block",
                        token,
                    )
                if name in projected_by:
                    raise self.error(
                        f"?{name} is already projected by an earlier block; "
                        "projected names must be unique across blocks",
                        token,
                    )
                projected_by[name] = index
            for name, token in filter_tokens:
                if name not in bound:
                    raise self.error(
                        f"filter variable ?{name} is not bound by any pattern of its block",
                        token,
                    )
        for _, var_tokens, count_tokens in templates:
            owner: int | None = None
            owner_name = ""
            for name, token in var_tokens:
                home = projected_by.get(name)
                if home is None:
                    raise self.error(
                        f"template variable ?{name} is not projected by any block", token
                    )
                if owner is None:
                    owner, owner_name = home, name
                elif home != owner:
                    raise self.error(
                        f"template mixes row variables from different blocks "
                        f"(?{owner_name} from block {owner + 1}, ?{name} from block {home + 1})",
                        token,
                    )
            for name, token in count_tokens:
                if name not in projected_by:
                    raise self.error(
                        f"COUNT variable ?{name} is not projected by any block", token
                    )


def parse_script(text: str, namespaces: NamespaceTable | None = None) -> Script:
    """Parse and statically validate one script.

    Raises :class:`QueryParseError` (and nothing else) on any malformed
    input; the error carries line, column and the expected-token set.
    """
    ns = namespaces if namespaces is not None else NamespaceTable()
    return _Parser(_lex(text), ns).parse_script()


__all__ = ["parse_script", "QueryParseError", "Token"]
