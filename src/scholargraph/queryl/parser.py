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
from ..terms import (
    Datatype,
    Iri,
    Literal,
    NamespaceTable,
    Term,
    TermError,
)
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

_PUNCT = {
    "(": LPAREN,
    ")": RPAREN,
    "<": LANGLE,
    ">": RANGLE,
    "=": EQUALS,
    "/": SLASH,
    ".": DOT,
}

# Unregistered prefixes that are URI schemes denote opaque IRIs.
_SCHEMES = frozenset({"urn", "http", "https", "doi", "info", "mailto", "file", "ftp", "tag"})

_RE_IRIREF = re.compile(r"<[^<>\s]*>")
_RE_VAR = re.compile(r"\?[A-Za-z_][A-Za-z0-9_]*")
_RE_PLACEHOLDER = re.compile(r"_[0-9]+")
_RE_STRING = re.compile(r'"(?:[^"\\\n]|\\.)*"')
_RE_DECIMAL = re.compile(r"[+-]?[0-9]+\.[0-9]+")
_RE_INTEGER = re.compile(r"[+-]?[0-9]+")
_RE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_.:#/%+~-]*")

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
    n = len(text)
    while pos < n:
        c = text[pos]
        if c in " \t\r":
            pos += 1
            continue
        if c == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        column = pos - line_start + 1
        if c == "<":
            m = _RE_IRIREF.match(text, pos)
            if m:
                tokens.append(Token(IRIREF, m.group(), line, column))
                pos = m.end()
            else:
                tokens.append(Token(LANGLE, "<", line, column))
                pos += 1
            continue
        if c == "?":
            m = _RE_VAR.match(text, pos)
            if not m:
                raise QueryParseError("lone '?' is not a variable", line, column)
            tokens.append(Token(VARIABLE, m.group(), line, column))
            pos = m.end()
            continue
        if c == "_":
            m = _RE_PLACEHOLDER.match(text, pos)
            if not m:
                raise QueryParseError(
                    "blank placeholder must be '_' followed by digits", line, column
                )
            tokens.append(Token(PLACEHOLDER, m.group(), line, column))
            pos = m.end()
            continue
        if c == '"':
            m = _RE_STRING.match(text, pos)
            if not m:
                raise QueryParseError("unterminated string literal", line, column)
            tokens.append(Token(STRING, m.group(), line, column))
            pos = m.end()
            continue
        if c.isdigit() or (c in "+-" and pos + 1 < n and text[pos + 1].isdigit()):
            m = _RE_DECIMAL.match(text, pos)
            if m is None:
                m = _RE_INTEGER.match(text, pos)
                assert m is not None
                kind = INTEGER
            else:
                kind = DECIMAL
            tokens.append(Token(kind, m.group(), line, column))
            pos = m.end()
            continue
        if "A" <= c <= "Z" or "a" <= c <= "z":
            m = _RE_NAME.match(text, pos)
            assert m is not None
            word = m.group()
            # The name charset includes '.', so a name glued to the script
            # terminator would swallow it: give trailing dots back.
            trimmed = word.rstrip(".")
            pos += len(trimmed)
            if trimmed in _KEYWORDS:
                tokens.append(Token(trimmed, trimmed, line, column))
            else:
                tokens.append(Token(NAME, trimmed, line, column))
            continue
        punct = _PUNCT.get(c)
        if punct is not None:
            tokens.append(Token(punct, c, line, column))
            pos += 1
            continue
        raise QueryParseError(f"unexpected character {c!r}", line, column)
    tokens.append(Token(EOF, "", line, n - line_start + 1))
    return tokens


def _unescape_string(token: Token) -> str:
    body = token.text[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        i += 1
        e = body[i]
        if e in ("u", "U"):
            width = 4 if e == "u" else 8
            digits = body[i + 1 : i + 1 + width]
            if len(digits) < width or not re.match(r"[0-9A-Fa-f]+\Z", digits):
                raise QueryParseError(f"bad \\{e} escape in string", token.line, token.column)
            code = int(digits, 16)
            if code > 0x10FFFF:
                raise QueryParseError(f"\\{e} escape out of range", token.line, token.column)
            out.append(chr(code))
            i += 1 + width
            continue
        if e not in _STRING_ESCAPES:
            raise QueryParseError(f"unknown escape \\{e} in string", token.line, token.column)
        out.append(_STRING_ESCAPES[e])
        i += 1
    return "".join(out)


_LITERAL_KINDS = {INTEGER, DECIMAL, STRING}


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

    def expect(self, *kinds: str) -> Token:
        token = self.peek()
        if token.kind not in kinds:
            got = token.kind if token.kind == EOF else f"{token.kind} {token.text!r}"
            raise self.error(f"unexpected {got}", token, frozenset(kinds))
        return self.advance()

    # -- shared term builders --------------------------------------------------

    def resolve_name(self, token: Token) -> Iri:
        text = token.text
        if ":" not in text:
            raise self.error(f"bare name {text!r} is not a prefixed name", token)
        prefix, _, _local = text.partition(":")
        if self.ns.is_registered(prefix):
            return self.ns.expand(text)
        if prefix in _SCHEMES:
            return Iri(text)
        raise self.error(f"unknown namespace prefix {prefix!r}", token)

    def iri_from_token(self, token: Token) -> Iri:
        try:
            return Iri(token.text[1:-1])
        except TermError as exc:
            raise self.error(str(exc), token) from None

    def literal_from_token(self, token: Token) -> Literal:
        if token.kind == INTEGER:
            return Literal(token.text, Datatype.INTEGER)
        if token.kind == DECIMAL:
            return Literal(token.text, Datatype.DECIMAL)
        return Literal(_unescape_string(token), Datatype.STRING)

    # -- grammar ---------------------------------------------------------------

    def parse_script(self) -> Script:
        blocks: list[Block] = []
        block_meta: list[dict] = []
        while self.peek().kind == SELECT or not blocks:
            block, meta = self.parse_block()
            blocks.append(block)
            block_meta.append(meta)
        templates: list[tuple[Template, dict]] = []
        while self.peek().kind == INSERT:
            templates.append(self.parse_template())
        self.expect(DOT)
        self.expect(EOF)
        script = Script(tuple(blocks), tuple(t for t, _ in templates))
        self._validate(script, block_meta, templates)
        return script

    def parse_block(self) -> tuple[Block, dict]:
        self.expect(SELECT)
        projected: list[Var] = []
        select_tokens: dict[str, Token] = {}
        while True:
            token = self.peek()
            if token.kind == VARIABLE:
                self.advance()
                name = token.text[1:]
                if name in select_tokens:
                    raise self.error(f"duplicate projected variable ?{name}", token)
                select_tokens[name] = token
                projected.append(Var(name))
            elif token.kind == WHERE and projected:
                break
            else:
                raise self.error(
                    f"unexpected {token.kind} {token.text!r}",
                    token,
                    frozenset({VARIABLE} if not projected else {VARIABLE, WHERE}),
                )
        self.expect(WHERE)
        patterns: list[GuardedPattern] = []
        filter_tokens: list[tuple[str, Token]] = []
        while True:
            token = self.peek()
            if token.kind != LPAREN:
                if patterns:
                    break
                raise self.error(
                    f"unexpected {token.kind} {token.text!r}", token, frozenset({LPAREN})
                )
            pattern = self.parse_pattern()
            guard = None
            if self.peek().kind == AND:
                self.advance()
                guard = self.parse_or_expr(filter_tokens)
            patterns.append(GuardedPattern(pattern, guard))
        block = Block(tuple(projected), tuple(patterns))
        meta = {"select_tokens": select_tokens, "filter_tokens": filter_tokens}
        return block, meta

    def parse_pattern(self) -> TriplePattern:
        self.expect(LPAREN)
        slots = [self.parse_pattern_term() for _ in range(3)]
        self.expect(RPAREN)
        return TriplePattern(*slots)

    def parse_pattern_term(self) -> Term | Var:
        token = self.peek()
        if token.kind == VARIABLE:
            self.advance()
            return Var(token.text[1:])
        if token.kind == IRIREF:
            self.advance()
            return self.iri_from_token(token)
        if token.kind == NAME:
            self.advance()
            return self.resolve_name(token)
        if token.kind in _LITERAL_KINDS:
            self.advance()
            return self.literal_from_token(token)
        raise self.error(
            f"unexpected {token.kind} {token.text!r}",
            token,
            frozenset({VARIABLE, IRIREF, NAME, INTEGER, DECIMAL, STRING}),
        )

    def parse_or_expr(self, filter_tokens: list[tuple[str, Token]]) -> Filter:
        parts = [self.parse_and_expr(filter_tokens)]
        while self.peek().kind == OR:
            self.advance()
            parts.append(self.parse_and_expr(filter_tokens))
        if len(parts) == 1:
            return parts[0]
        return OrFilter(tuple(parts))

    def parse_and_expr(self, filter_tokens: list[tuple[str, Token]]) -> Filter:
        parts = [self.parse_filter_atom(filter_tokens)]
        while self.peek().kind == AND:
            self.advance()
            parts.append(self.parse_filter_atom(filter_tokens))
        if len(parts) == 1:
            return parts[0]
        return AndFilter(tuple(parts))

    def parse_filter_atom(self, filter_tokens: list[tuple[str, Token]]) -> Filter:
        token = self.peek()
        if token.kind == LPAREN:
            self.advance()
            inner = self.parse_or_expr(filter_tokens)
            self.expect(RPAREN)
            return inner
        left = self.parse_operand(filter_tokens)
        op_token = self.expect(EQUALS, LANGLE, RANGLE)
        op = {EQUALS: "=", LANGLE: "<", RANGLE: ">"}[op_token.kind]
        right = self.parse_operand(filter_tokens)
        return Comparison(left, op, right)

    def parse_operand(self, filter_tokens: list[tuple[str, Token]]) -> Var | Literal:
        token = self.peek()
        if token.kind == VARIABLE:
            self.advance()
            filter_tokens.append((token.text[1:], token))
            return Var(token.text[1:])
        if token.kind in _LITERAL_KINDS:
            self.advance()
            return self.literal_from_token(token)
        raise self.error(
            f"unexpected {token.kind} {token.text!r}",
            token,
            frozenset({VARIABLE, INTEGER, DECIMAL, STRING}),
        )

    def parse_template(self) -> tuple[Template, dict]:
        self.expect(INSERT)
        self.expect(LANGLE)
        var_tokens: dict[str, Token] = {}
        count_tokens: list[tuple[str, Token]] = []
        subject = self.parse_item_term(var_tokens, position="subject")
        predicate_token = self.peek()
        predicate = self.parse_item_term(var_tokens, position="predicate")
        if isinstance(predicate, Placeholder):
            raise self.error("a blank node cannot be a predicate", predicate_token)
        obj = self.parse_item_object(var_tokens, count_tokens)
        self.expect(RANGLE)
        template = Template(subject, predicate, obj)
        meta = {"var_tokens": var_tokens, "count_tokens": count_tokens}
        return template, meta

    def parse_item_term(self, var_tokens: dict[str, Token], position: str) -> Term | Var | Placeholder:
        token = self.peek()
        if token.kind == VARIABLE:
            self.advance()
            var_tokens.setdefault(token.text[1:], token)
            return Var(token.text[1:])
        if token.kind == PLACEHOLDER:
            self.advance()
            return Placeholder(token.text[1:])
        if token.kind == IRIREF:
            self.advance()
            return self.iri_from_token(token)
        if token.kind == NAME:
            self.advance()
            return self.resolve_name(token)
        raise self.error(
            f"unexpected {token.kind} {token.text!r} in template {position}",
            token,
            frozenset({VARIABLE, PLACEHOLDER, IRIREF, NAME}),
        )

    def parse_item_object(
        self, var_tokens: dict[str, Token], count_tokens: list[tuple[str, Token]]
    ):
        token = self.peek()
        if token.kind in _LITERAL_KINDS:
            self.advance()
            return self.literal_from_token(token)
        if token.kind in (COUNT, LPAREN):
            return self.parse_aggregate(count_tokens)
        return self.parse_item_term(var_tokens, position="object")

    def parse_aggregate(self, count_tokens: list[tuple[str, Token]]) -> Aggregate:
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
        raise self.error(
            f"unexpected {token.kind} {token.text!r}", token, frozenset({COUNT, LPAREN})
        )

    # -- static validation -------------------------------------------------------

    def _validate(
        self,
        script: Script,
        block_meta: list[dict],
        templates: list[tuple[Template, dict]],
    ) -> None:
        projected_by: dict[str, int] = {}
        for index, (block, meta) in enumerate(zip(script.blocks, block_meta)):
            bound = block.pattern_variables()
            for var in block.projected:
                token = meta["select_tokens"][var.name]
                if var.name not in bound:
                    raise self.error(
                        f"projected variable ?{var.name} does not occur in any pattern of its block",
                        token,
                    )
                if var.name in projected_by:
                    raise self.error(
                        f"?{var.name} is already projected by an earlier block; "
                        "projected names must be unique across blocks",
                        token,
                    )
                projected_by[var.name] = index
            for name, token in meta["filter_tokens"]:
                if name not in bound:
                    raise self.error(
                        f"filter variable ?{name} is not bound by any pattern of its block",
                        token,
                    )
        for template, meta in templates:
            owner: int | None = None
            owner_name = ""
            for var in template.row_variables():
                token = meta["var_tokens"][var.name]
                home = projected_by.get(var.name)
                if home is None:
                    raise self.error(
                        f"template variable ?{var.name} is not projected by any block", token
                    )
                if owner is None:
                    owner, owner_name = home, var.name
                elif home != owner:
                    raise self.error(
                        f"template mixes row variables from different blocks "
                        f"(?{owner_name} from block {owner + 1}, ?{var.name} from block {home + 1})",
                        token,
                    )
            for name, token in meta["count_tokens"]:
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
