"""Recursive-descent parser for the ASCII Boolean formula syntax.

Grammar (whitespace insensitive)::

    formula   := or_expr
    or_expr   := and_expr ( '|' and_expr )*
    and_expr  := not_expr ( '&' not_expr )*
    not_expr  := '~' not_expr | atom
    atom      := '0' | '1' | IDENT | '(' formula ')'
    IDENT     := [A-Za-z_][A-Za-z0-9_]*

The syntax round-trips with :func:`repro.boolean.printer.to_str`.
Parsing errors raise :class:`repro.errors.ParseError` with the offending
position, so callers can show a caret diagnostic.  That includes nesting
``~`` and ``(`` deeper than :data:`MAX_DEPTH` levels.
"""

from __future__ import annotations

import re
from typing import Callable, List, NamedTuple

from ..errors import ParseError
from .syntax import FALSE, TRUE, Formula, Var, conj, disj, neg

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<const>[01])"
    r"|(?P<op>[~&|()]))"
)


#: Deepest nesting of ``~`` and ``(``: a level is up to five frames here
#: and one or two in each recursive walk of the formula (BDD lift,
#: evaluation, printing), all far below the interpreter's recursion limit.
MAX_DEPTH = 100


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> List[_Token]:
    """Split ``text`` into tokens; raise :class:`ParseError` on junk."""
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m or m.start() != pos:
            raise ParseError(
                f"unexpected character {text[pos]!r} at position {pos}",
                text,
                pos,
            )
        kind = m.lastgroup or "op"
        tokens.append(_Token(kind, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    """Single-use recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.index += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.advance()
        if tok.text != text:
            raise ParseError(
                f"expected {text!r} but found {tok.text!r} at position {tok.pos}",
                self.text,
                tok.pos,
            )

    def nested(self, tok: _Token, parse: Callable[[], Formula]) -> Formula:
        """``parse()`` one level down, in the ``~`` or ``(`` that ``tok`` opens."""
        if self.depth == MAX_DEPTH:
            msg = f"nesting deeper than {MAX_DEPTH} levels at position {tok.pos}"
            raise ParseError(msg, self.text, tok.pos)
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def parse(self) -> Formula:
        f = self.or_expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(
                f"unexpected trailing input {tok.text!r} at position {tok.pos}",
                self.text,
                tok.pos,
            )
        return f

    def or_expr(self) -> Formula:
        parts = [self.and_expr()]
        while True:
            tok = self.peek()
            if tok is not None and tok.text == "|":
                self.advance()
                parts.append(self.and_expr())
            else:
                return disj(*parts)

    def and_expr(self) -> Formula:
        parts = [self.not_expr()]
        while True:
            tok = self.peek()
            if tok is not None and tok.text == "&":
                self.advance()
                parts.append(self.not_expr())
            else:
                return conj(*parts)

    def not_expr(self) -> Formula:
        tok = self.peek()
        if tok is not None and tok.text == "~":
            self.advance()
            return neg(self.nested(tok, self.not_expr))
        return self.atom()

    def atom(self) -> Formula:
        tok = self.advance()
        if tok.kind == "ident":
            return Var(tok.text)
        if tok.kind == "const":
            return TRUE if tok.text == "1" else FALSE
        if tok.text == "(":
            inner = self.nested(tok, self.or_expr)
            self.expect(")")
            return inner
        raise ParseError(
            f"unexpected token {tok.text!r} at position {tok.pos}",
            self.text,
            tok.pos,
        )


def parse(text: str) -> Formula:
    """Parse ``text`` into a :class:`~repro.boolean.syntax.Formula`.

    >>> from repro.boolean.printer import to_str
    >>> to_str(parse('~x & (y | z)'))
    '~x & (y | z)'
    """
    return _Parser(text).parse()
