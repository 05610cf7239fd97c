"""Reader for the surface syntax: tokenizer and parser.

Literal syntax follows the usual Lisp-with-collections conventions: keywords
begin with a colon, vectors are [...], maps are {k v ...}, sets are #{...},
commas count as whitespace, and ; starts a line comment.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Union

from .errors import ParseError, VariableNameError
from .model import Variable

_DELIMS = "()[]{}"
_ATOM_END = set(" \t\r\n,()[]{}\";")

_INT_RE = re.compile(r"[+-]?\d+\Z")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\d*\.\d+|\d+)([eE][+-]?\d+)?\Z")

# Collections nest at most this deep. Parsing, evaluating and printing each
# recurse up to three frames per level, so the cap keeps all of them inside
# Python's default recursion limit.
_MAX_DEPTH = 200

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


@dataclass(frozen=True)
class Symbol:
    name: str

    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class VectorLit:
    items: tuple

    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class MapLit:
    pairs: tuple  # of (key expr, value expr)

    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class SetLit:
    items: tuple

    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class Apply:
    op: Symbol
    args: tuple

    line: int = 0
    col: int = 0


Expr = Union[int, float, bool, str, Variable, Symbol, VectorLit, MapLit, SetLit, Apply]


@dataclass(frozen=True)
class _Token:
    kind: str  # one of ( ) [ ] { } #{ atom string
    value: Any
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int = 1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n,":
            advance()
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                advance()
            continue
        if ch == "#":
            if i + 1 < n and text[i + 1] == "{":
                tokens.append(_Token("#{", "#{", line, col))
                advance(2)
                continue
            raise ParseError("stray '#' (expected '#{')", line, col)
        if ch in _DELIMS:
            tokens.append(_Token(ch, ch, line, col))
            advance()
            continue
        if ch == '"':
            start_line, start_col = line, col
            advance()
            out = []
            while True:
                if i >= n:
                    raise ParseError(
                        "unterminated string", start_line, start_col, incomplete=True
                    )
                c = text[i]
                if c == '"':
                    advance()
                    break
                if c == "\\":
                    advance()
                    if i >= n:
                        raise ParseError(
                            "unterminated string", start_line, start_col, incomplete=True
                        )
                    esc = text[i]
                    if esc not in _ESCAPES:
                        raise ParseError(f"bad escape '\\{esc}'", line, col)
                    out.append(_ESCAPES[esc])
                    advance()
                else:
                    out.append(c)
                    advance()
            tokens.append(_Token("string", "".join(out), start_line, start_col))
            continue
        # plain atom
        start_line, start_col = line, col
        j = i
        while j < n and text[j] not in _ATOM_END and text[j] != "#":
            j += 1
        word = text[i:j]
        advance(j - i)
        tokens.append(_Token("atom", word, start_line, start_col))
    return tokens


def _classify_atom(tok: _Token) -> Expr:
    word = tok.value
    if word.startswith(":"):
        name = word[1:]
        if not name:
            raise ParseError("empty keyword", tok.line, tok.col)
        try:
            return Variable(name)
        except VariableNameError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc
    if word == "true":
        return True
    if word == "false":
        return False
    if _INT_RE.match(word):
        return int(word)
    if _FLOAT_RE.match(word):
        return float(word)
    if word[0].isdigit() or (word[0] in "+-" and len(word) > 1 and word[1].isdigit()):
        raise ParseError(f"bad number: {word!r}", tok.line, tok.col)
    return Symbol(word, tok.line, tok.col)


def _freeze(expr: Expr):
    """Hashable structural key for duplicate detection in literals.

    An atom is its own key, so atoms collide exactly when their values are
    equal keys once evaluated (1, 1.0 and true; :x and "x"). Symbols and
    collections are tagged, so that a symbol is not its name's string.
    """
    if isinstance(expr, (int, float, str)):
        return expr
    if isinstance(expr, Symbol):
        return ("sym", expr.name)
    if isinstance(expr, VectorLit):
        return ("vec", tuple(_freeze(x) for x in expr.items))
    if isinstance(expr, SetLit):
        return ("set", frozenset(_freeze(x) for x in expr.items))
    if isinstance(expr, MapLit):
        return ("map", frozenset((_freeze(k), _freeze(v)) for k, v in expr.pairs))
    return ("apply", expr.op.name, tuple(_freeze(x) for x in expr.args))


def _unique(items, starts: list[_Token], message: str) -> None:
    """Fail at the first item equal to an earlier one."""
    seen = set()
    for x, tok in zip(items, starts):
        key = _freeze(x)
        if key in seen:
            raise ParseError(message, tok.line, tok.col)
        seen.add(key)


class _Parser:
    def __init__(self, tokens: list[_Token], end_line: int, end_col: int):
        self.tokens = tokens
        self.pos = 0
        self.end = (end_line, end_col)
        self.depth = 0  # collections open at the current token

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, opener: _Token | None = None) -> _Token:
        tok = self._peek()
        if tok is None:
            where = opener or _Token("", "", *self.end)
            raise ParseError(
                "unexpected end of input"
                + (f" (unclosed '{opener.kind}')" if opener else ""),
                where.line,
                where.col,
                incomplete=True,
            )
        self.pos += 1
        if tok.kind in ("(", "[", "{", "#{"):
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels", tok.line, tok.col)
        elif tok.kind in ")]}":
            self.depth -= 1
        return tok

    def expression(self) -> Expr:
        tok = self._next()
        return self._expression(tok)

    def _expression(self, tok: _Token) -> Expr:
        kind = tok.kind
        if kind == "atom":
            return _classify_atom(tok)
        if kind == "string":
            return tok.value
        if kind == "(":
            return self._application(tok)
        if kind == "[":
            return VectorLit(tuple(self._sequence("]", tok)[0]), tok.line, tok.col)
        if kind == "#{":
            items, starts = self._sequence("}", tok)
            _unique(items, starts, "duplicate set element")
            return SetLit(tuple(items), tok.line, tok.col)
        if kind == "{":
            items, starts = self._sequence("}", tok)
            if len(items) % 2:
                raise ParseError("map literal needs an even number of forms", tok.line, tok.col)
            _unique(items[::2], starts[::2], "duplicate map key")
            return MapLit(tuple(zip(items[::2], items[1::2])), tok.line, tok.col)
        raise ParseError(f"unexpected '{tok.value}'", tok.line, tok.col)

    def _sequence(self, closer: str, opener: _Token) -> tuple[list[Expr], list[_Token]]:
        """The items up to `closer`, and the token each item starts at."""
        items, starts = [], []
        while True:
            tok = self._next(opener)
            if tok.kind == closer:
                return items, starts
            if tok.kind in ")]}" :
                raise ParseError(f"mismatched '{tok.kind}'", tok.line, tok.col)
            starts.append(tok)
            items.append(self._expression(tok))

    def _application(self, opener: _Token) -> Apply:
        tok = self._next(opener)
        if tok.kind == ")":
            raise ParseError("empty application", opener.line, opener.col)
        head = self._expression(tok)
        if not isinstance(head, Symbol):
            raise ParseError("operator position requires an operator name", tok.line, tok.col)
        args, _ = self._sequence(")", opener)
        return Apply(head, tuple(args), opener.line, opener.col)


def parse(text: str) -> list[Expr]:
    """Parse a whole program into its top-level expressions."""
    lines = text.split("\n")
    end_line = len(lines)
    end_col = len(lines[-1]) + 1
    parser = _Parser(_tokenize(text), end_line, end_col)
    out = []
    while parser._peek() is not None:
        out.append(parser.expression())
    return out
