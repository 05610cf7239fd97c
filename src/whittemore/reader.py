"""Reader for the surface syntax: tokenizer and parser.

Literal syntax follows the usual Lisp-with-collections conventions: keywords
begin with a colon, vectors are [...], maps are {k v ...}, sets are #{...},
commas count as whitespace, and ; starts a line comment.

The tokenizer reads a program in one scan of one compiled pattern. An offset
becomes a line and column, through line starts found once per program, only
for a token it keeps and for an error.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Union

from .errors import ParseError, VariableNameError
from .model import _RESERVED_CHARS, Variable

# Whitespace, commas and comments match no group. An atom stops at every
# character no variable name holds, so a printed keyword reads back as one. The
# catch-all meets only a '#' that opens no set and a '"' that is never closed.
_TOKEN_RE = re.compile(
    r"[ \t\r\n,]+|;[^\n]*"
    r"|(?P<delim>#\{|[()\[\]{}])"
    r'|(?P<string>"(?:[^"\\]|\\.)*")'
    r"|(?P<atom>[^ \t\r\n" + re.escape("".join(sorted(_RESERVED_CHARS))) + r"]+)"
    r"|(?P<error>.)",
    re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

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


class _Token(NamedTuple):
    kind: str  # one of ( ) [ ] { } #{ atom string end
    value: Any
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text`, closed by an "end" token at the end of input."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def where(offset: int) -> tuple[int, int]:
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    def unescape(start: int, end: int) -> str:
        def decode(m: re.Match) -> str:
            if m[1] not in _ESCAPES:
                raise ParseError(f"bad escape '\\{m[1]}'", *where(start + m.start(1)))
            return _ESCAPES[m[1]]

        return _ESCAPE_RE.sub(decode, text[start:end])

    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, start = m.lastgroup, m.start()
        if kind is None:
            continue
        if kind == "error":
            if text[start] == "#":
                raise ParseError("stray '#' (expected '#{')", *where(start))
            unescape(start + 1, len(text))  # a bad escape is reported first
            raise ParseError("unterminated string", *where(start), incomplete=True)
        value = m[kind]
        if kind == "delim":
            kind = value
        elif kind == "string":
            value = unescape(start + 1, m.end() - 1)
        tokens.append(_Token(kind, value, *where(start)))
    tokens.append(_Token("end", "", *where(len(text))))
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
    if _FLOAT_RE.match(word):
        try:
            number = int(word) if _INT_RE.match(word) else float(word)
        except ValueError:  # more digits than int() reads
            number = math.inf
        if abs(number) == math.inf:
            raise ParseError("number out of range", tok.line, tok.col)
        return number
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
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # collections open at the current token

    def _next(self, opener: _Token | None = None) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind == "end":
            where = opener or tok
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
    parser = _Parser(_tokenize(text))
    out = []
    while parser.tokens[parser.pos].kind != "end":
        out.append(parser._expression(parser._next()))
    return out
