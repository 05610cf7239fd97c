"""Expression evaluation: environments, define, and operator dispatch.

Evaluation is total and pure: there are no user-defined functions, loops or
mutation, and define extends the environment functionally (a symbol can never
be rebound). An operator is one row of `_OPERATORS`: the argument counts it
accepts, its usage text, and the library call it makes. The interpreter checks
only the count; the library reads every argument as it would a Python
caller's, so strings stand in for keywords and vectors for sets there too.
Only data (the surrogate-experiment error) and q (its keyword pairs) have code
of their own. The sample helpers behind read-csv, head and marginal-table live
here too.
"""
from __future__ import annotations

import csv
import os
import sys
from collections.abc import Callable, Container, Mapping, Sequence
from typing import Any

from .distribution import (
    CategoricalDistribution,
    SampleTable,
    _code,
    categorical,
    estimate,
    infer,
    measure,
    signature,
)
from .errors import (
    DataFormatError,
    EstimationError,
    EvalError,
    ParseError,
    RedefinitionError,
    UnboundSymbolError,
    UnknownVariableError,
    VariableNameError,
    WhittemoreError,
)
from .identify import Query, identify, make_query
from .model import Data, Variable, make_model
from .printer import TextBlock, print_value
from .reader import Apply, Expr, MapLit, SetLit, Symbol, VectorLit, parse


class Environment:
    """Immutable symbol table; `define` produces extended copies."""

    __slots__ = ("bindings", "docs")

    def __init__(self, bindings: dict | None = None, docs: dict | None = None):
        object.__setattr__(self, "bindings", dict(bindings or {}))
        object.__setattr__(self, "docs", dict(docs or {}))

    def __setattr__(self, name, value):
        raise AttributeError("Environment is immutable; use with_binding")

    def lookup(self, name: str) -> Any:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundSymbolError(f"unbound symbol: {name}") from None

    def with_binding(self, name: str, value: Any, doc: str | None = None) -> "Environment":
        if name in self.bindings:
            raise RedefinitionError(f"define cannot rebind symbol: {name}")
        bindings = dict(self.bindings)
        bindings[name] = value
        docs = dict(self.docs)
        if doc is not None:
            docs[name] = doc
        return Environment(bindings, docs)

    def doc(self, name: str) -> str | None:
        return self.docs.get(name)


def standard_environment() -> Environment:
    return Environment()


def _op_data(joint, *rest) -> Data:
    if rest:
        if rest[0] == "do":
            raise EvalError("surrogate-experiment data signatures are not supported")
        raise EvalError("data takes exactly one joint argument")
    return Data(joint)


def _op_q(effect, *rest) -> Query:
    if len(rest) % 2:
        raise EvalError("q keyword arguments must come in :do/:given value pairs")
    parts = {}
    for marker, value in zip(rest[::2], rest[1::2]):
        if marker not in ("do", "given"):
            raise EvalError(f"unknown keyword argument {marker!r} (expected :do or :given)")
        if marker in parts:
            raise EvalError(f"duplicate :{marker} argument")
        parts[marker] = value
    return make_query(effect, parts.get("do"), parts.get("given"))


def read_csv(path: str | os.PathLike) -> SampleTable:
    """Load a CSV file (header row required) as a table of sample events.

    Cell text is kept as strings; no numeric coercion is applied. A UTF-8
    byte-order mark at the start of the file is skipped. The table is an
    immutable sequence of `{Variable: cell}` maps; call `list` on it for a
    vector that can be changed.

    The body is read once, and each physical line gets a code before any is
    split, so a repeated line is parsed once. When every distinct line holds
    a whole record, the line codes are the table's codes, merged where two
    lines give the same row (such as `1,2` with and without a line break).
    When some quoted cell runs past the end of its line, or a line does not
    parse, csv reads the coded lines in file order, record by record. The
    file itself is never read twice, so a pipe works. As the body is decoded
    before any of its lines is parsed, a byte that is not UTF-8 is reported
    ahead of a csv error on an earlier line.
    """
    _check_path(path, "read-csv")
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path!r}: {exc.strerror}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = _header(path, next(reader, []))
            line = reader.line_num + 1
            lines, codes = _code(handle)
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    table = _whole_lines(header, lines, codes)
    if table is None:
        reader = csv.reader(map(lines.__getitem__, codes))
        try:
            table = SampleTable(header, *_code(map(tuple, reader)))
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{line - 1 + reader.line_num}: {exc}") from None
    if any(len(row) != len(header) for row in table.distinct):
        # find the first short or long row, and the line it starts on: one
        # line, plus one for each line break inside its quoted cells
        for row in table.rows:
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{line}: expected {len(header)} fields, got {len(row)}"
                )
            line += 1 + sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)
    return table


def _header(path: str | os.PathLike, cells: list[str]) -> tuple[Variable, ...]:
    """The header row's cells as variables, each checked."""
    if not any(cell.strip() for cell in cells):
        raise DataFormatError(f"{path}:1: missing header row")
    header = []
    for column, cell in enumerate(cells, 1):
        try:
            header.append(Variable(cell))
        except VariableNameError as exc:
            raise DataFormatError(f"{path}:1: column {column}: {exc}") from None
    if len(set(header)) != len(header):
        raise DataFormatError(f"{path}:1: duplicate column name")
    return tuple(header)


def _whole_lines(
    header: tuple[Variable, ...], lines: tuple[str, ...], codes: tuple[int, ...]
) -> SampleTable | None:
    """The table of the coded lines, parsed one distinct line each, or None
    if some distinct line does not hold a whole record or does not parse.

    A record that runs past its line makes csv read more lines than it
    gives records, unless the last distinct line is the one left open; then
    a cell of its record holds that line's break.
    """
    reader = csv.reader(lines)
    try:
        rows = tuple(map(tuple, reader))
    except csv.Error:
        return None
    if reader.line_num != len(rows):
        return None
    if rows and any("\r" in c or "\n" in c for c in rows[-1]):
        return None
    if len(dict.fromkeys(rows)) < len(rows):
        # two lines give one row: code the rows, and recode the lines by them
        rows, recode = _code(rows)
        codes = tuple(map(recode.__getitem__, codes))
    return SampleTable(header, rows, codes)


def _check_path(path: Any, op: str) -> None:
    if not isinstance(path, (str, os.PathLike)):
        raise DataFormatError(f"{op} needs a file path string, got {type(path).__name__}")


def write_csv(path: str | os.PathLike, samples: Sequence[Mapping[Any, Any]]) -> None:
    """Write sample events back out; inverse of read_csv for string cells.

    A table is written as its header and rows. Otherwise every sample must
    be a map with the first one's variables. All of the input is checked
    before the file is opened. No byte-order mark is written.
    """
    _check_path(path, "write_csv")
    if isinstance(samples, SampleTable):
        columns, rows = samples.header, map(samples.distinct.__getitem__, samples.codes)
    else:
        if not isinstance(samples, (list, tuple)):
            raise DataFormatError(
                f"write_csv needs a vector of sample events, got {type(samples).__name__}"
            )
        if not samples:
            raise EvalError("cannot write an empty sample collection")
        for i, sample in enumerate(samples):
            if not isinstance(sample, Mapping):
                raise DataFormatError(
                    f"sample {i} is not a map of variables to values: {sample!r}"
                )
            if sample.keys() != samples[0].keys():
                raise DataFormatError(
                    f"sample {i} has variables {sorted(map(str, sample))}, "
                    f"expected {sorted(map(str, samples[0]))}"
                )
        columns = list(samples[0])
        rows = ([sample[c] for c in columns] for sample in samples)
    try:
        handle = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot write {path!r}: {exc.strerror}") from exc
    with handle:
        writer = csv.writer(handle)
        writer.writerow([str(c) for c in columns])
        writer.writerows(rows)


def head(samples: Sequence, n: int) -> Sequence:
    """The first n samples: a table of a table, otherwise a list."""
    if not isinstance(samples, (list, tuple, SampleTable)):
        raise EvalError(f"head needs a vector of samples, got {type(samples).__name__}")
    if not isinstance(n, int) or isinstance(n, bool):
        raise EvalError(f"head count must be an integer, got {n!r}")
    if n < 0:
        raise EvalError(f"head count must be nonnegative, got {n}")
    first = samples[:n]
    return first if isinstance(first, SampleTable) else list(first)


_BAR_WIDTH = 40


def marginal_table(dist: CategoricalDistribution, variable: Any) -> TextBlock:
    """A textual marginal distribution: value, probability, and a bar."""
    if not isinstance(dist, CategoricalDistribution):
        raise EstimationError(
            f"marginal-table needs a categorical distribution, got {type(dist).__name__}"
        )
    v = Variable(variable)
    support = dist.support
    if v not in support:
        raise UnknownVariableError(f"not in distribution: {v!r}")
    rows = []
    for value in sorted(support[v], key=str):
        p = dist.measure({v: value})
        rows.append((str(value) if isinstance(value, str) else print_value(value), p))
    width = max(len(label) for label, _ in rows)
    lines = []
    for label, p in rows:
        bar = "#" * round(p * _BAR_WIDTH)
        lines.append(f"{label.ljust(width)}  {p!r}  {bar}".rstrip())
    return TextBlock("\n".join(lines))


_ONE_OR_MORE = range(1, sys.maxsize)

# name -> (accepted argument counts, usage, call). Each call looks its
# function up in this module when it runs, so a replaced module attribute
# (a tracer's wrapper, say) is the one called.
_OPERATORS: dict[str, tuple[Container[int], str, Callable[..., Any]]] = {
    "model": (_ONE_OR_MORE, "(model dag confounding-set*)",
              lambda dag, *groups: make_model(dag, groups)),
    "data": (_ONE_OR_MORE, "(data joint)", lambda *a: _op_data(*a)),
    "q": (_ONE_OR_MORE, "(q effect :do do? :given given?)", lambda *a: _op_q(*a)),
    "identify": ((2, 3), "(identify model data? query)", lambda *a: identify(*a)),
    "estimate": ((2,), "(estimate distribution formula-or-query)", lambda *a: estimate(*a)),
    "measure": ((2,), "(measure distribution event)", lambda *a: measure(*a)),
    "signature": ((1,), "(signature distribution)", lambda *a: signature(*a)),
    "infer": ((3,), "(infer model distribution query)", lambda *a: infer(*a)),
    "categorical": ((1,), "(categorical samples)", lambda *a: categorical(*a)),
    "read-csv": ((1,), "(read-csv path)", lambda *a: read_csv(*a)),
    "head": ((2,), "(head samples count)", lambda *a: head(*a)),
    "marginal-table": ((2,), "(marginal-table distribution variable)",
                       lambda *a: marginal_table(*a)),
}


def eval_expr(env: Environment, expr: Expr) -> tuple[Any, Environment]:
    """Evaluate one expression, returning its value and the (possibly
    extended) environment."""
    if isinstance(expr, Symbol):
        return env.lookup(expr.name), env
    if isinstance(expr, (Variable, bool, int, float, str)):
        return expr, env
    if isinstance(expr, VectorLit):
        out = []
        for item in expr.items:
            value, env = eval_expr(env, item)
            out.append(value)
        return out, env
    if isinstance(expr, SetLit):
        out = []
        for item in expr.items:
            value, env = eval_expr(env, item)
            out.append(value)
        try:
            result = frozenset(out)
        except TypeError:
            raise EvalError("set elements must be simple values") from None
        # the reader rejects repeated literals; equal values under two symbols
        # only meet here
        if len(result) < len(out):
            raise EvalError("duplicate set element")
        return result, env
    if isinstance(expr, MapLit):
        result = {}
        for key_expr, value_expr in expr.pairs:
            key, env = eval_expr(env, key_expr)
            value, env = eval_expr(env, value_expr)
            try:
                result[key] = value
            except TypeError:
                raise EvalError("map keys must be simple values") from None
        if len(result) < len(expr.pairs):
            raise EvalError("duplicate map key")
        return result, env
    if isinstance(expr, Apply):
        if expr.op.name == "define":
            return _eval_define(env, expr)
        entry = _OPERATORS.get(expr.op.name)
        if entry is None:
            raise EvalError(f"unknown operator: {expr.op.name}")
        counts, usage, call = entry
        args = []
        for arg in expr.args:
            value, env = eval_expr(env, arg)
            args.append(value)
        if len(args) not in counts:
            raise EvalError(
                f"wrong number of arguments to {expr.op.name} ({len(args)}): expected {usage}"
            )
        return call(*args), env
    raise EvalError(f"cannot evaluate {expr!r}")


def _eval_define(env: Environment, expr: Apply) -> tuple[Any, Environment]:
    args = expr.args
    if len(args) == 2:
        sym, value_expr = args
        doc = None
    elif len(args) == 3:
        sym, doc, value_expr = args
        if not isinstance(doc, str) or isinstance(doc, Variable):
            raise EvalError("define docstring must be a string literal")
    else:
        raise EvalError("define takes (define symbol docstring? value)")
    if not isinstance(sym, Symbol):
        raise EvalError("define requires a symbol to bind")
    value, env = eval_expr(env, value_expr)
    return value, env.with_binding(sym.name, value, doc)


def eval_top_level(env: Environment, expr: Expr) -> tuple[Any, Environment]:
    """eval_expr for a top-level expression: an evaluation error is re-raised
    with the position of expr."""
    try:
        return eval_expr(env, expr)
    except ParseError:
        raise
    except WhittemoreError as exc:
        line = getattr(expr, "line", 0)
        if line:
            raise type(exc)(f"{line}:{getattr(expr, 'col', 0)}: {exc}") from exc
        raise


def eval_program(text: str, env: Environment | None = None) -> tuple[list, Environment]:
    """Parse and evaluate a whole program; returns all top-level values."""
    env = env or standard_environment()
    values = []
    for expr in parse(text):
        value, env = eval_top_level(env, expr)
        values.append(value)
    return values, env
