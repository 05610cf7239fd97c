"""Expression evaluation: environments, define, and operator dispatch.

Evaluation is total and pure: there are no user-defined functions, loops or
mutation, and define extends the environment functionally (a symbol can never
be rebound). Strings may be used in place of keywords and vectors in place of
sets wherever variables or variable collections are expected. The sample
helpers behind read-csv, head and marginal-table live here too.
"""
from __future__ import annotations

import csv
from typing import Any, Callable, Mapping, Sequence

from .distribution import (
    CategoricalDistribution,
    as_event,
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
    WhittemoreError,
)
from .identify import Query, identify, make_query
from .model import Data, Model, Variable, make_model
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


def _as_variable(value: Any) -> Variable:
    if isinstance(value, (Variable, str)):
        return Variable(value)
    raise EvalError(f"expected a variable name, got {value!r}")


def _as_variable_collection(value: Any, what: str) -> list[Variable]:
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_as_variable(v) for v in value]
    if isinstance(value, (Variable, str)):
        return [Variable(value)]
    raise EvalError(f"{what} must be a vector or set of variables, got {value!r}")


def _op_model(args: list) -> Model:
    if not args:
        raise EvalError("model requires a dag map")
    dag = args[0]
    if not isinstance(dag, Mapping):
        raise EvalError(f"model dag must be a map, got {dag!r}")
    dag_norm = {
        _as_variable(k): _as_variable_collection(v, "parent list") for k, v in dag.items()
    }
    confounding = [
        _as_variable_collection(group, "confounding set") for group in args[1:]
    ]
    return make_model(dag_norm, confounding)


def _op_data(args: list) -> Data:
    if len(args) != 1:
        if len(args) >= 2 and args[1] == Variable("do"):
            raise EvalError("surrogate-experiment data signatures are not supported")
        raise EvalError("data takes exactly one joint argument")
    return Data(_as_variable_collection(args[0], "joint"))


def _query_part(value: Any, what: str):
    if isinstance(value, Mapping):
        return as_event(value, what)
    return _as_variable_collection(value, what)


def _op_q(args: list) -> Query:
    if not args:
        raise EvalError("q requires an effect argument")
    effect = args[0]
    if isinstance(effect, Mapping):
        effect = as_event(effect, "effect")
    else:
        effect = _as_variable_collection(effect, "effect")
    rest = args[1:]
    if len(rest) % 2:
        raise EvalError("q keyword arguments must come in :do/:given value pairs")
    do = given = None
    for marker, value in zip(rest[::2], rest[1::2]):
        if marker == Variable("do"):
            if do is not None:
                raise EvalError("duplicate :do argument")
            do = _query_part(value, "do")
        elif marker == Variable("given"):
            if given is not None:
                raise EvalError("duplicate :given argument")
            given = _query_part(value, "given")
        else:
            raise EvalError(f"unknown keyword argument {marker!r} (expected :do or :given)")
    return make_query(effect, do, given)


def _op_identify(args: list):
    if len(args) == 2:
        model, query = args
        data = None
    elif len(args) == 3:
        model, data, query = args
    else:
        raise EvalError("identify takes (identify model data? query)")
    if not isinstance(model, Model):
        raise EvalError(f"identify requires a model, got {model!r}")
    if data is not None and not isinstance(data, Data):
        raise EvalError(f"identify data argument must be a data signature, got {data!r}")
    if not isinstance(query, Query):
        raise EvalError(f"identify requires a query, got {query!r}")
    if data is None:
        return identify(model, query)
    return identify(model, data, query)


def _op_estimate(args: list):
    if len(args) != 2:
        raise EvalError("estimate takes a distribution and a formula or query")
    return estimate(args[0], args[1])


def _op_measure(args: list):
    if len(args) != 2:
        raise EvalError("measure takes a distribution and an event map")
    return measure(args[0], args[1])


def _op_signature(args: list):
    if len(args) != 1:
        raise EvalError("signature takes a distribution")
    return signature(args[0])


def _op_infer(args: list):
    if len(args) != 3:
        raise EvalError("infer takes a model, a distribution and a query")
    model, dist, query = args
    if not isinstance(model, Model):
        raise EvalError(f"infer requires a model, got {model!r}")
    if not isinstance(query, Query):
        raise EvalError(f"infer requires a query, got {query!r}")
    return infer(model, dist, query)


def _op_categorical(args: list):
    if len(args) != 1 or not isinstance(args[0], (list, tuple)):
        raise EvalError("categorical takes a vector of sample events")
    return categorical(args[0])


def read_csv(path: str) -> list[dict[Variable, Any]]:
    """Load a CSV file (header row required) as a vector of sample events.

    Cell text is kept as strings; no numeric coercion is applied.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path!r}: {exc.strerror}") from exc
    with handle:
        rows = list(csv.reader(handle))
    if not rows or not any(cell.strip() for cell in rows[0]):
        raise DataFormatError(f"{path}:1: missing header row")
    header = [Variable(name) for name in rows[0]]
    if len(set(header)) != len(header):
        raise DataFormatError(f"{path}:1: duplicate column name")
    samples = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        samples.append({v: cell for v, cell in zip(header, row)})
    return samples


def write_csv(path: str, samples: Sequence[Mapping[Any, Any]]) -> None:
    """Write sample events back out; inverse of read_csv for string cells."""
    if not samples:
        raise EvalError("cannot write an empty sample collection")
    columns = list(samples[0])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([str(c) for c in columns])
        for sample in samples:
            writer.writerow([sample[c] for c in columns])


def head(samples: Sequence, n: int) -> list:
    """The first n samples."""
    if n < 0:
        raise EvalError(f"head count must be nonnegative, got {n}")
    return list(samples[:n])


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


def _op_read_csv(args: list):
    if len(args) != 1 or not isinstance(args[0], str):
        raise EvalError("read-csv takes a file path string")
    return read_csv(args[0])


def _op_head(args: list):
    if len(args) != 2:
        raise EvalError("head takes a sample vector and a count")
    samples, n = args
    if not isinstance(samples, (list, tuple)):
        raise EvalError("head requires a vector of samples")
    if not isinstance(n, int) or isinstance(n, bool):
        raise EvalError("head count must be an integer")
    return head(samples, n)


def _op_marginal_table(args: list):
    if len(args) != 2:
        raise EvalError("marginal-table takes a distribution and a variable")
    return marginal_table(args[0], _as_variable(args[1]))


_OPERATORS: dict[str, Callable[[list], Any]] = {
    "model": _op_model,
    "data": _op_data,
    "q": _op_q,
    "identify": _op_identify,
    "estimate": _op_estimate,
    "measure": _op_measure,
    "signature": _op_signature,
    "infer": _op_infer,
    "categorical": _op_categorical,
    "read-csv": _op_read_csv,
    "head": _op_head,
    "marginal-table": _op_marginal_table,
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
            return frozenset(out), env
        except TypeError:
            raise EvalError("set elements must be simple values") from None
    if isinstance(expr, MapLit):
        result = {}
        for key_expr, value_expr in expr.pairs:
            key, env = eval_expr(env, key_expr)
            value, env = eval_expr(env, value_expr)
            try:
                result[key] = value
            except TypeError:
                raise EvalError("map keys must be simple values") from None
        return result, env
    if isinstance(expr, Apply):
        if expr.op.name == "define":
            return _eval_define(env, expr)
        handler = _OPERATORS.get(expr.op.name)
        if handler is None:
            raise EvalError(f"unknown operator: {expr.op.name}")
        args = []
        for arg in expr.args:
            value, env = eval_expr(env, arg)
            args.append(value)
        return handler(args), env
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


def eval_program(text: str, env: Environment | None = None) -> tuple[list, Environment]:
    """Parse and evaluate a whole program; returns all top-level values.

    Evaluation errors are re-raised with the position of the top-level
    expression they occurred in.
    """
    env = env or standard_environment()
    values = []
    for expr in parse(text):
        try:
            value, env = eval_expr(env, expr)
        except ParseError:
            raise
        except WhittemoreError as exc:
            line = getattr(expr, "line", 0)
            if line:
                raise type(exc)(f"{line}:{getattr(expr, 'col', 0)}: {exc}") from exc
            raise
        values.append(value)
    return values, env
