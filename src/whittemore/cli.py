"""Command-line entry point: script runner, REPL, CSV ingestion, inspection.

Usage:
  whittemore run <file.wt>            evaluate a script, printing each result
  whittemore repl                     interactive session
  whittemore --emit dot|latex <file>  render the script's last value
  whittemore --version | --help
"""
from __future__ import annotations

import csv
import os
import sys
from typing import Any, Mapping, Sequence

from . import __version__
from .distribution import CategoricalDistribution
from .errors import EvalError, ParseError, WhittemoreError
from .formula import Formula
from .model import Model, Variable
from .printer import TextBlock, display_value, print_value

_USAGE = """\
usage: whittemore run <file.wt>
       whittemore repl
       whittemore [--emit dot|latex] <file.wt>
       whittemore --version
"""


def read_csv(path: str) -> list[dict[Variable, Any]]:
    """Load a CSV file (header row required) as a vector of sample events.

    Cell text is kept as strings; no numeric coercion is applied.
    """
    from .errors import DataFormatError

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
    v = Variable(variable)
    support = dist.support
    if v not in support:
        from .errors import UnknownVariableError

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


def _color_enabled(stream) -> bool:
    return stream.isatty() and not os.environ.get("WHITTEMORE_NO_COLOR")


def _print_error(message: str) -> None:
    if _color_enabled(sys.stderr):
        message = f"\x1b[31m{message}\x1b[0m"
    print(message, file=sys.stderr)


def run_script(path: str, emit: str | None = None) -> int:
    from .interpreter import eval_program

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        _print_error(f"cannot read {path!r}: {exc.strerror}")
        return 1
    try:
        values, _ = eval_program(text)
    except WhittemoreError as exc:
        _print_error(f"{path}: {exc}")
        return 1
    if emit is None:
        for value in values:
            print(display_value(value))
        return 0
    if not values:
        _print_error(f"{path}: nothing to emit from an empty script")
        return 1
    return _emit(values[-1], emit, path)


def _emit(value: Any, emit: str, path: str) -> int:
    from .render import to_dot, to_latex

    if emit == "dot":
        if not isinstance(value, Model):
            _print_error(f"{path}: --emit dot needs the last value to be a model")
            return 1
        sys.stdout.write(to_dot(value))
        return 0
    if not isinstance(value, Formula):
        _print_error(f"{path}: --emit latex needs the last value to be a formula")
        return 1
    print(to_latex(value))
    return 0


def repl() -> int:
    from .interpreter import eval_expr, standard_environment
    from .reader import parse

    env = standard_environment()
    color = _color_enabled(sys.stdout)
    prompt = "\x1b[1mwt>\x1b[0m " if color else "wt> "
    contin = "\x1b[1m..>\x1b[0m " if color else "..> "
    print(f"whittemore {__version__} (:q to quit, doc <symbol> for help)")
    buffer = ""
    while True:
        try:
            line = input(contin if buffer else prompt)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            buffer = ""
            continue
        if not buffer:
            stripped = line.strip()
            if stripped == ":q":
                return 0
            if stripped.startswith("doc ") or stripped == "doc":
                name = stripped[3:].strip()
                doc = env.doc(name)
                if doc is None:
                    text = "no documentation" if name in env.bindings else "unbound symbol"
                    print(f"{name}: {text}" if name else "usage: doc <symbol>")
                else:
                    print(doc)
                continue
        buffer = buffer + "\n" + line if buffer else line
        try:
            exprs = parse(buffer)
        except ParseError as exc:
            if exc.incomplete:
                continue
            _print_error(str(exc))
            buffer = ""
            continue
        buffer = ""
        try:
            for expr in exprs:
                value, env = eval_expr(env, expr)
                print(display_value(value))
        except WhittemoreError as exc:
            _print_error(str(exc))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    emit = None
    if "--version" in args:
        print(f"whittemore {__version__}")
        return 0
    if "--help" in args or "-h" in args:
        print(_USAGE, end="")
        return 0
    if args and args[0] == "--emit":
        if len(args) < 2 or args[1] not in ("dot", "latex"):
            _print_error("--emit requires 'dot' or 'latex'")
            print(_USAGE, end="", file=sys.stderr)
            return 2
        emit, args = args[1], args[2:]
        if len(args) != 1:
            _print_error("--emit requires exactly one script file")
            return 2
        return run_script(args[0], emit)
    if not args:
        print(_USAGE, end="", file=sys.stderr)
        return 2
    command, rest = args[0], args[1:]
    if command == "run":
        if len(rest) != 1:
            _print_error("run requires exactly one script file")
            return 2
        return run_script(rest[0])
    if command == "repl":
        if rest:
            _print_error("repl takes no arguments")
            return 2
        return repl()
    _print_error(f"unknown command: {command}")
    print(_USAGE, end="", file=sys.stderr)
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
