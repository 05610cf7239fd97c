"""Command-line entry point: script runner and REPL.

Usage:
  whittemore run <file.wt>            evaluate a script, printing each result
  whittemore repl                     interactive session
  whittemore --emit dot|latex <file>  render the script's last value
  whittemore --version | --help
"""
from __future__ import annotations

import os
import sys
from typing import Any, Sequence

from . import __version__
from .errors import ParseError, WhittemoreError
from .formula import Formula
from .interpreter import eval_program, eval_top_level, standard_environment
from .interpreter import head, marginal_table, read_csv, write_csv  # noqa: F401  re-exported
from .model import Model
from .printer import display_value
from .reader import parse

_USAGE = """\
usage: whittemore run <file.wt>
       whittemore repl
       whittemore [--emit dot|latex] <file.wt>
       whittemore --version
"""


def _color_enabled(stream) -> bool:
    return stream.isatty() and not os.environ.get("WHITTEMORE_NO_COLOR")


def _print_error(message: str) -> None:
    if _color_enabled(sys.stderr):
        message = f"\x1b[31m{message}\x1b[0m"
    print(message, file=sys.stderr)


def run_script(path: str, emit: str | None = None) -> int:
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
                value, env = eval_top_level(env, expr)
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
