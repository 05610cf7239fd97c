"""Printing of values.

print_value is the canonical writer: reading its output back yields an equal
value for every literal (and for models, data signatures and queries, which
print as their constructor expressions). display_value is what the REPL and
script runner show; it differs only for values with a friendlier rendering
(sample tables, distributions, formulas).
"""
from __future__ import annotations

from typing import Any, Mapping, Sequence

from .distribution import CategoricalDistribution, SampleTable
from .errors import DataFormatError
from .formula import Fail, Formula
from .identify import Query
from .model import Data, Model, Variable


class TextBlock(str):
    """A string displayed raw (no quoting) by the REPL."""

    __slots__ = ()


def _escape(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def print_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Variable):
        return ":" + str.__str__(value)
    if isinstance(value, str) and not isinstance(value, TextBlock):
        return _escape(value)
    if isinstance(value, (int, float)):
        try:
            return repr(value)
        except ValueError:  # an int past the digit limit, which the reader refuses too
            from decimal import Decimal

            digits = Decimal(value).adjusted() + 1
            raise DataFormatError(f"cannot print an integer of {digits} digits") from None
    if isinstance(value, (list, tuple, SampleTable)):
        return "[" + " ".join(print_value(x) for x in value) + "]"
    if isinstance(value, (set, frozenset)):
        items = sorted(print_value(x) for x in value)
        return "#{" + " ".join(items) + "}"
    if isinstance(value, Mapping):
        pairs = sorted(
            (print_value(k), print_value(v)) for k, v in value.items()
        )
        return "{" + ", ".join(f"{k} {v}" for k, v in pairs) + "}"
    if isinstance(value, Model):
        return _print_model(value)
    if isinstance(value, Data):
        return "(data [" + " ".join(print_value(v) for v in value.joint) + "])"
    if isinstance(value, Query):
        return _print_query(value)
    return display_value(value)


def _print_model(m: Model) -> str:
    entries = ", ".join(
        f"{print_value(v)} [{' '.join(print_value(p) for p in ps)}]"
        for v, ps in sorted(m.dag.items())
    )
    confs = [
        "#{" + " ".join(print_value(c) for c in sorted(g)) + "}"
        for g in sorted(m.confounding, key=lambda g: sorted(g))
    ]
    return "(model {" + entries + "}" + ("".join(" " + c for c in confs)) + ")"


def _print_query(q: Query) -> str:
    if q.effect_values is not None:
        effect = print_value(q.effect_values)
    else:
        effect = "[" + " ".join(print_value(v) for v in q.effect) + "]"
    parts = ["(q", effect]
    for marker, vars_, values in (
        (":do", q.do, q.do_values),
        (":given", q.given, q.given_values),
    ):
        if not vars_:
            continue
        if values is None:
            parts.append(marker + " [" + " ".join(print_value(v) for v in vars_) + "]")
        else:
            parts.append(marker + " " + print_value(values))
    return " ".join(parts) + ")"


def _sample_rows(value: Any) -> tuple[Sequence, list] | None:
    """The columns and rows of a non-empty collection of sample events over
    one set of variables, or None for any other value."""
    if isinstance(value, SampleTable):
        return (value.header, value.rows) if value.codes else None
    if not isinstance(value, (list, tuple)) or not value:
        return None
    if not all(isinstance(x, Mapping) and x for x in value):
        return None
    keys = set(value[0])
    if not all(set(x) == keys for x in value):
        return None
    columns = list(value[0])
    return columns, [[s[c] for c in columns] for s in value]


def _sample_table(columns: Sequence[Any], rows: Sequence[Sequence[Any]]) -> str:
    headers = [str(c) for c in columns]
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) for i in range(len(columns))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _cell(v: Any) -> str:
    if isinstance(v, str) and not isinstance(v, Variable):
        return v
    return print_value(v)


def display_value(value: Any) -> str:
    if isinstance(value, TextBlock):
        return str(value)
    if isinstance(value, (Formula, Fail)):
        from .render import to_text

        return to_text(value)
    if isinstance(value, CategoricalDistribution):
        vs = " ".join(print_value(v) for v in value.variables)
        return f"#categorical[{vs}]"
    table = _sample_rows(value)
    if table is not None:
        return _sample_table(*table)
    return print_value(value)
