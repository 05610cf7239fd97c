"""Emitters: causal diagrams as DOT text, formulas as LaTeX math.

Output is deterministic: nodes, edges, subscripts and conditioning sets are
ordered by name; product factors are ordered by their rendered text
(descending, which puts bracketed sums ahead of plain conditionals, the
order probability factorizations are conventionally displayed in).
"""
from __future__ import annotations

from .formula import Fail, Form, Formula, Fraction, Prob, Product, Sum
from .model import Model
from .printer import print_value


def _names(vs) -> list[str]:
    return [str(v) for v in sorted(vs)]


# conditioning bar, sum sign, bracket pair, fraction format, bindings line
_TEXT = (" | ", "Σ", ("[", "]"), "({}) / ({})", "\n  where: ")
_LATEX = (" \\mid ", "\\sum", ("\\left[ ", " \\right]"), "\\frac{{{}}}{{{}}}", "\nwhere: ")


def _form(form: Form, tokens: tuple) -> str:
    bar, sum_sign, (left, right), fraction, _ = tokens
    if isinstance(form, Prob):
        inside = ", ".join(_names(form.p))
        if form.given:
            inside += bar + ", ".join(_names(form.given))
        return f"P({inside})"
    if isinstance(form, Sum):
        return sum_sign + "_{" + ", ".join(_names(form.sub)) + "} " + _form(form.body, tokens)
    if isinstance(form, Product):
        rendered = []
        for factor in form.factors:
            text = _form(factor, tokens)
            if isinstance(factor, Sum):
                text = left + text + right
            rendered.append(text)
        return " ".join(sorted(rendered, reverse=True))
    return fraction.format(_form(form.numer, tokens), _form(form.denom, tokens))


def _render(f: Formula | Form, tokens: tuple) -> str:
    if not isinstance(f, Formula):
        return _form(f, tokens)
    text = _form(f.form, tokens)
    if f.bindings:
        pairs = ", ".join(f"{v}={print_value(val)}" for v, val in sorted(f.bindings.items()))
        return text + tokens[-1] + pairs
    return text


def to_latex(f: Formula | Form) -> str:
    """LaTeX math for a formula; bindings become a trailing `where:` line."""
    return _render(f, _LATEX)


def to_text(f: Formula | Form | Fail) -> str:
    """Plain-text rendering of a formula, used by the REPL."""
    if isinstance(f, Fail):
        return "Fail: " + f.message
    return _render(f, _TEXT)


def to_dot(m: Model) -> str:
    """The diagram as a DOT digraph; confounding becomes dashed <-> edges."""
    lines = ["digraph G {"]
    for v in sorted(m.vertices):
        lines.append(f"  {v};")
    directed = sorted((p, v) for v, ps in m.dag.items() for p in ps)
    for p, v in directed:
        lines.append(f"  {p} -> {v};")
    for pair in sorted(m.bidirected_pairs(), key=sorted):
        a, b = sorted(pair)
        lines.append(f"  {a} -> {b} [dir=both, style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
