"""The normal form of formula forms, for forms built from the raw dataclasses.

`sum_over`, `product` and `fraction` each apply their node's rules, and each
rule leaves a node whose children are already normal, so a form built
through them from normal parts is normal. Every rule maps a valid form to a
strictly smaller valid form denoting the same probability function, and no
rule moves a subterm across a sum that captures one of its variables.
`simplify_form` rebuilds a form bottom-up through those constructors.
"""
from __future__ import annotations

from .formula import Form, Formula, Fraction, Product, Sum, fraction, product, sum_over


def simplify_form(f: Form) -> Form:
    """The normal form of f: every node rebuilt, children first."""
    if isinstance(f, Sum):
        return sum_over(simplify_form(f.body), f.sub)
    if isinstance(f, Product):
        return product([simplify_form(x) for x in f.factors])
    if isinstance(f, Fraction):
        return fraction(simplify_form(f.numer), simplify_form(f.denom))
    return f


def simplify(f: Formula | Form) -> Formula | Form:
    """Simplify a formula (or bare form); bindings are left untouched."""
    if isinstance(f, Formula):
        return Formula(simplify_form(f.form), f.bindings, f.effect)
    return simplify_form(f)
