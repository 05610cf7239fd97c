"""Rewriting of formula forms: small passes applied bottom-up to a fixpoint.

Every rule maps a valid form to a strictly smaller valid form denoting the
same probability function, so the pipeline terminates. Rules never move a
subterm across a sum that captures one of its variables. Every rule returns
a node whose children are already normal, so one bottom-up sweep that
rewrites each node until no rule applies reaches the fixpoint.
"""
from __future__ import annotations

from typing import Callable, Optional

from .formula import ONE, Form, Formula, Fraction, Prob, Product, Sum, product

Rule = Callable[[Form], Optional[Form]]


def _rule_marginalize(f: Form) -> Form | None:
    # sum_T P(S | G) -> P(S - T | G) when T is inside S and misses G
    if isinstance(f, Sum) and isinstance(f.body, Prob):
        t, body = f.sub, f.body
        if t <= body.p and not (t & body.given):
            return Prob(body.p - t, body.given)
    return None


def _rule_condition(f: Form) -> Form | None:
    # P(A | G) / P(B | G) -> P(A - B | G + B) when B is strictly inside A
    if isinstance(f, Fraction) and isinstance(f.numer, Prob) and isinstance(f.denom, Prob):
        numer, denom = f.numer, f.denom
        if numer.given == denom.given and denom.p < numer.p:
            return Prob(numer.p - denom.p, numer.given | denom.p)
    return None


def _rule_sum_cleanup(f: Form) -> Form | None:
    if isinstance(f, Sum):
        if not f.sub:
            return f.body
        # merge directly nested sums over disjoint subscripts
        if isinstance(f.body, Sum) and not (f.sub & f.body.sub):
            return Sum(f.body.body, f.sub | f.body.sub)
    return None


def _rule_product_cleanup(f: Form) -> Form | None:
    if not isinstance(f, Product):
        return None
    if len(f.factors) == 1:
        return f.factors[0]
    flattened: list[Form] = []
    changed = False
    for x in f.factors:
        if isinstance(x, Product):
            flattened.extend(x.factors)
            changed = True
        elif x == ONE:
            changed = True  # constant-1 factor (closed form only)
        else:
            flattened.append(x)
    if changed:
        return product(flattened)
    return None


def _rule_fraction_cleanup(f: Form) -> Form | None:
    if isinstance(f, Fraction) and f.denom == ONE:
        return f.numer
    return None


_SIMPLIFY_RULES: tuple[Rule, ...] = (
    _rule_marginalize,
    _rule_condition,
    _rule_sum_cleanup,
    _rule_product_cleanup,
    _rule_fraction_cleanup,
)


def _apply_at_node(f: Form, rules: tuple[Rule, ...]) -> Form:
    while True:
        for rule in rules:
            out = rule(f)
            if out is not None:
                f = out
                break
        else:
            return f


def _sweep(f: Form, rules: tuple[Rule, ...]) -> Form:
    # children first, then the node itself
    if isinstance(f, Sum):
        f = Sum(_sweep(f.body, rules), f.sub)
    elif isinstance(f, Product):
        f = Product(tuple(_sweep(x, rules) for x in f.factors))
    elif isinstance(f, Fraction):
        f = Fraction(_sweep(f.numer, rules), _sweep(f.denom, rules))
    return _apply_at_node(f, rules)


def marginalize_pass(f: Form) -> Form:
    """Collapse sums over variables of an atomic joint, bottom-up to fixpoint."""
    return _sweep(f, (_rule_marginalize,))


def condition_pass(f: Form) -> Form:
    """Collapse fractions of nested atomic terms into conditionals."""
    return _sweep(f, (_rule_condition,))


def simplify_form(f: Form) -> Form:
    """Run all rewrite rules to a global fixpoint."""
    return _sweep(f, _SIMPLIFY_RULES)


def simplify(f: Formula | Form) -> Formula | Form:
    """Simplify a formula (or bare form); bindings are left untouched."""
    if isinstance(f, Formula):
        return Formula(simplify_form(f.form), f.bindings, f.effect)
    return simplify_form(f)
