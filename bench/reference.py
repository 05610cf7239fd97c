"""Answers computed apart from the program under test.

Nothing here imports whittemore. Every function works on plain dicts, lists
and tuples: conditional probability tables, edge lists and CSV row counts.
A formula returned by the program is read only through the attribute names
of its four forms (`p`/`given`, `body`/`sub`, `factors`, `numer`/`denom`).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Mapping, Sequence


class CheckFailed(Exception):
    """An answer of the program disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    require(
        isinstance(got, float) and math.isfinite(got) and abs(got - want) <= tol,
        f"{what}: got {got!r}, want {want!r} (tolerance {tol:g})",
    )


# --- graphs ---------------------------------------------------------------


def ancestors(dag: Mapping[str, Sequence[str]], roots) -> set[str]:
    """The roots with everything that reaches them along directed edges."""
    seen = set(roots)
    stack = list(roots)
    while stack:
        v = stack.pop()
        for p in dag[v]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def connected_by_pairs(vertices, pairs) -> bool:
    """Whether the bidirected edges `pairs` connect all of `vertices`."""
    vertices = set(vertices)
    if not vertices:
        return False
    adjacency: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in pairs:
        if a in vertices and b in vertices:
            adjacency[a].add(b)
            adjacency[b].add(a)
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def form_variables(form) -> set[str]:
    """Every variable a form names, free or summed."""
    kind = type(form).__name__
    if kind == "Prob":
        return set(form.p) | set(form.given)
    if kind == "Sum":
        return form_variables(form.body) | set(form.sub)
    if kind == "Product":
        return set().union(*(form_variables(f) for f in form.factors))
    if kind == "Fraction":
        return form_variables(form.numer) | form_variables(form.denom)
    raise CheckFailed(f"unknown form {kind}")


def form_free(form) -> set[str]:
    """Variables of a form not captured by an enclosing sum."""
    kind = type(form).__name__
    if kind == "Prob":
        return set(form.p) | set(form.given)
    if kind == "Sum":
        return form_free(form.body) - set(form.sub)
    if kind == "Product":
        return set().union(*(form_free(f) for f in form.factors))
    if kind == "Fraction":
        return form_free(form.numer) | form_free(form.denom)
    raise CheckFailed(f"unknown form {kind}")


def form_nodes(form) -> int:
    kind = type(form).__name__
    if kind == "Prob":
        return 1
    if kind == "Sum":
        return 1 + form_nodes(form.body)
    if kind == "Product":
        return 1 + sum(form_nodes(f) for f in form.factors)
    return 1 + form_nodes(form.numer) + form_nodes(form.denom)


# --- binary joints given as {assignment tuple: probability} ---------------


def marginal(joint: Mapping[tuple, float], names: Sequence[str], event: Mapping[str, Any]):
    index = [(names.index(v), val) for v, val in event.items()]
    return math.fsum(w for key, w in joint.items() if all(key[i] == x for i, x in index))


def evaluate_form(form, env: dict, joint, names, domain=(0, 1)) -> float:
    """Value of a formula on an explicit joint; 0/0 is an error here."""
    kind = type(form).__name__
    if kind == "Prob":
        event = {v: env[v] for v in set(form.p) | set(form.given)}
        numer = marginal(joint, names, event)
        if not form.given:
            return numer
        denom = marginal(joint, names, {v: env[v] for v in form.given})
        require(denom > 0.0, "conditional on an empty stratum")
        return numer / denom
    if kind == "Sum":
        subs = sorted(form.sub)
        total = 0.0
        for combo in itertools.product(domain, repeat=len(subs)):
            total += evaluate_form(form.body, {**env, **dict(zip(subs, combo))}, joint, names)
        return total
    if kind == "Product":
        return math.prod(evaluate_form(f, env, joint, names) for f in form.factors)
    if kind == "Fraction":
        denom = evaluate_form(form.denom, env, joint, names)
        require(denom > 0.0, "fraction over zero")
        return evaluate_form(form.numer, env, joint, names) / denom
    raise CheckFailed(f"unknown form {kind}")


# --- binary Bayesian networks (estimate-backdoor) -------------------------


def bn_joint(order: Sequence[str], parents, cpt, do: Mapping[str, int] = {}):
    """Joint over `order` of a binary network, with `do` variables fixed.

    cpt[v][parent values] is P(v = 1 | parents).
    """
    joint = {}
    for key in itertools.product((0, 1), repeat=len(order)):
        values = dict(zip(order, key))
        if any(values[v] != val for v, val in do.items()):
            continue
        w = 1.0
        for v in order:
            if v in do:
                continue
            p1 = cpt[v][tuple(values[p] for p in parents[v])]
            w *= p1 if values[v] else 1.0 - p1
        joint[key] = w
    return joint


def interventional(order, parents, cpt, y: str, do: Mapping[str, int], given: Mapping[str, int]):
    """P(y = 0), P(y = 1) in the mutilated model, conditioned on `given`."""
    joint = bn_joint(order, parents, cpt, do)
    denom = marginal(joint, order, given)
    return tuple(marginal(joint, order, {**given, y: val}) / denom for val in (0, 1))


# --- binary SCMs with shared noise (identify-semimarkov) ------------------


def scm_joint(names, dag, pairs, noise_p, tables, do: Mapping[str, int] = {}):
    """Joint over `names` of a binary SCM, enumerated over its noise.

    Each variable has a private noise bit XORed into a table lookup on its
    parents and the noise bits of the confounding pairs it belongs to, so the
    observational joint has full support.
    """
    groups = [(v,) for v in names] + [tuple(p) for p in pairs]
    order = [v for v in names]  # names are generated in topological order
    joint: dict[tuple, float] = {}
    for bits in itertools.product((0, 1), repeat=len(groups)):
        w = 1.0
        for g, b in zip(groups, bits):
            w *= noise_p[g] if b else 1.0 - noise_p[g]
        noise = dict(zip(groups, bits))
        values: dict[str, int] = {}
        for v in order:
            if v in do:
                values[v] = do[v]
                continue
            shared = tuple(noise[g] for g in groups[len(names):] if v in g)
            base = tables[v][(tuple(values[p] for p in dag[v]), shared)]
            values[v] = base ^ noise[(v,)]
        key = tuple(values[v] for v in names)
        joint[key] = joint.get(key, 0.0) + w
    return joint


# --- categorical rows (script-ingest) -------------------------------------


def row_counts(rows: Sequence[Sequence[str]], columns: Sequence[str]):
    """Exact counts of every full assignment."""
    counts: dict[tuple, int] = {}
    for row in rows:
        key = tuple(row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def count_prob(counts, columns, event: Mapping[str, str], given: Mapping[str, str] = {}) -> Fraction:
    def n(ev):
        index = [(columns.index(v), val) for v, val in ev.items()]
        return sum(c for key, c in counts.items() if all(key[i] == x for i, x in index))

    return Fraction(n({**given, **event}), n(given))


def adjusted(counts, columns, levels, effect: Mapping[str, str], do: Mapping[str, str], adjust):
    """sum over adjust of P(effect | do-values, adjust) P(adjust), exactly."""
    total = Fraction(0)
    for combo in itertools.product(*(levels[v] for v in adjust)):
        z = dict(zip(adjust, combo))
        total += count_prob(counts, columns, effect, {**do, **z}) * count_prob(counts, columns, z)
    return total
