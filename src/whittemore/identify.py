"""Causal queries and the identification algorithm.

identify compiles P(effect | do, given) against a causal diagram into a
probability formula over the available joint, or returns Fail with a hedge
witness. The recursion is the standard ID algorithm of Shpitser & Pearl
(2006), which is complete for unconditional queries: there, Fail means that
no such formula exists. A conditional query is reduced to the ratio
P(y, z | do(x)) / sum_y P(y, z | do(x)), so it fails whenever that joint is
not identifiable, even where the conditional is. For example, with x -> y,
x -> z and x, z confounded, P(y | do(x), z) is identifiable but identify
returns Fail. The conditional algorithm (IDC) that closes this gap is not
implemented.
"""
from __future__ import annotations

from typing import Any, Mapping

from .errors import QueryError, UnknownVariableError
from .formula import (
    Fail,
    Form,
    Formula,
    Hedge,
    Prob,
    fraction,
    free_variables,
    product,
    sum_over,
)
from .model import (
    Data,
    Model,
    Variable,
    _c_components,
    _reach,
    as_event,
    latent_projection,
    names,
    subgraph,
    variables,
)


def _normalize_part(value, what: str):
    """Return (variables_tuple, values_map_or_None) for effect/do/given input."""
    if value is None:
        return (), {}
    if isinstance(value, Mapping):
        event = as_event(value, what)
        return tuple(event), event
    vs = names(value, what)
    if len(set(vs)) != len(vs):
        raise QueryError(f"duplicate variable in {what}")
    return vs, (None if vs else {})  # an empty part is the same as none


class Query:
    """A statistical or causal query in unbound, bound, or event form.

    Unbound queries name bare variables throughout; bound queries map do/given
    variables to values; event queries additionally map the effect variables
    to values, denoting a single probability.
    """

    __slots__ = ("effect", "effect_values", "do", "do_values", "given", "given_values")

    def __init__(self, effect, do=None, given=None):
        effect_vars, effect_values = _normalize_part(effect, "effect")
        do_vars, do_values = _normalize_part(do, "do")
        given_vars, given_values = _normalize_part(given, "given")
        if not effect_vars:
            raise QueryError("query effect must name at least one variable")
        parts = (set(effect_vars), set(do_vars), set(given_vars))
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = parts[i] & parts[j]
                if overlap:
                    raise QueryError(
                        f"effect, do and given must be disjoint; {sorted(overlap)} repeats"
                    )
        # one binding style per query: bare-variable parts and valued parts
        # may not be mixed (empty parts are compatible with either)
        some_bound = any(v is not None and v for v in (do_values, given_values))
        some_bound = some_bound or effect_values is not None
        some_unbound = (do_values is None and do_vars) or (
            given_values is None and given_vars
        )
        if some_bound and some_unbound:
            raise QueryError("cannot mix bound and unbound parts in one query")
        object.__setattr__(self, "effect", effect_vars)
        object.__setattr__(self, "effect_values", effect_values)
        object.__setattr__(self, "do", do_vars)
        object.__setattr__(self, "do_values", do_values)
        object.__setattr__(self, "given", given_vars)
        object.__setattr__(self, "given_values", given_values)

    def __setattr__(self, name, value):
        raise AttributeError("Query is immutable")

    @property
    def kind(self) -> str:
        if self.effect_values is not None:
            return "event"
        if (self.do and self.do_values is None) or (
            self.given and self.given_values is None
        ):
            return "unbound"
        return "bound"

    def bound_values(self) -> dict[Variable, Any]:
        """All variable->value pairs the query fixes (do, given, event effect)."""
        out: dict[Variable, Any] = {}
        for values in (self.do_values, self.given_values, self.effect_values):
            if values:
                out.update(values)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return (
            set(self.effect) == set(other.effect)
            and self.effect_values == other.effect_values
            and set(self.do) == set(other.do)
            and self.do_values == other.do_values
            and set(self.given) == set(other.given)
            and self.given_values == other.given_values
        )

    __hash__ = None

    def __repr__(self) -> str:
        parts = [f"effect={self.effect_values or list(self.effect)}"]
        if self.do:
            parts.append(f"do={self.do_values or list(self.do)}")
        if self.given:
            parts.append(f"given={self.given_values or list(self.given)}")
        return "<Query " + " ".join(parts) + ">"


def make_query(effect, do=None, given=None) -> Query:
    """Validate and build a Query; do and given default to empty."""
    return Query(effect, do, given)


def identify(model: Model, data_or_query, query: Query | None = None) -> Formula | Fail:
    """Compile a query against a model into a formula over the given joint.

    Callable as identify(model, query) or identify(model, data, query); the
    data signature defaults to the full observational joint. Returns Fail
    (not an exception) when the recursion meets a hedge: proof that an
    unconditional query is not identifiable, but not always for a
    conditional one (see the module docstring).

    Every call runs the whole derivation: nothing is memoised here. A caller
    that estimates one query many times keeps the formula this returns.
    """
    query, shape = _shape(model, data_or_query, query)
    return _bind(_derive(model, *shape), query, shape[1])


def _shape(model: Model, data, query: Query | None) -> tuple[Query, tuple]:
    """The query of a valid identify call, and what identification reads of
    it: the data signature's variable set and the effect, do and given sets,
    never their values. Raises on an invalid call."""
    if not isinstance(model, Model):
        raise QueryError(f"expected a model, got {type(model).__name__}")
    if query is None:
        data, query = Data(sorted(model.vertices)), data
    if not isinstance(data, Data):
        raise QueryError(f"expected a data signature, got {type(data).__name__}")
    if not isinstance(query, Query):
        raise QueryError(f"expected a query, got {type(query).__name__}")
    joint = data.joint_set
    if not joint <= model.vertices:
        raise UnknownVariableError(
            f"data variables not in model: {sorted(joint - model.vertices)}"
        )
    q_vars = set(query.effect) | set(query.do) | set(query.given)
    missing = q_vars - joint
    if missing:
        raise UnknownVariableError(
            f"query variables absent from the data signature: {sorted(missing)}"
        )
    return query, (joint, variables(query.effect), variables(query.do), variables(query.given))


def _derive(model: Model, joint, y, x, z) -> Form | Fail:
    """The form of P(y | do(x), z) over the variable set `joint`, or a Fail;
    all four arguments are frozensets of variables. The form is normal, as
    the constructors build every node of it."""
    g = latent_projection(model, joint) if joint < model.vertices else model
    result = _id(y | z, x, Prob(g.vertices), g.vertices, g)
    if isinstance(result, Fail):
        return result
    form: Form = result
    # Variables pulled into the intervention by step 3 can survive as free
    # conditioning variables; the result is constant in them, so averaging
    # over their observational marginal removes the dependence.
    stray = free_variables(form) - (y | x | z)
    if stray:
        form = sum_over(product([form, Prob(stray)]), stray)
    if z:
        # P(y | z, do(x)) = P(y, z | do(x)) / sum_y P(y, z | do(x))
        return fraction(form, sum_over(form, y))
    return form


def _bind(form: Form | Fail, query: Query, y: frozenset[Variable]) -> Formula | Fail:
    """A derived form as this query's formula, its values bound; a Fail as it is."""
    if isinstance(form, Fail):
        return form
    free = free_variables(form)
    bindings = {v: val for v, val in query.bound_values().items() if v in free}
    return Formula(form, bindings, effect=y)


def _blanket(g: Model, u: Variable, before: set[Variable]) -> frozenset[Variable]:
    """u's ordered Markov blanket: its district in G[before | {u}] and that
    district's parents, less u. With before the predecessors of u within an
    ancestral v, u is independent of the rest of before given it in every
    distribution Markov to G[v], and no smaller subset keeps that independence."""
    # u is the seed of the walk, so keep need not hold it
    d = _reach(g._siblings, (u,), keep=before) if u in g._siblings else (u,)
    return frozenset().union(d, *[g._parent_sets[w] for w in d]) - {u}


def _chain_factors(
    p_form: Form, s: frozenset[Variable], v: frozenset[Variable], g: Model
) -> list[Form]:
    """P(u | predecessors in v) of the current distribution for each u in s,
    in the root graph's order g._order, any subset of which is a topological
    order of its subgraph. While the distribution is the plain joint P(v), v
    is ancestral, so P(v) is Markov to G[v] and u conditions on its ordered
    Markov blanket alone; after step 7 a factor is a ratio of marginals,
    which `fraction` turns into a conditional where it can. `before` grows in
    place: every reader of it only reads."""
    plain = p_form == Prob(v)
    factors, before = [], set()
    for u in g._order:
        if u in s:
            if plain:
                f = Prob(frozenset((u,)), _blanket(g, u, before))
            else:
                f = fraction(sum_over(p_form, v - before - {u}), sum_over(p_form, v - before))
            factors.append(f)
        if u in v:
            before.add(u)
    return factors


def _id(
    y: frozenset[Variable], x: frozenset[Variable], p_form: Form, v: frozenset[Variable], g: Model
) -> Form | Fail:
    """ID on the subgraph of g over v, walked in place. p_form is the plain
    joint over v until step 7 rewrites it. Steps 2 and 3 are idempotent, so
    they rewrite this frame instead of recursing into one that would repeat
    their walks; step 4 opens a frame only for a component linked to x."""
    # 2: restrict to the ancestors of the effect, which are all of G[An(y)]
    if x:
        anc = _reach(g._parent_sets, y, keep=v)
        if len(anc) < len(v):
            v, p_form, x = frozenset(anc), sum_over(p_form, v - anc), x & anc

    # 1: no intervention left, before any walk or after step 2; marginalize
    #    the current distribution
    if not x:
        return sum_over(p_form, v - y)

    # 3: grow the intervention with vertices that no longer reach the effect
    #    once the intervention's incoming edges are cut; y is always reached,
    #    so only v - x - y can grow it. The grown x cuts no edge the walk
    #    used, so a second pass would find nothing
    if v - x - y:
        x = x | (v - _reach(g._parent_sets, y, x, v))

    # 4 and 6: factor across the c-components of G[v - x]. One with no
    #    sibling in x is a c-component of G[v] too, so one chain pass gives
    #    all their factors (Tian & Pearl 2002); only a component linked to x
    #    by a sibling opens a frame. Step 6 is the case where none is linked
    components = _c_components(g, v - x)
    linked = [s for s in components if not all(x.isdisjoint(g._siblings.get(u, ())) for u in s)]
    if linked != [v - x]:
        factors = _chain_factors(p_form, v - x - frozenset().union(*linked), v, g)
        for s in linked:
            r = _id(s, v - s, p_form, v, g)
            if isinstance(r, Fail):
                return r
            factors.append(r)
        return sum_over(product(factors), v - (y | x))

    # 5: v - x is one component with a sibling in x; if that makes the whole
    #    graph one confounded component, a hedge blocks the query
    s = v - x
    v_components = _c_components(g, v)
    if len(v_components) == 1:
        hedge = Hedge(forest=subgraph(g, v), subforest=subgraph(g, s), witness=y)
        message = (
            f"P({', '.join(sorted(y))} | do({', '.join(sorted(x))})) is not "
            f"identifiable: hedge over {sorted(v)} with confounded subforest {sorted(s)}"
        )
        return Fail(hedge, message)

    # 7: recurse into the enclosing component with a rewritten distribution
    s_prime = next(c for c in v_components if s <= c)
    return _id(y, x & s_prime, product(_chain_factors(p_form, s_prime, v, g)), s_prime, g)
