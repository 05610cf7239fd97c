"""Semi-Markovian causal diagrams and the graph primitives used by identification.

A model is a DAG over endogenous variables together with a collection of
confounding sets. A confounding set {a, b, ...} states that the background
noises of its members are dependent; for graph algorithms it is expanded to
the pairwise bidirected edges among its members.

Every graph traversal (ancestors, c-components, the ancestors of a
d-separation conditioning set, descent through hidden vertices in a latent
projection, and the walks of identification) goes through the one walk `_reach`.
"""
from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Mapping
from types import MappingProxyType
from typing import Any

from .errors import (
    ConfoundingArityError,
    CyclicGraphError,
    DataFormatError,
    DuplicateParentError,
    ModelError,
    UnknownVariableError,
    VariableNameError,
)

# The reader ends a keyword at any of these, so no variable name may hold one.
_RESERVED_CHARS = frozenset('()[]{}#,;"')


class Variable(str):
    """An endogenous variable name; the DSL renders these as keywords (:x)."""

    __slots__ = ()

    def __new__(cls, name: Any) -> "Variable":
        if isinstance(name, Variable):
            return name
        if not isinstance(name, str):
            raise VariableNameError(f"expected a variable name, got {name!r}")
        if not name:
            raise VariableNameError("variable name must be non-empty")
        if any(ch.isspace() or ch in _RESERVED_CHARS for ch in name):
            raise VariableNameError(f"invalid variable name: {name!r}")
        return str.__new__(cls, name)

    def __repr__(self) -> str:
        return ":" + str.__str__(self)


def names(value: Any, what: str = "variables") -> tuple[Variable, ...]:
    """Read outside input as variable names, in the given order.

    A string is one name; any other iterable that is not a map is a
    collection of names. Anything else is a VariableNameError.
    """
    if isinstance(value, str):
        return (Variable(value),)
    if isinstance(value, Mapping) or not isinstance(value, Iterable):
        raise VariableNameError(f"{what} must be a name or a collection of names, got {value!r}")
    return tuple([Variable(v) for v in value])


def variables(value: Any, what: str = "variables") -> frozenset[Variable]:
    """Normalize a name or collection of names (see `names`) to a variable set.

    A frozenset that holds only Variables is already normal and is returned
    as it is.
    """
    if type(value) is frozenset and all(type(n) is Variable for n in value):
        return value
    return frozenset(names(value, what))


def as_event(value: Any, what: str = "event") -> dict[Variable, Any]:
    """A map of variable names to values, rekeyed by Variable."""
    if not isinstance(value, Mapping):
        raise DataFormatError(f"{what} must be a map of variables to values, got {value!r}")
    event = {}
    for k, v in value.items():
        if not isinstance(k, str):
            raise DataFormatError(f"{what} has a non-string key {k!r}")
        event[Variable(k)] = v
    return event


class Model:
    """A validated causal diagram. Instances are immutable once constructed.

    dag is a read-only mapping from each variable to its parents; the given
    parent order is kept for display but carries no meaning (duplicates are
    rejected). vertices is the frozenset of its keys. confounding is a
    frozenset of frozensets, each of size >= 2.
    """

    __slots__ = (
        "dag", "vertices", "confounding", "_parent_sets", "_children", "_siblings", "_order",
        "_derived",  # infer's memo of derived forms by query shape, made on first use
    )

    def __init__(
        self,
        dag: Mapping[Any, Iterable[Any]],
        confounding: Iterable[Iterable[Any]] = (),
    ):
        if not isinstance(dag, Mapping):
            raise ModelError(f"model dag must be a map, got {type(dag).__name__}")
        if not isinstance(confounding, Iterable):
            raise ModelError(
                f"confounding must be a collection of sets, got {type(confounding).__name__}"
            )
        normalized: dict[Variable, tuple[Variable, ...]] = {}
        for var, parents in dag.items():
            v = Variable(var)
            ps = names(parents, f"parents of {v!r}")
            if len(set(ps)) != len(ps):
                raise DuplicateParentError(f"duplicate parent in parents of {v!r}")
            normalized[v] = ps
        vertex_set = frozenset(normalized)
        for v, ps in normalized.items():
            for p in ps:
                if p not in vertex_set:
                    raise UnknownVariableError(f"parent {p!r} of {v!r} is not a dag key")
        groups = set()
        for group in confounding:
            g = variables(group, "confounding set")
            if len(g) < 2:
                raise ConfoundingArityError(
                    f"confounding set must have at least 2 variables, got {sorted(g)}"
                )
            for c in g:
                if c not in vertex_set:
                    raise UnknownVariableError(f"confounding variable {c!r} is not a dag key")
            groups.add(g)
        _build(self, normalized, frozenset(groups))
        if len(self._order) != len(normalized):
            stuck = sorted(vertex_set - set(self._order))
            raise CyclicGraphError(f"model contains a directed cycle through {stuck}")

    def __setattr__(self, name, value):
        raise AttributeError("Model is immutable")

    def __reduce__(self):
        # rebuilt through the constructor, without infer's memo
        return Model, (dict(self.dag), self.confounding)

    def parents(self, v: Variable) -> frozenset[Variable]:
        return self._parent_sets[v]

    def children(self, v: Variable) -> frozenset[Variable]:
        return self._children[v]

    def bidirected_pairs(self) -> frozenset[frozenset[Variable]]:
        """Pairwise expansion of the confounding sets."""
        return frozenset(
            frozenset((v, w)) for v, ws in self._siblings.items() for w in ws
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self._parent_sets == other._parent_sets
            and self.confounding == other.confounding
        )

    __hash__ = None  # unhashable, like other mutable-looking mappings

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{v!r}<-[{' '.join(repr(p) for p in ps)}]" for v, ps in sorted(self.dag.items())
        )
        confs = " ".join(
            "{" + " ".join(repr(c) for c in sorted(g)) + "}"
            for g in sorted(self.confounding, key=lambda g: sorted(g))
        )
        return f"<Model {edges}" + (f" | {confs}>" if confs else ">")


def make_model(
    dag: Mapping[Any, Iterable[Any]], confounding: Iterable[Iterable[Any]] = ()
) -> Model:
    """Validate and build a Model from raw user input."""
    return Model(dag, confounding)


def _build(
    m: Model,
    dag: dict[Variable, tuple[Variable, ...]],
    confounding: frozenset[frozenset[Variable]],
) -> Model:
    """Set every slot of m from a normalized dag and confounding, and return m.

    Nothing is checked: Model(...) calls this after validating user input,
    subgraph and latent_projection with parts of a model that are valid by
    construction.
    """
    parent_sets = {v: frozenset(ps) for v, ps in dag.items()}
    children: dict[Variable, list[Variable]] = {v: [] for v in dag}
    for v, ps in dag.items():
        for p in ps:
            children[p].append(v)
    # only confounded vertices get an entry: most vertices have no siblings
    siblings: dict[Variable, set[Variable]] = {}
    for g in confounding:
        for v in g:
            siblings.setdefault(v, set()).update(g)
    setattr_ = object.__setattr__
    setattr_(m, "dag", MappingProxyType(dag))
    setattr_(m, "vertices", frozenset(dag))
    setattr_(m, "confounding", confounding)
    setattr_(m, "_parent_sets", parent_sets)
    setattr_(m, "_children", {v: frozenset(cs) for v, cs in children.items()})
    setattr_(m, "_siblings", {v: frozenset(ws - {v}) for v, ws in siblings.items()})
    setattr_(m, "_order", tuple(_kahn_order(parent_sets, children)))
    return m


class Data:
    """The signature of a probability function: which joint is available, as
    variables in the given order (`joint`) and as a set (`joint_set`)."""

    __slots__ = ("joint", "joint_set")

    def __init__(self, joint: Iterable[Any]):
        vs = names(joint, "data joint")
        if not vs:
            raise UnknownVariableError("data signature must name at least one variable")
        object.__setattr__(self, "joint", vs)
        object.__setattr__(self, "joint_set", frozenset(vs))
        if len(self.joint_set) != len(vs):
            raise DuplicateParentError("duplicate variable in data signature")

    def __setattr__(self, name, value):
        raise AttributeError("Data is immutable")

    def __reduce__(self):
        return Data, (self.joint,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Data):
            return NotImplemented
        return self.joint_set == other.joint_set

    __hash__ = None

    def __repr__(self) -> str:
        return "<Data [" + " ".join(repr(v) for v in self.joint) + "]>"


def _kahn_order(
    parent_sets: Mapping[Variable, frozenset[Variable]],
    children: Mapping[Variable, Iterable[Variable]],
) -> list[Variable]:
    """Kahn's algorithm with a heap: ties broken by variable name.

    On a cyclic graph the order stops short of the vertices on or below a cycle.
    """
    indegree = {v: len(ps) for v, ps in parent_sets.items()}
    ready = [v for v, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[Variable] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in children[v]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    return order


def _contained(m: Model, s: Iterable[Any]) -> frozenset[Variable]:
    vs = variables(s)
    if not vs <= m.vertices:
        raise UnknownVariableError(f"not in model: {sorted(vs - m.vertices)}")
    return vs


def topological_order(m: Model) -> list[Variable]:
    """Deterministic topological order: parents first, ties by name."""
    return list(m._order)


def _reach(
    step: Mapping[Variable, frozenset[Variable]],
    seeds: Iterable[Variable],
    stop: frozenset[Variable] = frozenset(),
    keep: frozenset[Variable] | None = None,
) -> set[Variable]:
    """The seeds and every vertex reached from them along `step`, a map from
    each vertex to its neighbours. A vertex in `stop` is reached but not
    walked on from, and with `keep` the walk stays inside that set."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        v = stack.pop()
        if v not in stop:
            new = step[v] - seen
            if keep is not None:
                new &= keep
            seen |= new
            stack.extend(new)
    return seen


def ancestors(m: Model, s: Iterable[Any]) -> frozenset[Variable]:
    """s together with everything that reaches s along directed edges."""
    return frozenset(_reach(m._parent_sets, _contained(m, s)))


def c_components(m: Model) -> frozenset[frozenset[Variable]]:
    """Partition of the vertices into maximal bidirected-connected sets."""
    return frozenset(_c_components(m, m.vertices))


def _c_components(m: Model, vs: frozenset[Variable]) -> list[frozenset[Variable]]:
    """The c-components of the subgraph over vs, ordered by least member."""
    siblings = m._siblings
    out, seen = [], set()
    for v in sorted(vs):
        if v not in seen:
            comp = frozenset(_reach(siblings, (v,), keep=vs) if v in siblings else (v,))
            seen |= comp
            out.append(comp)
    return out


def subgraph(m: Model, s: Iterable[Any]) -> Model:
    """Induced subgraph over s; confounding sets are intersected with s."""
    keep = _contained(m, s)
    dag = {v: tuple(p for p in ps if p in keep) for v, ps in m.dag.items() if v in keep}
    confounding = frozenset(g for g in (g & keep for g in m.confounding) if len(g) >= 2)
    return _build(object.__new__(Model), dag, confounding)


def d_separated(
    m: Model, a: Any, b: Iterable[Any], conditioning: Iterable[Any] = ()
) -> bool:
    """Whether every variable in a is d-separated from every variable in b
    given `conditioning`.

    Bidirected edges are treated as a latent common parent, matching the
    noise semantics of confounding.
    """
    sources = _contained(m, a)
    targets = _contained(m, b)
    observed = _contained(m, conditioning)
    if (sources & targets) or (targets & observed) or (sources & observed):
        raise UnknownVariableError("d-separation arguments must be disjoint")
    parents, children, siblings = m._parent_sets, m._children, m._siblings

    anc_z = _reach(parents, observed)  # for collider activation

    # Shachter-style reachability over (vertex, arrival direction) states
    frontier = [(s, "up") for s in sources]
    visited: set = set()
    while frontier:
        state = frontier.pop()
        if state in visited:
            continue
        visited.add(state)
        v, direction = state
        if v in targets:
            return False
        if v not in observed:
            frontier.extend((c, "down") for c in children[v])
        if direction == "up" and v not in observed or direction == "down" and v in anc_z:
            # leaving v upward; a bidirected edge is a latent parent, so the
            # path goes on down into each sibling
            frontier.extend((p, "up") for p in parents[v])
            frontier.extend((w, "down") for w in siblings.get(v, ()))
    return True


def latent_projection(m: Model, observed: Iterable[Any]) -> Model:
    """Project the diagram onto `observed`, absorbing the other vertices.

    Directed edge a->b iff some directed path a->...->b runs entirely through
    unobserved intermediates. Bidirected edge a<->b iff a confounding path
    (arrowheads at both ends, all intermediates unobserved non-colliders)
    connects them: either a shared unobserved ancestor, or a bidirected edge
    whose endpoints reach a and b through unobserved descent.
    """
    obs = _contained(m, observed)
    if obs == m.vertices:
        return m
    children = m._children
    # the observed vertices each vertex reaches through hidden ones: itself
    # if it is observed
    below = {v: _reach(children, (v,), obs) & obs for v in m.vertices}

    parent_map: dict[Variable, set[Variable]] = {v: set() for v in obs}
    for a in obs:
        for c in children[a]:
            for b in below[c]:
                parent_map[b].add(a)

    pairs: set[frozenset[Variable]] = set()
    for pair in m.bidirected_pairs():
        s, t = tuple(pair)
        pairs.update(frozenset((a, b)) for a in below[s] for b in below[t] if a != b)
    for u in m.vertices - obs:
        pairs.update(map(frozenset, itertools.combinations(below[u], 2)))

    dag = {v: tuple(sorted(parent_map[v])) for v in sorted(obs)}
    return _build(object.__new__(Model), dag, frozenset(pairs))
