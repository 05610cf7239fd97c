import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from whittemore import (
    Data,
    Variable,
    ancestors,
    c_components,
    latent_projection,
    make_model,
    prob,
    subgraph,
    topological_order,
)
from whittemore.errors import (
    ConfoundingArityError,
    CyclicGraphError,
    DuplicateParentError,
    UnknownVariableError,
    VariableNameError,
    WhittemoreError,
)
from whittemore.model import d_separated
from whittemore.printer import print_value


def comp_sets(m):
    return {tuple(sorted(c)) for c in c_components(m)}


class TestVariable:
    def test_round_trips_between_str_and_variable(self):
        assert Variable("z_1") == "z_1"
        assert Variable(Variable("x")) == "x"

    @pytest.mark.parametrize("bad", ["", "a b", "a(", "x]", "h#", "{", "\tq", "a,b", "a;b", 'a"b'])
    def test_rejects_reserved_characters(self, bad):
        with pytest.raises(VariableNameError):
            Variable(bad)

    def test_allows_primes_and_underscores(self):
        assert Variable("x'") and Variable("z_12")


class TestMakeModel:
    def test_front_door(self, front_door):
        assert front_door.vertices == {"x", "y", "z"}
        assert front_door.parents(Variable("y")) == {"z"}
        assert front_door.confounding == {frozenset({"x", "y"})}

    def test_single_node(self):
        m = make_model({"x": []})
        assert m.vertices == {"x"}
        assert not m.confounding

    def test_cycle_rejected(self):
        with pytest.raises(CyclicGraphError):
            make_model({"x": ["y"], "y": ["x"]})

    def test_unknown_parent_rejected(self):
        with pytest.raises(UnknownVariableError):
            make_model({"x": ["ghost"]})

    def test_confounding_must_use_known_variables(self):
        with pytest.raises(UnknownVariableError):
            make_model({"x": [], "y": []}, [{"x", "ghost"}])

    def test_confounding_arity(self):
        with pytest.raises(ConfoundingArityError):
            make_model({"x": [], "y": []}, [{"x"}])

    def test_duplicate_parent_rejected(self):
        with pytest.raises(DuplicateParentError):
            make_model({"x": [], "y": ["x", "x"]})

    def test_parent_order_is_irrelevant_to_equality(self):
        a = make_model({"x": [], "y": [], "z": ["x", "y"]})
        b = make_model({"x": [], "y": [], "z": ["y", "x"]})
        assert a == b


class TestTopologicalOrder:
    def test_front_door_chain(self, front_door):
        assert topological_order(front_door) == ["x", "z", "y"]

    def test_single_node(self):
        assert topological_order(make_model({"x": []})) == ["x"]

    def test_charig(self, charig):
        assert topological_order(charig) == ["size", "treatment", "success"]

    def test_lexicographic_ties(self):
        m = make_model({"c": [], "a": [], "b": []})
        assert topological_order(m) == ["a", "b", "c"]


class TestAncestors:
    def test_front_door_effect(self, front_door):
        assert ancestors(front_door, ["y"]) == {"x", "z", "y"}

    def test_root_is_its_own_ancestry(self, front_door):
        assert ancestors(front_door, ["x"]) == {"x"}

    def test_concomitant(self, concomitant):
        assert ancestors(concomitant, ["z_2"]) == {"x", "z_1", "z_2"}

    def test_unknown_variable(self, front_door):
        with pytest.raises(UnknownVariableError):
            ancestors(front_door, ["nope"])


class TestCComponents:
    def test_front_door(self, front_door):
        assert comp_sets(front_door) == {("x", "y"), ("z",)}

    def test_markovian_all_singletons(self, charig):
        assert comp_sets(charig) == {("size",), ("success",), ("treatment",)}

    def test_concomitant(self, concomitant):
        assert comp_sets(concomitant) == {("y", "z_1"), ("x", "z_2")}

    def test_larger_confounding_set_expands_pairwise(self):
        m = make_model({"a": [], "b": [], "c": [], "d": []}, [{"a", "b", "c"}])
        assert comp_sets(m) == {("a", "b", "c"), ("d",)}


class TestSubgraph:
    def test_drops_small_confounding_intersections(self, front_door):
        sub = subgraph(front_door, ["x", "z"])
        assert sub == make_model({"x": [], "z": ["x"]})

    def test_identity(self, front_door):
        assert subgraph(front_door, front_door.vertices) == front_door

    def test_keeps_confounding_loses_path(self, front_door):
        sub = subgraph(front_door, ["x", "y"])
        assert sub == make_model({"x": [], "y": []}, [{"x", "y"}])

    def test_unknown_variable(self, front_door):
        with pytest.raises(UnknownVariableError):
            subgraph(front_door, ["q"])


class TestLatentProjection:
    def test_front_door_projects_to_bow(self, front_door, bow):
        assert latent_projection(front_door, ["x", "y"]) == bow

    def test_identity(self, front_door):
        assert latent_projection(front_door, front_door.vertices) == front_door

    def test_chain_becomes_direct_edge(self):
        chain = make_model({"x": [], "z": ["x"], "y": ["z"]})
        assert latent_projection(chain, ["x", "y"]) == make_model({"x": [], "y": ["x"]})

    def test_hidden_common_cause_becomes_confounding(self):
        m = make_model({"u": [], "a": ["u"], "b": ["u"]})
        assert latent_projection(m, ["a", "b"]) == make_model(
            {"a": [], "b": []}, [{"a", "b"}]
        )

    def test_confounding_spreads_through_hidden_descent(self):
        # a <-> u and u -> b: projecting u out leaves a <-> b
        m = make_model({"a": [], "u": [], "b": ["u"]}, [{"a", "u"}])
        assert latent_projection(m, ["a", "b"]) == make_model(
            {"a": [], "b": []}, [{"a", "b"}]
        )


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        chain = make_model({"x": [], "z": ["x"], "y": ["z"]})
        assert d_separated(chain, "x", ["y"], ["z"])
        assert not d_separated(chain, "x", ["y"])

    def test_collider_opens_when_conditioned(self):
        m = make_model({"a": [], "b": [], "c": ["a", "b"]})
        assert d_separated(m, "a", ["b"])
        assert not d_separated(m, "a", ["b"], ["c"])

    def test_bidirected_edge_connects(self, front_door):
        assert not d_separated(front_door, "x", ["y"], ["z"])

    def test_unknown_source(self, front_door):
        with pytest.raises(UnknownVariableError):
            d_separated(front_door, "nope", ["y"])


class TestData:
    def test_equality_ignores_order(self):
        assert Data(["x", "y"]) == Data(["y", "x"])

    def test_requires_variables(self):
        with pytest.raises(UnknownVariableError):
            Data([])


_FORK = make_model({"x1": [], "y": ["x1"], "z": ["x1"]})


def _outcome(call, names):
    try:
        return "value", call(names)
    except WhittemoreError as exc:  # an error is an outcome too; both sides must agree
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: ancestors(_FORK, s),
        lambda s: subgraph(_FORK, s),
        lambda s: latent_projection(_FORK, s),
        lambda s: d_separated(_FORK, s, ["y"], ["z"]),
        lambda s: d_separated(_FORK, "y", s),
        lambda s: d_separated(_FORK, "y", ["z"], s),
        lambda s: Data(s),
        lambda s: make_model({"x1": [], "y": s}),
        lambda s: make_model({"x1": [], "y": []}, [s]),
        lambda s: prob(s),
        lambda s: prob(["y"], s),
    ],
    ids=[
        "ancestors", "subgraph", "latent_projection", "d_separated-source",
        "d_separated-targets", "d_separated-conditioning", "Data", "make_model-parents",
        "make_model-confounding", "prob", "prob-given",
    ],
)
def test_a_bare_name_is_one_name(call):
    assert _outcome(call, "x1") == _outcome(call, ["x1"])


# property tests over random small diagrams

_names = ["a", "b", "c", "d", "e"]


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = _names[:n]
    dag = {}
    for j, v in enumerate(names):
        parents = [p for p in names[:j] if draw(st.booleans())]
        dag[v] = parents
    pairs = [
        pair
        for pair in itertools.combinations(names, 2)
        if draw(st.booleans()) and draw(st.booleans())
    ]
    return make_model(dag, [set(p) for p in pairs])


@given(models())
def test_c_components_partition(m):
    comps = c_components(m)
    union = set()
    for comp in comps:
        assert not (union & comp)
        union |= comp
    assert union == m.vertices


@given(models(), st.sets(st.sampled_from(_names)))
def test_ancestors_idempotent(m, seed):
    seed = {v for v in seed if v in m.vertices} or set(list(m.vertices)[:1])
    anc = ancestors(m, seed)
    assert ancestors(m, anc) == anc


@given(models())
def test_subgraph_and_projection_identity(m):
    assert subgraph(m, m.vertices) == m
    assert latent_projection(m, m.vertices) == m


@given(models())
def test_topological_order_is_consistent_permutation(m):
    order = topological_order(m)
    assert sorted(order) == sorted(m.vertices)
    position = {v: i for i, v in enumerate(order)}
    for v in m.vertices:
        for p in m.parents(v):
            assert position[p] < position[v]


@given(models(), st.sets(st.sampled_from(_names), min_size=1))
def test_projection_yields_valid_model_over_observed(m, observed):
    observed = {v for v in observed if v in m.vertices}
    if not observed:
        return
    proj = latent_projection(m, observed)
    assert proj.vertices == frozenset(Variable(v) for v in observed)
    for g in proj.confounding:
        assert len(g) >= 2


def moralised_separation(m, a, b, z):
    """d-separation by the moralised ancestral graph, each bidirected edge an
    explicit latent parent of its two ends."""
    parents = {v: set(m.parents(v)) for v in m.vertices}
    for i, (s, t) in enumerate(tuple(p) for p in m.bidirected_pairs()):
        parents[("latent", i)] = set()
        parents[s].add(("latent", i))
        parents[t].add(("latent", i))
    keep, stack = {a, *b, *z}, [a, *b, *z]
    while stack:
        for p in parents[stack.pop()]:
            if p not in keep:
                keep.add(p)
                stack.append(p)
    edges = {v: set() for v in keep}
    for v in keep:
        for p in parents[v]:
            edges[v].add(p)
            edges[p].add(v)
        for p, q in itertools.combinations(parents[v], 2):
            edges[p].add(q)
            edges[q].add(p)
    seen, stack = {a}, [a]
    while stack:
        for w in edges[stack.pop()]:
            if w not in seen and w not in z:
                seen.add(w)
                stack.append(w)
    return not (seen & set(b))


@st.composite
def separation_queries(draw):
    names = ["a", "b", "c", "d", "e", "f", "g"][: draw(st.integers(2, 7))]
    dag = {v: [p for p in names[:j] if draw(st.booleans())] for j, v in enumerate(names)}
    groups = draw(st.lists(st.sets(st.sampled_from(names), min_size=2, max_size=3), max_size=3))
    source = draw(st.sampled_from(names))
    rest = [v for v in names if v != source]
    roles = [draw(st.sampled_from(["target", "given", "neither"])) for _ in rest]
    b = [v for v, r in zip(rest, roles) if r == "target"] or rest[:1]
    z = [v for v, r in zip(rest, roles) if r == "given" and v not in b]
    return make_model(dag, groups), source, b, z


@given(separation_queries())
def test_d_separated_matches_the_moralised_ancestral_graph(query):
    m, a, b, z = query
    assert d_separated(m, a, b, z) == moralised_separation(m, a, set(b), set(z))


# derived models (subgraphs and projections) are built without re-validation;
# they must be indistinguishable from the same graph built from user input


@st.composite
def shuffled_models(draw):
    """Random valid models whose topological order is not their name order."""
    names = draw(st.permutations(["a", "b", "c", "d", "e", "f"]))
    names = names[: draw(st.integers(min_value=1, max_value=6))]
    dag = {v: [p for p in names[:j] if draw(st.booleans())] for j, v in enumerate(names)}
    groups = draw(
        st.lists(st.sets(st.sampled_from(names), min_size=2, max_size=3), max_size=3)
        if len(names) >= 2
        else st.just([])
    )
    return make_model(dag, groups)


# reference implementations by brute-force path enumeration, written from the
# docstrings of ancestors, c_components and latent_projection


def _edges(m):
    """Every edge of m as (u, v, arrowhead at u, arrowhead at v), both ways."""
    out = []
    for v in m.vertices:
        for p in m.parents(v):
            out += [(p, v, False, True), (v, p, True, False)]
    for s, t in (tuple(pair) for pair in m.bidirected_pairs()):
        out += [(s, t, True, True), (t, s, True, True)]
    return out


def _simple_paths(m, start):
    """Every simple path from start, as (vertices, edges)."""
    edges = _edges(m)
    paths = []

    def extend(vertices, used):
        paths.append((vertices, used))
        for e in edges:
            if e[0] == vertices[-1] and e[1] not in vertices:
                extend(vertices + [e[1]], used + [e])

    extend([start], [])
    return paths


def brute_ancestors(m, s):
    out = set(s)
    for v in m.vertices:
        for vertices, used in _simple_paths(m, v):
            if vertices[-1] in s and all(not e[2] and e[3] for e in used):
                out.add(v)
    return frozenset(out)


def brute_c_components(m):
    out = set()
    for v in m.vertices:
        reached = {
            vertices[-1]
            for vertices, used in _simple_paths(m, v)
            if all(e[2] and e[3] for e in used)
        }
        out.add(frozenset(reached))
    return frozenset(out)


def brute_projection(m, obs):
    """(parent sets, bidirected pairs) of the projection onto obs."""
    hidden = m.vertices - obs
    parents = {v: set() for v in obs}
    pairs = set()
    for a in obs:
        for vertices, used in _simple_paths(m, a):
            b = vertices[-1]
            if b not in obs or b == a or not set(vertices[1:-1]) <= hidden:
                continue
            if all(not e[2] and e[3] for e in used):
                parents[b].add(a)
            colliders = any(used[i][3] and used[i + 1][2] for i in range(len(used) - 1))
            if used[0][2] and used[-1][3] and not colliders:
                pairs.add(frozenset((a, b)))
    return parents, pairs


@given(models(), st.sets(st.sampled_from(_names)))
def test_ancestors_match_directed_paths(m, seed):
    seed = {v for v in seed if v in m.vertices}
    assert ancestors(m, seed) == brute_ancestors(m, seed)


@given(shuffled_models())
def test_c_components_match_bidirected_paths(m):
    assert c_components(m) == brute_c_components(m)


@given(shuffled_models(), st.sets(st.sampled_from(["a", "b", "c", "d", "e", "f"]), min_size=1))
def test_latent_projection_matches_paths_through_hidden_vertices(m, observed):
    obs = frozenset(v for v in observed if v in m.vertices) or m.vertices
    proj = latent_projection(m, obs)
    parents, pairs = brute_projection(m, obs)
    assert {v: proj.parents(v) for v in proj.vertices} == parents
    assert proj.bidirected_pairs() == pairs


def test_projection_reaches_observed_vertices_only_through_hidden_ones():
    # u's observed descendants b and c lie below the hidden u1 and u2
    m = make_model({"a": [], "u": ["a"], "u1": ["u"], "u2": ["u1"], "b": ["u2"], "c": ["u1"]})
    assert latent_projection(m, ["a", "b", "c"]) == make_model(
        {"a": [], "b": ["a"], "c": ["a"]}, [{"b", "c"}]
    )
    # the same descent from a hidden end of a bidirected edge
    m = make_model({"a": [], "u": [], "u1": ["u"], "b": ["u1"]}, [{"a", "u"}])
    assert latent_projection(m, ["a", "b"]) == make_model({"a": [], "b": []}, [{"a", "b"}])


def assert_same_model(derived, fresh):
    assert derived == fresh
    assert repr(derived) == repr(fresh)
    assert topological_order(derived) == topological_order(fresh)
    assert c_components(derived) == c_components(fresh)
    assert derived.bidirected_pairs() == fresh.bidirected_pairs()
    for v in fresh.vertices:
        assert derived.children(v) == fresh.children(v)


def rebuilt(m):
    return make_model(m.dag, m.confounding)


class TestDerivedModels:
    @given(shuffled_models(), st.sets(st.sampled_from(["a", "b", "c", "d", "e", "f"])))
    def test_match_models_built_from_their_parts(self, m, s):
        s = {v for v in s if v in m.vertices}
        derived = [
            subgraph(m, s),
            subgraph(m, ancestors(m, s)),
            latent_projection(m, s),
            subgraph(subgraph(m, s), ancestors(subgraph(m, s), s)),
            subgraph(latent_projection(m, s), s),
        ]
        for d in derived:
            assert_same_model(d, rebuilt(d))

    def test_non_ancestral_subgraph_orders_afresh(self):
        m = make_model({"c": [], "a": ["c"], "b": []})
        assert topological_order(m) == ["b", "c", "a"]
        assert topological_order(subgraph(m, {"a", "b"})) == ["a", "b"]

    def test_ancestral_subgraph_keeps_the_order(self):
        m = make_model({"c": [], "a": ["c"], "b": [], "d": ["a", "b"]})
        assert topological_order(subgraph(m, ancestors(m, {"a"}))) == ["c", "a"]

    def test_plain_string_frozensets_become_variables(self):
        m = make_model({"x": [], "y": ["x"], "z": ["y"]}, [{"x", "z"}])
        assert all(type(v) is Variable for v in ancestors(m, frozenset({"y"})))
        sub = subgraph(m, frozenset({"x", "z"}))
        assert all(type(v) is Variable for g in sub.confounding for v in g)
        assert repr(sub) == repr(rebuilt(sub))

    def test_subgraph_still_checks_its_vertices(self, front_door):
        with pytest.raises(UnknownVariableError):
            subgraph(front_door, frozenset({Variable("x"), Variable("ghost")}))


class TestCachesStayInvisible:
    def test_topological_order_is_a_fresh_list(self, front_door):
        for m in (front_door, subgraph(front_door, {"x", "z"})):
            order = topological_order(m)
            expected = list(order)
            order.reverse()
            order.append(Variable("w"))
            assert topological_order(m) == expected

    def test_derived_models_are_immutable(self, front_door):
        for m in (subgraph(front_door, {"x", "z"}), latent_projection(front_door, {"x", "y"})):
            with pytest.raises(AttributeError):
                m.dag = {}
            with pytest.raises(AttributeError):
                m._order = ()

    def test_dag_is_read_only(self, front_door):
        before = (repr(front_door), print_value(front_door))
        with pytest.raises(TypeError):
            front_door.dag["x"] = ("y",)
        assert front_door == rebuilt(front_door)
        assert (repr(front_door), print_value(front_door)) == before

    def test_derived_repr_matches_a_rebuilt_model(self, front_door):
        for m in (subgraph(front_door, {"x", "y"}), latent_projection(front_door, {"x", "y"})):
            assert repr(m) == repr(rebuilt(m))
