import hashlib
import importlib
import itertools
import random

import pytest

import whittemore.model
from whittemore import (
    Data,
    Fail,
    Formula,
    evaluate,
    fraction,
    free_variables,
    identify,
    infer,
    make_model,
    make_query,
    prob,
    product,
    simplify_form,
    sum_over,
    variables,
)
from whittemore.errors import QueryError, UnknownVariableError
from whittemore.formula import Sum, form_key
from whittemore.identify import _blanket
from whittemore.model import (
    Variable,
    _c_components,
    _reach,
    d_separated,
    latent_projection,
    subgraph,
)
from whittemore.oracle import DiscreteSCM, TableMechanism, exact_joint, intervene, random_scm


class TestMakeQuery:
    def test_bound_causal_query(self):
        q = make_query(["y"], do={"x": 0})
        assert q.kind == "bound"
        assert q.do_values == {"x": 0}

    def test_marginal_defaults(self):
        q = make_query(["y"])
        assert q.kind == "bound"
        assert not q.do and not q.given

    def test_event_query(self):
        q = make_query({"y": 1}, given={"x": 1})
        assert q.kind == "event"
        assert q.bound_values() == {"y": 1, "x": 1}

    def test_unbound_query(self):
        q = make_query(["y"], do=["x"])
        assert q.kind == "unbound"

    def test_overlap_rejected(self):
        with pytest.raises(QueryError):
            make_query(["y"], do={"y": 0})

    def test_mixed_binding_styles_rejected(self):
        with pytest.raises(QueryError):
            make_query(["y"], do={"x": 0}, given=["z"])

    def test_event_with_unbound_do_rejected(self):
        with pytest.raises(QueryError):
            make_query({"y": 1}, do=["x"])

    def test_empty_effect_rejected(self):
        with pytest.raises(QueryError):
            make_query([])


def front_door_formula():
    inner = sum_over(product([prob(["y"], ["x", "z"]), prob(["x"])]), ["x"])
    return sum_over(product([inner, prob(["z"], ["x"])]), ["z"])


class TestIdentify:
    def test_front_door_bound(self, front_door):
        result = identify(front_door, make_query(["y"], do={"x": 0}))
        assert result == Formula(front_door_formula(), {"x": 0})

    def test_front_door_restricted_data_fails(self, front_door):
        result = identify(front_door, Data(["x", "y"]), make_query(["y"], do={"x": 0}))
        assert isinstance(result, Fail)
        assert result.hedge.forest.vertices == {"x", "y"}
        assert result.hedge.subforest.vertices <= result.hedge.forest.vertices
        assert result.hedge.witness == {"y"}

    def test_concomitant_adjustment(self, concomitant):
        result = identify(concomitant, make_query(["y"], do=["x"]))
        inner = sum_over(product([prob(["x"]), prob(["z_2"], ["x", "z_1"])]), ["x"])
        expected = sum_over(
            product([inner, prob(["z_1"], ["x"]), prob(["y"], ["x", "z_1", "z_2"])]),
            ["z_1", "z_2"],
        )
        assert result == Formula(expected, {})

    def test_charig_backdoor(self, charig):
        result = identify(charig, make_query(["success"], do=["treatment"]))
        expected = sum_over(
            product([prob(["success"], ["size", "treatment"]), prob(["size"])]),
            ["size"],
        )
        assert result == Formula(expected, {})

    def test_marginal_query_collapses(self, front_door):
        result = identify(front_door, make_query(["y"]))
        assert result == Formula(prob(["y"]), {})

    def test_bow_fails(self, bow):
        result = identify(bow, make_query(["y"], do=["x"]))
        assert isinstance(result, Fail)
        assert result.hedge.forest == bow

    def test_deterministic(self, concomitant):
        q = make_query(["y"], do=["x"])
        assert identify(concomitant, q) == identify(concomitant, q)

    def test_conditional_query_reduces_to_fraction(self, charig):
        result = identify(
            charig, make_query(["success"], do=["treatment"], given=["size"])
        )
        assert isinstance(result, Formula)
        assert free_variables(result) == {"success", "treatment", "size"}

    def test_bindings_restricted_to_free_variables(self, charig):
        result = identify(
            charig,
            make_query({"success": "yes"}, do={"treatment": "surgery"}),
        )
        assert result.bindings == {"treatment": "surgery", "success": "yes"}

    def test_unbound_query_has_no_bindings(self, front_door):
        result = identify(front_door, make_query(["y"], do=["x"]))
        assert result.bindings == {}
        assert free_variables(result) == {"x", "y"}

    def test_query_variable_missing_from_data(self, front_door):
        with pytest.raises(UnknownVariableError):
            identify(front_door, Data(["x", "z"]), make_query(["y"], do=["x"]))

    def test_data_outside_model(self, front_door):
        with pytest.raises(UnknownVariableError):
            identify(front_door, Data(["x", "y", "w"]), make_query(["y"], do=["x"]))

    def test_non_model_is_a_query_error(self):
        with pytest.raises(QueryError, match="expected a model, got dict"):
            identify({"x": []}, make_query(["x"]))

    def test_non_data_signature_is_a_query_error(self, front_door):
        with pytest.raises(QueryError, match="expected a data signature, got list"):
            identify(front_door, ["x", "y"], make_query(["y"], do=["x"]))


class TestFreeVariables:
    def test_front_door_formula(self):
        assert free_variables(front_door_formula()) == {"x", "y"}

    def test_plain_term(self):
        assert free_variables(prob(["y"])) == {"y"}

    def test_fully_captured_sum(self):
        # built raw, as sum_over would fold the sum into the constant ONE
        captured = Sum(prob(["x", "y"]), variables(["x", "y"]))
        assert free_variables(captured) == frozenset()


class TestMarkovianNeverFails:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_markovian_models_identify(self, seed):
        scm = random_scm(seed, max_vars=5, confounding_prob=0.0)
        names = sorted(scm.model.vertices)
        for do_var in names:
            for effect in names:
                if do_var == effect:
                    continue
                result = identify(scm.model, make_query([effect], do=[do_var]))
                assert isinstance(result, Formula)


class TestSemiMarkovianAnswers:
    def test_infer_matches_the_mutilated_scm(self):
        # every effect under every do-set of one or two variables, each set to
        # one seeded value, on confounded SCMs; read from the full joint and
        # from the joint with one vertex hidden, whose latent projection
        # adds confounding
        identified = failed = hidden_identified = 0
        for seed in range(60):
            rng = random.Random(seed)
            scm = random_scm(seed, max_vars=5, confounding_prob=0.4)
            joint = exact_joint(scm)
            names = sorted(scm.model.vertices)
            shown = [v for v in names if v != rng.choice(names)]
            signatures = [joint]
            if len(shown) >= 2:
                signatures.append(joint.estimate(make_query(shown)))
            values = {do: tuple(rng.randint(0, 1) for _ in do)
                      for k in (1, 2) for do in itertools.combinations(names, k)}
            truths = {}
            for dist in signatures:
                seen = dist.variables
                for y, do in itertools.product(seen, values):
                    if y in do or not set(do) <= set(seen):
                        continue
                    do_values = dict(zip(do, values[do]))
                    result = infer(scm.model, dist, make_query([y], do=do_values))
                    if isinstance(result, Fail):
                        failed += 1
                        continue
                    identified += 1
                    hidden_identified += dist is not joint
                    if do not in truths:
                        truths[do] = exact_joint(intervene(scm, do_values))
                    for value in (0, 1):
                        want = truths[do].measure({y: value})
                        assert result.measure({y: value}) == pytest.approx(want, abs=1e-9), (
                            seed, seen, y, do_values, value
                        )
        assert identified > 0 and failed > 0 and hidden_identified > 0


def corpus_queries(count=300, seed="identify-corpus", max_vertices=9, with_given=False):
    """Seeded semi-Markovian identification problems of 3 to max_vertices vertices.

    Names are shuffled against topological position, so that name order is
    not a topological order. Odd queries bind their do-variables to values;
    every third query hides 1-2 vertices through its data signature. With
    with_given, each query also conditions on 0-2 of the variables it does
    not hide; without it no draw is added, so the pinned corpus is unchanged.
    """
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(3, max_vertices)
        names = list("abcdefghijkl"[:n])
        rng.shuffle(names)  # names[j] sits at topological position j
        dag = {v: [names[k] for k in range(j) if rng.random() < 0.4] for j, v in enumerate(names)}
        pairs = [
            (names[a], names[b])
            for a, b in itertools.combinations(range(n), 2)
            if rng.random() < 0.25
        ]
        effect_count = rng.randint(1, 2)
        do_count = min(rng.randint(1, 3), n - effect_count)
        picked = rng.sample(names, effect_count + do_count)
        effect, do = picked[:effect_count], picked[effect_count:]
        rest = [v for v in names if v not in picked]
        given = rng.sample(rest, min(len(rest), rng.randint(0, 2))) if with_given else []
        rest = [v for v in rest if v not in given]
        hidden = rng.sample(rest, min(len(rest), rng.randint(1, 2))) if i % 3 == 2 else []
        model = make_model(dag, pairs)
        data = Data([v for v in names if v not in hidden])
        if i % 2:
            query = make_query(effect, do={v: 1 for v in do}, given={v: 0 for v in given})
        else:
            query = make_query(effect, do=do, given=given or None)
        yield model, data, query


def _model_key(m):
    parents = sorted((v, sorted(m.parents(v))) for v in m.vertices)
    return parents, sorted(sorted(g) for g in m.confounding)


def render_result(result):
    """A text that is equal for two results exactly when they are `==`,
    plus the message of a Fail."""
    if isinstance(result, Formula):
        return repr((form_key(result.form), sorted(result.bindings.items())))
    hedge = result.hedge
    return repr((
        _model_key(hedge.forest),
        _model_key(hedge.subforest),
        sorted(hedge.witness),
        result.message,
    ))


def render_verdict(result):
    """The verdict alone: equal for two results exactly when both are
    formulas, or both are Fails with the same hedge and message."""
    if isinstance(result, Formula):
        return "Formula"
    return render_result(result)


def given_corpus_queries():
    """1,000 corpus queries of 3-12 vertices that condition on 0-2 variables."""
    return corpus_queries(1000, "identify-corpus-given", max_vertices=12, with_given=True)


def corpus_digest(queries, render=render_result):
    rendering = "\n".join(
        render(identify(model, data, query)) for model, data, query in queries
    )
    return hashlib.sha256(rendering.encode()).hexdigest()


class TestCorpusDigest:
    # SHA-256 of the rendered results of the 300 corpus queries; a change to
    # identify that alters any formula, hedge or message changes it
    DIGEST = "b1403dad5b02adf8054b5705d07f257f767fadf3208022a936d7c37a1f5e427d"
    # the same for the conditional corpus: 632 formulas and 368 hedges
    GIVEN_DIGEST = "efa0f2d183b45a303b5b5b7ace6c5b6460083a95a66dab736625a39230398def"
    # the verdicts alone: which queries fail, and each Fail's hedge and
    # message. A rewrite of the recursion that changes only formula text
    # must leave these unchanged
    VERDICT_DIGEST = "fd9a8da61fb2d224dd0a1ea530b9cbd138db982575351378d7b4c819be806a62"
    GIVEN_VERDICT_DIGEST = "e6ac7855dc05f61cc13d90de21ccd2902eba5e5d96a12d1ef566b1811ee57a9e"

    def test_corpus_digest(self):
        assert corpus_digest(corpus_queries()) == self.DIGEST

    def test_given_corpus_digest(self):
        assert corpus_digest(given_corpus_queries()) == self.GIVEN_DIGEST

    def test_corpus_verdicts(self):
        assert corpus_digest(corpus_queries(), render_verdict) == self.VERDICT_DIGEST

    def test_given_corpus_verdicts(self):
        assert corpus_digest(given_corpus_queries(), render_verdict) == self.GIVEN_VERDICT_DIGEST

    def test_every_formula_is_in_normal_form(self):
        # the constructors build each node normal, so no sweep is left to do
        for model, data, query in itertools.chain(corpus_queries(), given_corpus_queries()):
            result = identify(model, data, query)
            if isinstance(result, Formula):
                assert simplify_form(result.form) == result.form


def corpus_graphs():
    """The graphs of the conditional corpus, projected onto their data."""
    for model, data, query in given_corpus_queries():
        g = latent_projection(model, data.joint_set)
        yield g, frozenset(query.effect) | frozenset(query.given), frozenset(query.do)


class TestIdentifyShortcuts:
    """The graph facts that let the recursion apply steps 2 and 3 in place and
    decide step 6 from the siblings of the component."""

    def test_steps_two_and_three_are_idempotent(self):
        rng = random.Random("idempotent")
        for g, y, x in corpus_graphs():
            v = y | frozenset(rng.sample(sorted(g.vertices), rng.randint(0, len(g.vertices))))
            # step 2 once: v' = An(y) within v, which is its own ancestral set
            anc = frozenset(_reach(g._parent_sets, y, keep=v))
            assert _reach(g._parent_sets, y, keep=anc) == anc
            # step 3 once, then again after x grows by what it found
            x = x & anc
            w = (anc - x) - _reach(g._parent_sets, y, x, anc)
            assert not (anc - (x | w)) - _reach(g._parent_sets, y, x | w, anc)

    def test_step_six_from_siblings(self):
        rng = random.Random("step-six")
        seen = set()
        for g, _, _ in corpus_graphs():
            vertices = sorted(g.vertices)
            u = frozenset(rng.sample(vertices, rng.randint(1, len(vertices))))
            # s is a c-component of G[s]: one of G[u] for a random u
            s = rng.choice(_c_components(g, u))
            rest = sorted(g.vertices - s)
            if not rest:
                continue
            x = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
            v = s | x
            assert _c_components(g, v - x) == [s]
            alone = all(x.isdisjoint(g._siblings.get(w, ())) for w in s)
            assert (s in _c_components(g, v)) == alone
            seen.add(alone)
        assert seen == {True, False}

    def test_blanket_path_only_in_ancestral_frames(self, monkeypatch):
        # a chain pass conditions on the ordered Markov blanket exactly when
        # the distribution is the plain joint P(v), and then v is closed
        # under parents, so that P(v) is Markov to G[v]; after step 7 it
        # takes the path of marginals
        module = importlib.import_module("whittemore.identify")
        chain_factors, paths = module._chain_factors, []

        def checked(p_form, s, v, g):
            plain = p_form == prob(v)
            assert not plain or all(g._parent_sets[u] <= v for u in v)
            paths.append(plain)
            return chain_factors(p_form, s, v, g)

        monkeypatch.setattr(module, "_chain_factors", checked)
        for model, data, query in itertools.chain(corpus_queries(), given_corpus_queries()):
            identify(model, data, query)
        assert set(paths) == {True, False}

    def test_blanket_is_the_least_separating_set(self):
        # each vertex u of a root-frame chain factor is independent of its
        # other predecessors given its ordered Markov blanket B, and no member
        # of B can be left out
        rng = random.Random("blanket")
        for i in range(1000):
            n = rng.randint(2, 10)
            names = [f"v{k}" for k in range(n)]
            rng.shuffle(names)  # names[j] sits at topological position j
            dag = {v: [names[k] for k in range(j) if rng.random() < 0.35]
                   for j, v in enumerate(names)}
            pairs = [p for p in itertools.combinations(names, 2) if rng.random() < 0.2]
            g = make_model(dag, pairs)
            if i % 3 == 2 and n > 3:
                g = latent_projection(g, rng.sample(names, rng.randint(2, n - 1)))
            before = frozenset()
            for u in g._order:
                b = _blanket(g, u, before)
                assert b <= before
                assert d_separated(g, u, before - b, b)
                for w in b:
                    assert not d_separated(g, u, (w,), b - {w})
                before |= {u}


def napkin():
    return make_model({"w": [], "z": ["w"], "x": ["z"], "y": ["x"]}, [{"w", "x"}, {"w", "y"}])


def napkin_scm():
    """Binary napkin SCM with coins u: w = (u_wx or u_wy) xor u_w,
    z = w xor u_z, x = z xor u_wx xor u_x and y = x xor u_wy xor u_y.

    The back-door path x <- z <- w <-> y keeps P(y | x) well away from
    P(y | do(x)).
    """
    w, z, x, y = (Variable(v) for v in "wzxy")
    wx, wy = frozenset((w, x)), frozenset((w, y))
    coin = lambda p: ((0, 1.0 - p), (1, p))  # noqa: E731
    noise = {wx: coin(0.15), wy: coin(0.3)}
    noise.update((frozenset((v,)), coin(p)) for v, p in zip((w, z, x, y), (0.05, 0.05, 0.05, 0.1)))

    def mechanism(v, parents, shared, f):
        groups = (frozenset((v,)),) + shared
        table = {
            (pv, nv): f(*pv, *nv)
            for pv in itertools.product((0, 1), repeat=len(parents))
            for nv in itertools.product((0, 1), repeat=len(groups))
        }
        return TableMechanism(parents, groups, table)

    mechanisms = {
        w: mechanism(w, (), (wx, wy), lambda own, a, b: (a | b) ^ own),
        z: mechanism(z, (w,), (), lambda pw, own: pw ^ own),
        x: mechanism(x, (z,), (wx,), lambda pz, own, a: pz ^ a ^ own),
        y: mechanism(y, (x,), (wy,), lambda px, own, b: px ^ b ^ own),
    }
    return DiscreteSCM(napkin(), noise, mechanisms, {v: (0, 1) for v in (w, z, x, y)})


class TestStepSeven:
    """The napkin graph w -> z -> x -> y, w <-> x, w <-> y: P(y | do(x)) needs
    step 7, which recurses into the component {w, x, y} of the graph."""

    def test_napkin_formula(self):
        result = identify(napkin(), make_query(["y"], do=["x"]))
        chain = product([prob(["w"]), prob(["x"], ["w", "z"]), prob(["y"], ["w", "x", "z"])])
        ratio = fraction(sum_over(chain, ["w"]), sum_over(chain, ["w", "y"]))
        # the result is constant in z, which is averaged over its marginal
        assert result == Formula(sum_over(product([prob(["z"]), ratio]), ["z"]), {})

    def test_napkin_matches_the_mutilated_scm(self):
        scm = napkin_scm()
        joint = exact_joint(scm)
        result = identify(scm.model, make_query(["y"], do=["x"]))
        for x in (0, 1):
            truth = exact_joint(intervene(scm, {"x": x}))
            for y in (0, 1):
                want = truth.measure({"y": y})
                assert abs(joint.measure({"x": x, "y": y}) / joint.measure({"x": x}) - want) > 0.05
                got = evaluate(joint, result, {"x": x, "y": y})
                assert got == pytest.approx(want, abs=1e-9)


def front_door_chain(k):
    names = ["x"] + [f"m{i}" for i in range(1, k + 1)] + ["y"]
    return make_model({v: [names[i - 1]] if i else [] for i, v in enumerate(names)}, [{"x", "y"}])


class TestModelsBuilt:
    """The recursion walks vertex sets of one graph: a model is built only
    for the forest and the subforest of a hedge."""

    def count_builds(self, monkeypatch, model):
        built = []
        build = whittemore.model._build
        monkeypatch.setattr(
            whittemore.model, "_build", lambda *args: built.append(1) or build(*args)
        )
        result = identify(model, make_query(["y"], do=["x"]))
        return result, len(built)

    def test_none_for_a_long_front_door_chain(self, monkeypatch):
        result, built = self.count_builds(monkeypatch, front_door_chain(16))
        assert isinstance(result, Formula)
        assert built == 0

    def test_none_for_the_napkin(self, monkeypatch):
        result, built = self.count_builds(monkeypatch, napkin())
        assert isinstance(result, Formula)
        assert built == 0

    def test_forest_and_subforest_for_a_bow(self, monkeypatch, bow):
        result, built = self.count_builds(monkeypatch, bow)
        assert isinstance(result, Fail)
        assert built == 2


class TestFramesMade:
    """Steps 2 and 3 rewrite the frame they run in, and step 4 factors every
    component with no sibling in x in one chain pass, so only a component
    linked to x by a sibling, and step 7, open an _id frame. The
    c-components of G[v] are computed only for steps 5 and 7."""

    def count_frames(self, monkeypatch, model, query, frames=None):
        module = importlib.import_module("whittemore.identify")
        counts = {"_id": 0, "_c_components": 0}
        for name in counts:
            fn = getattr(module, name)

            def counted(*args, name=name, fn=fn):
                counts[name] += 1
                if frames is not None and name == "_id":
                    frames.append((sorted(args[0]), sorted(args[1]), sorted(args[3])))
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
        result = identify(model, query)
        assert isinstance(result, Formula)
        return counts["_id"], counts["_c_components"]

    def two_parent_chain(self, monkeypatch, n):
        # every component of G[v - x] is a singleton with no sibling: one
        # frame and one c-component walk, however long the chain
        names = [f"v{i:03d}" for i in range(n)]
        model = make_model({v: names[max(0, i - 2):i] for i, v in enumerate(names)})
        query = make_query([names[-1]], do=["v003"])
        return self.count_frames(monkeypatch, model, query)

    def test_markovian_two_parent_chain(self, monkeypatch):
        assert self.two_parent_chain(monkeypatch, 12) == (1, 1)

    def test_frames_do_not_grow_with_the_chain(self, monkeypatch):
        assert self.two_parent_chain(monkeypatch, 400) == (1, 1)

    def test_long_front_door_chain(self, monkeypatch):
        query = make_query(["y"], do=["x"])
        assert self.count_frames(monkeypatch, front_door_chain(16), query) == (3, 3)

    def test_only_the_component_linked_to_x_opens_a_frame(self, monkeypatch):
        # x -> m1 -> m2 -> m3 -> y, x <-> y: of the components {m1}, {m2},
        # {m3} and {y} of G[v - x], only {y} has a sibling in x. It opens
        # the one step-4 frame, which step 7 narrows to {x, y}
        frames = []
        query = make_query(["y"], do=["x"])
        assert self.count_frames(monkeypatch, front_door_chain(3), query, frames) == (3, 3)
        everything = ["m1", "m2", "m3", "x", "y"]
        assert frames == [
            (["y"], ["x"], everything),
            (["y"], ["m1", "m2", "m3", "x"], everything),
            (["y"], ["x"], ["x", "y"]),
        ]

    def test_napkin(self, monkeypatch):
        query = make_query(["y"], do=["x"])
        assert self.count_frames(monkeypatch, napkin(), query) == (2, 3)


class _Handing:
    """A distribution that hands back the formula it is asked to estimate,
    so that infer's identification can be read; its signature is whatever
    it was given."""

    def __init__(self, joint):
        self.joint = joint

    def signature(self):
        return self.joint

    def measure(self, event):
        raise AssertionError("infer does not measure")

    def estimate(self, target):
        return target


class TestInferMemo:
    """infer derives each query shape (the signature's variables and the
    effect, do and given sets) once per model, and binds each call's own
    values; identify derives on every call."""

    @pytest.fixture
    def frames(self, monkeypatch):
        module = importlib.import_module("whittemore.identify")
        opened, fn = [], module._id

        def counted(*args):
            opened.append(args)
            return fn(*args)

        monkeypatch.setattr(module, "_id", counted)
        return opened

    def frames_of(self, frames, call):
        before = len(frames)
        result = call()
        return result, len(frames) - before

    def test_a_repeated_shape_opens_frames_only_on_its_first_call(self, frames, front_door):
        dist = _Handing(Data(["x", "y", "z"]))
        opened = []
        for query in (
            make_query(["y"], do={"x": 0}),
            make_query(["y"], do={"x": 1}),
            make_query({"y": 1}, do={"x": 1}),
        ):
            formula, n = self.frames_of(frames, lambda: infer(front_door, dist, query))
            opened.append(n)
            expected = identify(front_door, query)
            assert formula == expected
            assert formula.bindings == expected.bindings
            assert formula.effect == expected.effect == {"y"}
        assert opened[0] > 0
        assert opened[1:] == [0, 0]

    def test_identify_derives_on_every_call(self, frames, front_door):
        query = make_query(["y"], do={"x": 0})
        counts = [self.frames_of(frames, lambda: identify(front_door, query))[1] for _ in range(2)]
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("joint, query", [
        (["x", "y"], make_query(["y"], do={"x": 0})),
        (["x", "y", "z"], make_query(["y"], do={"x": 0}, given={"z": 1})),
        (["x", "y", "z"], make_query(["y"], do={"x": 0, "z": 1})),
    ], ids=["hidden-vertex", "given-set", "do-set"])
    def test_another_shape_misses(self, frames, front_door, joint, query):
        infer(front_door, _Handing(Data(["x", "y", "z"])), make_query(["y"], do={"x": 1}))
        dist = _Handing(Data(joint))
        first, missed = self.frames_of(frames, lambda: infer(front_door, dist, query))
        second, hit = self.frames_of(frames, lambda: infer(front_door, dist, query))
        assert missed > 0 and hit == 0
        expected = identify(front_door, Data(joint), query)
        assert first == second == expected
        if isinstance(expected, Formula):
            assert first.bindings == second.bindings == expected.bindings
            assert first.effect == second.effect == expected.effect

    def test_a_fail_comes_back_equal_with_its_hedge(self, front_door):
        dist, query = _Handing(Data(["x", "y"])), make_query(["y"], do={"x": 0})
        expected = identify(front_door, Data(["x", "y"]), query)
        assert isinstance(expected, Fail)
        for _ in range(3):
            result = infer(front_door, dist, query)
            assert result == expected and result.message == expected.message
            assert result.hedge.forest == expected.hedge.forest
            assert result.hedge.subforest == expected.hedge.subforest
            assert result.hedge.witness == expected.hedge.witness == {"y"}

    @pytest.mark.parametrize("model, joint, query, error", [
        (None, Data(["x", "y", "z"]), make_query(["w"], do={"x": 0}), UnknownVariableError),
        (None, Data(["x", "z"]), make_query(["y"], do={"x": 0}), UnknownVariableError),
        ({"x": []}, Data(["x"]), make_query(["x"]), QueryError),
        (None, Data(["x", "y", "z", "w"]), make_query(["y"], do={"x": 0}), UnknownVariableError),
        (None, ["x", "y", "z"], make_query(["y"], do={"x": 0}), QueryError),
    ], ids=["unknown-variable", "variable-not-in-signature", "non-model",
            "signature-not-in-model", "non-data-signature"])
    def test_an_invalid_call_raises_every_time_and_keeps_nothing(
        self, front_door, model, joint, query, error
    ):
        model = front_door if model is None else model
        raised = []
        for call in (
            lambda: identify(model, joint, query),
            lambda: infer(model, _Handing(joint), query),
            lambda: infer(model, _Handing(joint), query),
        ):
            with pytest.raises(error) as err:
                call()
            raised.append((type(err.value), str(err.value)))
        assert raised[0] == raised[1] == raised[2]
        assert not hasattr(front_door, "_derived")

    @pytest.mark.parametrize("build", [
        lambda m: m,
        lambda m: subgraph(m, ["x", "y", "z"]),
        lambda m: latent_projection(m, ["x", "y", "z"]),
    ], ids=["make_model", "subgraph", "latent_projection"])
    def test_a_model_gets_its_memo_on_its_first_infer(self, frames, build):
        model = build(make_model({"x": [], "z": ["x"], "y": ["z"], "w": ["y"]}, [{"x", "y"}]))
        assert not hasattr(model, "_derived")
        dist, query = _Handing(Data(["x", "y", "z"])), make_query(["y"], do={"x": 0})
        first, missed = self.frames_of(frames, lambda: infer(model, dist, query))
        assert missed > 0 and len(model._derived) == 1
        second, hit = self.frames_of(frames, lambda: infer(model, dist, query))
        assert hit == 0 and len(model._derived) == 1
        assert first == second == identify(model, Data(["x", "y", "z"]), query)
