import itertools
import random

import pytest

from whittemore import (
    CategoricalDistribution,
    Data,
    Fail,
    ancestors,
    evaluate,
    identify,
    latent_projection,
    make_model,
    make_query,
    measure,
)
from whittemore.errors import UnknownVariableError
from whittemore.model import Variable
from whittemore.oracle import (
    DiscreteSCM,
    TableMechanism,
    exact_joint,
    intervene,
    random_scm,
)


def deterministic_chain():
    """x uniform binary, y copies x."""
    model = make_model({"x": [], "y": ["x"]})
    noise = {
        frozenset({Variable("x")}): ((0, 0.5), (1, 0.5)),
        frozenset({Variable("y")}): ((0, 1.0),),
    }
    mechanisms = {
        Variable("x"): lambda values, noise_env: noise_env[frozenset({Variable("x")})],
        Variable("y"): lambda values, noise_env: values[Variable("x")],
    }
    return DiscreteSCM(model, noise, mechanisms, {Variable("x"): (0, 1), Variable("y"): (0, 1)})


def smoking_scm():
    """Front-door-shaped SCM reproducing the tar/cancer table.

    The shared noise u is both the confounder and the smoking status:
    x = u, z flips a biased coin keyed to x, y flips one keyed to (z, u).
    """
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    model = make_model({"x": [], "z": ["x"], "y": ["z"]}, [{"x", "y"}])
    shared = frozenset({x, y})
    noise = {
        shared: ((0, 0.5), (1, 0.5)),
        frozenset({x}): ((0, 1.0),),
        frozenset({z}): ((0, 0.05), (1, 0.95)),
        # one response entry per (z, u) cell, encoded as a lookup table
        frozenset({y}): tuple(
            (outcome, p)
            for outcome, p in _response_weights(
                {(0, 0): 0.1, (1, 0): 0.05, (0, 1): 0.9, (1, 1): 0.85}
            )
        ),
    }

    def mech_x(values, noise_env):
        return noise_env[shared]

    def mech_z(values, noise_env):
        flip = noise_env[frozenset({z})]
        return flip if values[x] == 1 else 1 - flip

    def mech_y(values, noise_env):
        response = noise_env[frozenset({y})]
        return response[(values[z], noise_env[shared])]

    mechanisms = {x: mech_x, z: mech_z, y: mech_y}
    domains = {x: (0, 1), z: (0, 1), y: (0, 1)}
    return DiscreteSCM(model, noise, mechanisms, domains)


def _response_weights(cell_probs):
    """All functions (z, u) -> y weighted by independent per-cell coins."""
    cells = sorted(cell_probs)
    for outcomes in itertools.product((0, 1), repeat=len(cells)):
        weight = 1.0
        for cell, outcome in zip(cells, outcomes):
            p = cell_probs[cell]
            weight *= p if outcome == 1 else 1.0 - p
        table = dict(zip(cells, outcomes))
        yield (_FrozenTable(table), weight)


class _FrozenTable(dict):
    """Hashable lookup table used as a noise outcome."""

    def __hash__(self):
        return hash(frozenset(self.items()))


class TestExactJoint:
    def test_deterministic_chain(self):
        joint = exact_joint(deterministic_chain())
        assert measure(joint, {"x": 0, "y": 0}) == pytest.approx(0.5, abs=1e-12)
        assert measure(joint, {"x": 1, "y": 1}) == pytest.approx(0.5, abs=1e-12)
        assert measure(joint, {"x": 0, "y": 1}) == 0.0

    def test_smoking_table_conditional(self):
        joint = exact_joint(smoking_scm())
        cond = measure(joint, {"y": 1, "x": 1}) / measure(joint, {"x": 1})
        assert cond == pytest.approx(0.8525, abs=1e-12)

    def test_random_scm_normalizes(self):
        joint = exact_joint(random_scm(3))
        names = sorted(joint.signature().joint)
        total = sum(
            measure(joint, dict(zip(names, bits)))
            for bits in itertools.product((0, 1), repeat=len(names))
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestIntervene:
    def test_empty_do_is_identity(self):
        scm = random_scm(11)
        assert intervene(scm, {}) is scm

    def test_root_intervention_matches_conditioning(self):
        # back-door with an empty adjustment set: x has no confounders
        scm = random_scm(5, confounding_prob=0.0)
        joint = exact_joint(scm)
        names = sorted(scm.model.vertices)
        x, y = names[0], names[-1]
        assert not scm.model.parents(Variable(x))
        truth = exact_joint(intervene(scm, {x: 1}))
        for yval in (0, 1):
            conditioned = (
                measure(joint, {x: 1, y: yval}) / measure(joint, {x: 1})
            )
            assert truth.measure({y: yval}) == pytest.approx(conditioned, abs=1e-9)

    def test_smoking_interventions(self):
        scm = smoking_scm()
        values = sorted(
            exact_joint(intervene(scm, {"x": level})).measure({"y": 1})
            for level in (0, 1)
        )
        assert values == pytest.approx([0.4525, 0.4975], abs=1e-12)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            intervene(random_scm(0), {"zz": 1})

    def test_unknown_value(self):
        scm = random_scm(0)
        v = sorted(scm.model.vertices)[0]
        with pytest.raises(UnknownVariableError):
            intervene(scm, {v: "nope"})


class TestRandomScm:
    def test_seed_determinism(self):
        a, b = random_scm(42), random_scm(42)
        assert a.model == b.model
        assert a.noise == b.noise
        joint_a, joint_b = exact_joint(a), exact_joint(b)
        assert joint_a == joint_b

    def test_zero_confounding_is_markovian(self):
        assert not random_scm(7, confounding_prob=0.0).model.confounding

    def test_full_confounding_two_vars_is_bow_family(self):
        scm = random_scm(9, max_vars=2, confounding_prob=1.0)
        assert scm.model.confounding == frozenset({frozenset(scm.model.vertices)})

    def test_strictly_positive_joint(self):
        joint = exact_joint(random_scm(21))
        names = sorted(joint.signature().joint)
        for bits in itertools.product((0, 1), repeat=len(names)):
            assert measure(joint, dict(zip(names, bits))) > 0.0


class TestConditionalQueries:
    @pytest.mark.parametrize("seed", range(15))
    def test_conditional_causal_formula_matches_mutilated_conditional(self, seed):
        scm = random_scm(seed, max_vars=4, confounding_prob=0.0)
        joint = exact_joint(scm)
        names = sorted(scm.model.vertices)
        if len(names) < 3:
            return
        do_var, given_var, effect = names[0], names[1], names[-1]
        result = identify(
            scm.model, make_query([effect], do=[do_var], given=[given_var])
        )
        assert not isinstance(result, Fail)
        for do_val in (0, 1):
            truth = exact_joint(intervene(scm, {do_var: do_val}))
            for given_val in (0, 1):
                denom = truth.measure({given_var: given_val})
                for effect_val in (0, 1):
                    got = evaluate(
                        joint,
                        result,
                        {do_var: do_val, given_var: given_val, effect: effect_val},
                    )
                    want = truth.measure({effect: effect_val, given_var: given_val}) / denom
                    assert got == pytest.approx(want, abs=1e-9)


class TestEndToEndSoundness:
    @pytest.mark.parametrize("seed", range(40))
    def test_identified_formulas_match_mutilated_truth(self, seed):
        scm = relabel(random_scm(seed, max_vars=4, confounding_prob=0.35), seed)
        joint = exact_joint(scm)
        names = sorted(scm.model.vertices)
        for do_var in names:
            truths = {
                val: exact_joint(intervene(scm, {do_var: val})) for val in (0, 1)
            }
            for effect in names:
                if effect == do_var:
                    continue
                result = identify(scm.model, make_query([effect], do=[do_var]))
                if isinstance(result, Fail):
                    assert scm.model.confounding
                    continue
                for do_val in (0, 1):
                    for effect_val in (0, 1):
                        got = evaluate(
                            joint, result, {do_var: do_val, effect: effect_val}
                        )
                        want = truths[do_val].measure({effect: effect_val})
                        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("seed", range(30))
    def test_set_queries_on_restricted_data_match_mutilated_truth(self, seed):
        # effect and do sets of 1-2 variables on a 5-variable SCM; every other
        # query hides a variable, which identify absorbs by latent projection
        scm = relabel(five_variable_scm(seed), seed)
        joint = exact_joint(scm)
        names = sorted(scm.model.vertices)
        causes = [v for v in names if len(scm.model.children(v)) >= 2]
        rng = random.Random(seed)
        truths = {}
        for i in range(8):
            # a hidden common cause is what adds a bidirected edge
            hidden = rng.choice(causes or names) if i % 2 else None
            signature = [v for v in names if v != hidden]
            effect = rng.sample(signature, rng.randint(1, 2))
            # do-variables upstream of the effect where there are any
            others = [v for v in signature if v not in effect]
            upstream = [v for v in others if v in ancestors(scm.model, effect)] or others
            do = rng.sample(upstream, min(len(upstream), rng.randint(1, 2)))
            assert_matches_truth(scm, joint, truths, signature, effect, do)

    @pytest.mark.parametrize("seed", range(10))
    def test_step_seven_on_a_component_not_closed_under_parents(self, seed):
        # in this graph, P(e | do(d)) grows the intervention to {a, b, c, d}
        # and then enters the c-component {a, d, e}, which holds d but not its
        # parents b and c
        scm = random_scm(383, max_vars=5, confounding_prob=0.2)
        assert scm.model == make_model(
            {"a": [], "b": ["a"], "c": ["a"], "d": ["b", "c"], "e": ["d"]},
            [{"a", "d"}, {"a", "e"}],
        )
        scm = relabel(scm, seed)
        joint = exact_joint(scm)
        names = sorted(scm.model.vertices)
        truths = {}
        for hidden in [None, *names]:
            signature = [v for v in names if v != hidden]
            for effect, do in itertools.permutations(signature, 2):
                assert_matches_truth(scm, joint, truths, signature, [effect], [do])


def assert_matches_truth(scm, joint, truths, signature, effect, do):
    """identify P(effect | do(do)) from the marginal of joint over signature,
    and match the formula at every binary value to the mutilated exact joint,
    cached in truths by the do-assignment. A Fail needs a confounded projection."""
    result = identify(scm.model, Data(signature), make_query(effect, do=do))
    if isinstance(result, Fail):
        assert latent_projection(scm.model, signature).confounding
        return
    observed = marginal_joint(joint, signature)
    for do_bits in itertools.product((0, 1), repeat=len(do)):
        fixed = tuple(sorted(zip(do, do_bits)))
        if fixed not in truths:
            truths[fixed] = exact_joint(intervene(scm, dict(fixed)))
        for effect_bits in itertools.product((0, 1), repeat=len(effect)):
            event = dict(zip(effect, effect_bits))
            got = evaluate(observed, result, {**dict(fixed), **event})
            assert got == pytest.approx(truths[fixed].measure(event), abs=1e-9)


def five_variable_scm(seed):
    """The first random SCM of five variables from seed 100 * seed on."""
    k = 100 * seed
    while len((scm := random_scm(k, max_vars=5, confounding_prob=0.2)).model.vertices) < 5:
        k += 1
    return scm


def relabel(scm, seed):
    """scm with its variables renamed by a seeded shuffle of their names.

    random_scm names its variables in topological order; after the shuffle,
    name order need not be a topological order, as in a user's model.
    """
    old = sorted(scm.model.vertices)
    new = list(old)
    random.Random(seed).shuffle(new)
    name = dict(zip(old, new))

    def group(g):
        return frozenset(name[v] for v in g)

    model = make_model(
        {name[v]: [name[p] for p in ps] for v, ps in scm.model.dag.items()},
        [group(g) for g in scm.model.confounding],
    )
    mechanisms = {
        name[v]: TableMechanism(
            tuple(name[p] for p in m.parents), tuple(map(group, m.groups)), m.table
        )
        for v, m in scm.mechanisms.items()
    }
    noise = {group(g): outcomes for g, outcomes in scm.noise.items()}
    return DiscreteSCM(model, noise, mechanisms, {name[v]: d for v, d in scm.domains.items()})


def marginal_joint(joint, names):
    """The marginal of a binary joint over names, as a distribution of its own."""
    events = [dict(zip(names, bits)) for bits in itertools.product((0, 1), repeat=len(names))]
    return CategoricalDistribution.from_weights(
        [(event, joint.measure(event)) for event in events], tolerance=1e-9
    )
