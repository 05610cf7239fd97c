import csv
import gc
import io
import itertools
import math
import pickle
import random
import sys
import tempfile
import threading
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittemore import (
    CategoricalDistribution,
    Data,
    Fail,
    Formula,
    categorical,
    estimate,
    eval_program,
    evaluate,
    free_variables,
    identify,
    infer,
    make_model,
    make_query,
    measure,
    print_value,
    prob,
    read_csv,
    signature,
    variables,
)
from whittemore.distribution import SampleTable, _code, _Evaluator
from whittemore.errors import (
    DataFormatError,
    EstimationError,
    UnknownVariableError,
    WhittemoreError,
)
from whittemore.formula import Fraction, Prob, Product, Sum
from whittemore.model import Variable
from whittemore.oracle import exact_joint, random_scm
from whittemore.printer import display_value

EXAMPLE_SAMPLES = [
    {"x": 0, "y": 0},
    {"x": 0, "y": 1},
    {"x": 1, "y": 0},
    {"x": 1, "y": 1},
    {"x": 1, "y": 1},
]


@pytest.fixture
def example_distribution():
    return categorical(EXAMPLE_SAMPLES)


class TestCategorical:
    def test_example_weights(self, example_distribution):
        assert measure(example_distribution, {"x": 1, "y": 1}) == 0.4
        for event in ({"x": 0, "y": 0}, {"x": 0, "y": 1}, {"x": 1, "y": 0}):
            assert measure(example_distribution, event) == 0.2

    def test_single_sample(self):
        d = categorical([{"x": 0}])
        assert measure(d, {"x": 0}) == 1.0

    def test_kidney_counts(self, kidney):
        assert measure(kidney, {"treatment": "surgery"}) == 0.5
        assert measure(kidney, {"success": "yes"}) == 562 / 700

    def test_empty_samples_rejected(self):
        with pytest.raises(DataFormatError):
            categorical([])

    def test_ragged_samples_rejected(self):
        with pytest.raises(DataFormatError):
            categorical([{"x": 0}, {"x": 0, "y": 1}])

    def test_repeated_count_event_adds_to_its_cell(self):
        d = CategoricalDistribution.from_counts([({"x": 0}, 2), ({"x": 0}, 3), ({"x": 1}, 5)])
        assert measure(d, {"x": 0}) == 0.5

    def test_negative_count_rejected(self):
        with pytest.raises(DataFormatError, match="event 0"):
            CategoricalDistribution.from_counts([({"x": 0}, -1), ({"x": 1}, 2)])

    def test_all_zero_counts_rejected_when_built(self):
        with pytest.raises(DataFormatError):
            CategoricalDistribution.from_counts([({"x": 0}, 0), ({"x": 1}, 0)])

    def test_non_map_samples_rejected(self):
        with pytest.raises(DataFormatError, match="event 0"):
            CategoricalDistribution.from_samples([1, 2])

    def test_negative_weight_rejected(self):
        with pytest.raises(DataFormatError, match="event 1"):
            CategoricalDistribution.from_weights([({"x": 0}, 1.5), ({"x": 1}, -0.5)])

    def test_weights_off_one_rejected(self):
        with pytest.raises(EstimationError):
            CategoricalDistribution.from_weights([({"x": 0}, 0.5), ({"x": 1}, 0.25)])

    @pytest.mark.parametrize(
        "source", ["(categorical [1 2])", "(categorical [{1 2}])", "(categorical [{:x [1]}])"]
    )
    def test_bad_script_samples_report_position(self, source):
        with pytest.raises(WhittemoreError, match=r"^1:1: "):
            eval_program(source)


class TestSignature:
    def test_example(self, example_distribution):
        assert signature(example_distribution) == Data(["x", "y"])

    def test_single_variable(self):
        assert signature(categorical([{"x": 0}])) == Data(["x"])

    def test_kidney(self, kidney):
        assert signature(kidney) == Data(["treatment", "size", "success"])


class TestMeasure:
    def test_sure_event(self, kidney):
        assert measure(kidney, {}) == 1.0

    def test_unknown_value_is_zero(self, example_distribution):
        assert measure(example_distribution, {"x": 99}) == 0.0

    def test_unknown_variable_is_an_error(self, example_distribution):
        with pytest.raises(UnknownVariableError):
            measure(example_distribution, {"w": 0})

    def test_full_support_sums_to_one(self, kidney):
        total = math.fsum(
            measure(kidney, {"treatment": t, "size": s, "success": u})
            for t in ("surgery", "nephrolithotomy")
            for s in ("small", "large")
            for u in ("yes", "no")
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_unhashable_value_is_zero(self, example_distribution):
        assert measure(example_distribution, {"x": [1, 2]}) == 0.0

    def test_non_map_event_is_an_error(self, example_distribution):
        with pytest.raises(DataFormatError, match="must be a map"):
            measure(example_distribution, 5)

    def test_non_string_key_is_an_error(self, example_distribution):
        with pytest.raises(DataFormatError, match="non-string key"):
            measure(example_distribution, {1: 0})

    def test_marginal_consistency(self, kidney):
        lhs = measure(kidney, {"size": "small"})
        rhs = math.fsum(
            measure(kidney, {"size": "small", "treatment": t, "success": u})
            for t in ("surgery", "nephrolithotomy")
            for u in ("yes", "no")
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


# mixed kinds, including equal values of different types (1, 1.0, True)
_VALUES = (0, 1, 2, 1.0, True, "a", "b", None)
_NAMES = ("u", "v", "w", "x")


@st.composite
def _joints(draw):
    """A sparse joint: sample-built, or float-weighted over distinct events.

    Returns the distribution, its (event, weight) pairs and its total.
    """
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    row = st.tuples(*(st.sampled_from(_VALUES) for _ in names))
    if draw(st.booleans()):
        events = [dict(zip(names, r)) for r in draw(st.lists(row, min_size=1, max_size=30))]
        pairs = [(e, 1) for e in events]
        return CategoricalDistribution.from_samples(events), pairs, len(events)
    # distinct by ==, so that no two weights are added into one cell
    rows = draw(st.lists(row, min_size=1, max_size=30, unique=True))
    events = [dict(zip(names, r)) for r in rows]
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(events), max_size=len(events)))
    mass = math.fsum(raw)
    pairs = [(e, w / mass) for e, w in zip(events, raw)]
    return CategoricalDistribution.from_weights(pairs), pairs, 1.0


def _scan(pairs, total, event):
    """The probability of the event by a scan over every (event, weight) pair."""
    matching = [w for e, w in pairs if all(e[k] == v for k, v in event.items())]
    return math.fsum(matching) / total


class TestMarginalTables:
    """`measure` reads memoised marginal tables; it must equal a full scan."""

    @given(_joints(), st.data())
    def test_measure_equals_a_scan(self, joint, data):
        dist, pairs, total = joint
        names = [str(v) for v in dist.variables]
        events = data.draw(
            st.lists(
                st.lists(st.sampled_from(names), unique=True).flatmap(
                    lambda sub: st.fixed_dictionaries(
                        {n: st.sampled_from(_VALUES + ("absent",)) for n in sub}
                    )
                ),
                min_size=1,
                max_size=8,
            )
        )
        for event in events + events:  # first use of each table, then repeated use
            assert measure(dist, event) == _scan(pairs, total, event)

    @given(_joints(), st.data())
    def test_conditional_term_equals_a_ratio_of_scans(self, joint, data):
        dist, pairs, total = joint
        order = data.draw(st.permutations([str(v) for v in dist.variables]))
        split = data.draw(st.integers(1, len(order)))
        p, cond = order[:split], order[split:data.draw(st.integers(split, len(order)))]
        context = {n: data.draw(st.sampled_from(_VALUES)) for n in p + cond}
        numer = _scan(pairs, total, context)
        denom = _scan(pairs, total, {n: context[n] for n in cond})
        expected = numer if not cond else (0.0 if denom == 0.0 else numer / denom)
        assert evaluate(dist, prob(p, cond), context) == expected

    @given(_joints())
    def test_outside_support_and_unknown_after_tables_exist(self, joint):
        dist, pairs, total = joint
        names = [str(v) for v in dist.variables]
        assert measure(dist, {names[0]: "absent"}) == 0.0
        assert measure(dist, dict.fromkeys(names, "absent")) == 0.0
        with pytest.raises(UnknownVariableError):
            measure(dist, {names[0]: 0, "nowhere": 0})
        with pytest.raises(UnknownVariableError):
            measure(dist, {"nowhere": 0})


class TestEvaluate:
    def test_front_door_on_smoking_table(self, front_door, smoking):
        formula = identify(front_door, make_query(["y"], do=["x"]))
        values = {
            x: evaluate(smoking, formula, {"x": x, "y": 1}) for x in (0, 1)
        }
        assert sorted(values.values()) == pytest.approx([0.4525, 0.4975], abs=1e-12)

    def test_marginal_term(self, example_distribution):
        assert evaluate(example_distribution, prob(["y"]), {"y": 1}) == 0.6

    def test_total_probability(self, example_distribution):
        # built raw: sum_over would fold the sum into the constant ONE
        total = Sum(prob(["x"]), variables(["x"]))
        assert evaluate(example_distribution, total, {}) == 1.0

    def test_unbound_variable_is_an_error(self, example_distribution):
        with pytest.raises(EstimationError):
            evaluate(example_distribution, prob(["y"], ["x"]), {"y": 1})

    def test_unhashable_context_value_is_zero(self, example_distribution):
        assert evaluate(example_distribution, prob(["y"]), {"y": [1]}) == 0.0

    def test_zero_probability_conditional_is_zero(self, example_distribution):
        form = prob(["y"], ["x"])
        assert evaluate(example_distribution, form, {"y": 1, "x": 77}) == 0.0


class TestEstimate:
    def test_smoking_conditional(self, smoking):
        assert estimate(smoking, make_query({"y": 1}, given={"x": 1})) == 0.8525

    def test_kidney_conditional(self, kidney):
        value = estimate(
            kidney, make_query({"success": "yes"}, given={"treatment": "surgery"})
        )
        assert value == 0.78

    def test_unknown_value_measures_zero(self, example_distribution):
        assert estimate(example_distribution, make_query({"x": 12})) == 0.0

    def test_bound_query_yields_distribution(self, kidney):
        dist = estimate(kidney, make_query(["success"], given={"treatment": "surgery"}))
        assert isinstance(dist, CategoricalDistribution)
        assert signature(dist) == Data(["success"])
        assert measure(dist, {"success": "yes"}) == 0.78
        total = measure(dist, {"success": "yes"}) + measure(dist, {"success": "no"})
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_causal_query_rejected_without_model(self, kidney):
        with pytest.raises(EstimationError):
            estimate(kidney, make_query({"success": "yes"}, do={"treatment": "surgery"}))

    def test_unbound_statistical_query_rejected(self, kidney):
        with pytest.raises(EstimationError) as err:
            estimate(kidney, make_query(["success"], given=["treatment"]))
        assert "bindings" in str(err.value)

    def test_unbound_formula_rejected(self, front_door, smoking):
        formula = identify(front_door, make_query(["y"], do=["x"]))
        with pytest.raises(EstimationError) as err:
            estimate(smoking, formula)
        assert "bindings" in str(err.value)


def _open_effect_queries(names):
    """Queries with open effect variables: single and joint effects,
    plain and conditional, each under do(x = 0)."""
    for x, y in itertools.permutations(names, 2):
        rest = [v for v in names if v not in (x, y)]
        yield make_query([y], do={x: 0})
        for z in rest:
            yield make_query([y, z], do={x: 0})
            yield make_query([y], do={x: 0}, given={z: 1})


@pytest.mark.parametrize("seed", range(12))
def test_estimated_cells_are_the_evaluated_values(seed):
    # estimate and evaluate share one evaluator, so the agreement is exact
    scm = random_scm(seed)
    joint = exact_joint(scm)
    compared = 0
    for query in _open_effect_queries(sorted(scm.model.vertices)):
        formula = identify(scm.model, query)
        if isinstance(formula, Fail):
            continue
        effect = sorted(query.effect)
        estimated = estimate(joint, formula)
        for values in itertools.product((0, 1), repeat=len(effect)):
            event = dict(zip(effect, values))
            assert estimated.measure(event) == evaluate(joint, formula, event), (query, event)
            compared += 1
    assert compared > 0


# random SCM joints (seed, confounding probability), Markovian and semi-Markovian
_PIN_JOINTS = ((0, 0.0), (9, 0.0), (0, 0.5), (5, 0.5), (7, 0.5))
_PIN_FRONT_DOOR = make_model({"a": [], "b": ["a"], "c": ["b"]}, [{"a", "c"}])
# float.hex() of each answer below, None for a Fail; an open-effect answer
# gives the hex of P(y=0) and then of P(y=1)
_PINNED_HEX = [
    '0x1.0aabbb0192387p-2', '0x1.0aabbb0192388p-2', '0x1.7aaa227f36e3bp-1',
    '0x1.0aabbb0192388p-2', '0x1.7aaa227f36e3bp-1', '0x1.0aabbb0192389p-2',
    '0x1.f99459ae05d1cp-2', '0x1.0335d328fd171p-1', '0x1.c5cb033fd6eb6p-2',
    '0x1.1d1a7e60148a5p-1', '0x1.c5cb033fd6eb6p-2', '0x1.fd3004d346698p-3',
    '0x1.80b3fecb2e65bp-1', '0x1.fd3004d34669ap-3', '0x1.0a8aa441e86d1p-1',
    '0x1.eaeab77c2f25ep-2', '0x1.c5ce9c3c6ccb4p-2', '0x1.86695efa16cb0p-2',
    '0x1.3ccb5082f49a7p-1', '0x1.86695efa16cb2p-2', '0x1.86695efa16cb1p-2',
    '0x1.3ccb5082f49a8p-1', '0x1.b9f0d27ce9343p-2', '0x1.230796c18b65dp-1',
    '0x1.9f2f9e02d1c7cp-2', '0x1.306830fe971c2p-1', '0x1.9f2f9e02d1c7cp-2',
    '0x1.2f9e1942b8ff4p-1', '0x1.306830fe971c2p-1', '0x1.9f2f9e02d1c7dp-2',
    '0x1.e94d8328a0faap-2', '0x1.0b593e6baf82ap-1', '0x1.dfb729d09147bp-2',
    '0x1.10246b17b75c2p-1', '0x1.dfb729d09147bp-2', '0x1.0b6742373cc62p-1', None,
    '0x1.a7cd1a3ea5ce6p-2', '0x1.2c1972e0ad18cp-1',
]


def _pinned_answers():
    """infer with event, open-effect and :given queries, estimate of the
    front-door formula, and evaluate with a context, on each pinned joint."""
    for seed, confounding in _PIN_JOINTS:
        scm = random_scm(seed, confounding_prob=confounding)
        joint = exact_joint(scm)
        names = sorted(scm.model.vertices)
        x, z, y = names[0], names[1], names[-1]
        for query in (
            make_query({y: 1}, do={x: 0}),
            make_query([y], do={x: 1}),
            make_query({y: 0}, do={x: 1}, given={z: 1}),
            make_query([y], do={z: 0}, given={x: 0}),
        ):
            answer = infer(scm.model, joint, query)
            if isinstance(answer, Fail):
                yield None
            elif isinstance(answer, float):
                yield answer.hex()
            else:
                yield from (answer.measure({y: v}).hex() for v in (0, 1))
        front_door = identify(_PIN_FRONT_DOOR, make_query({"c": 1}, do={"a": 0}))
        yield estimate(joint, front_door).hex()
        opened = identify(_PIN_FRONT_DOOR, make_query(["c"], do=["a"]))
        yield evaluate(joint, opened, {"a": 1, "c": 0}).hex()


def test_answers_are_pinned_bit_for_bit():
    # summation adds in order with +=, never with sum(), which compensates
    # on Python 3.12 and later; these values hold on every supported version
    assert list(_pinned_answers()) == _PINNED_HEX


def _reference(form, env, dist, pairs, total):
    """Evaluate a form by scanning the (event, weight) pairs for every term,
    enumerating each sum in support order, and adding and multiplying in
    order."""
    if isinstance(form, Prob):
        numer = _scan(pairs, total, {v: env[v] for v in form.p | form.given})
        if not form.given:
            return numer
        denom = _scan(pairs, total, {v: env[v] for v in form.given})
        return 0.0 if denom == 0.0 else numer / denom
    if isinstance(form, Sum):
        names = sorted(form.sub)
        total_value = 0.0
        for values in itertools.product(*(dist.support[v] for v in names)):
            total_value += _reference(form.body, {**env, **dict(zip(names, values))}, dist, pairs, total)
        return total_value
    if isinstance(form, Product):
        out = 1.0
        for factor in form.factors:
            out *= _reference(factor, env, dist, pairs, total)
        return out
    denom = _reference(form.denom, env, dist, pairs, total)
    return 0.0 if denom == 0.0 else _reference(form.numer, env, dist, pairs, total) / denom


def _summed_depth(form) -> int:
    """The most summed variables on any path from the root to a term."""
    if isinstance(form, Prob):
        return 0
    if isinstance(form, Sum):
        return len(form.sub) + _summed_depth(form.body)
    children = form.factors if isinstance(form, Product) else (form.numer, form.denom)
    return max(map(_summed_depth, children))


@st.composite
def _forms(draw, names):
    """Nested sums, products and fractions of terms over `names`; a sum may
    rebind a variable that an outer sum or the context already binds."""
    subset = st.lists(st.sampled_from(names), max_size=len(names), unique=True)
    terms = st.builds(lambda p, g: Prob(frozenset(p), frozenset(g) - frozenset(p)), subset, subset)
    forms = st.recursive(
        terms,
        lambda inner: st.one_of(
            st.builds(lambda b, s: Sum(b, frozenset(s)), inner,
                      st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)),
            st.builds(lambda fs: Product(tuple(fs)), st.lists(inner, min_size=2, max_size=3)),
            st.builds(Fraction, inner, inner),
        ),
        max_leaves=6,
    )
    return draw(forms.filter(lambda f: _summed_depth(f) <= 3))


@given(_joints(), st.data())
def test_evaluate_matches_a_reference_evaluator(joint, data):
    dist, pairs, total = joint
    names = [str(v) for v in dist.variables]
    form = data.draw(_forms(names))
    context = {n: data.draw(st.sampled_from(_VALUES)) for n in names}
    env = {Variable(n): value for n, value in context.items()}
    assert _close(evaluate(dist, form, context), _reference(form, env, dist, pairs, total))


def _close(a: float, b: float) -> bool:
    """Equal up to rounding: a kept sum table multiplies and adds a sum's
    factors in another order than the reference's flat walk."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


class TestEvaluatorEdges:
    def test_unhashable_given_value_is_a_zero_conditional(self, example_distribution):
        form = prob(["y"], ["x"])
        assert evaluate(example_distribution, form, {"y": 1, "x": [1]}) == 0.0
        evaluator = _Evaluator(example_distribution)
        assert evaluator.run(form, {Variable("y"): 1, Variable("x"): [1]}) == 0.0
        assert evaluator.zero_conditionals == 1

    @pytest.mark.parametrize("p, given, context", [
        (["nowhere"], [], {}),
        (["y", "x"], ["nowhere"], {"y": 1, "nowhere": 0}),
    ])
    def test_unbound_is_reported_before_unknown(self, example_distribution, p, given, context):
        with pytest.raises(EstimationError, match="unbound"):
            evaluate(example_distribution, prob(p, given), context)

    def test_term_unbound_where_an_equal_term_was_bound(self, example_distribution):
        # the denominator is evaluated first, binding x in its sum; built
        # raw, as sum_over would fold the sum into the constant ONE
        form = Fraction(prob(["x"]), Sum(prob(["x"]), variables(["x"])))
        with pytest.raises(EstimationError, match="unbound variable :x"):
            evaluate(example_distribution, form)

    def test_sum_over_an_unknown_variable_fails_only_when_reached(self, example_distribution):
        # built raw, as sum_over would fold the sum into the constant ONE
        unknown = Sum(prob(["nowhere"]), variables(["nowhere"]))
        with pytest.raises(UnknownVariableError):
            evaluate(example_distribution, unknown)
        skipped = Fraction(unknown, prob(["x"]))
        assert evaluate(example_distribution, skipped, {"x": 77}) == 0.0
        with pytest.raises(UnknownVariableError):
            evaluate(example_distribution, skipped, {"x": 1})

    def test_sum_over_no_variables_is_its_body(self, example_distribution):
        # Sum is public, so a caller can build one with an empty subscript
        body, context = prob(["y"], ["x"]), {"x": 1, "y": 1}
        summed = evaluate(example_distribution, Sum(body, frozenset()), context)
        assert summed == evaluate(example_distribution, body, context) > 0.0

    @pytest.mark.parametrize("given, hex_value, zeros", [
        (None, '0x1.3b13b13b13b14p-2', 1),
        ({"z": 1}, '0x0.0p+0', 3),
        ({"z": 0}, '0x1.0000000000000p-1', 0),
    ])
    def test_empty_stratum_count(self, given, hex_value, zeros):
        # no sample has x = 1 and z = 1
        rows = [
            {"z": z, "x": x, "y": y}
            for z, x, y in itertools.product((0, 1), repeat=3)
            if (x, z) != (1, 1)
        ]
        dist = categorical(rows * 2 + [{"z": 1, "x": 0, "y": 1}])
        model = make_model({"z": [], "x": ["z"], "y": ["x", "z"]})
        formula = identify(model, make_query({"y": 1}, do={"x": 1}, given=given))
        evaluator = _Evaluator(dist)
        assert evaluator.run(formula.form, dict(formula.bindings)).hex() == hex_value
        assert evaluator.zero_conditionals == zeros


_SUMMED = ("s0", "s1", "s2", "s3", "s4")


@st.composite
def _sparse_sums(draw):
    """A joint over 3-5 summed variables and a context variable `c`, from a
    few samples of three values each, so that most strata are empty; and a
    sum over the summed variables of a product whose factors mention random
    subsets of them. Some factors mention none, some are conditionals, and
    one is a nested sum that rebinds a summed variable.

    Returns the distribution, its (event, weight) pairs, its total, the form
    and its variable names."""
    summed = list(_SUMMED[:draw(st.integers(3, 5))])
    names = summed + ["c"]
    row = st.tuples(*(st.sampled_from((0, 1, 2)) for _ in names))
    events = [dict(zip(names, r)) for r in draw(st.lists(row, min_size=1, max_size=12))]
    subset = st.lists(st.sampled_from(names), max_size=3, unique=True)
    terms = st.builds(lambda p, g: prob(p, set(g) - set(p)), subset, subset)
    rebound = draw(st.sampled_from(summed))
    inner = Product((prob([rebound], set(draw(subset)) - {rebound}), draw(terms)))
    nested = Sum(inner, frozenset({Variable(rebound)}))
    factors = [*draw(st.lists(terms, min_size=1, max_size=4)), prob(["c"]), nested]
    form = Sum(Product(tuple(factors)), frozenset(map(Variable, summed)))
    dist = CategoricalDistribution.from_samples(events)
    return dist, [(e, 1) for e in events], len(events), form, names


@given(_sparse_sums(), st.data())
def test_sum_nest_matches_a_reference_evaluator(drawn, data):
    # a factor evaluated in a loop outside that of its innermost variable
    # reads a stale or outer value of that variable and fails this test
    dist, pairs, total, form, names = drawn
    context = {n: data.draw(st.sampled_from((0, 1, 2, 3))) for n in names}
    env = {Variable(n): value for n, value in context.items()}
    assert _close(evaluate(dist, form, context), _reference(form, env, dist, pairs, total))


def _counting(calls: Counter):
    """An evaluator class that counts each call of a P(·) term's closure and
    of a Sum's program in `calls`, by form."""

    def counted(form, run):
        def run_counted(env, ev):
            calls[form] += 1
            return run(env, ev)
        return run_counted

    class Counting(_Evaluator):
        def _prob(self, form):
            return counted(form, super()._prob(form))

        def _sum(self, form):
            return counted(form, super()._sum(form))
    return Counting


def test_each_term_is_evaluated_once_per_value_of_its_variables():
    # the 5-covariate backdoor sum: P(z0) is read 2 times and P(z4) 32, not
    # every term once per summed assignment; P(y | x, z0..z4) is read from
    # the slice of its table that x and y select, never through its closure,
    # and a second call on the kept program evaluates no term at all
    zs = [f"z{i}" for i in range(5)]
    model = make_model({**dict.fromkeys(zs, []), "x": zs, "y": ["x", *zs]})
    formula = identify(model, make_query({"y": 1}, do={"x": 1}))
    names = [*zs, "x", "y"]
    dist = categorical([dict(zip(names, key)) for key in itertools.product((0, 1), repeat=7)])
    calls = Counter()
    counting = _counting(calls)
    assert counting(dist).run(formula.form, dict(formula.bindings)) == 0.5
    assert calls == {formula.form: 1, **{prob([z]): 2 ** (i + 1) for i, z in enumerate(zs)}}
    calls.clear()
    assert counting(dist).run(formula.form, {**formula.bindings, Variable("y"): 0}) == 0.5
    assert calls == {formula.form: 1}


def _outcome(call):
    """What a call gives: the float.hex() of a value, that of each cell of a
    distribution, or an error's class and message."""
    try:
        result = call()
    except WhittemoreError as exc:
        return type(exc), str(exc)
    if isinstance(result, CategoricalDistribution):
        return {key: value.hex() for key, value in result._cells.items()}
    return result.hex()


def _outcome_and_record(dist, kind, form, env):
    """One estimate of the form with `env` bound and the rest open, or one
    evaluation with its 0/0 record."""
    if kind == "estimate":
        formula = Formula(form, env, effect=free_variables(form) - env.keys())
        return _outcome(lambda: estimate(dist, formula))
    evaluator = _Evaluator(dist)
    outcome = _outcome(lambda: evaluator.run(form, env))
    return outcome, evaluator.zero_conditionals, evaluator.empty_stratum


# 150 examples, or more under a deeper profile such as "deep" (conftest.py)
@settings(derandomize=True, max_examples=max(150, settings.default.max_examples), deadline=None)
@given(_joints(), st.data())
def test_a_kept_program_runs_as_a_fresh_compile(joint, data):
    # a sequence of calls on one distribution, which keeps each form's
    # program, against each call on a copy that compiles afresh; the calls
    # leave variables unbound, name one the joint lacks, and meet 0/0s
    dist = joint[0]
    known = list(map(str, dist.variables))
    names = [*known, "nowhere"]
    forms = data.draw(st.lists(st.one_of(_forms(known), _forms(names)), min_size=1, max_size=3))
    call = st.tuples(
        st.sampled_from(("evaluate", "estimate")),
        st.sampled_from(forms),
        st.lists(st.sampled_from(names), max_size=2, unique=True),
        st.lists(st.sampled_from(_VALUES), min_size=len(names), max_size=len(names)),
    )
    for kind, form, unbound, values in data.draw(st.lists(call, min_size=1, max_size=8)):
        env = {Variable(n): v for n, v in zip(names, values) if n not in unbound}
        fresh = _fresh(dist)
        kept = _outcome_and_record(dist, kind, form, env)
        assert kept == _outcome_and_record(fresh, kind, form, env)


def test_concurrent_infers_share_no_call_state():
    # two queries of one shape run one kept program on one joint from four
    # threads, switching often; a loop nest's stored values or a 0/0 record
    # shared between calls gives wrong answers here
    rng = random.Random(24)
    zs = [f"z{i}" for i in range(4)]
    parents = {**dict.fromkeys(zs, []), "x": zs, "y": ["x", *zs]}
    keys = list(itertools.product((0, 1), repeat=6))
    weights = [rng.uniform(0.1, 1.0) for _ in keys]
    pairs = [(dict(zip([*zs, "x", "y"], k)), w / math.fsum(weights)) for k, w in zip(keys, weights)]

    def fresh():
        return make_model(parents), CategoricalDistribution.from_weights(pairs)

    queries = [make_query(["y"], do={"x": x}) for x in (0, 1)]
    serial = [_outcome(lambda q=q: infer(*fresh(), q)) for q in queries]
    model, dist = fresh()
    mismatches = []

    def work():
        for i in range(300):
            if _outcome(lambda: infer(model, dist, queries[i % 2])) != serial[i % 2]:
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_a_joint_with_kept_programs_pickles():
    dist, model = categorical(EXAMPLE_SAMPLES), make_model({"x": [], "y": ["x"]})
    query = make_query({"y": 1}, do={"x": 1})
    answer = infer(model, dist, query)
    copy = pickle.loads(pickle.dumps(dist))
    assert copy == dist and dist._programs and not copy._programs
    assert infer(model, copy, query) == answer


def _fresh(dist):
    """A copy of `dist` with no tables and no kept programs."""
    return CategoricalDistribution(dist.variables, dist.support, dist._cells, dist._total)


class TestKeptSumTable:
    """A Sum keeps the product of the factors no binding reaches, and each
    call reads only the slices its bound values select."""

    X, Y, Z, W = map(Variable, "xyzw")

    @pytest.fixture
    def joint(self):
        rng = random.Random(28)
        keys = list(itertools.product((0, 1), repeat=4))
        weights = [rng.uniform(0.1, 1.0) for _ in keys]
        mass = math.fsum(weights)
        return CategoricalDistribution.from_weights(
            [(dict(zip("wxyz", key)), w / mass) for key, w in zip(keys, weights)]
        )

    def test_a_constant_factor_counts_once(self, joint):
        # a nested Sum that reads no variable is closed: its value enters
        # the table once, when it is built, and no call evaluates it again
        constant = Sum(Product((prob(["x"]), prob(["x"]))), variables(["x"]))
        form = Sum(Product((constant, prob(["x"]), prob(["y"], ["x"]))), variables(["x"]))
        pairs = [({str(v): k for v, k in zip(joint.variables, key)}, w)
                 for key, w in joint._cells.items()]
        calls = Counter()
        evaluator = _counting(calls)(joint)
        for y in (0, 1, 0):
            env = {self.Y: y}
            expected = _reference(form, env, joint, pairs, 1.0)
            assert _close(evaluator.run(form, env), expected)
        assert calls[constant] == 1 and calls[form] == 3

    @pytest.mark.parametrize("p, given, message", [
        (["y"], ["x"], "unbound variable :y during formula evaluation"),
        (["y"], ["x", "z", "w"], "unbound variable :w during formula evaluation"),
    ])
    def test_an_unbound_variable_in_an_open_term(self, joint, p, given, message):
        form = Sum(Product((prob(["x"]), prob(p, given))), variables(["x"]))
        bound = {v: 1 for v in (self.W, self.Y, self.Z)}
        kept = _Evaluator(joint)
        assert 0.0 < kept.run(form, bound) < 1.0  # the table is now kept
        for dist in (joint, _fresh(joint)):
            with pytest.raises(EstimationError) as err:
                _Evaluator(dist).run(form, {self.Z: 1})
            assert str(err.value) == message

    @pytest.mark.parametrize("env, value, zeros", [
        ({"y": 1, "z": [1]}, 0.0, 2),  # unhashable given value: a 0/0 per entry
        ({"y": [1], "z": 1}, 0.0, 0),  # unhashable outcome: no cell, no 0/0
    ])
    def test_an_unhashable_bound_value_in_an_open_term(self, joint, env, value, zeros):
        # as outside a Sum: the term's closure decides at each entry
        form = Sum(Product((prob(["x"]), prob(["y"], ["x", "z"]))), variables(["x"]))
        env = {Variable(k): v for k, v in env.items()}
        outside = _Evaluator(joint)
        for x in (0, 1):
            assert outside.run(prob(["y"], ["x", "z"]), {**env, self.X: x}) == 0.0
        assert outside.zero_conditionals == zeros
        for dist in (joint, joint, _fresh(joint)):
            evaluator = _Evaluator(dist)
            assert evaluator.run(form, env) == value
            assert evaluator.zero_conditionals == zeros
            assert evaluator.empty_stratum == outside.empty_stratum

    def test_head_and_nested_open_factors_match_the_reference(self, joint):
        # P(y) reads no summed variable; the Fraction and the inner Sum read
        # x, which is summed, and z, which is bound, so neither has a slice
        ratio = Fraction(prob(["z"], ["x"]), Sum(prob(["w"], ["x", "z"]), variables(["w"])))
        inner = Sum(Product((prob(["w"]), prob(["z"], ["w", "x"]))), variables(["w"]))
        form = Sum(Product((prob(["y"]), prob(["x"]), ratio, inner)), variables(["x"]))
        pairs = [({str(v): k for v, k in zip(joint.variables, key)}, w)
                 for key, w in joint._cells.items()]
        for y, z in itertools.product((0, 1, 2), (0, 1)):
            context = {"y": y, "z": z}
            value = evaluate(joint, form, context)
            assert _close(value, _reference(form, {self.Y: y, self.Z: z}, joint, pairs, 1.0))
            assert value == evaluate(_fresh(joint), form, context)

    def test_the_build_record_is_reported_on_every_call(self):
        # no sample has z = 1, so the closed P(x | z) is a 0/0 at z = 1 in
        # the build; every call reports it, as a fresh compile does
        dist = CategoricalDistribution.from_counts(
            [({"x": x, "y": y, "z": 0}, 1 + x + 2 * y)
             for x, y in itertools.product((0, 1), repeat=2)] + [({"x": 0, "y": 0, "z": 1}, 0)]
        )
        form = Sum(Product((prob(["x"], ["z"]), prob(["y"], ["x"]))), variables(["x", "z"]))
        for y in (0, 1, 0):
            env = {self.Y: y}
            kept = _outcome_and_record(dist, "evaluate", form, env)
            assert kept == _outcome_and_record(_fresh(dist), "evaluate", form, env)
            assert kept[1:] == (2, ((self.Z, 1),))

    def test_a_joint_is_freed_without_the_cycle_collector(self, joint):
        # nothing a kept program holds refers back to its joint, so a joint
        # goes when its last reference does, not at a later collection
        form = Sum(Product((prob(["x"]), prob(["y"], ["x"]))), variables(["x"]))
        dist = _fresh(joint)
        assert 0.0 < evaluate(dist, form, {"y": 1}) < 1.0 and dist._programs
        gone, enabled = weakref.ref(dist), gc.isenabled()
        gc.disable()
        try:
            del dist
            assert gone() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("generator, hex_value, zeros, stratum", [
        # c2 = c1: the two 0/0s of P(y | x, c1, c2), which a flat walk
        # records, are where P(c2 | c1) = 0, so no call reads them
        ("weightless", '0x1.975eda652633cp-1', 0, None),
        # no x = 1 where c1 = 0: of the three 0/0s a flat walk records, the
        # one that carries P(c1 = 0) is still recorded
        ("weighted", '0x1.7f6889fd5c404p-2', 1, (("c1", 0), ("c2", 0), ("x", 1))),
    ])
    def test_a_zero_closed_weight_skips_the_open_terms(self, generator, hex_value, zeros, stratum):
        rng, rows = random.Random(3), []
        for _ in range(2000):
            c1 = rng.randrange(2)
            if generator == "weightless":
                x = int(rng.random() < 0.3 + 0.4 * c1)
                y = int(rng.random() < 0.2 + 0.5 * x + 0.2 * c1)
            else:
                x = rng.randint(0, 1) if c1 else 0
                y = int(rng.random() < 0.5 + 0.25 * x)
            rows.append({"c1": c1, "c2": c1, "x": x, "y": y})
        model = make_model({"c1": [], "c2": ["c1"], "x": ["c1", "c2"], "y": ["x", "c1", "c2"]})
        formula = identify(model, make_query({"y": 1}, do={"x": 1}))
        evaluator = _Evaluator(categorical(rows))
        assert evaluator.run(formula.form, dict(formula.bindings)).hex() == hex_value
        assert evaluator.zero_conditionals == zeros
        assert evaluator.empty_stratum == (stratum and tuple((Variable(v), k) for v, k in stratum))


class TestEmptyStratum:
    """An open estimate whose mass is off names the first empty stratum
    when the evaluator hit a 0/0, and keeps the old text otherwise."""

    def test_given_value_with_no_samples(self, example_distribution):
        with pytest.raises(EstimationError) as err:
            estimate(example_distribution, make_query(["y"], given={"x": 2}))
        assert str(err.value) == (
            "estimated distribution over [:y] is undefined: the data have no mass where :x = 2"
        )

    def test_stratum_of_an_adjustment_formula(self):
        # no sample has x = 1 and z = 0
        dist = categorical([{"z": 0, "x": 0, "y": 0}, {"z": 1, "x": 1, "y": 1},
                            {"z": 0, "x": 0, "y": 1}, {"z": 1, "x": 0, "y": 0}])
        model = make_model({"z": [], "x": ["z"], "y": ["x", "z"]})
        with pytest.raises(EstimationError) as err:
            infer(model, dist, make_query(["y"], do={"x": 1}))
        assert str(err.value).endswith("the data have no mass where :x = 1, :z = 0")
        # the 0/0 of a Fraction's denominator names its free variables
        with pytest.raises(EstimationError) as err:
            infer(model, dist, make_query(["y"], do={"x": 0}, given={"z": 2}))
        assert str(err.value).endswith("the data have no mass where :x = 0, :z = 2")

    def test_a_kept_program_names_the_stratum_of_its_own_call(self):
        # each query shape runs one kept program; a clean call or another
        # stratum before it on the same joint leaves no trace in its message
        dist = categorical([{"z": 0, "x": 0, "y": 0}, {"z": 1, "x": 1, "y": 1},
                            {"z": 0, "x": 0, "y": 1}, {"z": 1, "x": 0, "y": 0}])
        model = make_model({"z": [], "x": ["z"], "y": ["x", "z"]})
        for x, z, stratum in ((1, 0, ":x = 1, :z = 0"), (0, 2, ":x = 0, :z = 2"),
                              (0, 3, ":x = 0, :z = 3")):
            clean = make_query(["y"], do={"x": 0}, given={"z": 0} if x == 0 else None)
            assert isinstance(infer(model, dist, clean), CategoricalDistribution)
            empty = make_query(["y"], do={"x": x}, given={"z": z} if x == 0 else None)
            with pytest.raises(EstimationError) as err:
                infer(model, dist, empty)
            assert str(err.value).endswith(f"the data have no mass where {stratum}")
        assert len(dist._programs) == 2

    def test_formula_that_is_not_normalized(self, example_distribution):
        bad = Formula(prob(["y"], ["x"]), {}, effect=frozenset({"y", "x"}))
        with pytest.raises(EstimationError) as err:
            estimate(example_distribution, bad)
        assert str(err.value) == (
            "estimated distribution over ['x', 'y'] has total mass 2.0; "
            "the formula does not define a normalized distribution here"
        )


class TestInfer:
    def test_kidney_surgery(self, charig, kidney):
        value = infer(
            charig, kidney, make_query({"success": "yes"}, do={"treatment": "surgery"})
        )
        assert value == pytest.approx(0.8325462173856037, abs=1e-12)

    def test_kidney_nephrolithotomy(self, charig, kidney):
        value = infer(
            charig,
            kidney,
            make_query({"success": "yes"}, do={"treatment": "nephrolithotomy"}),
        )
        assert value == pytest.approx(0.778875, abs=1e-12)

    def test_noop_intervention_is_measure(self):
        m = make_model({"x": []})
        d = categorical([{"x": 0}, {"x": 0}, {"x": 1}])
        assert infer(m, d, make_query({"x": 0}, do={})) == measure(d, {"x": 0})

    def test_fail_is_surfaced(self, bow):
        d = categorical(
            [{"x": 0, "y": 0}, {"x": 0, "y": 1}, {"x": 1, "y": 0}, {"x": 1, "y": 1}]
        )
        assert isinstance(infer(bow, d, make_query(["y"], do=["x"])), Fail)

    def test_distribution_result_normalizes(self, charig, kidney):
        dist = infer(charig, kidney, make_query(["success"], do={"treatment": "surgery"}))
        yes = measure(dist, {"success": "yes"})
        no = measure(dist, {"success": "no"})
        assert yes == pytest.approx(0.8325462173856037, abs=1e-12)
        assert yes + no == pytest.approx(1.0, abs=1e-9)


class TestProtocolExtensibility:
    def test_duck_typed_distribution_works_with_infer(self, charig, kidney):
        class Delegating:
            """Protocol conformance without CategoricalDistribution internals."""

            def __init__(self, inner):
                self._inner = inner

            def signature(self):
                return self._inner.signature()

            def measure(self, event):
                return self._inner.measure(event)

            def estimate(self, target):
                return self._inner.estimate(target)

        wrapped = Delegating(kidney)
        value = infer(
            charig, wrapped, make_query({"success": "yes"}, do={"treatment": "surgery"})
        )
        assert value == pytest.approx(0.8325462173856037, abs=1e-12)

    def test_estimate_distribution_mass_check(self, smoking):
        bad = Formula(prob(["y"], ["x"]), {}, effect=frozenset({"y", "x"}))
        with pytest.raises(EstimationError) as err:
            estimate(smoking, bad)
        assert "mass" in str(err.value)


_CELLS = st.text(alphabet='ab,"\n\r ', max_size=3)


@st.composite
def _csv_files(draw):
    """CSV text with 1-6 columns in any order, repeated rows, and cells
    holding commas, quotes and line breaks, plus its header and rows.

    The third part is the layout `_write` uses: the line terminators and
    quoting styles it takes in turn (so one kind for the whole file, or CR
    LF, LF and CR mixed), and whether the last line is left unterminated."""
    header = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True))
    pool = draw(st.lists(st.tuples(*[_CELLS] * len(header)), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), max_size=20))
    terminators = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=1, max_size=3))
    quotings = draw(
        st.lists(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]), min_size=1, max_size=2)
    )
    return header, rows, (terminators, quotings, draw(st.booleans()))


def _write(directory, header, rows, layout) -> str:
    terminators, quotings, unterminated = layout
    lines = []
    for i, row in enumerate([header, *rows]):
        buffer = io.StringIO()
        # a CR LF writer quotes every cell that holds either line break character
        csv.writer(buffer, lineterminator="\r\n", quoting=quotings[i % len(quotings)]).writerow(row)
        text, end = buffer.getvalue()[:-2], terminators[i % len(terminators)]
        # a blank LF line right after a CR would join that line: it ends in CR LF
        if not text and end == "\n" and lines and lines[-1][1] == "\r":
            end = "\r\n"
        lines.append([text, end])
    if unterminated and lines[-1][0]:
        lines[-1][1] = ""
    path = Path(directory) / "samples.csv"
    path.write_bytes("".join(text + end for text, end in lines).encode("utf-8"))
    return str(path)


class TestSampleTable:
    """A table from read_csv against the list of its events: the table is
    counted and printed straight from its rows, the list event by event."""

    @given(_csv_files())
    def test_table_matches_its_events(self, csv_file):
        with tempfile.TemporaryDirectory() as directory:
            table = read_csv(_write(directory, *csv_file))
        events = [dict(e) for e in table]
        assert events == [dict(zip(csv_file[0], row)) for row in csv_file[1]]
        assert display_value(table) == display_value(events)
        assert print_value(table) == print_value(events)
        if not events:
            with pytest.raises(DataFormatError, match="no events"):
                categorical(table)
            return
        got = categorical(table)
        want = CategoricalDistribution.from_samples(events)
        assert got.variables == want.variables
        assert list(got._cells.items()) == list(want._cells.items())
        assert list(got.support.items()) == list(want.support.items())
        assert (type(got._total), got._total) == (type(want._total), want._total)
        for v, values in want.support.items():
            for value in values:
                assert got.measure({v: value}) == want.measure({v: value})

    @given(_csv_files())
    def test_table_is_the_table_of_the_csv_records(self, csv_file):
        # the reference codes csv.reader's records in file order, one by one
        with tempfile.TemporaryDirectory() as directory:
            path = _write(directory, *csv_file)
            table = read_csv(path)
            with open(path, newline="", encoding="utf-8") as handle:
                reader = csv.reader(handle)
                want = SampleTable(next(reader), *_code(map(tuple, reader)))
        assert table.header == want.header
        assert table.distinct == want.distinct
        assert table.codes == want.codes

    @given(_csv_files(), st.integers(min_value=0), st.data())
    def test_ragged_row_is_reported_at_its_first_line(self, csv_file, at, data):
        header, rows, terminator = csv_file
        width = data.draw(st.integers(0, len(header) + 1).filter(lambda n: n != len(header)))
        rows = list(rows)
        rows.insert(at % (len(rows) + 1), ("x",) * width)
        with tempfile.TemporaryDirectory() as directory:
            path = _write(directory, header, rows, terminator)
            with open(path, newline="", encoding="utf-8") as handle:
                reader = csv.reader(handle)
                start = 1
                for row in reader:
                    if len(row) != len(header):
                        break
                    start = reader.line_num + 1
            with pytest.raises(DataFormatError) as err:
                read_csv(path)
        assert f"samples.csv:{start}: expected {len(header)} fields, got {width}" in str(err.value)
