import dataclasses
import itertools
import random

import pytest

from whittemore import (
    CategoricalDistribution,
    Formula,
    Fraction,
    Prob,
    Product,
    Sum,
    ONE,
    condition_pass,
    evaluate,
    fraction,
    free_variables,
    marginalize_pass,
    prob,
    product,
    simplify,
    simplify_form,
    sum_over,
)
from whittemore.formula import count_nodes, form_key


class TestMarginalizePass:
    def test_partial_marginal(self):
        form = sum_over(prob(["x", "y", "z"]), ["y"])
        assert marginalize_pass(form) == prob(["x", "z"])

    def test_total_marginal_is_one(self):
        form = sum_over(prob(["x"]), ["x"])
        assert marginalize_pass(form) == ONE

    def test_keeps_conditioning(self):
        form = sum_over(prob(["x"], ["z"]), ["x"])
        assert marginalize_pass(form) == prob([], ["z"])

    def test_skips_subscripts_in_given(self):
        form = sum_over(prob(["x"], ["z"]), ["z"])
        assert marginalize_pass(form) == form


class TestConditionPass:
    def test_joint_over_marginal(self):
        form = fraction(prob(["x", "y", "z"]), prob(["x", "z"]))
        assert condition_pass(form) == prob(["y"], ["x", "z"])

    def test_denominator_one(self):
        form = fraction(prob(["x"]), prob([]))
        assert condition_pass(form) == prob(["x"])

    def test_shared_conditioning(self):
        # chain rule: P(x,y|w) / P(y|w) = P(x | y,w); checked numerically below
        form = fraction(prob(["x", "y"], ["w"]), prob(["y"], ["w"]))
        assert condition_pass(form) == prob(["x"], ["y", "w"])

    def test_shared_conditioning_agrees_with_measure(self):
        rng = random.Random(7)
        dist = _random_joint(rng, ["w", "x", "y"])
        form = fraction(prob(["x", "y"], ["w"]), prob(["y"], ["w"]))
        reduced = condition_pass(form)
        for w, x, y in itertools.product((0, 1), repeat=3):
            env = {"w": w, "x": x, "y": y}
            assert evaluate(dist, form, env) == pytest.approx(
                evaluate(dist, reduced, env), abs=1e-12
            )

    def test_requires_matching_conditioning(self):
        form = fraction(prob(["x", "y"], ["w"]), prob(["y"]))
        assert condition_pass(form) == form


class TestSimplify:
    def test_published_reduction(self):
        # fraction of a joint over its own partial marginal collapses to a
        # conditional in two rule applications
        form = fraction(
            prob(["y", "z", "x"]),
            sum_over(prob(["y", "z", "x"]), ["y"]),
        )
        assert simplify_form(form) == prob(["y"], ["x", "z"])

    def test_minimal_form_is_fixpoint(self):
        form = prob(["y"], ["x"])
        assert simplify_form(form) is form or simplify_form(form) == form

    def test_singleton_product_unwrap(self):
        assert simplify_form(Product((prob(["x"]),))) == prob(["x"])

    def test_nested_products_flatten(self):
        form = product([product([prob(["a"]), prob(["b"], ["a"])]), prob(["c"])])
        flattened = simplify_form(form)
        assert isinstance(flattened, Product)
        assert len(flattened.factors) == 3

    def test_constant_factor_dropped(self):
        form = product([prob(["x"]), ONE])
        assert simplify_form(form) == prob(["x"])

    def test_nested_disjoint_sums_merge(self):
        form = Sum(Sum(product([prob(["a"]), prob(["b"])]), frozenset({"a"})), frozenset({"b"}))
        out = simplify_form(form)
        assert out == Sum(product([prob(["a"]), prob(["b"])]), frozenset({"a", "b"}))

    def test_overlapping_sums_do_not_merge(self):
        inner = Sum(product([prob(["a"]), prob(["b"])]), frozenset({"a"}))
        form = Sum(inner, frozenset({"a", "b"}))
        assert simplify_form(form).sub == frozenset({"a", "b"})

    def test_formula_bindings_preserved(self):
        f = Formula(sum_over(prob(["x", "y"]), ["y"]), {"x": 0})
        out = simplify(f)
        assert out.form == prob(["x"])
        assert out.bindings == {"x": 0}


def _random_joint(rng, names):
    weights = []
    raw = [rng.uniform(0.05, 1.0) for _ in range(2 ** len(names))]
    total = sum(raw)
    for bits, w in zip(itertools.product((0, 1), repeat=len(names)), raw):
        weights.append((dict(zip(names, bits)), w / total))
    return CategoricalDistribution.from_weights(weights)


def _random_form(rng, names, depth=0):
    kinds = ["prob"] if depth >= 3 else ["prob", "prob", "sum", "product", "fraction"]
    kind = rng.choice(kinds)
    if kind == "prob":
        p = rng.sample(names, rng.randint(1, len(names)))
        rest = [n for n in names if n not in p]
        given = rng.sample(rest, rng.randint(0, len(rest)))
        return prob(p, given)
    if kind == "sum":
        body = _random_form(rng, names, depth + 1)
        candidates = sorted(free_variables(body))
        k = rng.randint(0, len(candidates))
        return sum_over(body, rng.sample(candidates, k)) if k else body
    if kind == "product":
        return product(
            [_random_form(rng, names, depth + 1) for _ in range(rng.randint(1, 3))]
        )
    return fraction(
        _random_form(rng, names, depth + 1), _random_form(rng, names, depth + 1)
    )


def _assignments(dist, form):
    names = sorted(free_variables(form))
    for bits in itertools.product(*(dist.support[v] for v in names)):
        yield dict(zip(names, bits))


@pytest.mark.parametrize("seed", range(100))
def test_simplify_preserves_semantics_and_is_idempotent(seed):
    rng = random.Random(seed)
    names = rng.sample(["a", "b", "c", "d"], rng.randint(2, 4))
    dist = _random_joint(rng, sorted(names))
    form = _random_form(rng, sorted(names))
    simplified = simplify_form(form)
    assert simplify_form(simplified) == simplified
    for single_rule in (marginalize_pass, condition_pass):
        once = single_rule(form)
        assert single_rule(once) == once
    assert free_variables(simplified) == free_variables(form)
    assert count_nodes(simplified) <= count_nodes(form)
    for env in _assignments(dist, form):
        assert evaluate(dist, form, env) == pytest.approx(
            evaluate(dist, simplified, env), abs=1e-12
        )


@pytest.mark.parametrize("seed", range(20))
def test_form_keys_stay_invisible(seed):
    def build():
        rng = random.Random(seed)
        return [_random_form(rng, ["a", "b", "c", "d"]) for _ in range(3)]

    keyed, plain = build(), build()
    for f in keyed:
        form_key(f)
    first, second = Product(tuple(keyed)), Product(tuple(reversed(plain)))
    assert first.factors == second.factors
    assert list(first.factors) == sorted(plain, key=form_key)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert [f.name for f in dataclasses.fields(Product)] == ["factors"]
