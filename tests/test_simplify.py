import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest

from whittemore import (
    Formula,
    Fraction,
    Product,
    Sum,
    ONE,
    evaluate,
    fraction,
    free_variables,
    prob,
    product,
    simplify,
    simplify_form,
    sum_over,
    variables,
)
from whittemore.formula import form_key

from tests.conftest import REPO_ROOT
from tests.forms import BUILT, assignments, count_nodes, random_form, random_joint


def raw_sum(body, sub):
    """A Sum node as it is, where sum_over would apply the rules."""
    return Sum(body, variables(sub))


class TestMarginalizeRule:
    def test_partial_marginal(self):
        assert simplify_form(raw_sum(prob(["x", "y", "z"]), ["y"])) == prob(["x", "z"])
        assert sum_over(prob(["x", "y", "z"]), ["y"]) == prob(["x", "z"])

    def test_total_marginal_is_one(self):
        assert simplify_form(raw_sum(prob(["x"]), ["x"])) == ONE
        assert sum_over(prob(["x"]), ["x"]) == ONE

    def test_keeps_conditioning(self):
        assert simplify_form(raw_sum(prob(["x"], ["z"]), ["x"])) == prob([], ["z"])
        assert sum_over(prob(["x"], ["z"]), ["x"]) == prob([], ["z"])

    def test_skips_subscripts_in_given(self):
        form = raw_sum(prob(["x"], ["z"]), ["z"])
        assert simplify_form(form) == form
        assert sum_over(prob(["x"], ["z"]), ["z"]) == form

    def test_skips_subscripts_outside_the_term(self):
        form = raw_sum(prob(["x"]), ["x", "w"])
        assert simplify_form(form) == form
        assert sum_over(prob(["x"]), ["x", "w"]) == form


class TestConditionRule:
    def test_joint_over_marginal(self):
        form = Fraction(prob(["x", "y", "z"]), prob(["x", "z"]))
        assert simplify_form(form) == prob(["y"], ["x", "z"])
        assert fraction(form.numer, form.denom) == prob(["y"], ["x", "z"])

    def test_denominator_one(self):
        assert simplify_form(Fraction(prob(["x"]), prob([]))) == prob(["x"])
        assert fraction(prob(["x"]), prob([])) == prob(["x"])

    def test_shared_conditioning(self):
        # chain rule: P(x,y|w) / P(y|w) = P(x | y,w); checked numerically below
        form = Fraction(prob(["x", "y"], ["w"]), prob(["y"], ["w"]))
        assert simplify_form(form) == prob(["x"], ["y", "w"])
        assert fraction(form.numer, form.denom) == prob(["x"], ["y", "w"])

    def test_shared_conditioning_agrees_with_measure(self):
        rng = random.Random(7)
        dist = random_joint(rng, ["w", "x", "y"])
        form = Fraction(prob(["x", "y"], ["w"]), prob(["y"], ["w"]))
        reduced = simplify_form(form)
        for w, x, y in itertools.product((0, 1), repeat=3):
            env = {"w": w, "x": x, "y": y}
            assert evaluate(dist, form, env) == pytest.approx(
                evaluate(dist, reduced, env), abs=1e-12
            )

    def test_requires_matching_conditioning(self):
        form = Fraction(prob(["x", "y"], ["w"]), prob(["y"]))
        assert simplify_form(form) == form
        assert fraction(form.numer, form.denom) == form

    def test_requires_a_strictly_smaller_denominator(self):
        form = Fraction(prob(["x", "y"]), prob(["x", "y"]))
        assert simplify_form(form) == form
        assert fraction(form.numer, form.denom) == form


class TestSimplify:
    def test_published_reduction(self):
        # fraction of a joint over its own partial marginal collapses to a
        # conditional in two rule applications
        form = Fraction(prob(["y", "z", "x"]), raw_sum(prob(["y", "z", "x"]), ["y"]))
        assert simplify_form(form) == prob(["y"], ["x", "z"])

    def test_minimal_form_is_fixpoint(self):
        form = prob(["y"], ["x"])
        assert simplify_form(form) is form or simplify_form(form) == form

    def test_singleton_product_unwrap(self):
        assert simplify_form(Product((prob(["x"]),))) == prob(["x"])
        assert product([prob(["x"])]) == prob(["x"])

    def test_empty_product_is_one(self):
        assert simplify_form(Product(())) == ONE
        assert product([]) == ONE

    def test_nested_products_flatten(self):
        inner = Product((prob(["a"]), prob(["b"], ["a"])))
        flattened = simplify_form(Product((inner, prob(["c"]))))
        assert isinstance(flattened, Product)
        assert len(flattened.factors) == 3
        assert product([inner, prob(["c"])]) == flattened

    def test_constant_factor_dropped(self):
        assert simplify_form(Product((prob(["x"]), ONE))) == prob(["x"])
        assert product([prob(["x"]), ONE]) == prob(["x"])

    def test_empty_subscript_dropped(self):
        assert simplify_form(Sum(prob(["x"]), frozenset())) == prob(["x"])
        assert sum_over(prob(["x"]), []) == prob(["x"])

    def test_fraction_over_one_is_its_numerator(self):
        numer = raw_sum(Product((prob(["a"]), prob(["b"]))), ["a"])
        assert simplify_form(Fraction(numer, ONE)) == numer
        assert fraction(numer, ONE) == numer

    def test_nested_disjoint_sums_merge(self):
        form = raw_sum(raw_sum(Product((prob(["a"]), prob(["b"]))), ["a"]), ["b"])
        out = simplify_form(form)
        assert out == raw_sum(Product((prob(["a"]), prob(["b"]))), ["a", "b"])
        assert sum_over(form.body, ["b"]) == out

    def test_overlapping_sums_do_not_merge(self):
        inner = raw_sum(Product((prob(["a"]), prob(["b"]))), ["a"])
        form = raw_sum(inner, ["a", "b"])
        assert simplify_form(form) == form
        assert sum_over(inner, ["a", "b"]) == form

    def test_formula_bindings_preserved(self):
        f = Formula(raw_sum(prob(["x", "y"]), ["y"]), {"x": 0})
        out = simplify(f)
        assert out.form == prob(["x"])
        assert out.bindings == {"x": 0}


def _random_case(seed):
    rng = random.Random(seed)
    names = sorted(rng.sample(["a", "b", "c", "d"], rng.randint(2, 4)))
    return rng, names, random_joint(rng, names)


@pytest.mark.parametrize("seed", range(100))
def test_simplify_preserves_semantics_and_is_idempotent(seed):
    rng, names, dist = _random_case(seed)
    form = random_form(rng, names)
    simplified = simplify_form(form)
    assert simplify_form(simplified) == simplified
    assert free_variables(simplified) == free_variables(form)
    assert count_nodes(simplified) <= count_nodes(form)
    for env in assignments(dist, form):
        assert evaluate(dist, form, env) == pytest.approx(
            evaluate(dist, simplified, env), abs=1e-12
        )


def test_random_raw_forms_are_seldom_normal():
    # the property test above only checks work that is there to do
    shrunk = 0
    for seed in range(100):
        rng, names, _ = _random_case(seed)
        form = random_form(rng, names)
        shrunk += count_nodes(simplify_form(form)) < count_nodes(form)
    assert shrunk >= 30


@pytest.mark.parametrize("seed", range(100))
def test_constructors_build_the_normal_form(seed):
    rng, names, dist = _random_case(seed)
    state = rng.getstate()
    raw = random_form(rng, names)
    rng.setstate(state)
    built = random_form(rng, names, BUILT)
    assert simplify_form(built) == built
    assert simplify_form(raw) == built
    for env in assignments(dist, raw):
        assert evaluate(dist, built, env) == pytest.approx(
            evaluate(dist, raw, env), abs=1e-12
        )


@pytest.mark.parametrize("seed", range(20))
def test_form_keys_stay_invisible(seed):
    def build():
        rng = random.Random(seed)
        return [random_form(rng, ["a", "b", "c", "d"]) for _ in range(3)]

    keyed, plain = build(), build()
    for f in keyed:
        form_key(f)
    first, second = Product(tuple(keyed)), Product(tuple(reversed(plain)))
    assert first.factors == second.factors
    assert list(first.factors) == sorted(plain, key=form_key)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert [f.name for f in dataclasses.fields(Product)] == ["factors"]


# builds the front-door formula afresh, then looks up every node of the
# pickled one (read from stdin) in a dict keyed by the fresh formula's nodes
_LOOKUP = """
import pickle, sys
from whittemore import Fraction, Product, Sum, identify, make_model, make_query

def nodes(form):
    yield form
    children = {Sum: lambda f: [f.body], Product: lambda f: f.factors,
                Fraction: lambda f: [f.numer, f.denom]}.get(type(form), lambda f: [])
    for child in children(form):
        yield from nodes(child)

loaded = pickle.loads(sys.stdin.buffer.read())
assert not any("_hash" in node.__dict__ for node in nodes(loaded.form))
model = make_model({"x": [], "z": ["x"], "y": ["z"]}, [{"x", "y"}])
fresh = identify(model, make_query(["y"], do=["x"]))
index = {node: i for i, node in enumerate(nodes(fresh.form))}
assert [index[node] for node in nodes(loaded.form)] == list(range(len(index)))
"""


def test_a_pickled_form_is_hashed_anew_under_another_hash_seed():
    # a node keeps its hash once computed, but the hash of a str variable
    # changes with PYTHONHASHSEED, so a pickle must not carry it
    from whittemore import identify, make_model, make_query

    model = make_model({"x": [], "z": ["x"], "y": ["z"]}, [{"x", "y"}])
    formula = identify(model, make_query(["y"], do=["x"]))
    hash(formula.form)
    assert "_hash" in formula.form.__dict__
    assert formula.form == identify(model, make_query(["y"], do=["x"])).form
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _LOOKUP], input=pickle.dumps(formula),
        env=env, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
