"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""
import itertools
import random

import pytest

from whittemore import (
    CategoricalDistribution,
    Data,
    Fail,
    Formula,
    Fraction,
    Sum,
    categorical,
    estimate,
    evaluate,
    free_variables,
    fraction,
    identify,
    infer,
    make_model,
    make_query,
    measure,
    print_value,
    prob,
    product,
    simplify_form,
    standard_environment,
    sum_over,
    to_latex,
    variables,
)
from whittemore.errors import RedefinitionError
from whittemore.interpreter import eval_program
from whittemore.oracle import exact_joint, intervene, random_scm

from tests.conftest import REPO_ROOT, SMOKING_COUNTS, kidney_rows
from tests.forms import assignments, random_form, random_joint


def report(number: int, description: str):
    print(f"\ncriterion {number} PASS: {description}")


@pytest.fixture
def smoking_distribution():
    return CategoricalDistribution.from_counts(SMOKING_COUNTS)


def test_criterion_1_kidney_stone_regression():
    rows = kidney_rows()
    assert len(rows) == 700
    kidney = categorical(rows)
    charig = make_model(
        {"size": [], "treatment": ["size"], "success": ["treatment", "size"]}
    )

    conditionals = [
        ({"treatment": "surgery"}, 0.78),
        ({"treatment": "nephrolithotomy"}, 0.8257142857142857),
        ({"size": "small", "treatment": "surgery"}, 0.9310344827586207),
        ({"size": "small", "treatment": "nephrolithotomy"}, 0.8666666666666667),
        ({"size": "large", "treatment": "surgery"}, 0.7300380228136882),
        ({"size": "large", "treatment": "nephrolithotomy"}, 0.6875),
    ]
    for given, expected in conditionals:
        got = estimate(kidney, make_query({"success": "yes"}, given=given))
        assert got == pytest.approx(expected, abs=1e-12), (given, got, expected)

    causal = [("surgery", 0.8325462173856037), ("nephrolithotomy", 0.778875)]
    for treatment, expected in causal:
        query = make_query({"success": "yes"}, do={"treatment": treatment})
        got = infer(charig, kidney, query)
        assert got == pytest.approx(expected, abs=1e-12), (treatment, got, expected)
    report(1, "kidney-stone conditional and causal estimates are ratio-exact")


def test_criterion_2_front_door_identification():
    front_door = make_model({"x": [], "z": ["x"], "y": ["z"]}, [{"x", "y"}])
    result = identify(front_door, make_query(["y"], do={"x": 0}))
    inner = sum_over(product([prob(["y"], ["x", "z"]), prob(["x"])]), ["x"])
    expected = sum_over(product([inner, prob(["z"], ["x"])]), ["z"])
    assert result == Formula(expected, {"x": 0})
    rendered = to_latex(result).split("\n")
    assert rendered[0] == (
        r"\sum_{z} \left[ \sum_{x} P(y \mid x, z) P(x) \right] P(z \mid x)"
    )
    assert rendered[1] == "where: x=0"
    report(2, "front-door formula matches structurally and token-for-token")


def test_criterion_3_restricted_data_returns_fail():
    front_door = make_model({"x": [], "z": ["x"], "y": ["z"]}, [{"x", "y"}])
    result = identify(front_door, Data(["x", "y"]), make_query(["y"], do={"x": 0}))
    assert isinstance(result, Fail)
    bow_vertices = {"x", "y"}
    assert result.hedge.forest.vertices <= bow_vertices
    assert result.hedge.subforest.vertices <= result.hedge.forest.vertices
    assert result.hedge.witness <= bow_vertices
    report(3, "restricted data yields Fail with a hedge inside the bow graph")


def test_criterion_4_concomitant_adjustment():
    model = make_model(
        {"y": ["x", "z_1", "z_2"], "z_2": ["z_1"], "z_1": ["x"], "x": []},
        [{"y", "z_1"}, {"x", "z_2"}],
    )
    result = identify(model, make_query(["y"], do=["x"]))
    inner = sum_over(product([prob(["x"]), prob(["z_2"], ["x", "z_1"])]), ["x"])
    expected = sum_over(
        product([inner, prob(["z_1"], ["x"]), prob(["y"], ["x", "z_1", "z_2"])]),
        ["z_1", "z_2"],
    )
    assert result == Formula(expected, {})
    report(4, "concomitant adjustment formula matches up to set ordering")


def test_criterion_5_smoking_numbers(smoking_distribution):
    conditional = estimate(smoking_distribution, make_query({"y": 1}, given={"x": 1}))
    assert conditional == 0.8525  # exact, not approximate

    front_door = make_model({"x": [], "z": ["x"], "y": ["z"]}, [{"x", "y"}])
    interventions = sorted(
        infer(front_door, smoking_distribution, make_query({"y": 1}, do={"x": level}))
        for level in (0, 1)
    )
    # the table's level encoding is ambiguous, so the pair is pinned unordered
    assert interventions[0] == pytest.approx(0.4525, abs=1e-12)
    assert interventions[1] == pytest.approx(0.4975, abs=1e-12)
    report(5, "smoking conditional is exactly 0.8525; do-pair is {0.4525, 0.4975}")


def test_criterion_6_simplification_regression():
    joint = prob(["y", "z", "x"])
    quadruple = Fraction(joint, Sum(joint, variables(["y"])))
    assert simplify_form(quadruple) == prob(["y"], ["x", "z"])
    # the constructors apply the same rules as the form is built
    assert fraction(joint, sum_over(joint, ["y"])) == prob(["y"], ["x", "z"])
    report(6, "joint-over-marginal quadruple reduces to the conditional")


def test_criterion_7_oracle_property_suite():
    identified = hedged = 0
    for seed in range(200):
        scm = random_scm(seed, max_vars=5, confounding_prob=0.3)
        joint = exact_joint(scm)
        names = sorted(scm.model.vertices)
        markovian = not scm.model.confounding
        for do_var in names:
            truths = {}
            for effect in names:
                if effect == do_var:
                    continue
                result = identify(scm.model, make_query([effect], do=[do_var]))
                if isinstance(result, Fail):
                    assert not markovian, f"seed {seed}: Markovian model failed"
                    hedged += 1
                    continue
                identified += 1
                for do_val in (0, 1):
                    if do_val not in truths:
                        truths[do_val] = exact_joint(intervene(scm, {do_var: do_val}))
                    for effect_val in (0, 1):
                        got = evaluate(
                            joint, result, {do_var: do_val, effect: effect_val}
                        )
                        want = truths[do_val].measure({effect: effect_val})
                        assert got == pytest.approx(want, abs=1e-9), (
                            seed,
                            do_var,
                            effect,
                            do_val,
                            effect_val,
                        )
    assert identified > 0 and hedged > 0
    report(
        7,
        f"200 random SCMs: {identified} identified queries match the mutilated "
        f"ground truth, {hedged} hedged (none Markovian)",
    )


def test_criterion_8_simplifier_soundness_fuzz():
    for seed in range(100):
        rng = random.Random(seed)
        names = rng.sample(["a", "b", "c", "d"], rng.randint(2, 4))
        dist = random_joint(rng, sorted(names))
        form = random_form(rng, sorted(names))
        simplified = simplify_form(form)
        assert simplify_form(simplified) == simplified
        for env in assignments(dist, form):
            assert evaluate(dist, form, env) == pytest.approx(
                evaluate(dist, simplified, env), abs=1e-12
            )
    report(8, "100 random forms evaluate identically before and after simplify")


FRONT_DOOR_LISTING = """\
(define front-door
  (model
    {:x []
     :z [:x]
     :y [:z]}
    #{:x :y}))
"""

EXAMPLE_DISTRIBUTION_LISTING = """\
(define example-distribution
  (categorical
    [{:x 0, :y 0}
     {:x 0, :y 1}
     {:x 1, :y 0}
     {:x 1, :y 1}
     {:x 1, :y 1}]))
"""

SMOKING_LISTINGS = [
    ("(estimate smoking\n  (q {:y 1} :given {:x 1}))", 0.8525),
    ("(infer front-door smoking\n  (q {:y 1} :do {:x 1}))", {0.4525, 0.4975}),
]

KIDNEY_LISTINGS = """\
(define kidney-dataset
  (read-csv "data/renal-calculi.csv"))

(head kidney-dataset 5)

(define kidney-distribution
  (categorical kidney-dataset))
"""

CHARIG_LISTING = """\
(define charig1986
  (model
    {:size []
     :treatment [:size]
     :success [:treatment :size]}))
"""

SIMPSON_LISTINGS = [
    (
        '(estimate kidney-distribution\n  (q {:success "yes"}\n'
        '     :given {:treatment "surgery"}))',
        0.78,
    ),
    (
        '(estimate kidney-distribution\n  (q {:success "yes"}\n'
        '    :given {:treatment "nephrolithotomy"}))',
        0.8257142857142857,
    ),
    (
        '(estimate kidney-distribution\n  (q {:success "yes"}\n'
        '     :given {:size "small"\n             :treatment "surgery"}))',
        0.9310344827586207,
    ),
    (
        '(estimate kidney-distribution\n  (q {:success "yes"}\n'
        '    :given {:size "small"\n            :treatment "nephrolithotomy"}))',
        0.8666666666666667,
    ),
    (
        '(infer charig1986 kidney-distribution\n  (q {:success "yes"}\n'
        '     :do {:treatment "surgery"}))',
        0.8325462173856037,
    ),
    (
        '(infer charig1986 kidney-distribution\n  (q {:success "yes"}\n'
        '     :do {:treatment "nephrolithotomy"}))',
        0.778875,
    ),
]

CONCOMITANT_LISTING = """\
(define concomitant-example
  "Figure 1 (f) from (Shpitser 2008)"
  (model
    {:y [:x :z_1 :z_2]
     :z_2 [:z_1]
     :z_1 [:x]
     :x []}
    #{:y :z_1}
    #{:x :z_2}))

(identify concomitant-example
  (q [:y] :do [:x]))
"""


def test_criterion_9_language_conformance(monkeypatch, smoking_distribution):
    monkeypatch.chdir(REPO_ROOT)
    env = standard_environment().with_binding("smoking", smoking_distribution)

    values, env = eval_program(FRONT_DOOR_LISTING, env)
    values, env = eval_program(EXAMPLE_DISTRIBUTION_LISTING, env)
    assert measure(env.lookup("example-distribution"), {"x": 1, "y": 1}) == 0.4

    for listing, expected in SMOKING_LISTINGS:
        (value,), env = eval_program(listing, env)
        if isinstance(expected, set):
            assert any(value == pytest.approx(e, abs=1e-12) for e in expected)
        else:
            assert value == pytest.approx(expected, abs=1e-12)

    values, env = eval_program(KIDNEY_LISTINGS, env)
    assert len(env.lookup("kidney-dataset")) == 700
    assert len(values[1]) == 5  # head

    values, env = eval_program(CHARIG_LISTING, env)
    for listing, expected in SIMPSON_LISTINGS:
        (value,), env = eval_program(listing, env)
        assert value == pytest.approx(expected, abs=1e-12), listing

    values, env = eval_program(CONCOMITANT_LISTING, env)
    inner = sum_over(product([prob(["x"]), prob(["z_2"], ["x", "z_1"])]), ["x"])
    expected_form = sum_over(
        product([inner, prob(["z_1"], ["x"]), prob(["y"], ["x", "z_1", "z_2"])]),
        ["z_1", "z_2"],
    )
    assert values[-1] == Formula(expected_form, {})
    assert env.doc("concomitant-example") == "Figure 1 (f) from (Shpitser 2008)"

    with pytest.raises(RedefinitionError):
        eval_program("(define twice 1) (define twice 2)")

    rng = random.Random(20260811)
    from tests.test_frontend import _random_literal

    for _ in range(1000):
        literal = _random_literal(rng)
        (back,), _ = eval_program(print_value(literal))
        assert back == literal

    report(9, "reference listings evaluate verbatim; print/parse round-trips hold")
