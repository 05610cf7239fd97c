import random
import re

import pytest

from whittemore import (
    Formula,
    identify,
    make_model,
    make_query,
    prob,
    to_dot,
    to_latex,
)
from tests.forms import random_form

FRONT_DOOR_LATEX = (
    r"\sum_{z} \left[ \sum_{x} P(y \mid x, z) P(x) \right] P(z \mid x)"
)


class TestToLatex:
    def test_front_door_exact_string(self, front_door):
        result = identify(front_door, make_query(["y"], do={"x": 0}))
        math, where = to_latex(result).split("\n")
        assert math == FRONT_DOOR_LATEX
        assert where == "where: x=0"

    def test_plain_term(self):
        assert to_latex(prob(["y"])) == "P(y)"

    def test_concomitant_display(self, concomitant):
        result = identify(concomitant, make_query(["y"], do=["x"]))
        assert to_latex(result) == (
            r"\sum_{z_1, z_2} \left[ \sum_{x} P(z_2 \mid x, z_1) P(x) \right] "
            r"P(z_1 \mid x) P(y \mid x, z_1, z_2)"
        )

    def test_no_where_line_without_bindings(self):
        assert "\n" not in to_latex(Formula(prob(["y"]), {}))

    def test_fraction(self, charig):
        result = identify(
            charig, make_query(["success"], do=["treatment"], given=["size"])
        )
        assert to_latex(result).startswith(r"\frac{")

    @pytest.mark.parametrize("seed", range(25))
    def test_balanced_delimiters_on_random_forms(self, seed):
        rng = random.Random(seed)
        form = random_form(rng, ["a", "b", "c"])
        text = to_latex(form)
        assert text.count("{") == text.count("}")
        assert text.count(r"\left[") == text.count(r"\right]")


def parse_dot(text):
    directed = set(re.findall(r"^  (\w+) -> (\w+);$", text, re.M))
    bidirected = {
        frozenset(pair)
        for pair in re.findall(r"^  (\w+) -> (\w+) \[dir=both.*\];$", text, re.M)
    }
    nodes = set(re.findall(r"^  (\w+);$", text, re.M))
    return nodes, directed, bidirected


class TestToDot:
    def test_front_door(self, front_door):
        nodes, directed, bidirected = parse_dot(to_dot(front_door))
        assert nodes == {"x", "y", "z"}
        assert directed == {("x", "z"), ("z", "y")}
        assert bidirected == {frozenset({"x", "y"})}

    def test_single_node(self):
        nodes, directed, bidirected = parse_dot(to_dot(make_model({"x": []})))
        assert nodes == {"x"}
        assert not directed and not bidirected

    def test_charig(self, charig):
        nodes, directed, bidirected = parse_dot(to_dot(charig))
        assert directed == {
            ("size", "treatment"),
            ("size", "success"),
            ("treatment", "success"),
        }
        assert not bidirected

    def test_structural_fidelity(self, concomitant):
        nodes, directed, bidirected = parse_dot(to_dot(concomitant))
        assert nodes == set(map(str, concomitant.vertices))
        want_directed = {
            (str(p), str(v)) for v, ps in concomitant.dag.items() for p in ps
        }
        assert directed == want_directed
        want_pairs = {
            frozenset(map(str, pair)) for pair in concomitant.bidirected_pairs()
        }
        assert bidirected == want_pairs

    def test_deterministic(self, concomitant):
        assert to_dot(concomitant) == to_dot(concomitant)
