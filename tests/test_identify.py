import pytest

from whittemore import (
    Data,
    Fail,
    Formula,
    free_variables,
    identify,
    make_model,
    make_query,
    prob,
    product,
    sum_over,
)
from whittemore.errors import QueryError, UnknownVariableError


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
        assert free_variables(sum_over(prob(["x", "y"]), ["x", "y"])) == frozenset()


class TestMarkovianNeverFails:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_markovian_models_identify(self, seed):
        from whittemore.oracle import random_scm

        scm = random_scm(seed, max_vars=5, confounding_prob=0.0)
        names = sorted(scm.model.vertices)
        for do_var in names:
            for effect in names:
                if do_var == effect:
                    continue
                result = identify(scm.model, make_query([effect], do=[do_var]))
                assert isinstance(result, Formula)
