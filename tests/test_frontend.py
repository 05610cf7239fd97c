import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittemore import (
    Data,
    Formula,
    Model,
    Query,
    Variable,
    eval_expr,
    eval_program,
    make_model,
    make_query,
    parse,
    print_value,
    standard_environment,
)
from whittemore.errors import (
    DataFormatError,
    EvalError,
    ParseError,
    RedefinitionError,
    UnboundSymbolError,
    WhittemoreError,
)
from whittemore.model import _RESERVED_CHARS
from whittemore.printer import display_value
from whittemore.reader import _MAX_DEPTH, Apply, MapLit, SetLit, Symbol, VectorLit
from tests.conftest import REPO_ROOT


class TestParse:
    def test_model_expression(self):
        (expr,) = parse("(model {:x [] :z [:x] :y [:z]} #{:x :y})")
        assert isinstance(expr, Apply)
        assert expr.op == Symbol("model")
        assert isinstance(expr.args[0], MapLit)
        assert isinstance(expr.args[1], SetLit)

    def test_keyword_constant(self):
        (expr,) = parse(":x")
        assert expr == Variable("x")

    def test_query_expression(self):
        (expr,) = parse("(q [:y] :do {:x 0})")
        assert expr.op == Symbol("q")
        assert isinstance(expr.args[0], VectorLit)
        assert expr.args[1] == Variable("do")

    def test_commas_are_whitespace(self):
        (expr,) = parse("{:x 0, :y 1}")
        assert isinstance(expr, MapLit)
        assert len(expr.pairs) == 2

    def test_comments_ignored(self):
        exprs = parse("; a comment\n42 ; trailing\n")
        assert exprs == [42]

    def test_numbers_and_strings(self):
        assert parse('[1 -2 3.5 1e-3 "hi\\n"]')[0].items == (1, -2, 3.5, 1e-3, "hi\n")

    def test_unbalanced_is_incomplete(self):
        with pytest.raises(ParseError) as err:
            parse("(model {:x []}")
        assert err.value.incomplete

    def test_mismatched_closer(self):
        with pytest.raises(ParseError) as err:
            parse("(model ]")
        assert not err.value.incomplete

    def test_odd_map_arity(self):
        with pytest.raises(ParseError):
            parse("{:x}")

    def test_duplicate_set_element(self):
        with pytest.raises(ParseError):
            parse("#{:x :x}")

    def test_symbol_and_its_names_string_are_different_keys(self):
        (m,) = parse('{a 1 "a" 2}')
        assert len(m.pairs) == 2

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse("\n  #oops")
        assert (err.value.line, err.value.col) == (2, 3)

    @pytest.mark.parametrize(
        "opener, inner, closer",
        [("[", "1", "]"), ("#{", "1", "}"), ("{:a ", "1", "}"), ("(head ", "[1]", " 1)")],
    )
    def test_nesting_at_the_cap_runs(self, opener, inner, closer):
        levels = _MAX_DEPTH - inner.count("[")
        values, _ = eval_program(opener * levels + inner + closer * levels)
        assert display_value(values[0])

    def test_nesting_past_the_cap_fails_at_the_opener(self):
        text = "[" * _MAX_DEPTH + " [1]" + "]" * _MAX_DEPTH
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, _MAX_DEPTH + 2)
        assert not err.value.incomplete


    @pytest.mark.parametrize(
        "text, message, incomplete",
        [
            ('(q\n  "abc', '2:3: unterminated string', True),
            ('(q "ab\\', '1:4: unterminated string', True),
            ('["a\\qb"]', "1:5: bad escape '\\q'", False),
            ("[:x\n :]", "2:2: empty keyword", False),
            ("[1 12abc]", "1:4: bad number: '12abc'", False),
            ("{:a 1 :a 2}", "1:7: duplicate map key", False),
            ("{:a 1\n :b :a\n :a 2}", "3:2: duplicate map key", False),
            ("#{1 1}", "1:5: duplicate set element", False),
            ("#{[1 :x]\n  [1 :x]}", "2:3: duplicate set element", False),
            ("{1 :a 1.0 :b}", "1:7: duplicate map key", False),
            ("#{1 true}", "1:5: duplicate set element", False),
            ('{:x 1 "x" 2}', "1:7: duplicate map key", False),
            ("[1\n ( )]", "2:2: empty application", False),
            ("(:x 1)", "1:2: operator position requires an operator name", False),
            ("([head] 1)", "1:2: operator position requires an operator name", False),
            ('[:x "a\\q', "1:8: bad escape '\\q'", False),
            ("[\r\n\r:]", "2:2: empty keyword", False),
            ("x#y", "1:2: stray '#' (expected '#{')", False),
            ("[1]\n#", "2:1: stray '#' (expected '#{')", False),
            ("[1\n -1e400]", "2:2: number out of range", False),
            pytest.param(
                "[" + "9" * 5000 + "]", "1:2: number out of range", False,
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() reads any number of digits",
                ),
            ),
        ],
        ids=[
            "unterminated-string", "unterminated-escape", "bad-escape", "empty-keyword",
            "bad-number", "duplicate-map-key", "map-value-equal-to-a-key",
            "duplicate-set-element", "duplicate-set-vector", "equal-number-keys",
            "equal-number-and-boolean", "equal-keyword-and-string", "empty-application",
            "keyword-operator", "vector-operator", "bad-escape-in-unclosed-string",
            "carriage-return-is-a-column", "atom-ends-at-hash", "stray-hash-at-end",
            "float-out-of-range", "int-past-the-digit-limit",
        ],
    )
    def test_error_message_and_position(self, text, message, incomplete):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.incomplete) == (message, incomplete)

    def test_invalid_keyword_fails_at_the_keyword(self):
        with pytest.raises(ParseError, match="invalid variable name") as err:
            parse("(q [:a\u00a0b])")
        assert (err.value.line, err.value.col) == (1, 5)


class TestEval:
    def test_define_and_lookup(self):
        values, env = eval_program("(define x 1) x")
        assert values == [1, 1]
        assert env.lookup("x") == 1

    def test_define_cannot_rebind(self):
        with pytest.raises(RedefinitionError):
            eval_program("(define x 1) (define x 2)")

    def test_define_docstring(self):
        values, env = eval_program('(define x "the answer" 42)')
        assert values == [42]
        assert env.doc("x") == "the answer"

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbolError) as err:
            eval_program("mystery")
        assert "mystery" in str(err.value)

    def test_front_door_model_evaluates(self, front_door):
        values, env = eval_program(
            "(define front-door\n"
            "  (model\n"
            "    {:x []\n"
            "     :z [:x]\n"
            "     :y [:z]}\n"
            "    #{:x :y}))\n"
            "front-door"
        )
        assert values[1] == front_door

    def test_environment_is_not_mutated(self):
        env = standard_environment()
        (expr,) = parse("(define x 1)")
        _, extended = eval_expr(env, expr)
        assert "x" not in env.bindings
        assert extended.lookup("x") == 1

    def test_strings_interchangeable_with_keywords(self):
        a, _ = eval_program('(model {"x" [] "y" ["x"]})')
        b, _ = eval_program("(model {:x [] :y [:x]})")
        assert a == b

    def test_vectors_interchangeable_with_sets(self):
        a, _ = eval_program("(model {:x [] :y [:x]} [:x :y])")
        b, _ = eval_program("(model {:x [] :y [:x]} #{:x :y})")
        assert a == b

    def test_unknown_operator(self):
        with pytest.raises(EvalError):
            eval_program("(frobnicate 1)")

    def test_q_keyword_arguments_any_order(self):
        a, _ = eval_program("(q [:y] :do {:x 0} :given {:w 1})")
        b, _ = eval_program("(q [:y] :given {:w 1} :do {:x 0})")
        assert a[0] == b[0]

    def test_identify_through_language(self, front_door):
        values, _ = eval_program(
            "(identify (model {:x [] :z [:x] :y [:z]} #{:x :y}) (q [:y] :do {:x 0}))"
        )
        assert isinstance(values[0], Formula)
        assert values[0].bindings == {"x": 0}

    def test_data_surrogate_slot_rejected(self):
        with pytest.raises(EvalError):
            eval_program("(data [:x] :do [:z])")

    def test_identify_with_restricted_data(self):
        from whittemore import Fail

        values, _ = eval_program(
            "(identify (model {:x [] :z [:x] :y [:z]} #{:x :y})\n"
            "          (data [:x :y])\n"
            "          (q [:y] :do {:x 0}))"
        )
        assert isinstance(values[0], Fail)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(define a 1) (define b 1) {a 1 b 2}", "1:27: duplicate map key"),
            ("(define a 1)\n(define b 1.0)\n #{a b}", "3:2: duplicate set element"),
        ],
        ids=["map", "set"],
    )
    def test_symbols_bound_to_equal_values_are_duplicates(self, text, message):
        with pytest.raises(EvalError) as err:
            eval_program(text)
        assert str(err.value) == message

    def test_symbols_bound_to_different_values_are_distinct_keys(self):
        values, _ = eval_program("(define a 1) (define b 2) {a 1 b 2} #{a b}")
        assert values[2:] == [{1: 1, 2: 2}, frozenset({1, 2})]

    def test_purity(self):
        env = standard_environment()
        (expr,) = parse("(model {:x [] :y [:x]})")
        first, _ = eval_expr(env, expr)
        second, _ = eval_expr(env, expr)
        assert first == second


class TestPrintValue:
    def test_probability_prints_shortest_repr(self):
        assert print_value(289 / 350) == "0.8257142857142857"

    def test_set(self):
        assert print_value(frozenset({Variable("x")})) == "#{:x}"

    def test_map(self):
        assert print_value({Variable("x"): 0, Variable("y"): 1}) == "{:x 0, :y 1}"

    def test_booleans_and_strings(self):
        assert print_value(True) == "true"
        assert print_value('say "hi"') == '"say \\"hi\\""'

    def test_model_round_trips(self, concomitant):
        values, _ = eval_program(print_value(concomitant))
        assert values[0] == concomitant

    def test_data_round_trips(self):
        values, _ = eval_program(print_value(Data(["x", "y"])))
        assert values[0] == Data(["x", "y"])

    def test_query_round_trips(self):
        for q in (
            make_query(["y"], do={"x": 0}),
            make_query({"y": 1}, given={"x": 1}),
            make_query(["y"], do=["x"], given=["w"]),
            make_query(["y"], do=[]),
        ):
            values, _ = eval_program(print_value(q))
            assert values[0] == q

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="str() writes any number of digits"
    )
    @pytest.mark.parametrize("write, value", [
        (print_value, 10**5000),
        (display_value, [{"x": 0}, {"x": -(10**5000)}]),
    ], ids=["print_value", "display_value-of-samples"])
    def test_int_past_the_digit_limit_is_a_data_format_error(self, write, value):
        with pytest.raises(DataFormatError, match="^cannot print an integer of 5001 digits$"):
            write(value)


def _random_literal(rng, depth=0):
    atoms = [
        lambda: rng.randint(-10**6, 10**6),
        lambda: rng.choice([0.5, -1.25, 3.14159, 1e-9, 12345.6789, 2.0]),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: "".join(
            rng.choice('abc xyz_:#"\\\n\t([{') for _ in range(rng.randint(0, 8))
        ),
        lambda: rng.choice([True, False]),
        lambda: Variable(
            "".join(rng.choice("abcxyz_'") for _ in range(rng.randint(1, 6)))
        ),
    ]
    if depth >= 2:
        return rng.choice(atoms)()
    kind = rng.randint(0, 8)
    if kind <= 5:
        return rng.choice(atoms)()
    if kind == 6:
        return [_random_literal(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 7:
        out = {}
        for _ in range(rng.randint(0, 4)):
            out[_random_literal(rng, 2)] = _random_literal(rng, depth + 1)
        return out
    return frozenset(_random_literal(rng, 2) for _ in range(rng.randint(0, 4)))


def test_print_parse_round_trip_on_random_literals():
    rng = random.Random(20260811)
    for _ in range(1000):
        value = _random_literal(rng)
        values, _ = eval_program(print_value(value))
        assert len(values) == 1
        assert values[0] == value



# property tests of the reader: printed values read back, and malformed input
# ends in a WhittemoreError

_names = st.text(min_size=1, max_size=6).filter(
    lambda s: not any(ch.isspace() or ch in _RESERVED_CHARS for ch in s)
)
_atoms = st.one_of(
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(st.sampled_from('"\\\n\t\r') | st.characters(), max_size=8),
    _names.map(Variable),
)
_literals = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.frozensets(_atoms, max_size=4),
        st.dictionaries(_atoms, inner, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def _models(draw):
    names = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    dag = {v: [p for p in names[:j] if draw(st.booleans())] for j, v in enumerate(names)}
    pool = st.sampled_from(names)
    groups = draw(st.lists(st.sets(pool, min_size=2), max_size=2)) if len(names) > 1 else []
    return make_model(dag, groups)


@st.composite
def _queries(draw):
    names = draw(st.lists(_names, min_size=1, max_size=6, unique=True))
    parts = [[names[0]], [], []]  # effect, do, given
    for v in names[1:]:
        parts[draw(st.integers(0, 2))].append(v)
    if draw(st.booleans()):
        value = st.one_of(st.integers(-3, 3), st.text(max_size=3))
        event = draw(st.booleans())
        parts = [
            {v: draw(value) for v in part} if i or event else part
            for i, part in enumerate(parts)
        ]
    return make_query(*parts)


_READER_RUNS = settings(derandomize=True, max_examples=200, deadline=None)


@_READER_RUNS
@given(st.one_of(_literals, _models(), _queries()))
def test_printed_values_read_back(value):
    values, _ = eval_program(print_value(value))
    assert values == [value]


# no read-csv, so that no soup reads a file
_SOUP = [
    "(", ")", "[", "]", "{", "}", "#{", "#", '"', "\\", '\\"', "\\n", "\\q", ";", ",",
    " ", "\n", "\r", "\u00a0", ":", ":x", ":y", "x", "1", "-2", "3.5", "1e400", "e", ".",
    "true", "define", "model", "data", "q", ":do", ":given", "identify", "estimate",
    "measure", "infer", "categorical", "head", "signature", "marginal-table",
]
_DEMOS = [p.read_text() for p in sorted((REPO_ROOT / "demo").glob("*.wt"))]


@st.composite
def _mutated_demos(draw):
    text = draw(st.sampled_from(_DEMOS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.sampled_from(_SOUP + [""])) + text[j:]
    return text


@_READER_RUNS
@given(st.one_of(st.lists(st.sampled_from(_SOUP), max_size=30).map("".join), _mutated_demos()))
def test_malformed_programs_raise_only_whittemore_errors(text):
    try:
        parse(text)
    except ParseError:
        pass
    try:
        eval_program(text)
    except WhittemoreError:
        pass


class TestDisplay:
    def test_sample_collection_renders_as_table(self):
        samples = [
            {Variable("x"): "0", Variable("y"): "ab"},
            {Variable("x"): "11", Variable("y"): "c"},
        ]
        text = display_value(samples)
        lines = text.splitlines()
        assert lines[0].split() == ["x", "y"]
        assert lines[1].split() == ["0", "ab"]
        assert lines[2].split() == ["11", "c"]

    def test_formula_display_mentions_bindings(self, front_door):
        values, _ = eval_program(
            "(identify (model {:x [] :z [:x] :y [:z]} #{:x :y}) (q [:y] :do {:x 0}))"
        )
        text = display_value(values[0])
        assert "where: x=0" in text
