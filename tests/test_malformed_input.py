"""Malformed input ends in a WhittemoreError, from Python and from a script.

The library reads every argument, so a Python caller and a script get the
same error class; a script's error also carries the position of its form.
"""
import csv
import re

import pytest

from whittemore import (
    Data,
    WhittemoreError,
    categorical,
    estimate,
    head,
    identify,
    infer,
    main,
    make_model,
    make_query,
    marginal_table,
    measure,
    read_csv,
    signature,
)
from whittemore.errors import DataFormatError
from whittemore.interpreter import _OPERATORS
from tests.conftest import KIDNEY_CSV, REPO_ROOT

_MODEL = make_model({"x": [], "y": ["x"]})
_DIST = categorical([{"x": 0, "y": 0}, {"x": 1, "y": 1}])
_QUERY = make_query("y", do={"x": 0})

# function -> arguments it accepts; each case swaps one of them for a bad value
_PYTHON_CALLS = {
    "make_model": (make_model, [{"x": [], "y": ["x"]}, [["x", "y"]]]),
    "Data": (Data, [["x", "y"]]),
    "make_query": (make_query, ["y", {"x": 0}, None]),
    "categorical": (categorical, [[{"x": 0}]]),
    "read_csv": (read_csv, [str(KIDNEY_CSV)]),
    "head": (head, [[{"x": 0}], 1]),
    "marginal_table": (marginal_table, [_DIST, "x"]),
    "identify": (identify, [_MODEL, Data(["x", "y"]), _QUERY]),
    "infer": (infer, [_MODEL, _DIST, _QUERY]),
    "measure": (measure, [_DIST, {"x": 0}]),
    "estimate": (estimate, [_DIST, make_query({"y": 0})]),
    "signature": (signature, [_DIST]),
}
_BAD = {"int": 5, "bool": True, "map": {}, "model": _MODEL}
# (function, argument, bad value) swaps that are well-formed after all
_PYTHON_VALID = {
    ("make_model", 0, "map"),  # the empty model
    ("make_model", 1, "map"),  # no confounding sets
    ("make_query", 1, "map"),  # an empty intervention
    ("make_query", 2, "map"),
    ("head", 1, "int"),
    ("identify", 0, "model"),
    ("infer", 0, "model"),
    ("measure", 1, "map"),  # the sure event
}


@pytest.mark.parametrize(
    "name, position, bad",
    [
        (name, position, bad)
        for name, (_, args) in _PYTHON_CALLS.items()
        for position in range(len(args))
        for bad in _BAD
        if (name, position, bad) not in _PYTHON_VALID
    ],
)
def test_python_caller_gets_a_whittemore_error(name, position, bad):
    function, args = _PYTHON_CALLS[name]
    function(*args)
    args = list(args)
    args[position] = _BAD[bad]
    with pytest.raises(WhittemoreError):
        function(*args)


_D = "(categorical [{:x 0 :y 0} {:x 1 :y 1}])"
_M = "(model {:x [] :y [:x]})"
# operator -> script arguments it accepts
_SCRIPT_CALLS = {
    "model": ["{:x [] :y [:x]}", "[:x :y]"],
    "data": ["[:x :y]"],
    "q": ["[:y]", ":do", "{:x 0}"],
    "identify": [_M, "(data [:x :y])", "(q [:y] :do {:x 0})"],
    "estimate": [_D, "(q {:y 0})"],
    "measure": [_D, "{:x 0}"],
    "signature": [_D],
    "infer": [_M, _D, "(q [:y] :do {:x 0})"],
    "categorical": ["[{:x 0 :y 0} {:x 1 :y 1}]"],
    "read-csv": ['"data/renal-calculi.csv"'],
    "head": ["[{:x 0}]", "1"],
    "marginal-table": [_D, ":x"],
}
_SCRIPT_BAD = {"int": "5", "bool": "true", "map": "{}", "model": "(model {:x []})"}
_SCRIPT_VALID = {
    ("model", 0, "map"),
    ("q", 2, "map"),
    ("measure", 1, "map"),
    ("head", 1, "int"),
    ("identify", 0, "model"),
    ("infer", 0, "model"),
}


def _script_cases():
    for op, args in _SCRIPT_CALLS.items():
        yield pytest.param(f"({op})", id=f"{op}-no-arguments")
        if op != "model":  # any number of confounding sets is fine
            yield pytest.param(f"({op} {' '.join(args + ['1'])})", id=f"{op}-one-too-many")
        for position in range(len(args)):
            for bad in _SCRIPT_BAD:
                if (op, position, bad) not in _SCRIPT_VALID:
                    swapped = args[:position] + [_SCRIPT_BAD[bad]] + args[position + 1:]
                    yield pytest.param(f"({op} {' '.join(swapped)})", id=f"{op}-{position}-{bad}")


def test_every_operator_is_covered():
    assert set(_SCRIPT_CALLS) == set(_OPERATORS)


@pytest.mark.parametrize("op", list(_SCRIPT_CALLS))
def test_script_calls_run(op, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    path = tmp_path / "ok.wt"
    path.write_text(f"({op} {' '.join(_SCRIPT_CALLS[op])})\n")
    assert main(["run", str(path)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("form", list(_script_cases()))
def test_script_error_is_positioned(form, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    path = tmp_path / "bad.wt"
    path.write_text(f"; a malformed call\n  {form}\n")
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"{path}: 2:3: ")
    assert "Traceback" not in err


def _undecodable(directory):
    path = directory / "latin1.csv"
    path.write_bytes(b"a,b\n1,2\n\xff,3\n")
    return path, "not UTF-8 text"


def _oversized_field(directory):
    path = directory / "wide.csv"
    path.write_text("a,b\n1,2\n3," + "x" * 200_000 + "\n4,5\n")
    return path, ":3: field larger than field limit"


@pytest.mark.parametrize("bad_file", [_undecodable, _oversized_field])
def test_unreadable_csv_is_a_data_format_error(bad_file, tmp_path):
    path, message = bad_file(tmp_path)
    limit = csv.field_size_limit()
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}") as err:
        read_csv(str(path))
    assert message in str(err.value)
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("bad_file", [_undecodable, _oversized_field])
def test_unreadable_csv_in_a_script_exits_1(bad_file, tmp_path, capsys):
    path, message = bad_file(tmp_path)
    script = tmp_path / "read.wt"
    script.write_text(f'(read-csv "{path}")\n')
    assert main(["run", str(script)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


_BIG = "x" * 200_000


@pytest.mark.parametrize(
    "text, line",
    [
        ("a,b\n" + "1,2\n" * 10_000 + "3," + _BIG + "\n4,5\n", 10_002),
        ("a,b\n1,2\n3," + _BIG + "\n1,2\n3," + _BIG + "\n", 3),
        ('a,b\n"x\ny",1\n1,2\n3,' + _BIG + "\n", 5),
    ],
    ids=["after-repeated-lines", "line-that-repeats", "after-multi-line-record"],
)
def test_oversized_field_is_reported_at_its_first_line(text, line, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        read_csv(str(path))
    limit = csv.field_size_limit()
    assert str(err.value) == f"{path}:{line}: field larger than field limit ({limit})"


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n3," + _BIG + "\n" + "4,5\n" * 5_000, "not UTF-8 text"),
        ("a," + _BIG + "\n" + "4,5\n" * 5_000, ":1: field larger than field limit"),
    ],
    ids=["in-the-body", "in-the-header"],
)
def test_undecodable_body_is_reported_before_its_field_errors(text, message, tmp_path):
    # the header is parsed first, then the body is decoded in full before any
    # of its lines is parsed: the bad byte lies 20 KB past the long field
    path = tmp_path / "wide.csv"
    path.write_bytes(text.encode() + b"\xff,3\n")
    with pytest.raises(DataFormatError) as err:
        read_csv(str(path))
    assert message in str(err.value)
