"""Each answer check of the benchmark rejects a perturbed answer.

    python3 -m pytest -q bench/test_checks.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import whittemore as wt  # noqa: E402

import workloads as W  # noqa: E402
from reference import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def backdoor():
    inputs = W.backdoor_inputs(0, None)
    return W.backdoor_operations(wt, W.backdoor_build(wt, inputs), inputs)


@pytest.fixture(scope="module")
def semimarkov():
    inputs = W.semimarkov_inputs(0, None)
    return inputs, W.semimarkov_operations(wt, W.semimarkov_build(wt, inputs), inputs)


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    inputs = W.ingest_inputs(0, tmp_path_factory.mktemp("ingest"))
    op = W.ingest_operations(wt, None, inputs)[0]
    return inputs, op, op.run()


def _shifted(table, eps):
    y0, y1 = table.measure({"y": 0}), table.measure({"y": 1})
    return wt.CategoricalDistribution(("y",), table.support, {(0,): y0 - eps, (1,): y1 + eps}, 1.0)


def test_backdoor_answers_pass_and_perturbed_ones_fail(backdoor):
    kinds = set()
    for op in backdoor:
        answer = op.run()
        op.check(answer, True)
        kind = op.label.rsplit("-", 1)[1]
        kinds.add(kind)
        wrong = answer + 1e-7 if kind == "event" else _shifted(answer, 1e-7)
        with pytest.raises(CheckFailed):
            op.check(wrong, True)
    assert kinds == {"table", "event", "given"}


def test_backdoor_rejects_a_table_over_the_wrong_variable(backdoor):
    op = next(op for op in backdoor if op.label.endswith("-table"))
    answer = op.run()
    wrong = wt.CategoricalDistribution(("x",), {"x": (0, 1)}, answer._cells, 1.0)
    with pytest.raises(CheckFailed):
        op.check(wrong, True)


def test_semimarkov_answers_pass_and_both_verdicts_occur(semimarkov):
    inputs, ops = semimarkov
    W.semimarkov_verify(wt, inputs)
    verdicts = set()
    for op, inst in zip(ops, inputs["instances"]):
        answer = op.run()
        op.check(answer, True)
        op.check(answer, False)
        verdicts.add(W.check_identify_answer(answer, inst))
    assert verdicts == {"formula", "hedge"}


def _first(ops, inputs, kind, verdict):
    for op, inst in zip(ops, inputs["instances"]):
        answer = op.run()
        if inst["kind"] == kind and W.check_identify_answer(answer, inst) == verdict:
            return op, inst, answer
    raise AssertionError(f"no {kind} instance with a {verdict}")


def test_semimarkov_rejects_formulas_outside_the_signature(semimarkov):
    inputs, ops = semimarkov
    op, inst, answer = _first(ops, inputs, "random", "formula")
    hidden = wt.prob(["hidden-vertex"])
    stray = wt.prob([v for v in inst["names"] if v not in (inst["y"], *inst["do"])][:1])
    for bad in (hidden, stray):
        wrong = wt.Formula(wt.product([answer.form, bad]), answer.bindings, answer.effect)
        with pytest.raises(CheckFailed):
            op.check(wrong, False)


def test_semimarkov_rejects_wrong_planted_verdicts(semimarkov):
    inputs, ops = semimarkov
    fd_op, fd_inst, fd_answer = _first(ops, inputs, "front-door", "formula")
    bow_op, bow_inst, bow_answer = _first(ops, inputs, "bow", "hedge")
    with pytest.raises(CheckFailed, match="must be identifiable"):
        fd_op.check(bow_answer, False)
    y = bow_inst["y"]
    with pytest.raises(CheckFailed, match="must not be identifiable"):
        bow_op.check(wt.Formula(wt.prob([y], bow_inst["do"]), {}, frozenset([y])), False)


def test_semimarkov_rejects_a_verdict_that_changes_under_renaming(semimarkov):
    inputs, ops = semimarkov
    op, inst, answer = _first(ops, inputs, "random", "formula")
    op.check(answer, True)  # the first pass identifies the renamed instance too
    assert op.check.renamed_verdict == "formula"
    op.check.renamed_verdict = "hedge"
    with pytest.raises(CheckFailed, match="renaming"):
        op.check(answer, False)


def test_semimarkov_rejects_malformed_hedges(semimarkov):
    inputs, ops = semimarkov
    op, inst, answer = _first(ops, inputs, "bow", "hedge")
    hedge = answer.hedge
    swapped = wt.Fail(wt.Hedge(hedge.subforest, hedge.forest, hedge.witness), answer.message)
    unconfounded = wt.Fail(
        wt.Hedge(wt.make_model(hedge.forest.dag), hedge.subforest, hedge.witness), answer.message)
    for bad in (swapped, unconfounded):
        with pytest.raises(CheckFailed):
            op.check(bad, False)


def test_semimarkov_small_instances_catch_a_wrong_formula(semimarkov, monkeypatch):
    inputs, _ = semimarkov

    def naive(model, data, query):  # P(y | x) in place of P(y | do(x))
        y = list(query.effect)
        return wt.Formula(wt.prob(y, query.do), {}, frozenset(y))

    monkeypatch.setattr(wt, "identify", naive)
    with pytest.raises(CheckFailed):
        W.semimarkov_verify(wt, inputs)


def test_ingest_answer_passes(ingest):
    inputs, op, answer = ingest
    op.check(answer, True)


def _perturb_line(text, index, change):
    lines = text.splitlines()
    lines[index] = change(lines[index])
    return "\n".join(lines) + "\n"


def test_ingest_rejects_a_perturbed_number(ingest):
    inputs, op, (code, text) = ingest
    for index, line in enumerate(text.splitlines()):
        token = line.split()[1] if len(line.split()) > 1 and line[0] != "(" else line
        try:
            value = float(token)
        except ValueError:
            continue
        # the kidney-stone figures are published to three or four decimals
        eps = 1e-3 if index >= len(text.splitlines()) - len(inputs["kidney"]) else 1e-7
        bad = _perturb_line(text, index, lambda s: s.replace(token, repr(value + eps), 1))
        with pytest.raises(CheckFailed):
            op.check((code, bad), False)


def test_ingest_rejects_a_failed_run_and_missing_output(ingest):
    inputs, op, (code, text) = ingest
    with pytest.raises(CheckFailed):
        op.check((1, text), False)
    with pytest.raises(CheckFailed):
        op.check((0, "\n".join(text.splitlines()[:-1])), False)
