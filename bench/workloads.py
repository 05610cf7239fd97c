"""The three workloads: seeded inputs, set-up, operations and their checks.

A workload has three parts, kept apart so that the benchmark can time them
apart:

- `inputs(seed, scratch)` makes the inputs from the seed with the
  benchmark's own code (plain data, plus files under `scratch`) and computes
  the reference answers. It is neither timed nor part of set-up.
- `build(wt, inputs)` is the program's own set-up work: the models,
  distributions and queries that the operations reuse. It is timed as part
  of `setup_s`.
- `operations(wt, state, inputs)` returns the fixed list of operations.
  Each has a `run` that calls the program and is timed, and a `check` that
  is not.

`verify(wt, inputs)` runs checks that do not belong to one operation; it is
run once per run, untimed.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import io
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import reference as ref
from reference import require


@dataclass
class Operation:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, bool], None]  # (answer, first pass) -> raises CheckFailed


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


# --- estimate-backdoor ----------------------------------------------------

COVARIATES = 5  # binary covariates per graph; each full-support joint has 2**7 cells
CHAINED = 2  # covariates with an edge from the previous covariate
BACKDOOR_GRAPHS = 8


def backdoor_inputs(seed: int, scratch: Path) -> dict:
    rng = _rng("estimate-backdoor", seed)
    graphs = []
    zs = [f"z{i}" for i in range(COVARIATES)]
    order = zs + ["x", "y"]
    for _ in range(BACKDOOR_GRAPHS):
        chained = set(rng.sample(range(1, COVARIATES), CHAINED))
        parents = {z: ([zs[i - 1]] if i in chained else []) for i, z in enumerate(zs)}
        parents["x"] = list(zs)
        parents["y"] = ["x"] + zs
        cpt = {
            v: {
                key: rng.uniform(0.1, 0.9)
                for key in itertools.product((0, 1), repeat=len(parents[v]))
            }
            for v in order
        }
        joint = ref.bn_joint(order, parents, cpt)
        weights = [(dict(zip(order, key)), w) for key, w in joint.items()]
        queries = []
        for kind in ("table", "table", "event", "given"):
            x = rng.randrange(2)
            given = {rng.choice(zs): rng.randrange(2)} if kind == "given" else {}
            truth = ref.interventional(order, parents, cpt, "y", {"x": x}, given)
            y = rng.randrange(2) if kind == "event" else None
            queries.append({"kind": kind, "x": x, "given": given, "y": y, "truth": truth})
        graphs.append({"parents": parents, "weights": weights, "queries": queries})
    return {"graphs": graphs}


def backdoor_build(wt, inputs: dict) -> list:
    state = []
    for g in inputs["graphs"]:
        model = wt.make_model(g["parents"])
        dist = wt.CategoricalDistribution.from_weights(g["weights"])
        queries = []
        for q in g["queries"]:
            effect = {"y": q["y"]} if q["kind"] == "event" else ["y"]
            queries.append(wt.make_query(effect, {"x": q["x"]}, q["given"] or None))
        state.append((model, dist, queries))
    return state


def backdoor_operations(wt, state: list, inputs: dict) -> list[Operation]:
    ops = []
    for gi, ((model, dist, queries), g) in enumerate(zip(state, inputs["graphs"])):
        for qi, (query, q) in enumerate(zip(queries, g["queries"])):
            ops.append(
                Operation(
                    f"g{gi}q{qi}-{q['kind']}",
                    lambda m=model, d=dist, qq=query: wt.infer(m, d, qq),
                    lambda ans, first, q=q: _check_backdoor(ans, q),
                )
            )
    return ops


def _check_backdoor(answer, q: dict) -> None:
    """Within 1e-9 of P(y | do(x), given) enumerated from the seeded tables."""
    truth = q["truth"]
    if q["kind"] == "event":
        ref.close(answer, truth[q["y"]], 1e-9, "event probability")
        return
    require(hasattr(answer, "measure"), f"expected a distribution, got {answer!r}")
    require(tuple(answer.variables) == ("y",), f"table over {answer.variables}")
    for val in (0, 1):
        ref.close(answer.measure({"y": val}), truth[val], 1e-9, f"P(y={val})")


# --- identify-semimarkov --------------------------------------------------

RANDOM_GRAPHS = 96  # one query each; sizes spread evenly over SIZES
SIZES = (24, 80)
WINDOW = 6  # parents are drawn from the previous WINDOW vertices
IN_DEGREE = 2
CONFOUNDED_EVERY = 4  # one bidirected edge per block of this many vertices
CONFOUNDING_SPAN = 3  # ...joining vertices at most this far apart
FRONT_DOOR = range(1, 17)  # mediators of the planted front-door chains
BOWS = 16  # planted bow arcs x -> y, x <-> y
SMALL_GRAPHS = 24  # enumerable instances of the same generator, for verify


def semimarkov_graph(rng: random.Random, n: int):
    """A random DAG in topological order v0..v{n-1} with local confounding."""
    names = [f"v{i}" for i in range(n)]
    dag = {}
    for i, v in enumerate(names):
        window = range(max(0, i - WINDOW), i)
        dag[v] = [names[j] for j in sorted(rng.sample(window, min(IN_DEGREE, len(window))))]
    pairs = []
    for block in range(0, n, CONFOUNDED_EVERY):
        i = rng.randrange(block, min(n, block + CONFOUNDED_EVERY))
        j = i + rng.randint(1, CONFOUNDING_SPAN)
        if j < n:
            pairs.append((names[i], names[j]))
    return names, dag, pairs


def semimarkov_query(rng: random.Random, names, dag, pairs, index: int):
    """Effect near the sink end, 1-3 do-variables among its unconfounded
    ancestors; every fourth query hides a tenth of the vertices that do not
    reach a do-variable.

    A do-variable outside every confounding set, which no hidden vertex
    reaches, is its own confounded component after latent projection, so
    the query is identifiable (Tian and Pearl 2002). Hedges come from the
    planted bow arcs, in a share that does not depend on the seed.
    """
    n = len(names)
    confounded = {v for pair in pairs for v in pair}
    candidates = []
    for window in range(max(1, n // 8), n + 1):  # widen until some effect qualifies
        candidates = [
            (y, anc) for y in names[n - window:]
            if (anc := sorted(ref.ancestors(dag, [y]) - {y} - confounded, key=names.index))
        ]
        if candidates:
            break
    else:
        return None
    y, anc = rng.choice(candidates)
    do = rng.sample(anc, min(1 + index % 3, len(anc)))
    hidden = []
    if index % 4 == 3:
        reach = ref.ancestors(dag, do)
        others = [v for v in names if v != y and v not in reach]
        hidden = rng.sample(others, min(len(others), max(1, n // 10)))
    return y, do, hidden


def _graph_with_query(rng: random.Random, n: int, index: int):
    while True:
        names, dag, pairs = semimarkov_graph(rng, n)
        query = semimarkov_query(rng, names, dag, pairs, index)
        if query is not None:
            return names, dag, pairs, query


def front_door_chain(k: int):
    names = ["x"] + [f"m{i}" for i in range(1, k + 1)] + ["y"]
    dag = {v: ([names[i - 1]] if i else []) for i, v in enumerate(names)}
    return names, dag, [("x", "y")]


def semimarkov_inputs(seed: int, scratch: Path) -> dict:
    rng = _rng("identify-semimarkov", seed)
    instances = []
    lo, hi = SIZES
    for g in range(RANDOM_GRAPHS):
        names, dag, pairs, (y, do, hidden) = _graph_with_query(
            rng, lo + (hi - lo) * g // (RANDOM_GRAPHS - 1), g)
        instances.append(dict(kind="random", names=names, dag=dag, pairs=pairs,
                              y=y, do=do, hidden=hidden))
    for k in FRONT_DOOR:
        names, dag, pairs = front_door_chain(k)
        instances.append(dict(kind="front-door", names=names, dag=dag, pairs=pairs,
                              y="y", do=["x"], hidden=[]))
    for b in range(BOWS):
        n = lo + (hi - lo) * b // (BOWS - 1)
        names, dag, pairs = semimarkov_graph(rng, n)
        y = names[rng.randrange(n // 2, n)]
        if not dag[y]:
            dag[y] = [names[names.index(y) - 1]]
        x = rng.choice(dag[y])
        instances.append(dict(kind="bow", names=names, dag=dag, pairs=pairs + [(x, y)],
                              y=y, do=[x], hidden=[]))
    for inst in instances:
        inst["renaming"] = _renaming(rng, inst["names"])
    return {"instances": instances, "small": _small_instances(seed)}


def _renaming(rng: random.Random, names) -> dict:
    labels = [f"r{i}" for i in range(len(names))]
    rng.shuffle(labels)
    return dict(zip(names, labels))


def _small_instances(seed: int) -> list:
    """Enumerable instances of the same generator, with binary SCMs over them."""
    rng = _rng("identify-semimarkov", seed, "small")
    out = []
    for i in range(SMALL_GRAPHS):
        if i < 2:
            names, dag, pairs = front_door_chain(i + 1)
            y, do, hidden = "y", ["x"], []
        else:
            names, dag, pairs, (y, do, hidden) = _graph_with_query(rng, 5 + i % 3, i)
        noise_p = {g: rng.uniform(0.2, 0.8) for g in [(v,) for v in names] + pairs}
        tables = {}
        for v in names:
            shared = sum(1 for p in pairs if v in p)
            tables[v] = {
                (pv, sv): rng.getrandbits(1)
                for pv in itertools.product((0, 1), repeat=len(dag[v]))
                for sv in itertools.product((0, 1), repeat=shared)
            }
        out.append(dict(names=names, dag=dag, pairs=pairs, y=y, do=do, hidden=hidden,
                        noise_p=noise_p, tables=tables))
    return out


def _problem(wt, inst: dict, rename=None):
    r = rename or {}
    name = lambda v: r.get(v, v)  # noqa: E731
    model = wt.make_model(
        {name(v): [name(p) for p in ps] for v, ps in inst["dag"].items()},
        [(name(a), name(b)) for a, b in inst["pairs"]],
    )
    data = wt.Data([name(v) for v in inst["names"] if v not in inst["hidden"]])
    query = wt.make_query([name(inst["y"])], [name(v) for v in inst["do"]])
    return model, data, query


def semimarkov_build(wt, inputs: dict) -> list:
    return [_problem(wt, inst) for inst in inputs["instances"]]


def semimarkov_operations(wt, state: list, inputs: dict) -> list[Operation]:
    identify = importlib.import_module("whittemore.identify")
    ops = []
    for i, ((model, data, query), inst) in enumerate(zip(state, inputs["instances"])):
        checker = _SemimarkovCheck(wt, identify, inst)
        ops.append(
            Operation(
                f"{inst['kind']}{i}-n{len(inst['names'])}",
                lambda m=model, d=data, q=query: identify.identify(m, d, q),
                checker,
            )
        )
    return ops


class _SemimarkovCheck:
    """Well-formedness, planted verdicts and invariance under renaming.

    On the first pass the renamed instance is identified too and its verdict
    kept; later passes compare against it.
    """

    def __init__(self, wt, identify_module, inst: dict):
        self.wt = wt
        self.identify = identify_module
        self.inst = inst
        self.renamed_verdict = None

    def __call__(self, answer, first: bool) -> None:
        inst = self.inst
        verdict = "formula" if type(answer).__name__ == "Formula" else "hedge"
        if inst["kind"] == "front-door":
            require(verdict == "formula", "front-door chain must be identifiable")
        if inst["kind"] == "bow":
            require(verdict == "hedge", "an embedded bow arc must not be identifiable")
        check_identify_answer(answer, inst)
        if first:
            renamed = self.identify.identify(*_problem(self.wt, inst, inst["renaming"]))
            back = {new: old for old, new in inst["renaming"].items()}
            self.renamed_verdict = check_identify_answer(renamed, inst, back)
        require(verdict == self.renamed_verdict,
                f"verdict {verdict} but {self.renamed_verdict} after renaming")


def check_identify_answer(answer, inst: dict, rename_back=None) -> str:
    """Structural checks of a formula or a hedge; returns the verdict."""
    back = rename_back or {}
    name = lambda v: back.get(str(v), str(v))  # noqa: E731
    signature = set(inst["names"]) - set(inst["hidden"])
    kind = type(answer).__name__
    if kind == "Formula":
        named = {name(v) for v in ref.form_variables(answer.form)}
        require(named <= signature, f"formula names {sorted(named - signature)} outside the data")
        free = {name(v) for v in ref.form_free(answer.form)}
        require(free <= {inst["y"], *inst["do"]}, f"formula has stray free variables {free}")
        require(inst["y"] in free, "formula does not mention the effect")
        return "formula"
    require(kind == "Fail", f"identify returned a {kind}")
    hedge = answer.hedge
    forest = {name(v) for v in hedge.forest.vertices}
    sub = {name(v) for v in hedge.subforest.vertices}
    witness = {name(v) for v in hedge.witness}
    require(sub < forest <= signature, "hedge forests are not nested inside the data")
    require(witness and witness <= sub, "hedge witness outside the subforest")
    for f in (hedge.forest, hedge.subforest):
        pairs = [tuple(name(v) for v in p) for p in f.bidirected_pairs()]
        vertices = {name(v) for v in f.vertices}
        require(len(vertices) == 1 or ref.connected_by_pairs(vertices, pairs),
                "hedge forest is not one confounded component")
    dag = {name(v): [name(p) for p in hedge.forest.parents(v)] for v in hedge.forest.vertices}
    require(ref.ancestors(dag, witness) == forest, "hedge forest has vertices off the witness' ancestry")
    return "hedge"


def semimarkov_verify(wt, inputs: dict) -> None:
    """Formulas on enumerable instances equal the interventional distribution."""
    formulas = 0
    for inst in inputs["small"]:
        model, data, query = _problem(wt, inst)
        answer = wt.identify(model, data, query)
        if check_identify_answer(answer, inst) == "hedge":
            continue
        formulas += 1
        names, dag, pairs = inst["names"], inst["dag"], inst["pairs"]
        observed = ref.scm_joint(names, dag, pairs, inst["noise_p"], inst["tables"])
        for xs in itertools.product((0, 1), repeat=len(inst["do"])):
            do = dict(zip(inst["do"], xs))
            mutilated = ref.scm_joint(names, dag, pairs, inst["noise_p"], inst["tables"], do)
            for yv in (0, 1):
                want = ref.marginal(mutilated, names, {inst["y"]: yv})
                env = {**do, inst["y"]: yv}
                got = ref.evaluate_form(answer.form, env, observed, names)
                ref.close(got, want, 1e-9, f"small instance {names} P({inst['y']}|do {do})")
    require(formulas >= SMALL_GRAPHS // 2, f"only {formulas} small instances identifiable")


# --- script-ingest --------------------------------------------------------

INGEST_ROWS = 20_000
INGEST_LEVELS = {"a": 3, "b": 2, "c": 3, "d": 2}
INGEST_PARENTS = {"a": [], "b": ["a"], "c": ["a", "b"], "d": ["a", "b", "c"]}
KIDNEY = (  # published figures: two conditionals, then two adjusted effects
    ("(estimate kidney (q {:success \"yes\"} :given {:treatment \"surgery\"}))", "0.780"),
    ("(estimate kidney (q {:success \"yes\"} :given {:treatment \"nephrolithotomy\"}))", "0.826"),
    ("(infer charig kidney (q {:success \"yes\"} :do {:treatment \"surgery\"}))", "0.8325"),
    ("(infer charig kidney (q {:success \"yes\"} :do {:treatment \"nephrolithotomy\"}))", "0.7789"),
)


def ingest_inputs(seed: int, scratch: Path) -> dict:
    """A CSV from a complete DAG over a..d with string cells, and a script.

    Every cell of the joint appears at least once, so no conditional the
    script asks for has an empty stratum.
    """
    rng = _rng("script-ingest", seed)
    columns = list(INGEST_LEVELS)
    levels = {v: [f"{v}{i}" for i in range(k)] for v, k in INGEST_LEVELS.items()}
    cpt = {}
    for v in columns:
        for pv in itertools.product(*(levels[p] for p in INGEST_PARENTS[v])):
            w = [rng.uniform(0.15, 1.0) for _ in levels[v]]
            cpt[(v, pv)] = [x / sum(w) for x in w]
    rows = [list(cell) for cell in itertools.product(*(levels[v] for v in columns))]
    while len(rows) < INGEST_ROWS:
        row: dict[str, str] = {}
        for v in columns:
            pv = tuple(row[p] for p in INGEST_PARENTS[v])
            row[v] = rng.choices(levels[v], cpt[(v, pv)])[0]
        rows.append([row[v] for v in columns])
    rng.shuffle(rows)
    scratch.mkdir(parents=True, exist_ok=True)
    csv_path = scratch / f"ingest-{seed}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)

    counts = ref.row_counts(rows, columns)
    pick = lambda v: rng.choice(levels[v])  # noqa: E731
    a, b, c, c2, d = pick("a"), pick("b"), pick("c"), pick("c"), pick("d")
    # (expression, expected printed value(s)); a dict is a marginal table
    expected = [
        (f'(estimate dist (q {{:d "{d}"}} :given {{:c "{c}"}}))',
         ref.count_prob(counts, columns, {"d": d}, {"c": c})),
        (f'(estimate dist (q {{:d "{d}"}} :given {{:a "{a}" :b "{b}"}}))',
         ref.count_prob(counts, columns, {"d": d}, {"a": a, "b": b})),
        (f'(measure dist {{:a "{a}" :c "{c2}"}})',
         ref.count_prob(counts, columns, {"a": a, "c": c2})),
        (f'(infer g dist (q {{:d "{d}"}} :do {{:c "{c2}"}}))',
         ref.adjusted(counts, columns, levels, {"d": d}, {"c": c2}, ["a", "b"])),
        (f'(marginal-table (infer g dist (q [:d] :do {{:b "{b}"}})) :d)',
         {dv: ref.adjusted(counts, columns, levels, {"d": dv}, {"b": b}, ["a"])
          for dv in levels["d"]}),
        (f'(marginal-table (estimate dist (q [:c] :given {{:a "{a}"}})) :c)',
         {cv: ref.count_prob(counts, columns, {"c": cv}, {"a": a}) for cv in levels["c"]}),
        ("(marginal-table dist :a)",
         {av: ref.count_prob(counts, columns, {"a": av}) for av in levels["a"]}),
    ]
    kidney_csv = Path(__file__).resolve().parent.parent / "data" / "renal-calculi.csv"
    dag = " ".join(f":{v} [{' '.join(':' + p for p in ps)}]" for v, ps in INGEST_PARENTS.items())
    script = [
        f'(define dist (categorical (read-csv "{csv_path.as_posix()}")))',
        f"(define g (model {{{dag}}}))",
        *(expr for expr, _ in expected),
        f'(define kidney (categorical (read-csv "{kidney_csv.as_posix()}")))',
        "(define charig (model {:size [] :treatment [:size] :success [:treatment :size]}))",
        *(expr for expr, _ in KIDNEY),
    ]
    script_path = scratch / f"ingest-{seed}.wt"
    script_path.write_text("\n".join(script) + "\n", encoding="utf-8")
    return {
        "script": str(script_path),
        "files": [csv_path, script_path],
        "expected": [value for _, value in expected],
        "kidney": [published for _, published in KIDNEY],
    }


def ingest_build(wt, inputs: dict) -> None:
    return None  # every operation reads, builds and evaluates from scratch


def ingest_operations(wt, state, inputs: dict) -> list[Operation]:
    cli = importlib.import_module("whittemore.cli")

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["run", inputs["script"]])
        return code, out.getvalue()

    return [Operation("script", run, lambda ans, first: check_ingest_output(ans, inputs))]


def check_ingest_output(answer, inputs: dict) -> None:
    """Parse what `whittemore run` printed and compare with the row counts."""
    code, text = answer
    require(code == 0, f"whittemore run exited with {code}")
    lines = text.splitlines()
    require(len(lines) >= 2 and lines[0].startswith("#categorical[") and lines[1].startswith("(model"),
            "script did not print its distribution and model first")
    pos = 2
    for want in inputs["expected"]:
        if isinstance(want, dict):
            for level in sorted(want):
                require(pos < len(lines), "output ends early")
                label, value, *_ = lines[pos].split()
                require(label == level, f"table row {lines[pos]!r}, expected level {level}")
                ref.close(float(value), float(want[level]), 1e-9, f"table row {level}")
                pos += 1
        else:
            require(pos < len(lines), "output ends early")
            ref.close(float(lines[pos]), float(want), 1e-9, f"line {pos + 1}")
            pos += 1
    require(lines[pos:pos + 2] and lines[pos].startswith("#categorical["), "kidney distribution missing")
    pos += 2
    published = inputs["kidney"]
    require(len(lines) == pos + len(published), "unexpected trailing output")
    for line, figure in zip(lines[pos:], published):
        decimals = len(figure.split(".")[1])
        ref.close(float(line), float(figure), 0.5 * 10 ** -decimals + 1e-12, "kidney-stone figure")


def nothing_to_verify(wt, inputs: dict) -> None:
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable
    build: Callable
    operations: Callable
    verify: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("estimate-backdoor", backdoor_inputs, backdoor_build,
                 backdoor_operations, nothing_to_verify),
        Workload("identify-semimarkov", semimarkov_inputs, semimarkov_build,
                 semimarkov_operations, semimarkov_verify),
        Workload("script-ingest", ingest_inputs, ingest_build,
                 ingest_operations, nothing_to_verify),
    )
}
