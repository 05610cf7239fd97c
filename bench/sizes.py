"""Reference figures across problem sizes, for the README of this directory.

    python3 bench/sizes.py

Prints a markdown table: backdoor `infer` with m = 2..8 binary covariates
on full-support joints, `identify` on front-door chains with k = 1..16
mediators, `from_samples` on 10k and 100k rows, and the wall time of
`whittemore run demo/simpson.wt` in a fresh interpreter. Each figure is the
median of a few repeats; nothing here is checked against a bound.
"""
from __future__ import annotations

import gc
import itertools
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import whittemore as wt  # noqa: E402

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def backdoor(m: int, rng: random.Random):
    zs = [f"z{i}" for i in range(m)]
    order = zs + ["x", "y"]
    parents = {z: [] for z in zs}
    parents["x"], parents["y"] = list(zs), ["x"] + zs
    cpt = {v: {k: rng.uniform(0.1, 0.9)
               for k in itertools.product((0, 1), repeat=len(parents[v]))}
           for v in order}
    joint = ref.bn_joint(order, parents, cpt)
    dist = wt.CategoricalDistribution.from_weights(
        [(dict(zip(order, key)), w) for key, w in joint.items()])
    truth = ref.interventional(order, parents, cpt, "y", {"x": 1}, {})
    return wt.make_model(parents), dist, wt.make_query(["y"], {"x": 1}), truth


def main() -> None:
    rng = random.Random("sizes")
    print("| case | size | median ms |\n| --- | --- | --- |")
    for m in range(2, 9):
        model, dist, query, truth = backdoor(m, rng)
        answer = wt.infer(model, dist, query)
        ref.close(answer.measure({"y": 1}), truth[1], 1e-9, "backdoor")
        ms = median_ms(lambda: wt.infer(model, dist, query), 5 if m < 7 else 1)
        print(f"| backdoor `infer`, full-support joint | m = {m} | {ms:.1f} |")
    for k in range(1, 17):
        names, dag, pairs = W.front_door_chain(k)
        model = wt.make_model(dag, pairs)
        query = wt.make_query(["y"], ["x"])
        ms = median_ms(lambda: wt.identify(model, query), 21)
        print(f"| front-door `identify` | k = {k} | {ms:.2f} |")
    for rows in (10_000, 100_000):
        samples = [{"a": f"a{rng.randrange(3)}", "b": f"b{rng.randrange(2)}",
                    "c": f"c{rng.randrange(3)}", "d": f"d{rng.randrange(2)}"}
                   for _ in range(rows)]
        ms = median_ms(lambda: wt.categorical(samples), 5)
        print(f"| `from_samples`, 4 string columns | {rows} rows | {ms:.1f} |")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, "-c", "from whittemore.cli import entry; entry()",
               "run", "demo/simpson.wt"]
    ms = median_ms(lambda: subprocess.run(command, cwd=ROOT, env=env, check=True,
                                          capture_output=True), 5)
    print(f"| `whittemore run demo/simpson.wt`, fresh interpreter | 700 rows | {ms:.1f} |")


if __name__ == "__main__":
    main()
