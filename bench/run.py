"""Benchmark of whittemore: identify, estimate and script ingest.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program is imported from `src/` of
the checkout the script sits in. One process, one thread:

1. make the seeded inputs and their reference answers (untimed);
2. set up: a fresh `import whittemore` plus the models and distributions
   the operations reuse, repeated at the start and between blocks of step
   4; `setup_s` is the median;
3. check what no single operation covers, then one warm-up pass whose
   answers get the full checks;
4. whole passes over the fixed operation list until `--seconds` have gone by
   and at least MIN_SAMPLES operations have been timed, with a garbage
   collection before each operation and every answer checked untimed;
5. one more pass under tracemalloc for `peak_heap_mb`.

With `--trace 1` the blocks of step 4 alternate untraced and traced, and
step 5 is skipped; the per-layer metrics come from the traced blocks and
the spans go to `bench/out/trace-<workload>-<seed>.json`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Any failure to set up exits non-zero
without that line.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from reference import CheckFailed  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5  # at the start; one more after each block
MIN_SAMPLES = 100  # so that the p90 latency has at least ten samples beyond it
BLOCK_SECONDS = 2.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.blocks: list[float] = []  # operations per second of each block of passes

    def rate(self) -> float:
        """Median over blocks: a burst of load on the machine moves one block."""
        return statistics.median(self.blocks) if self.blocks else 0.0

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"operation {label} failed: {why}", file=sys.stderr)


def run_pass(ops, tally: Tally, first: bool = False, tracer: Tracer | None = None) -> None:
    for index, op in enumerate(ops):
        tally.attempted += 1
        gc.collect()
        try:
            start = time.perf_counter()
            answer = op.run() if tracer is None else tracer.run_operation(index, op.run)
            elapsed = time.perf_counter() - start
        except Exception:  # an operation that raises is counted, not fatal
            tally.fail(op.label, traceback.format_exc())
            continue
        try:
            op.check(answer, first)
        except CheckFailed as exc:
            tally.fail(op.label, str(exc))
            continue
        tally.latencies.append(elapsed)


def timed_passes(ops, seconds: float, tally: Tally, tracer: Tracer | None = None,
                 between_blocks=None, min_samples: int = MIN_SAMPLES) -> None:
    """Whole passes until `seconds` are up and `min_samples` were timed.

    Consecutive passes are grouped into blocks of at least BLOCK_SECONDS of
    operation time; the run ends on a block boundary. `between_blocks` is
    called, untimed, after each block.
    """
    start = time.perf_counter()
    block_start = len(tally.latencies)
    while True:
        run_pass(ops, tally, tracer=tracer)
        if tracer is not None:
            tracer.keep_spans = False  # whole spans for the first traced pass only
        block = tally.latencies[block_start:]
        if sum(block) >= BLOCK_SECONDS:
            tally.blocks.append(len(block) / sum(block))
            block_start = len(tally.latencies)
            if between_blocks is not None:
                between_blocks()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tally.failed or block_start == len(tally.latencies) >= min_samples):
            return


def _package_modules() -> list[str]:
    return [n for n in sys.modules if n == "whittemore" or n.startswith("whittemore.")]


def set_up(workload, inputs):
    """A fresh import of the package plus the workload's build, timed."""
    for name in _package_modules():
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    wt = importlib.import_module("whittemore")
    state = workload.build(wt, inputs)
    return wt, state, time.perf_counter() - start


class SetupTimer:
    """Set-up repeated at the start and between blocks of the timed passes,
    so that its median samples the machine over the whole run like the
    other metrics. Each repeat is thrown away and the modules that the
    operations use are put back."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.times = []
        self.wt, self.state, elapsed = set_up(workload, inputs)
        self.times.append(elapsed)
        self.modules = {n: sys.modules[n] for n in _package_modules()}
        if Path(self.wt.__file__).resolve().parent != ROOT / "src" / "whittemore":
            raise RuntimeError(f"imported whittemore from {self.wt.__file__}, not this checkout")
        for _ in range(SETUP_REPEATS - 1):
            self.repeat()

    def repeat(self) -> None:
        self.times.append(set_up(self.workload, self.inputs)[2])
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(self.modules)

    def median(self) -> float:
        return statistics.median(self.times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "whittemore" / "__init__.py").is_file():
        print(f"no whittemore sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, OUT)
    try:
        result = measure(workload, inputs, args)
    finally:
        for path in inputs.get("files", ()):
            path.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


def measure(workload, inputs, args) -> dict:
    setup = SetupTimer(workload, inputs)
    wt = setup.wt
    ops = workload.operations(wt, setup.state, inputs)
    workload.verify(wt, inputs)
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collections between operations

    tally = Tally()
    run_pass(ops, tally, first=True)
    if args.trace:
        return traced_run(wt, workload, inputs, ops, args, tally)

    timed = Tally()
    timed_passes(ops, args.seconds, timed, between_blocks=setup.repeat)
    tracemalloc.start()
    run_pass(ops, tally)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    lat = timed.latencies or [0.0, 0.0]  # every operation failed
    metrics = {
        "ops_per_s": (timed.rate(), "1/s"),
        "latency_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "latency_ms_p90": (1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
        "setup_s": (setup.median(), "s"),
        "peak_heap_mb": (peak / 1e6, "MB"),
    }
    return {
        "correct": tally.failed + timed.failed == 0,
        "attempted": tally.attempted + timed.attempted,
        "failed": tally.failed + timed.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(wt, workload, inputs, ops, args, tally: Tally) -> dict:
    """Blocks of passes alternate untraced and traced, so that drift in the
    machine's speed cancels out of the overhead."""
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    tracer.install(wt)
    try:
        tracer.enabled = True
        workload.build(wt, inputs)
        tracer.enabled = False
        setup = tracer.take()
        tracer.keep_spans = True
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            # no latency percentiles here, so one whole block at a time will do
            timed_passes(ops, 0, plain, min_samples=1)
            timed_passes(ops, 0, traced, tracer, min_samples=1)
    finally:
        tracer.uninstall()

    overhead = 100.0 * (plain.rate() / traced.rate() - 1.0) if traced.rate() else 0.0
    tracer.write(
        OUT / f"trace-{workload.name}-{args.seed}.json",
        {"workload": workload.name, "seed": args.seed,
         "operations": [op.label for op in ops], "traced_operations": traced.attempted},
    )
    failed = tally.failed + plain.failed + traced.failed
    return {
        "correct": failed == 0,
        "attempted": tally.attempted + plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": per_layer_metrics(tracer, setup, traced.attempted, overhead),
    }


if __name__ == "__main__":
    sys.exit(main())
