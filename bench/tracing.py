"""Spans and counts recorded around the program's public functions.

`Tracer.install` replaces each traced function in every `whittemore` module
that binds it, so a call is caught where the calling module looks the name
up (`whittemore.identify.subgraph`, `whittemore.interpreter.parse`, ...).
Methods and class methods of `CategoricalDistribution` are replaced on the
class. `uninstall` puts the originals back.

A span is (id, parent id, operation index, name, start, end); spans of one
operation share its index. Per-name totals (calls, inclusive and self time)
and counts are kept for every traced call; whole spans only while
`keep_spans` is set, so that memory stays bounded. A call made while a span
of the same name is open (recursion, or `display_value` through
`print_value`) is part of the outer span.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from reference import form_nodes

MODEL_FUNCTIONS = (
    "subgraph",
    "topological_order",
    "c_components",
    "d_separated",
    "ancestors",
    "latent_projection",
)


def _count_cells(counts, args, result=None):
    counts["distribution.cells_scanned"] += len(args[0]._cells)


def _count_nodes_in(counts, args, result=None):
    counts["simplify.nodes_in"] += form_nodes(args[0])


def _count_nodes_out(counts, args, result):
    counts["simplify.nodes_out"] += form_nodes(result)


def _count_rows_in(counts, args, result=None):
    rows = args[1]
    counts["distribution.build.rows"] += len(rows) if hasattr(rows, "__len__") else 0


def _count_cells_out(counts, args, result):
    counts["distribution.build.count"] += 1
    counts["distribution.cells"] += len(result._cells)


def _count_csv_rows(counts, args, result):
    counts["cli.read_csv.rows"] += len(result)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.keep_spans = False
        self.operation = -1
        self.spans: list[tuple] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, name, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    def take(self) -> "Tracer":
        """Move the totals and counts recorded so far into a new tracer."""
        taken = Tracer()
        taken.totals, taken.counts = self.totals, self.counts
        self.totals, self.counts = {}, Counter()
        return taken

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or any(frame[1] == name for frame in tracer._stack):
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer.counts, args)
            result = tracer._timed(name, fn, args, kwargs)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return traced

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack
        self._next_id += 1
        frame = [self._next_id, name, 0.0]
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            elapsed = end - start
            if stack:
                stack[-1][2] += elapsed
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += elapsed
            total[2] += elapsed - frame[2]
            if self.keep_spans:
                self.spans.append((frame[0], parent, self.operation, name, start, end))

    def run_operation(self, index: int, run):
        """Run the operation with this index under a root span, traced."""
        self.operation = index
        self.enabled = True
        try:
            return self._timed("operation", run, (), {})
        finally:
            self.enabled = False

    def install(self, wt) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "whittemore" or n.startswith("whittemore.")]
        model = sys.modules["whittemore.model"]
        targets = [(f"model.{fn}", getattr(model, fn), None, None) for fn in MODEL_FUNCTIONS]
        targets += [
            ("identify", sys.modules["whittemore.identify"].identify, None, None),
            ("simplify", sys.modules["whittemore.simplify"].simplify_form,
             _count_nodes_in, _count_nodes_out),
            ("distribution.evaluate", sys.modules["whittemore.distribution"].evaluate, None, None),
            ("distribution.infer", sys.modules["whittemore.distribution"].infer, None, None),
            ("cli.read_csv", sys.modules["whittemore.cli"].read_csv, None, _count_csv_rows),
            ("reader.parse", sys.modules["whittemore.reader"].parse, None, None),
            ("interpreter.eval", sys.modules["whittemore.interpreter"].eval_program, None, None),
            ("printer.display", sys.modules["whittemore.printer"].display_value, None, None),
        ]
        for name, fn, before, after in targets:
            wrapper = self.wrap(name, fn, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapper)
        cls = wt.CategoricalDistribution
        self._replace(cls, "measure", self.wrap("distribution.measure", cls.measure, _count_cells))
        self._replace(cls, "estimate", self.wrap("distribution.estimate", cls.estimate))
        for attr in ("from_samples", "from_weights", "from_counts"):
            fn = vars(cls)[attr].__func__
            wrapper = self.wrap("distribution.build", fn, _count_rows_in, _count_cells_out)
            self._replace(cls, attr, classmethod(wrapper))

    def _replace(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "span_fields": ["id", "parent", "operation", "name", "start", "end"],
                    "spans": self.spans,
                    "totals": {k: dict(zip(("calls", "seconds", "self_seconds"), v))
                               for k, v in sorted(self.totals.items())},
                    "counts": dict(sorted(self.counts.items())),
                },
                handle,
            )


# (metric, unit): how each is read from the totals and counts of the traced
# passes, per operation unless the name says otherwise
PER_LAYER = (
    ("distribution.measure.calls", "count"),
    ("distribution.cells_scanned", "count"),
    ("distribution.measure.ms", "ms"),
    ("distribution.evaluate.calls", "count"),
    ("distribution.evaluate.ms", "ms"),
    ("distribution.estimate.ms", "ms"),
    ("distribution.build.ms", "ms"),
    ("distribution.build.setup_ms", "ms"),
    ("distribution.build.rows_per_s", "1/s"),
    ("distribution.cells", "count"),
    ("cli.read_csv.ms", "ms"),
    ("cli.read_csv.rows_per_s", "1/s"),
    ("identify.calls", "count"),
    ("identify.ms", "ms"),
    ("model.subgraph.calls", "count"),
    ("model.subgraph.ms", "ms"),
    ("model.topological_order.calls", "count"),
    ("model.topological_order.ms", "ms"),
    ("model.c_components.calls", "count"),
    ("model.c_components.ms", "ms"),
    ("model.d_separated.calls", "count"),
    ("model.d_separated.ms", "ms"),
    ("model.ancestors.calls", "count"),
    ("model.latent_projection.calls", "count"),
    ("model.latent_projection.ms", "ms"),
    ("simplify.ms", "ms"),
    ("simplify.nodes_in", "count"),
    ("simplify.nodes_out", "count"),
    ("reader.parse.ms", "ms"),
    ("interpreter.eval.ms", "ms"),
    ("printer.display.ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def per_layer_metrics(passes: Tracer, setup: Tracer, operations: int, overhead_pct: float):
    """Per-layer metrics from the traced passes and one traced set-up.

    `.calls` and counts are per operation; `.ms` is self time per operation
    (time in the function minus time in traced functions it called).
    `distribution.build.setup_ms` is build time in one set-up; the build
    rate and `distribution.cells` (cells per distribution built) cover the
    set-up and the passes.
    """
    def total(tracer, name, i):
        return tracer.totals.get(name, (0, 0.0, 0.0))[i]

    build_s = total(passes, "distribution.build", 2) + total(setup, "distribution.build", 2)
    rows = passes.counts["distribution.build.rows"] + setup.counts["distribution.build.rows"]
    builds = passes.counts["distribution.build.count"] + setup.counts["distribution.build.count"]
    cells = passes.counts["distribution.cells"] + setup.counts["distribution.cells"]
    csv_s = total(passes, "cli.read_csv", 2)
    special = {
        "distribution.build.setup_ms": 1e3 * total(setup, "distribution.build", 2),
        "distribution.build.rows_per_s": rows / build_s if build_s else 0.0,
        "distribution.cells": cells / builds if builds else 0.0,
        "cli.read_csv.rows_per_s": passes.counts["cli.read_csv.rows"] / csv_s if csv_s else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in special:
            value = special[metric]
        elif metric.endswith(".calls"):
            value = total(passes, metric[: -len(".calls")], 0) / operations
        elif metric.endswith(".ms"):
            value = 1e3 * total(passes, metric[: -len(".ms")], 2) / operations
        else:
            value = passes.counts[metric] / operations
        out[metric] = {"value": value, "unit": unit}
    return out
