"""In-memory spans around calls into ominsim's public functions, and the
per-layer metrics derived from them.

Only the benchmark records spans.  In a traced run it swaps selected public
functions, in the module namespaces that call them, for wrappers that record
a span (name, start, end, parent, op id) and, for some, counts taken from the
result.  The originals are put back when the traced phase ends.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "cli.run"


class Tracer:
    """Spans of one run.  Each span is [id, parent id, op id, name, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op: int | None = None
        self.counting = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None, self.op, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        """Counts are kept only while `counting` is set, i.e. on the core calls,
        so they repeat exactly from run to run of one seed."""
        if self.counting:
            self.counts[name] += value


def _count_graph(tracer: Tracer, args, graph) -> None:
    m = graph.vertex_count
    tracer.count("conflict.edges", len(graph.edges))
    tracer.count("conflict.link_edges", sum(1 for e in graph.edges if e.has_link_conflict))
    tracer.count("conflict.pairs", m * (m - 1) // 2)


# (module, attribute, span name, counter): the public functions the CLI and
# the schedulers call, wrapped where they are looked up.
PROBES = (
    ("cli", "build_network", "topology.build", None),
    ("cli", "parse_permutation", "routing.parse", None),
    ("cli", "monte_carlo", "analysis.monte_carlo", None),
    ("cli", "schedule_greedy", "scheduler.greedy",
     lambda tracer, args, s: tracer.count("scheduler.passes", len(s.passes))),
    ("cli", "validate_schedule", "scheduler.validate", None),
    ("cli", "schedule_json", "scheduler.json", None),
    ("scheduler", "build_conflict_graph", "conflict.graph", _count_graph),
)


def _wrap(tracer: Tracer, function, name: str, counter):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return traced


@contextmanager
def instrumented(tracer: Tracer, om):
    """Install the PROBES wrappers on the modules in `om`; restore on exit.
    A probe whose function no longer exists is skipped."""
    saved = []
    try:
        for module_name, attr, name, counter in PROBES:
            module = getattr(om, module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, _wrap(tracer, original, name, counter))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Per-layer metric names and units, in print order.
TIMES = (
    "topology.build_s", "streams.sample_s", "routing.parse_s", "routing.trace_s", "conflict.graph_s",
    "scheduler.greedy_s", "scheduler.greedy_self_s", "scheduler.validate_s", "scheduler.json_s",
    "analysis.allow_s", "analysis.budget_s", "analysis.monte_carlo_s", "cli.other_s",
)
COUNTS = (
    "conflict.edges", "conflict.link_edges", "scheduler.passes", "scheduler.violations",
    "analysis.offered", "analysis.matured.allow", "analysis.matured.budget1", "analysis.matured.free",
    "analysis.drops.link", "analysis.drops.budget",
)
RATIOS = ("conflict.edge_density", "analysis.passability.free", "trace.overhead_frac")
UNITS = {**dict.fromkeys(TIMES, "s"), **dict.fromkeys(COUNTS, "count"), **dict.fromkeys(RATIOS, "ratio")}


def layer_metrics(tracer: Tracer, ops: int, overhead: float) -> dict[str, float]:
    """Times are seconds per traced op; counts are totals over the core
    calls; ratios are taken from those counts."""
    total: defaultdict[str, float] = defaultdict(float)
    child_time: defaultdict[int, float] = defaultdict(float)
    for sid, parent, op, name, start, end in tracer.spans:
        total[name] += end - start
        if parent is not None:
            child_time[parent] += end - start
    self_time: defaultdict[str, float] = defaultdict(float)
    for sid, parent, op, name, start, end in tracer.spans:
        self_time[name] += end - start - child_time[sid]

    per_op = {name: value / max(ops, 1) for name, value in total.items()}
    c = tracer.counts
    metrics = {
        "topology.build_s": per_op.get("topology.build", 0.0),
        "streams.sample_s": per_op.get("streams.sample", 0.0),
        "routing.parse_s": per_op.get("routing.parse", 0.0),
        "routing.trace_s": per_op.get("routing.trace", 0.0),
        "conflict.graph_s": per_op.get("conflict.graph", 0.0),
        "scheduler.greedy_s": per_op.get("scheduler.greedy", 0.0),
        "scheduler.greedy_self_s": self_time["scheduler.greedy"] / max(ops, 1),
        "scheduler.validate_s": per_op.get("scheduler.validate", 0.0),
        "scheduler.json_s": per_op.get("scheduler.json", 0.0),
        "analysis.allow_s": per_op.get("analysis.allow", 0.0),
        "analysis.budget_s": per_op.get("analysis.chain", 0.0) - per_op.get("analysis.allow", 0.0),
        "analysis.monte_carlo_s": per_op.get("analysis.monte_carlo", 0.0),
        "cli.other_s": self_time[ROOT] / max(ops, 1),
        "analysis.drops.link": c["analysis.offered"] - c["analysis.matured.allow"],
        "analysis.drops.budget": c["analysis.matured.allow"] - c["analysis.matured.free"],
        "conflict.edge_density": c["conflict.edges"] / c["conflict.pairs"] if c["conflict.pairs"] else 0.0,
        "analysis.passability.free": (
            c["analysis.matured.free"] / c["analysis.offered"] if c["analysis.offered"] else 0.0
        ),
        "trace.overhead_frac": overhead,
    }
    for name in COUNTS:
        metrics.setdefault(name, c[name])
    return {name: metrics[name] for name in UNITS}
