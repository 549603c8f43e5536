"""The traced run: in-memory spans around each layer's public functions.

The spans are recorded from the benchmark's own files: :func:`install`
wraps each function listed in :data:`LAYERS` wherever a ``repro``
module binds it (a ``from x import f`` copy included) and puts the
originals back on exit.  A span is a row ``(name, start, end,
parent)``; a layer's self time is its spans' duration minus the part
their child spans cover.  The traced run executes with ``workers=1``,
so every span is in this process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span rows plus counters taken at the same layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str, after=None):
        """``fn`` recorded as span ``name``; ``after(tracer, out)``
        reads counters off the return value."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self, out)
            return out
        return traced

    # -- aggregation -----------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Per-span duration minus the duration of its direct children."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = dur.copy()
        parent = np.asarray(self.parent, dtype=np.int64)
        has = parent >= 0
        np.subtract.at(own, parent[has], dur[has])
        return own

    def ancestors(self, prefix: str) -> list[int]:
        """Per span, the nearest enclosing span (itself included) whose
        name starts with ``prefix`` (-1 when there is none)."""
        out = []
        for i, name in enumerate(self.names):
            p = self.parent[i]
            out.append(i if name.startswith(prefix)
                       else (out[p] if p >= 0 else -1))
        return out

    def table(self, within: str | None = None) -> dict[str, dict]:
        """``{span name: {count, total_s, self_s}}``, optionally only
        for spans inside the phase span named ``within``."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = self.self_times()
        phase = self.ancestors("phase.")
        rows: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            if within is not None and (
                    phase[i] < 0 or self.names[phase[i]] != within):
                continue
            row = rows.setdefault(name, {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += float(dur[i])
            row["self_s"] += float(own[i])
        return rows

    def to_dict(self) -> dict:
        """All spans, for the run's span file (times in seconds from
        the first span)."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [n, round(s - t0, 7), round(e - t0, 7), p]
                for n, s, e, p in zip(self.names, self.start, self.end,
                                      self.parent)
            ],
        }


# ----------------------------------------------------------------------
# Counters read off return values.
# ----------------------------------------------------------------------
def _count_build(tr: Tracer, workload) -> None:
    tr.counters["build.tasks"] += workload.n_tasks


def _count_kernel(tr: Tracer, result) -> None:
    tr.counters["kernel.tasks"] += int(np.size(result.wallclock))
    tr.counters["kernel.failures"] += float(np.sum(result.n_failures))
    tr.counters["kernel.truncated"] += float(np.sum(~result.completed))


def _count_des(tr: Tracer, res) -> None:
    c = tr.counters
    c["des.events"] += res.n_events
    c["des.peak_queue"] = max(c["des.peak_queue"], res.peak_queue_length)
    c["des.sim_makespan_s"] += res.makespan
    c["des.queue_wait_sim_s"] += sum(r.queue_wait for r in res.task_records)


def _count_get(tr: Tracer, record) -> None:
    tr.counters["store.get.hits"] += record is not None


def _count_put(tr: Tracer, path) -> None:
    tr.counters["store.bytes"] += path.stat().st_size


def _count_sweep(tr: Tracer, report) -> None:
    c = tr.counters
    c["sweep.workers_effective"] = max(c["sweep.workers_effective"],
                                       report["workers_effective"])


#: ``(module, attribute, span name, counter hook)``; a dotted attribute
#: is a method on a class of that module.
LAYERS = (
    ("repro.api", "run", "api.run", None),
    ("repro.spec", "RunSpec.spec_digest", "spec.digest", None),
    ("repro.verify.scenarios", "build_workload", "build", _count_build),
    ("repro.trace.synthesizer", "synthesize_trace", "build.trace_synth",
     None),
    ("repro.experiments.common", "flatten_trace", "replay.flatten", None),
    ("repro.trace.stats", "build_estimator", "replay.estimate", None),
    ("repro.experiments.common", "storage_costs", "replay.resolve", None),
    ("repro.verify.runner", "run_scalar", "kernel.scalar", _count_kernel),
    ("repro.core.simulate", "simulate_tasks_blocked", "kernel.vector",
     _count_kernel),
    ("repro.core.simulate", "simulate_tasks_replay", "kernel.replay",
     _count_kernel),
    ("repro.core.simulate", "simulate_tasks_scaled", "kernel.redraw",
     _count_kernel),
    ("repro.core.simulate", "SimulationResult.digest", "digest", None),
    ("repro.core.simulate", "SimulationResult.summary", "summary", None),
    ("repro.cluster.platform", "CloudPlatform.run_trace", "des", _count_des),
    ("repro.cluster.scheduler", "GreedyScheduler.acquire", "sched.acquire",
     None),
    ("repro.cluster.scheduler", "GreedyScheduler.release", "sched.release",
     None),
    ("repro.cluster.scheduler", "GreedyScheduler.notify_capacity_change",
     "sched.notify", None),
    ("repro.sim.engine", "Environment.run", "engine", None),
    ("repro.des.sharding", "plan_host_groups", "shard.plan", None),
    ("repro.des.sharding", "run_shard", "shard.run", None),
    ("repro.des.sharding", "run_des_sharded", "shard.des", None),
    ("repro.store", "ResultStore.get", "store.get", _count_get),
    ("repro.store", "ResultStore.put", "store.put", _count_put),
    ("repro.campaign", "run_campaign", "campaign.run", None),
    ("repro.campaign", "CampaignSpec.expand", "campaign.expand", None),
    ("repro.campaign", "build_report", "campaign.report", None),
    ("repro.parallel.sweep", "run_specs", "sweep.run_specs", _count_sweep),
)


#: ``(name, unit)`` of the per-layer metrics (``--trace 1``).
PER_LAYER = (
    ("build.s", "s"), ("build.us_per_task", "us"),
    ("build.trace_synth.s", "s"),
    ("kernel.scalar.s", "s"), ("kernel.vector.s", "s"),
    ("kernel.replay.s", "s"), ("kernel.redraw.s", "s"),
    ("kernel.tasks_per_s", "1/s"), ("kernel.failures", "count"),
    ("kernel.truncated_ratio", "ratio"),
    ("replay.trace.hits", "count"), ("replay.trace.misses", "count"),
    ("replay.flatten.s", "s"), ("replay.estimate.s", "s"),
    ("replay.resolve.s", "s"),
    ("des.s", "s"), ("des.events", "count"), ("des.events_per_s", "1/s"),
    ("des.peak_queue", "count"), ("des.sim_makespan_s", "s"),
    ("des.queue_wait_sim_s", "s"),
    ("sched.acquire.calls", "count"), ("sched.release.calls", "count"),
    ("sched.s", "s"), ("sched.share", "ratio"), ("engine.self_s", "s"),
    ("shard.n_shards", "count"), ("shard.plan.s", "s"),
    ("shard.run.s", "s"), ("shard.merge.s", "s"),
    ("store.get.calls", "count"), ("store.get.s", "s"),
    ("store.hit_ratio", "ratio"), ("store.put.calls", "count"),
    ("store.put.s", "s"), ("store.bytes", "bytes"),
    ("campaign.expand.s", "s"), ("sweep.run_specs.s", "s"),
    ("sweep.workers_effective", "count"), ("campaign.report.s", "s"),
    ("pool.start.s", "s"),
    ("digest.s", "s"), ("summary.s", "s"), ("api.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

_KERNELS = ("kernel.scalar", "kernel.vector", "kernel.replay",
            "kernel.redraw")
_SCHED = ("sched.acquire", "sched.release", "sched.notify")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def shards_per_des_op(tracer: Tracer) -> list[int]:
    """``shard.run`` spans under each ``api.run`` that ran the DES."""
    op_of = tracer.ancestors("api.run")
    shards: dict[int, int] = {}
    for i, name in enumerate(tracer.names):
        if name == "des" and op_of[i] >= 0:
            shards.setdefault(op_of[i], 0)
        if name == "shard.run" and op_of[i] >= 0:
            shards[op_of[i]] = shards.get(op_of[i], 0) + 1
    return list(shards.values())


def layer_metrics(tracer: Tracer, *, pool_start_s: float, trace_hits: int,
                  trace_misses: int, overhead: float):
    """``({name: (value, unit, samples)}, layer tables)`` over the
    traced pass; ``samples`` is the span count behind each number."""
    table = tracer.table()

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("count", 0)

    c = tracer.counters
    kernel_s = sum(own(k) for k in _KERNELS)
    sched_s = sum(total(k) for k in _SCHED)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    expand_s = sum(
        float(dur[i]) for i, name in enumerate(tracer.names)
        if name in ("campaign.expand", "spec.digest")
        and tracer.parent[i] >= 0
        and tracer.names[tracer.parent[i]] == "campaign.run")
    shards = shards_per_des_op(tracer)
    values = {
        "build.s": (total("build"), calls("build")),
        "build.us_per_task": (
            1e6 * _ratio(total("build"), c["build.tasks"]), calls("build")),
        "build.trace_synth.s": (total("build.trace_synth"),
                                calls("build.trace_synth")),
        **{f"{k}.s": (own(k), calls(k)) for k in _KERNELS},
        "kernel.tasks_per_s": (_ratio(c["kernel.tasks"], kernel_s),
                               sum(calls(k) for k in _KERNELS)),
        "kernel.failures": (c["kernel.failures"],
                            sum(calls(k) for k in _KERNELS)),
        "kernel.truncated_ratio": (
            _ratio(c["kernel.truncated"], c["kernel.tasks"]),
            sum(calls(k) for k in _KERNELS)),
        "replay.trace.hits": (float(trace_hits), 1),
        "replay.trace.misses": (float(trace_misses), 1),
        "replay.flatten.s": (total("replay.flatten"),
                             calls("replay.flatten")),
        "replay.estimate.s": (total("replay.estimate"),
                              calls("replay.estimate")),
        "replay.resolve.s": (total("replay.resolve"),
                             calls("replay.resolve")),
        "des.s": (total("des"), calls("des")),
        "des.events": (c["des.events"], calls("des")),
        "des.events_per_s": (_ratio(c["des.events"], total("des")),
                             calls("des")),
        "des.peak_queue": (c["des.peak_queue"], calls("des")),
        "des.sim_makespan_s": (c["des.sim_makespan_s"], calls("des")),
        "des.queue_wait_sim_s": (c["des.queue_wait_sim_s"], calls("des")),
        "sched.acquire.calls": (float(calls("sched.acquire")), 1),
        "sched.release.calls": (float(calls("sched.release")), 1),
        "sched.s": (sched_s, sum(calls(k) for k in _SCHED)),
        "sched.share": (_ratio(sched_s, total("api.run")),
                        calls("api.run")),
        "engine.self_s": (own("engine"), calls("engine")),
        "shard.n_shards": (
            float(np.mean(shards)) if shards else 0.0, len(shards)),
        "shard.plan.s": (total("shard.plan"), calls("shard.plan")),
        "shard.run.s": (total("shard.run"), calls("shard.run")),
        "shard.merge.s": (own("shard.des"), calls("shard.des")),
        "store.get.calls": (float(calls("store.get")), 1),
        "store.get.s": (total("store.get"), calls("store.get")),
        "store.hit_ratio": (_ratio(c["store.get.hits"], calls("store.get")),
                            calls("store.get")),
        "store.put.calls": (float(calls("store.put")), 1),
        "store.put.s": (total("store.put"), calls("store.put")),
        "store.bytes": (c["store.bytes"], calls("store.put")),
        "campaign.expand.s": (expand_s, calls("campaign.run")),
        "sweep.run_specs.s": (total("sweep.run_specs"),
                              calls("sweep.run_specs")),
        "sweep.workers_effective": (c["sweep.workers_effective"],
                                    calls("sweep.run_specs")),
        "campaign.report.s": (total("campaign.report"),
                              calls("campaign.report")),
        "pool.start.s": (pool_start_s, 1),
        "digest.s": (total("digest"), calls("digest")),
        "summary.s": (total("summary"), calls("summary")),
        "api.self_s": (own("api.run"), calls("api.run")),
        "trace.overhead_ratio": (overhead, 1),
    }
    metrics = {name: (float(values[name][0]), unit, values[name][1])
               for name, unit in PER_LAYER}
    layers = {phase: tracer.table(within=f"phase.{phase}")
              for phase in ("cold", "resume", "hits")}
    return metrics, layers


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to."""
    if span_name.startswith("kernel."):
        return span_name
    if span_name.startswith("build"):
        return "build"
    if span_name in ("digest", "summary"):
        return "metrics"
    return span_name.split(".")[0]


def largest_layer(tracer: Tracer, phase: str) -> tuple[str, float]:
    """The layer with the most self time in a phase, and its share."""
    by_layer: dict[str, float] = defaultdict(float)
    for name, row in tracer.table(within=f"phase.{phase}").items():
        if not name.startswith("phase."):
            by_layer[layer_of(name)] += row["self_s"]
    top = max(by_layer, key=by_layer.get)
    return top, by_layer[top] / sum(by_layer.values())


def dominance_checks(workload: str, tracer: Tracer) -> list[str]:
    """Each workload's stated dominant layer, as measured (reported,
    not counted as failures: they describe performance, not results)."""
    top, share = largest_layer(tracer, "cold")
    lines = [f"largest layer in the cold phase: {top} "
             f"({100 * share:.1f}% of self time)"]
    cold = tracer.table(within="phase.cold")
    op_wall = cold.get("api.run", {}).get("total_s", 0.0)
    if workload == "synthetic-build":
        build = cold.get("build", {}).get("total_s", 0.0)
        share = _ratio(build, op_wall)
        lines.append(f"build.s is {100 * share:.1f}% of op wall "
                     f"(>= 90%: {share >= 0.9})")
    elif workload == "des-contended":
        lines.append(f"sched is the largest layer: {top == 'sched'}")
    elif workload == "des-sharded":
        shards = shards_per_des_op(tracer)
        lines.append(f"shards per DES op {min(shards)}..{max(shards)} "
                     f"(> 1 on every op: {min(shards) > 1})")
    elif workload == "replay-campaign":
        lines.append(f"kernel.redraw is the largest layer: "
                     f"{top == 'kernel.redraw'}")
    return lines


def _policy_classes():
    """Every policy class that defines its own ``interval_counts``."""
    policies = importlib.import_module("repro.core.policies")
    return [cls for cls in vars(policies).values()
            if isinstance(cls, type) and "interval_counts" in vars(cls)]


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every function of :data:`LAYERS` for the enclosed block."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        for module_name, attr, name, after in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                patch(cls, meth, tracer.wrap(vars(cls)[meth], name, after))
                continue
            original = getattr(module, attr)
            traced = tracer.wrap(original, name, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "repro" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, key, traced)
        for cls in _policy_classes():
            patch(cls, "interval_counts",
                  tracer.wrap(vars(cls)["interval_counts"], "replay.resolve"))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
