"""Traced-run recorder: spans around the library's public entry points.

:class:`SpanRecorder` monkeypatch-wraps functions and methods of
``repro`` from the outside.  Each call becomes a span ``(name, start,
end, parent, run id)`` kept in memory; a layer's ``busy_s`` is its self
time (span time minus the time of the spans it caused).  The recorder
only reads arguments and results after the wrapped call returns, so a
traced run produces byte-identical outputs, and :meth:`restore` puts
every wrapped attribute back.

:func:`install_layers` wraps the layer boundaries of the benchmark's
ledger; the per-layer metric names are listed in :data:`PER_LAYER`.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span store with self-time accounting."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.busy_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self._stack = []          # [span index, child seconds] per open span
        self._patches = []        # (owner, attribute, original)

    # -- spans --------------------------------------------------------- #
    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        end = time.perf_counter()
        index, child_s = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.busy_s[span[0]] += duration - child_s
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark's own code."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- patching ------------------------------------------------------ #
    def _wrapper(self, original, layer, hook):
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            recorder._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = recorder._close()
            if hook is not None:
                hook(recorder, args, result, duration)
            return result
        return traced

    def wrap_method(self, cls, attribute, layer, hook=None):
        """Wrap ``cls.attribute`` (a plain function in its ``__dict__``)."""
        original = cls.__dict__[attribute]
        if not callable(original) or isinstance(original, (staticmethod,
                                                           classmethod)):
            raise TypeError("%s.%s is not a plain method"
                            % (cls.__name__, attribute))
        setattr(cls, attribute, self._wrapper(original, layer, hook))
        self._patches.append((cls, attribute, original))

    def wrap_overrides(self, module_name, attribute, layer, hook=None):
        """Wrap ``attribute`` on every class of a module that defines it."""
        module = importlib.import_module(module_name)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module_name \
                    and attribute in value.__dict__:
                self.wrap_method(value, attribute, layer, hook)

    def wrap_function(self, module_name, attribute, layer, hook=None):
        """Wrap a module-level function and every ``repro`` module binding
        of it (``from x import f`` copies the reference)."""
        original = getattr(importlib.import_module(module_name), attribute)
        traced = self._wrapper(original, layer, hook)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    self._patches.append((module, key, original))

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path):
        """Write the spans once, as strict JSON."""
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, handle, allow_nan=False)


# --------------------------------------------------------------------- #
# Layer boundaries of the ledger                                         #
# --------------------------------------------------------------------- #
def _count(name, value_of):
    def hook(recorder, args, result, duration):
        recorder.counts[name] += value_of(args, result)
    return hook


def _baseline_hook(recorder, args, result, duration):
    recorder.counts["ddr4_baseline.sim_cycles"] += result.cycles
    recorder.counts["ddr4_baseline.requests"] += len(args[1])


def _packets_hook(recorder, args, result, duration):
    recorder.counts["packet_gen.packets"] += len(result)
    recorder.counts["packet_gen.insts"] += sum(len(packet)
                                               for packet in result)


def _simulator_hook(recorder, args, result, duration):
    recorder.counts["simulator.lookups"] += result.num_instructions
    stats = result.channel_stats
    recorder.counts["rank_cache.hits"] += stats["cache_hits"]
    recorder.counts["rank_cache.lookups"] += stats["cache_hits"] \
        + stats["cache_misses"]
    recorder.samples["simulator.call_ms"].append(duration * 1e3)


def _store_get_hook(recorder, args, result, duration):
    recorder.counts["service_store.gets"] += 1
    recorder.counts["service_store.hits"] += result is not None


def _len_arg(position):
    return lambda args, result: len(args[position])


def _trace_events(args, result):
    return len(result["traceEvents"])


def install_layers(recorder):
    """Wrap every layer boundary the per-layer ledger measures."""
    fn, ov = recorder.wrap_function, recorder.wrap_overrides
    # DDR4 host baseline and its memo.
    ov("repro.dram.system", "run_trace", "ddr4_baseline", _baseline_hook)
    fn("repro.perf.baseline_cache", "run_baseline_trace", "baseline_cache")
    # Cycle simulator.
    ov("repro.core.packet_generator", "packets_for_requests", "packet_gen",
       _packets_hook)
    ov("repro.core.hot_entry", "profile_requests", "hot_entry")
    ov("repro.core.scheduler", "schedule", "scheduler")
    ov("repro.core.memory_controller", "dispatch", "mc",
       _count("mc.packets", lambda args, result: len(result[1])))
    ov("repro.core.rank_nmp", "execute_instructions", "rank.object",
       _count("rank.object_insts", _len_arg(1)))
    ov("repro.core.rank_nmp", "execute_packed", "rank.packed",
       _count("rank.packed_insts", _len_arg(2)))
    ov("repro.core.simulator", "run_requests", "simulator", _simulator_hook)
    ov("repro.core.multi_channel", "run_requests", "multi_channel")
    ov("repro.systems.adapters", "run", "systems")
    ov("repro.core.backend", "run_service_jobs", "backend",
       _count("backend.jobs", _len_arg(2)))
    ov("repro.core.backend", "run_channels", "backend",
       _count("backend.jobs", _len_arg(2)))
    # Service-time resolution tiers.
    ov("repro.serving.cluster", "service_times_us", "service")
    ov("repro.perf.service_store", "get", "service_store.get",
       _store_get_hook)
    ov("repro.perf.service_store", "put_many", "service_store.put",
       _count("service_store.puts", _len_arg(2)))
    ov("repro.perf.service_model", "service_times_us", "service_model",
       _count("service_model.batches", _len_arg(2)))
    # Serving pipeline.
    fn("repro.serving.arrival", "queries_from_traces", "arrival",
       _count("arrival.queries", lambda args, result: len(result)))
    from repro.serving.query_columns import QueryStream
    recorder.wrap_method(QueryStream, "take", "arrival",
                         _count("arrival.queries",
                                lambda args, result: len(result)))
    ov("repro.serving.batcher", "form_batches", "batcher")
    ov("repro.serving.batcher", "form_batch_columns", "batcher")
    ov("repro.serving.sharding", "assign_requests", "sharding",
       _count("sharding.requests", _len_arg(1)))
    fn("repro.serving.sharding", "partition_by_assignment", "sharding")
    ov("repro.serving.slo", "assign_deadlines", "slo")
    ov("repro.serving.slo", "assign_deadlines_columns", "slo")
    fn("repro.serving.slo", "summarize_slo", "slo")
    fn("repro.serving.slo", "summarize_slo_arrays", "slo")
    fn("repro.serving.admission", "apply_admission", "admission")
    fn("repro.serving.event_kernels", "admission_mask", "admission")
    ov("repro.serving.cluster", "estimate_query_service_us",
       "admission.probe")
    fn("repro.serving.events", "simulate_batch_queue", "queue",
       _count("queue.batches", _len_arg(0)))
    ov("repro.serving.engine", "summarize", "report")
    ov("repro.serving.events", "summarize", "report")
    fn("repro.serving.queueing", "summarize_serving", "report")
    ov("repro.serving.cluster", "simulate", "cluster")
    # Observability.
    for method in ("record_run", "record_shed", "record_assignments"):
        ov("repro.obs.tracing", method, "obs.record")
    fn("repro.obs.metrics", "observe_finite", "obs.record")
    fn("repro.obs.exporters", "chrome_trace", "obs.export",
       _count("obs.trace_events", _trace_events))
    fn("repro.obs.exporters", "write_chrome_trace", "obs.export")
    fn("repro.obs.exporters", "write_metrics_json", "obs.export")
    ov("repro.obs.metrics", "snapshot", "obs.export")


#: Span layer -> ``busy_s`` metric name.
BUSY = {
    "ddr4_baseline": "ddr4_baseline.busy_s",
    "baseline_cache": "baseline_cache.busy_s",
    "packet_gen": "packet_gen.busy_s",
    "hot_entry": "hot_entry.busy_s",
    "scheduler": "scheduler.busy_s",
    "mc": "mc.dispatch_busy_s",
    "rank.object": "rank.object_busy_s",
    "rank.packed": "rank.packed_busy_s",
    "simulator": "simulator.busy_s",
    "multi_channel": "multi_channel.busy_s",
    "systems": "systems.busy_s",
    "backend": "backend.busy_s",
    "service": "service.busy_s",
    "service_store.get": "service_store.get_busy_s",
    "service_store.put": "service_store.put_busy_s",
    "service_model": "service_model.busy_s",
    "arrival": "arrival.busy_s",
    "batcher": "batcher.busy_s",
    "sharding": "sharding.busy_s",
    "slo": "slo.busy_s",
    "admission": "admission.busy_s",
    "admission.probe": "admission.probe_s",
    "queue": "queue.busy_s",
    "report": "report.busy_s",
    "cluster": "cluster.busy_s",
    "obs.record": "obs.record_busy_s",
    "obs.export": "obs.export_busy_s",
}

#: Counters reported as they are (summed over the traced run).
COUNTS = (
    "ddr4_baseline.sim_cycles", "ddr4_baseline.requests",
    "baseline_cache.hits", "baseline_cache.misses",
    "packet_gen.packets", "mc.packets",
    "rank.object_insts", "rank.packed_insts",
    "simulator.lookups", "backend.jobs",
    "service_cache.hits", "service_cache.misses",
    "service.dedup_hits", "service.exact_sims",
    "service_store.gets", "service_store.puts", "service_store.hits",
    "service_model.batches", "arrival.queries", "sharding.requests",
    "batcher.batches", "admission.offered", "queue.batches",
    "obs.trace_events", "obs.trace_bytes",
)

#: Every per-layer metric, in ledger order, with its unit.
PER_LAYER = (
    [(name, "s") for name in BUSY.values()]
    + [(name, "count") for name in COUNTS]
    + [("packet_gen.insts_per_packet", "insts"),
       ("rank.packed_share", "ratio"),
       ("rank_cache.hit_rate", "ratio"),
       ("simulator.calls", "count"),
       ("simulator.call_ms.p50", "ms"),
       ("simulator.call_ms.tail", "ms"),
       ("simulator.call_ms.tail_pct", "%"),
       ("backend.wait_s", "s"),
       ("service_cache.hit_ratio", "ratio"),
       ("service_model.calibrate_s", "s"),
       ("batcher.mean_size", "queries"),
       ("batcher.timeout_share", "ratio"),
       ("admission.admit_ratio", "ratio"),
       ("bench.traced_wall_s", "s"),
       ("bench.unattributed_s", "s"),
       ("bench.trace_overhead_s", "s")])


def tail(samples):
    """``(p50, tail value, tail percentile)``: the tail is the highest
    percentile with at least ten samples beyond it (the maximum when
    there are fewer than eleven samples)."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    count = len(ordered)
    middle = count // 2
    p50 = ordered[middle] if count % 2 \
        else 0.5 * (ordered[middle - 1] + ordered[middle])
    rank = max(count - 11, 0) if count > 10 else count - 1
    return p50, ordered[rank], 100.0 * (rank + 1) / count


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def ledger(recorder, wall_s, extra_counts):
    """Per-layer metric values of one traced run.

    ``wall_s`` is the traced timed section; ``extra_counts`` holds
    counters the workload read at layer boundaries (service-tier stats,
    report-level batching and admission figures).
    """
    counts = dict(recorder.counts)
    counts.update(extra_counts)
    values = {metric: recorder.busy_s.get(layer, 0.0)
              for layer, metric in BUSY.items()}
    values.update({name: float(counts.get(name, 0)) for name in COUNTS})
    p50, tail_ms, tail_pct = tail(recorder.samples["simulator.call_ms"])
    insts = counts.get("rank.object_insts", 0) \
        + counts.get("rank.packed_insts", 0)
    values.update({
        "packet_gen.insts_per_packet":
            ratio(counts.get("packet_gen.insts", 0),
                  counts.get("packet_gen.packets", 0)),
        "rank.packed_share": ratio(counts.get("rank.packed_insts", 0),
                                   insts),
        "rank_cache.hit_rate": ratio(counts.get("rank_cache.hits", 0),
                                     counts.get("rank_cache.lookups", 0)),
        "simulator.calls": float(recorder.calls.get("simulator", 0)),
        "simulator.call_ms.p50": p50,
        "simulator.call_ms.tail": tail_ms,
        "simulator.call_ms.tail_pct": tail_pct,
        # Serial backend: jobs run on the calling thread, nothing waits.
        "backend.wait_s": 0.0,
        "service_cache.hit_ratio": float(
            counts.get("service_cache.hit_ratio", 0.0)),
        "service_model.calibrate_s": float(
            counts.get("service_model.calibrate_s", 0.0)),
        "batcher.mean_size": float(counts.get("batcher.mean_size", 0.0)),
        "batcher.timeout_share": float(
            counts.get("batcher.timeout_share", 0.0)),
        "admission.admit_ratio": float(
            counts.get("admission.admit_ratio", 0.0)),
        "bench.traced_wall_s": wall_s,
        "bench.unattributed_s":
            wall_s - sum(recorder.busy_s.get(layer, 0.0)
                         for layer in BUSY),
    })
    return values
