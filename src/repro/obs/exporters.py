"""Exporters: Chrome trace-event JSON, metrics JSON, terminal tables.

Three ways out of the observability layer:

* :func:`write_chrome_trace` -- the reconstructed timeline as Chrome
  trace-event JSON (the ``traceEvents`` format), loadable in Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing``.  Batches render as
  complete ("X") slices on one track per dispatch frontend, queries as
  async begin/end ("b"/"e") stage spans, the dispatch-queue depth and
  per-node activity as counter ("C") tracks, shed queries as instants.
* :func:`write_metrics_json` -- a :class:`~repro.obs.metrics
  .MetricsRegistry` snapshot as JSON, the input of ``python -m repro
  report``.
* :func:`format_metrics_table` / :func:`format_trace_summary` --
  plain-text tables for terminals; they *return* strings (library code
  never prints -- the ``obs-hygiene`` lint rule enforces exactly that).

Every trace goes through one encoder: :func:`write_chrome_trace`
streams the JSON text slice by slice straight from the capture arrays
(``.tolist()`` values turned to text by ``float.__repr__`` and
``int.__repr__``, exactly the text ``json`` emits), and
:func:`chrome_trace` is ``json.loads`` of that same text.  Anything caller-supplied (the label,
``run_info``, frontend names, node lists) goes through ``json.dumps``.
Every float is checked finite before the file is opened, so a
non-finite value raises ``ValueError`` and leaves no file behind.

Traces can be huge -- a million queries would emit six million span
events -- so the module-level exporters cap per-query span emission at
``max_query_spans`` (:data:`DEFAULT_MAX_QUERY_SPANS`), keep *all* batch
and counter events, and record the truncation in the trace metadata.
:meth:`Tracer.write_chrome_trace <repro.obs.tracing.Tracer
.write_chrome_trace>` and ``python -m repro serve --trace`` pass
``max_query_spans=None`` and write every span.  Validation against the
checked-in ``trace_schema.json`` uses the small JSON-schema subset
interpreter in :func:`validate_json` (no external dependency).
"""

import itertools
import json
from pathlib import Path

import numpy as np

from repro.obs.tracing import QUERY_STAGES

#: Default cap on per-query async span emission (3 events-pairs each)
#: of :func:`chrome_trace` and :func:`write_chrome_trace`; batch slices
#: and counter series are never capped.
DEFAULT_MAX_QUERY_SPANS = 20_000

#: Synthetic pids grouping the trace rows in the viewer.
_PID_FRONTENDS = 1
_PID_QUERIES = 2
_PID_CLUSTER = 3

#: Rows encoded per slice (one row is one event, six for a query's
#: stage spans), bounding the text held in memory at once.
_SLICE_ROWS = 1024

#: Value text by column dtype kind: ``float.__repr__`` and
#: ``int.__repr__`` are exactly what ``json`` emits; object columns
#: already hold ``json.dumps`` text.
_TEXT = {"f": float.__repr__, "i": int.__repr__}

_PROCESS_EVENT = ('{"name": "process_name", "ph": "M", "pid": %s, '
                  '"tid": 0, "args": {"name": %s}}')
_THREAD_EVENT = ('{"name": "thread_name", "ph": "M", "pid": '
                 + str(_PID_FRONTENDS)
                 + ', "tid": %s, "args": {"name": %s}}')
_BATCH_EVENT = ('{"name": "batch %s", "cat": "batch", "ph": "X", "pid": '
                + str(_PID_FRONTENDS)
                + ', "tid": %s, "ts": %s, "dur": %s, "args": {"size": %s, '
                '"trigger": %s, "queue_wait_us": %s%s}}')
_DEPTH_EVENT = ('{"name": "queue_depth", "cat": "queue", "ph": "C", '
                '"pid": ' + str(_PID_CLUSTER) + ', "tid": 0, "ts": %s, '
                '"args": {"waiting_batches": %s}}')
_NODE_EVENT = ('{"name": "node%d_active_batches", "cat": "nodes", '
               '"ph": "C", "pid": ' + str(_PID_CLUSTER)
               + ', "tid": 0, "ts": %%s, "args": {"batches": %%s}}')
_SPAN_EVENT = ('{"name": "%s", "cat": "query", "ph": "%s", "id": "q%%s", '
               '"pid": ' + str(_PID_QUERIES) + ', "tid": 0, "ts": %%s}')
#: A query's six stage-span events; ``(formed, start)`` bound two
#: stages each, so each row formats ``(id, ts)`` six times.
_QUERY_SPANS = ", ".join(_SPAN_EVENT % (stage, phase)
                         for stage in QUERY_STAGES for phase in "be")
_SHED_EVENT = ('{"name": "shed q%s", "cat": "admission", "ph": "i", '
               '"pid": ' + str(_PID_QUERIES) + ', "tid": 0, "ts": %s, '
               '"s": "p"}')


# --------------------------------------------------------------------- #
# Chrome trace-event export                                             #
# --------------------------------------------------------------------- #
def chrome_trace(tracer, max_query_spans=DEFAULT_MAX_QUERY_SPANS):
    """The tracer's timeline as a Chrome trace-event JSON object.

    ``json.loads`` of exactly the text :func:`write_chrome_trace`
    writes.  Timestamps are simulated microseconds, which is natively
    the Chrome ``ts`` unit -- the Perfetto timeline reads directly in
    sim time.
    """
    return json.loads("".join(_trace_text(tracer, max_query_spans)))


def write_chrome_trace(tracer, path,
                       max_query_spans=DEFAULT_MAX_QUERY_SPANS):
    """Stream the trace's JSON text to ``path``; returns the path.

    Raises ``ValueError`` for a non-finite value before ``path`` is
    opened, so a failed export leaves no partial file.
    """
    text = _trace_text(tracer, max_query_spans)
    path = Path(path)
    with path.open("w") as handle:
        handle.writelines(text)
    return path


def _trace_text(tracer, max_query_spans):
    """Validate the tracer's run, then iterate the trace's JSON text.

    Everything that can fail -- a missing run, a non-finite value, an
    unencodable ``run_info`` -- fails here, before the first chunk.
    """
    capture = tracer.capture
    if capture is None:
        raise ValueError("tracer holds no run; simulate with trace= "
                         "before exporting")
    num_spans = capture.num_queries if max_query_spans is None \
        else min(capture.num_queries, int(max_query_spans))
    sections = _event_sections(tracer, capture, num_spans)
    for _, columns in sections:
        for column in columns:
            _require_finite(column)
    metadata = dict(tracer.run_info)
    metadata.update({
        "engine": capture.engine,
        "approximate_timeline": capture.approximate,
        "num_queries": capture.num_queries,
        "num_batches": capture.num_batches,
        "query_spans_emitted": num_spans,
        "query_spans_truncated": num_spans < capture.num_queries,
        "query_spans_dropped": capture.num_queries - num_spans,
        "time_unit": "simulated microseconds",
    })
    if tracer.label is not None:
        metadata["label"] = tracer.label
    tail = '], "displayTimeUnit": "ms", "otherData": %s}' \
        % json.dumps(metadata, allow_nan=False)
    return itertools.chain(['{"traceEvents": ['], _encode(sections), [tail])


def _encode(sections):
    """The one trace encoder: ``", "``-joined event text, one slice
    of at most :data:`_SLICE_ROWS` rows at a time.

    A section is ``(template, columns)``; row ``i`` is ``template %
    tuple(text of column[i] for column in columns)``.  A column listed
    more than once is converted to text once per slice.
    """
    separator = ""
    for template, columns in sections:
        for low in range(0, len(columns[0]), _SLICE_ROWS):
            texts = {}
            for column in columns:
                if id(column) not in texts:
                    values = column[low:low + _SLICE_ROWS].tolist()
                    texts[id(column)] = values if column.dtype.kind == "O" \
                        else list(map(_TEXT[column.dtype.kind], values))
            rows = zip(*[texts[id(column)] for column in columns])
            yield separator + ", ".join(map(template.__mod__, rows))
            separator = ", "


def _event_sections(tracer, capture, num_spans):
    """Every event kind as a ``(template, columns)`` section, in the
    trace's event order: process and frontend names, batch slices, the
    queue-depth counter, per-node activity counters, per-query stage
    spans and shed instants."""
    num_lanes = capture.num_servers
    sections = [
        (_PROCESS_EVENT, [
            np.array([_PID_FRONTENDS, _PID_QUERIES, _PID_CLUSTER]),
            _json_texts(["dispatch frontends", "queries", "cluster"])]),
        (_THREAD_EVENT, [
            np.arange(num_lanes),
            _json_texts(["frontend %d" % lane
                         for lane in range(num_lanes)])]),
    ]
    batch_columns = [
        np.arange(capture.num_batches),
        tracer.frontend_assignments(),
        capture.batch_start_us,
        capture.batch_service_us,
        capture.batch_sizes,
        _json_texts(capture.batch_triggers),
        capture.batch_start_us - capture.batch_ready_us,
    ]
    if tracer.batch_nodes is None:
        batch_columns.append(np.full(capture.num_batches, "", dtype=object))
    else:
        nodes_args = {nodes: ', "nodes": %s' % json.dumps(list(nodes))
                      for nodes in dict.fromkeys(tracer.batch_nodes)}
        batch_columns.append(np.array(
            [nodes_args[nodes] for nodes in tracer.batch_nodes],
            dtype=object))
    sections.append((_BATCH_EVENT, batch_columns))
    sections.append((_DEPTH_EVENT, list(tracer.queue_depth_series())))
    if tracer.batch_nodes is not None:
        sections += _node_activity_sections(tracer, capture)
    spans = tracer.query_spans()
    ids, arrival, formed, start, complete = (
        spans[key][:num_spans] for key in
        ("query_id", "arrival_us", "formed_us", "start_us", "complete_us"))
    sections.append((_QUERY_SPANS, [ids, arrival, ids, formed,
                                    ids, formed, ids, start,
                                    ids, start, ids, complete]))
    sections.append((_SHED_EVENT, [tracer.shed_query_id,
                                   tracer.shed_arrival_us]))
    return sections


def _json_texts(values):
    """``json.dumps`` of each (hashable) value, as an object column."""
    texts = {value: json.dumps(value) for value in dict.fromkeys(values)}
    return np.array([texts[value] for value in values], dtype=object)


def _node_activity_sections(tracer, capture):
    """Counter track per node: batches in flight on that node."""
    fanout = [len(nodes) for nodes in tracer.batch_nodes]
    node_ids = np.fromiter((node for nodes in tracer.batch_nodes
                            for node in nodes), dtype=np.int64,
                           count=sum(fanout))
    on_node = np.zeros((capture.num_batches, tracer.num_nodes), dtype=bool)
    on_node[np.repeat(np.arange(capture.num_batches), fanout),
            node_ids] = True
    sections = []
    for node in range(tracer.num_nodes):
        mask = on_node[:, node]
        completes = capture.batch_complete_us[mask]
        starts = capture.batch_start_us[mask]
        times = np.concatenate([completes, starts])
        deltas = np.concatenate(
            [np.full(completes.size, -1, dtype=np.int64),
             np.ones(starts.size, dtype=np.int64)])
        order = np.argsort(times, kind="stable")
        sections.append((_NODE_EVENT % node,
                         [times[order], np.cumsum(deltas[order])]))
    return sections


def _require_finite(column):
    """The ``allow_nan=False`` contract, checked on a whole column."""
    if column.dtype.kind == "f" and not np.isfinite(column).all():
        raise ValueError("Out of range float values are not JSON "
                         "compliant: %r"
                         % column[~np.isfinite(column)][0].item())


# --------------------------------------------------------------------- #
# Metrics JSON + terminal tables                                        #
# --------------------------------------------------------------------- #
def write_metrics_json(registry_or_snapshot, path):
    """Write a metrics snapshot as indented strict JSON; returns the path.

    A non-finite value raises ``ValueError`` before ``path`` is opened,
    so a failed export leaves no file behind.
    """
    snapshot = registry_or_snapshot
    if hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()
    text = json.dumps(snapshot, indent=2, sort_keys=True, allow_nan=False)
    path = Path(path)
    path.write_text(text + "\n")
    return path


def format_metrics_table(snapshot):
    """A metrics snapshot as an aligned plain-text table (one string).

    The renderer behind ``python -m repro report``: counters and gauges
    one line each, histograms as count/mean/p50/p99/max rows, collected
    component stats as ``name.key = value`` lines.
    """
    lines = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    collected = snapshot.get("collected", {})
    scalar_rows = [(name, "%d" % value)
                   for name, value in sorted(counters.items())]
    scalar_rows += [(name, "%.6g" % value)
                    for name, value in sorted(gauges.items())]
    for group, stats in sorted(collected.items()):
        scalar_rows += [("%s.%s" % (group, key), "%.6g" % value
                         if isinstance(value, float) else str(value))
                        for key, value in sorted(stats.items())]
    if scalar_rows:
        width = max(len(name) for name, _ in scalar_rows)
        lines.append("-- counters / gauges / collected --")
        lines += ["%-*s  %s" % (width, name, value)
                  for name, value in scalar_rows]
    if histograms:
        lines.append("-- histograms --")
        header = "%-36s %10s %12s %12s %12s %12s" % (
            "name", "count", "mean", "p50", "p99", "max")
        lines.append(header)
        for name, stats in sorted(histograms.items()):
            lines.append("%-36s %10d %12.4g %12.4g %12.4g %12.4g" % (
                name, stats["count"], stats["mean"], stats["p50"],
                stats["p99"], stats["max"] if stats["max"] is not None
                else float("nan")))
    if not lines:
        lines.append("(empty metrics snapshot)")
    return "\n".join(lines)


def format_trace_summary(summary):
    """A tracer summary as a plain-text stage-attribution table."""
    lines = ["%s: %d queries, %d batches over %d frontend(s) [%s]"
             % (summary.get("label") or "trace", summary["num_queries"],
                summary["num_batches"], summary["num_servers"],
                summary["engine"])]
    lines.append("%-10s %12s %12s %12s %12s" % (
        "stage", "mean_us", "p50_us", "p99_us", "max_us"))
    for stage in QUERY_STAGES:
        stats = summary["stages"][stage]
        lines.append("%-10s %12.2f %12.2f %12.2f %12.2f" % (
            stage, stats["mean_us"], stats["p50_us"], stats["p99_us"],
            stats["max_us"]))
    if "max_queue_depth" in summary:
        lines.append("max queue depth: %d" % summary["max_queue_depth"])
    if summary["num_shed"]:
        lines.append("shed queries: %d" % summary["num_shed"])
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Schema validation (dependency-free JSON-schema subset)                #
# --------------------------------------------------------------------- #
_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
    "integer": lambda value: isinstance(value, int)
    and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
}


def validate_json(instance, schema, path="$"):
    """Validate ``instance`` against a JSON-schema *subset*.

    Supported keywords: ``type`` (scalar or list), ``required``,
    ``properties``, ``items``, ``enum``, ``anyOf``.  Raises
    ``ValueError`` naming the offending path -- enough schema to pin
    the trace format without a jsonschema dependency.
    """
    any_of = schema.get("anyOf")
    if any_of is not None:
        errors = []
        for option in any_of:
            try:
                validate_json(instance, option, path)
                return
            except ValueError as error:
                errors.append(str(error))
        raise ValueError("%s: no anyOf branch matched (%s)"
                         % (path, "; ".join(errors)))
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[kind](instance) for kind in allowed):
            raise ValueError("%s: expected %s, got %s"
                             % (path, "/".join(allowed),
                                type(instance).__name__))
    enum = schema.get("enum")
    if enum is not None and instance not in enum:
        raise ValueError("%s: %r not one of %s" % (path, instance, enum))
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise ValueError("%s: missing required key %r"
                                 % (path, key))
        properties = schema.get("properties", {})
        for key in sorted(properties):
            if key in instance:
                validate_json(instance[key], properties[key],
                              "%s.%s" % (path, key))
    if isinstance(instance, list):
        items = schema.get("items")
        if items is not None:
            for index, element in enumerate(instance):
                validate_json(element, items, "%s[%d]" % (path, index))


def load_trace_schema():
    """The checked-in Chrome-trace schema (``trace_schema.json``)."""
    schema_path = Path(__file__).with_name("trace_schema.json")
    with schema_path.open() as handle:
        return json.load(handle)


def validate_chrome_trace(trace):
    """Validate a :func:`chrome_trace` object against the schema."""
    validate_json(trace, load_trace_schema())
    return True
