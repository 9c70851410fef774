"""Property-based tests for the Chrome-trace encoder.

Random small :class:`~repro.obs.capture.RunCapture` runs with awkward
finite float64 values (subnormals, ``-0.0``, ``1e±300``, ``0.1+0.2``)
and random shed, span-cap and routing-replay settings.  For each, the
written trace file

* passes :func:`validate_chrome_trace` after a strict parse (``NaN`` /
  ``Infinity`` rejected);
* returns every exported capture timestamp bit-exactly;
* is the canonical ``json.dumps`` text of what it parses to, and equals
  :func:`chrome_trace` of the same tracer.
"""

import json
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, chrome_trace, validate_chrome_trace
from repro.obs.capture import TRIGGER_NAMES, RunCapture
from repro.obs.exporters import write_chrome_trace

AWKWARD = (5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, 1e300,
           -1e300, 1e-300, 0.1 + 0.2, 1.0, 123456.78901234567)

#: Finite values whose pairwise differences (the batch ``queue_wait_us``
#: arg) stay finite too.
timestamps = st.one_of(st.sampled_from(AWKWARD),
                       st.floats(min_value=-1e300, max_value=1e300))


@st.composite
def traced_runs(draw):
    """(tracer, max_query_spans) over a hand-filled capture."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    num_batches, num_queries = len(sizes), sum(sizes)

    def floats(count):
        return np.array(draw(st.lists(timestamps, min_size=count,
                                      max_size=count)), dtype=np.float64)

    batches = SimpleNamespace(
        open_us=floats(num_batches), sizes=np.array(sizes),
        triggers=draw(st.lists(st.sampled_from(range(len(TRIGGER_NAMES))),
                               min_size=num_batches,
                               max_size=num_batches)),
        columns=SimpleNamespace(
            query_id=np.array(draw(st.lists(
                st.integers(0, 2 ** 62), min_size=num_queries,
                max_size=num_queries))),
            arrival_us=floats(num_queries),
            deadline_us=floats(num_queries)))
    capture = RunCapture()
    capture.record(draw(st.sampled_from(["analytic", "event", "event-edf"])),
                   batches, ready_us=floats(num_batches),
                   service_us=floats(num_batches),
                   start_us=floats(num_batches),
                   complete_us=floats(num_batches),
                   latency_us=floats(num_queries),
                   num_servers=draw(st.integers(1, 3)),
                   approximate=draw(st.booleans()))
    tracer = Tracer(label=draw(st.one_of(st.none(), st.text(max_size=8))))
    tracer.record_run(capture, run_info=draw(st.dictionaries(
        st.text(max_size=6),
        st.one_of(st.integers(-5, 5), timestamps, st.text(max_size=6)),
        max_size=3)))
    num_shed = draw(st.integers(0, 4))
    if num_shed:
        tracer.record_shed(
            draw(st.lists(st.integers(0, 2 ** 62), min_size=num_shed,
                          max_size=num_shed)),
            floats(num_shed))
    if draw(st.booleans()):
        num_nodes = draw(st.integers(1, 4))
        tracer.record_assignments(
            draw(st.lists(st.lists(st.integers(0, num_nodes - 1),
                                   max_size=num_nodes),
                          min_size=num_batches, max_size=num_batches)),
            num_nodes)
    cap = draw(st.one_of(st.none(), st.integers(0, num_queries + 2)))
    return tracer, cap


def _reject_constant(token):
    raise ValueError("non-finite JSON constant %s" % token)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestChromeTraceEncoder:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(traced_runs())
    def test_written_trace_round_trips(self, tmp_path, case):
        tracer, cap = case
        path = write_chrome_trace(tracer, tmp_path / "trace.json",
                                  max_query_spans=cap)
        text = path.read_text()
        trace = json.loads(text, parse_constant=_reject_constant)
        validate_chrome_trace(trace)
        assert json.dumps(trace, allow_nan=False) == text
        assert chrome_trace(tracer, max_query_spans=cap) == trace

        capture = tracer.capture
        events = trace["traceEvents"]
        batches = [event for event in events if event["ph"] == "X"]
        assert _bits([event["ts"] for event in batches]) \
            == _bits(capture.batch_start_us)
        assert _bits([event["dur"] for event in batches]) \
            == _bits(capture.batch_service_us)
        assert _bits([event["args"]["queue_wait_us"] for event in batches]) \
            == _bits(capture.batch_start_us - capture.batch_ready_us)
        assert all(("nodes" in event["args"])
                   == (tracer.batch_nodes is not None) for event in batches)

        spans = tracer.query_spans()
        emitted = capture.num_queries if cap is None \
            else min(cap, capture.num_queries)
        assert trace["otherData"]["query_spans_emitted"] == emitted
        edges = np.stack([spans[key][:emitted] for key in
                          ("arrival_us", "formed_us", "formed_us",
                           "start_us", "start_us", "complete_us")], axis=1)
        span_events = [event for event in events
                       if event.get("cat") == "query"]
        assert _bits([event["ts"] for event in span_events]) \
            == _bits(edges.ravel())
        assert [event["id"] for event in span_events[::6]] \
            == ["q%d" % query_id for query_id in spans["query_id"][:emitted]]

        shed = [event for event in events if event["ph"] == "i"]
        assert _bits([event["ts"] for event in shed]) \
            == _bits(tracer.shed_arrival_us)
