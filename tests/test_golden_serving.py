"""Checked-in golden serving reports for object-list input.

``tests/golden/serving_reports.json`` pins the ``report.as_dict()``
digest of :meth:`ShardedServingCluster.simulate` over a fixed, shuffled
list of ``ServingQuery`` objects, across every engine (``analytic``,
``event``, ``event-edf``), four SLO/admission set-ups (none, a fixed
SLO with deadline shedding, a token bucket, hand-set deadlines on some
of the objects, and a custom :class:`AdmissionController` subclass that
runs the scalar fluid-backlog loop) and both service models (``exact`` and ``interp``), plus the
sha256 of written Chrome traces: the uncapped ``Tracer`` export of one
traced run, that run capped at 10 query spans and exported from a
tracer with no routing replay (batch args without ``nodes``), an
``analytic`` (approximate-timeline) run, a run that sheds nothing, and
a run above ``exporters.write_chrome_trace``'s default span cap.

The fixture was recorded when ``simulate`` still ran a separate object
pipeline; it now pins that object input converted once to columns
serves exactly the same reports.

Regenerate (only for a change that is *meant* to alter simulated
results) from the repository root::

    PYTHONPATH=src python tests/test_golden_serving.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.obs import Tracer, exporters
from repro.perf.service_model import InterpolatingServiceModel
from repro.serving import (
    BatchingFrontend,
    FixedSLOPolicy,
    MMPPArrivalProcess,
    ShardedServingCluster,
    queries_from_traces,
    query_columns_from_traces,
)
from repro.serving.admission import AdmissionController
from repro.traces import make_production_table_traces

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" \
    / "serving_reports.json"

NUM_QUERIES = 400
#: Above the 2-node cluster's capacity, so admission actually sheds.
RATE_QPS = 8_000_000.0
ENGINES = ("analytic", "event", "event-edf")
MODELS = ("exact", "interp")
SETUPS = ("none", "slo-deadline", "token-bucket", "hand-deadline",
          "custom")
#: Just above ``exporters.DEFAULT_MAX_QUERY_SPANS``, so the default-cap
#: export truncates.
DEFAULT_CAP_RUN_QUERIES = 20_500


class _ParityAdmission(AdmissionController):
    """Custom controller: admits while the predicted wait is short, and
    every fourth query regardless.  Not a built-in class, so the cluster
    runs its per-query fluid-backlog loop."""

    name = "parity"

    def admit(self, query, now_us, predicted_wait_us):
        return predicted_wait_us <= 2.0 * self._est_batch_us \
            or query.query_id % 4 == 0


def _traces():
    return make_production_table_traces(num_lookups_per_table=640,
                                        num_rows=4000, num_tables=4,
                                        seed=0)


def _queries(traces):
    """Fresh shuffled object queries (input order must not matter)."""
    queries = queries_from_traces(
        traces, NUM_QUERIES, MMPPArrivalProcess.from_mean(RATE_QPS, seed=3))
    order = np.random.default_rng(5).permutation(len(queries))
    return [queries[index] for index in order]


def _setup_kwargs(setup):
    if setup == "slo-deadline":
        return {"slo_policy": FixedSLOPolicy(9.0), "admission": "deadline"}
    if setup == "token-bucket":
        return {"admission": "token-bucket"}
    if setup == "hand-deadline":
        return {"admission": "deadline"}
    if setup == "custom":
        return {"slo_policy": 12.0, "admission": _ParityAdmission()}
    return {}


def _digest(report):
    text = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _case_key(*parts):
    return "-".join(str(part) for part in parts)


class _Runner:
    """One cluster and one interp model shared by every case (service
    times are pure functions of batch content, so sharing the caches
    changes no report)."""

    def __init__(self):
        self.traces = _traces()
        self.cluster = ShardedServingCluster(num_nodes=2,
                                             node_system="recnmp-opt",
                                             num_frontends=2)
        self.models = {"exact": "exact",
                       "interp": InterpolatingServiceModel(self.traces)}
        self.frontend = BatchingFrontend(max_queries=8, max_delay_us=100.0)

    def report(self, engine, setup, model, trace=None):
        queries = _queries(self.traces)
        if setup == "hand-deadline":
            for query in queries[::3]:
                query.deadline_us = query.arrival_us + 7.0
        return self.cluster.simulate(
            queries, frontend=self.frontend, engine=engine,
            service_model=self.models[model], trace=trace,
            **_setup_kwargs(setup))

    def case(self, engine, setup, model):
        report = self.report(engine, setup, model)
        return {"digest": _digest(report),
                "num_queries": report.num_queries,
                "num_shed": (report.extras.get("slo") or {}).get("num_shed")}

    def trace_sha256(self):
        return _written_sha256(self.golden_tracer().write_chrome_trace)

    def golden_tracer(self):
        tracer = Tracer(label="golden")
        self.report("event-edf", "slo-deadline", "interp", trace=tracer)
        return tracer

    def trace_sha256s(self):
        """Written-trace digests for the export paths ``trace-sha256``
        does not reach, keyed as in the fixture."""
        golden = self.golden_tracer()
        bare = Tracer(label="golden")
        bare.record_run(golden.capture, run_info=golden.run_info)
        bare.record_shed(golden.shed_query_id, golden.shed_arrival_us)
        analytic = Tracer(label="golden-analytic")
        self.report("analytic", "slo-deadline", "interp", trace=analytic)
        no_shed = Tracer(label="golden-no-shed")
        self.report("event", "none", "interp", trace=no_shed)
        assert no_shed.shed_query_id.size == 0
        capped = Tracer(label="golden-default-cap")
        self.cluster.simulate(
            query_columns_from_traces(
                self.traces, DEFAULT_CAP_RUN_QUERIES,
                MMPPArrivalProcess.from_mean(400_000.0, seed=3)),
            frontend=self.frontend, engine="event",
            service_model=self.models["interp"], trace=capped)

        def export(tracer, **kwargs):
            return lambda path: exporters.write_chrome_trace(
                tracer, path, **kwargs)

        return {
            "trace-sha256-capped": _written_sha256(
                export(golden, max_query_spans=10)),
            "trace-sha256-no-routing": _written_sha256(
                bare.write_chrome_trace),
            "trace-sha256-analytic": _written_sha256(
                analytic.write_chrome_trace),
            "trace-sha256-no-shed": _written_sha256(
                no_shed.write_chrome_trace),
            "trace-sha256-default-cap": _written_sha256(export(capped)),
        }

    def close(self):
        self.cluster.close()


def _written_sha256(write):
    """sha256 of the file ``write(path)`` produces."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "trace.json")
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def runner():
    runner = _Runner()
    yield runner
    runner.close()


def _load():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("engine", ENGINES)
def test_serving_report(runner, engine, setup, model):
    expected = _load()[_case_key(engine, setup, model)]
    assert runner.case(engine, setup, model) == expected


def test_chrome_trace_sha256(runner):
    assert runner.trace_sha256() == _load()["trace-sha256"]


def test_chrome_trace_export_paths_sha256(runner):
    expected = _load()
    for key, digest in runner.trace_sha256s().items():
        assert digest == expected[key], key


def regenerate():
    runner = _Runner()
    try:
        cases = {_case_key(engine, setup, model):
                 runner.case(engine, setup, model)
                 for engine in ENGINES for setup in SETUPS
                 for model in MODELS}
        cases["trace-sha256"] = runner.trace_sha256()
        cases.update(runner.trace_sha256s())
    finally:
        runner.close()
    lines = ["%s: %s" % (json.dumps(key),
                         json.dumps(cases[key], sort_keys=True,
                                    allow_nan=False))
             for key in sorted(cases)]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    regenerate()
