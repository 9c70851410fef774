"""Property-based tests for the serving pipeline.

Invariants of the columns pipeline -- the serving layer's one query
representation -- checked over generated streams rather than
hand-picked cases:

* the array batcher (:func:`form_batch_columns`) forms exactly the
  batches of a per-query reference loop of the two-trigger policy, and
  chunked formation with a carried open batch equals one-shot formation
  for every legal chunk size;
* the interpolating service model answers a
  :class:`~repro.serving.query_columns.BatchColumns`, a list of its
  :class:`~repro.serving.query_columns.ColumnBatch` views and one batch
  at a time with bitwise-equal times, after the same calibration
  sequence;
* a full :meth:`ShardedServingCluster.simulate` over random small
  configurations: every query's latency covers its batching delay plus
  its batch's service time, the measured utilisation never exceeds 1,
  tracing never changes the report, object input serves the same
  report as the same queries passed as columns, the dispatch-queue
  depth never goes negative and peaks at the reported
  ``max_queue_depth``, and an exact-model rerun over the service-time
  store the first run filled is byte-identical with no exact
  simulation.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.perf.service_model import InterpolatingServiceModel
from repro.serving import (
    BatchingFrontend,
    QueryColumns,
    ServingQuery,
    ShardedServingCluster,
    form_batch_columns,
    queries_from_traces,
)
from repro.traces import make_production_table_traces

NUM_TABLES = 2
TRACES = make_production_table_traces(num_lookups_per_table=400,
                                      num_rows=1000,
                                      num_tables=NUM_TABLES, seed=0)


@st.composite
def batching_cases(draw):
    """(arrivals, max_queries, max_delay_us): non-decreasing arrivals
    with ties and gaps of exactly ``max_delay_us``."""
    max_queries = draw(st.integers(1, 16))
    max_delay_us = draw(st.one_of(st.just(0.0), st.just(1e12),
                                  st.floats(0.0, 200.0),
                                  st.integers(1, 50).map(float)))
    gap = st.one_of(st.just(0.0), st.just(max_delay_us),
                    st.integers(0, 60).map(float),
                    st.floats(0.0, 500.0))
    gaps = draw(st.lists(gap, min_size=1, max_size=60))
    start = draw(st.floats(0.0, 1e6))
    return np.cumsum([start] + gaps), max_queries, max_delay_us


def _queries(arrivals):
    return [ServingQuery(query_id=index, arrival_us=float(arrival))
            for index, arrival in enumerate(arrivals)]


def _reference_batches(arrivals, max_queries, max_delay_us):
    """The two-trigger policy, one query at a time: ``(ids, open,
    formed, deadline-triggered)`` rows in dispatch order."""
    rows, members, open_us = [], [], None
    for arrival, query_id in sorted(
            (float(arrival), query_id)
            for query_id, arrival in enumerate(arrivals)):
        # A batch expires *at* open + max_delay: a query arriving then
        # opens the next batch.
        if members and arrival >= open_us + max_delay_us:
            rows.append((members, open_us, open_us + max_delay_us, 1))
            members = []
        if not members:
            open_us = arrival
        members.append(query_id)
        if len(members) >= max_queries:
            rows.append((members, open_us, arrival, 0))
            members = []
    if members:
        rows.append((members, open_us, open_us + max_delay_us, 1))
    return rows


def _batch_rows(batch_columns):
    """(query ids, open, formed, trigger) per batch, as plain values."""
    ids = batch_columns.columns.query_id.tolist()
    bounds = batch_columns.starts.tolist() + [len(ids)]
    return [(ids[start:stop], float(open_us), float(formed_us),
             int(trigger))
            for start, stop, open_us, formed_us, trigger in zip(
                bounds, bounds[1:], batch_columns.open_us,
                batch_columns.formed_us, batch_columns.triggers)]


class TestBatcherProperties:
    @settings(max_examples=200, deadline=None)
    @given(batching_cases())
    def test_columns_match_object_frontend(self, case):
        arrivals, max_queries, max_delay_us = case
        queries = _queries(arrivals)
        frontend = BatchingFrontend(max_queries=max_queries,
                                    max_delay_us=max_delay_us)
        formed, carry = form_batch_columns(
            QueryColumns.from_queries(queries), max_queries, max_delay_us)
        assert carry is None
        expected = _reference_batches(arrivals, max_queries, max_delay_us)
        assert _batch_rows(formed) == expected
        assert _batch_rows(frontend.form_batches(queries)) == expected

    @settings(max_examples=100, deadline=None)
    @given(batching_cases())
    def test_chunked_with_carry_matches_oneshot(self, case):
        arrivals, max_queries, max_delay_us = case
        columns = QueryColumns.from_queries(_queries(arrivals))
        oneshot, _ = form_batch_columns(columns, max_queries, max_delay_us)
        size = len(columns)
        for chunk in range(max_queries, max(size, max_queries) + 1):
            rows, carry = [], None
            for start in range(0, size, chunk):
                stop = min(start + chunk, size)
                piece = columns.slice(start, stop)
                if carry is not None:
                    piece = QueryColumns.concat([carry, piece])
                formed, carry = form_batch_columns(
                    piece, max_queries, max_delay_us, final=stop == size)
                rows += _batch_rows(formed)
            assert carry is None
            assert rows == _batch_rows(oneshot), chunk


class StubCluster:
    """Cluster stand-in: a deterministic service time per batch, with
    every calibration simulation recorded in call order."""

    def __init__(self):
        self.calls = []

    def service_time_us(self, batch):
        self.calls.append((batch.size, batch.total_poolings,
                           batch.total_lookups))
        return (3.0 + 0.25 * batch.total_poolings
                + 0.013 * batch.total_lookups + 0.7 * batch.num_requests)


#: Per-table (poolings, pooling factor) of one query population.
table_shape = st.tuples(st.integers(1, 4), st.integers(1, 12))


@st.composite
def service_cases(draw):
    """Mixed-shape query streams plus an interp model configuration."""
    populations = draw(st.lists(
        st.tuples(st.lists(table_shape, min_size=NUM_TABLES,
                           max_size=NUM_TABLES),
                  st.integers(1, 24)),
        min_size=1, max_size=3))
    queries = []
    for shapes, count in populations:
        arrivals = draw(st.lists(st.floats(0.0, 2000.0), min_size=count,
                                 max_size=count))
        queries += queries_from_traces(
            TRACES, count, arrivals,
            batch_size=[poolings for poolings, _ in shapes],
            pooling_factor=[factor for _, factor in shapes],
            start_id=len(queries))
    pooling_factors = draw(st.sampled_from(
        [None, (4,), (2, 8), (1, 6, 12)]))
    # The last grid point stays below most batches' total poolings, so
    # most answers extrapolate.
    batch_sizes = draw(st.sampled_from([(1, 2), (1, 2, 4), (1, 3, 8)]))
    return (queries, draw(st.integers(1, 16)), pooling_factors,
            batch_sizes)


def _expected_rows(batches, pooling_factors):
    """Grid rows in first-encounter order, shapes rounded with ``round``."""
    rows = []
    for batch in batches:
        poolings = max(round(batch.total_poolings / batch.num_requests), 1)
        factor = max(round(batch.total_lookups / batch.total_poolings), 1)
        wanted = [factor]
        if pooling_factors is not None:
            # Bracketing rows, clamped to the nearest row off the grid.
            below = [p for p in pooling_factors if p <= factor]
            above = [p for p in pooling_factors if p >= factor]
            wanted = sorted({below[-1] if below else above[0],
                             above[0] if above else below[-1]})
        for row in wanted:
            if (poolings, row) not in rows:
                rows.append((poolings, row))
    return rows


class TestServiceModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(service_cases())
    def test_paths_agree_bitwise(self, case):
        queries, max_queries, pooling_factors, batch_sizes = case
        columns = QueryColumns.from_queries(queries).sorted_by_arrival()
        batch_columns, _ = form_batch_columns(columns, max_queries, 50.0)
        paths = {
            "columns": lambda model, cluster: model.service_times_us(
                cluster, batch_columns),
            "list": lambda model, cluster: model.service_times_us(
                cluster, list(batch_columns)),
            "single": lambda model, cluster: [
                model.service_time_us(cluster, batch)
                for batch in batch_columns],
        }
        results = {}
        for name, answer in paths.items():
            model = InterpolatingServiceModel(
                TRACES, batch_sizes=batch_sizes,
                pooling_factors=pooling_factors)
            cluster = StubCluster()
            times = np.asarray(answer(model, cluster), dtype=np.float64)
            results[name] = (times.tobytes(), model.stats(),
                             list(model._grid_for(cluster)),
                             cluster.calls)
        assert results["columns"] == results["list"] == results["single"]
        times, stats, grid_keys, _ = results["columns"]
        assert stats["exact_calls"] == len(grid_keys) * len(batch_sizes)
        assert stats["interpolated_calls"] == len(batch_columns)
        assert grid_keys == _expected_rows(batch_columns, pooling_factors)
        assert np.isfinite(np.frombuffer(times)).all()


# --------------------------------------------------------------------- #
# Full simulate                                                         #
# --------------------------------------------------------------------- #
SIM_TRACES = make_production_table_traces(num_lookups_per_table=96,
                                          num_rows=1000,
                                          num_tables=NUM_TABLES, seed=1)


@pytest.fixture(scope="module")
def sim_clusters():
    """One small cluster per frontend count; the service cache is shared
    across examples (service times are pure functions of content, and
    the cycled request pool bounds the distinct compositions)."""
    clusters = {frontends: ShardedServingCluster(
        num_nodes=2, node_system="recnmp-base", num_frontends=frontends,
        table_rows=1000, vector_size_bytes=64)
        for frontends in (1, 2, 3)}
    yield clusters
    for cluster in clusters.values():
        cluster.close()


@st.composite
def simulate_cases(draw):
    """(queries, frontends, engine, max_queries, max_delay_us, slo_us)."""
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
                         min_size=1, max_size=40))
    arrivals = np.cumsum([draw(st.floats(0.0, 1e4))] + gaps[1:])
    queries = queries_from_traces(SIM_TRACES, len(arrivals),
                                  arrivals.tolist(), batch_size=2,
                                  pooling_factor=4)
    return (queries,
            draw(st.sampled_from((1, 2, 3))),
            draw(st.sampled_from(("analytic", "event", "event-edf"))),
            draw(st.integers(1, 8)),
            draw(st.sampled_from((0.0, 5.0, 30.0, 200.0))),
            draw(st.sampled_from((None, 20.0, 400.0))))


class TestSimulateProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(simulate_cases())
    def test_simulate_invariants(self, sim_clusters, case):
        queries, frontends, engine, max_queries, max_delay_us, slo_us = \
            case
        cluster = sim_clusters[frontends]
        frontend = BatchingFrontend(max_queries=max_queries,
                                    max_delay_us=max_delay_us)

        def run(source, trace=None):
            return dataclasses.asdict(cluster.simulate(
                source, frontend=frontend, engine=engine,
                slo_policy=slo_us, trace=trace))

        tracer = Tracer()
        traced = run(queries, trace=tracer)
        assert traced == run(queries)
        assert traced == run(QueryColumns.from_queries(queries))

        capture = tracer.capture
        delay = capture.per_query(capture.batch_ready_us) \
            - capture.query_arrival_us
        floor = delay + capture.per_query(capture.batch_service_us)
        assert (capture.query_latency_us
                >= floor - 1e-9 * np.maximum(1.0, np.abs(floor))).all()
        if engine != "analytic":
            # The busy span is (complete - ready) at absolute times up
            # to ~1e4 us, so it carries rounding of that magnitude.
            assert traced["extras"]["measured_utilization"] <= 1.0 + 1e-9
        assert ("slo" in traced["extras"]) == (slo_us is not None)


    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(simulate_cases())
    def test_queue_depth_is_non_negative_and_peaks_at_report(
            self, sim_clusters, case):
        queries, frontends, engine, max_queries, max_delay_us, slo_us = \
            case
        tracer = Tracer()
        report = sim_clusters[frontends].simulate(
            queries, frontend=BatchingFrontend(max_queries=max_queries,
                                               max_delay_us=max_delay_us),
            engine=engine, slo_policy=slo_us, trace=tracer)
        _, depth = tracer.queue_depth_series()
        assert (depth >= 0).all()
        if engine != "analytic":
            assert int(depth.max()) == report.extras["max_queue_depth"]

    @settings(max_examples=12, deadline=None)
    @given(simulate_cases())
    def test_warm_store_rerun_is_identical_with_no_exact_sims(self, case):
        """An exact-model run repeated over the store the first run
        filled serves a byte-identical report from stored service times
        alone."""
        queries, frontends, engine, max_queries, max_delay_us, slo_us = \
            case
        frontend = BatchingFrontend(max_queries=max_queries,
                                    max_delay_us=max_delay_us)
        reports = []
        with tempfile.TemporaryDirectory() as store_dir:
            for _ in range(2):
                with ShardedServingCluster(
                        num_nodes=2, node_system="recnmp-base",
                        num_frontends=frontends, table_rows=1000,
                        vector_size_bytes=64,
                        service_store=Path(store_dir) / "store.sqlite") \
                        as cluster:
                    report = cluster.simulate(
                        queries, frontend=frontend, engine=engine,
                        service_model="exact", slo_policy=slo_us)
                    reports.append((json.dumps(report.as_dict(),
                                               sort_keys=True),
                                    cluster.service_stats()))
        (cold, cold_stats), (warm, warm_stats) = reports
        assert warm == cold
        assert cold_stats["exact_simulations"] > 0
        assert warm_stats["exact_simulations"] == 0
        assert warm_stats["store"]["hits"] > 0
