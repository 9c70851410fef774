"""The benchmark's four workloads.

Each workload is a :class:`Workload` with two phases:

* ``setup(seed, tmp_dir, span)`` builds everything a run needs before
  its first timed call (traces, systems or cluster, forced interp
  calibration) and returns a state dict; ``span`` is the traced run's
  span context (``None`` untraced);
* ``op(state, pause)`` is the timed section: it drives the library from
  its public entry points and returns ``(work, outputs, layer_counts)``
  -- the lookups and queries it carried, the simulated outputs the
  correctness check compares, and counters read at the layer
  boundaries for the traced ledger.  A long op calls ``pause()`` (when
  given) between independent units of work; the runner probes the
  host's speed there, outside the timing.

``check(outputs, seed)`` runs after the timed section and returns the
list of mismatches (empty when correct).  ``close(state)`` releases
what setup opened.

Everything is single-process on the default ``serial`` backend.  Every
run (one setup + one op) starts from fresh systems or a fresh cluster,
a cleared DDR4 baseline cache and, for serving, a fresh empty sqlite
service store inside the run's temporary directory -- never the user's
default store.
"""

import hashlib
import json
import os
from contextlib import nullcontext
from pathlib import Path

import numpy as np

# Layer functions are called through their package (``serving.x``,
# ``obs.x``) so the traced run's wrappers, which rebind the package
# attributes, see the benchmark's own calls too.
import repro.obs as obs
import repro.serving as serving
from repro.core import kernels
from repro.dlrm.operators import SLSRequest
from repro.perf.baseline_cache import (
    baseline_cache_stats,
    clear_baseline_cache,
)
from repro.perf.service_model import InterpolatingServiceModel
from repro.perf.service_store import STORE_FILENAME
from repro.serving import (
    BatchingFrontend,
    MMPPArrivalProcess,
    PoissonArrivalProcess,
    QueryBatch,
    ShardedServingCluster,
)
from repro.serving.query_columns import QueryStream
from repro.systems import build_system
from repro.traces import make_production_table_traces

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

NUM_ROWS = 20_000
VECTOR_BYTES = 128
NUM_TABLES = 8
BATCH = 8             # paper sweep: poolings per SLS request
POOLING = 40          # paper sweep: lookups per pooling
#: Serving query shape (the ``queries_from_traces`` defaults): one
#: 4 x 20 request per table, so a 2-table node shard issues ~80-lookup
#: packets -- below the packed-kernel cutover, unlike the paper sweep.
QUERY_BATCH = 4
QUERY_POOLING = 20

#: Memory configurations of the paper sweep, identical to the
#: ``single_channel_config`` / ``multi_channel_config`` blocks of
#: ``benchmarks/perf_reference.json`` so the seed-0 rows can be
#: compared against its pinned ``exact`` cycles.
SINGLE_CHANNEL = {"num_dimms": 4, "ranks_per_dimm": 2}
MULTI_CHANNEL = {"num_dimms": 1, "ranks_per_dimm": 2}
SWEEP_SYSTEMS = ("recnmp-base", "recnmp-cache", "recnmp-sched",
                 "recnmp-opt", "recnmp-opt-4ch")
PERF_REFERENCE = BENCH_DIR.parent / "benchmarks" / "perf_reference.json"
#: Embedding lookups one serving query carries (one request per table).
LOOKUPS_PER_QUERY = NUM_TABLES * QUERY_BATCH * QUERY_POOLING


def digest(value):
    """Short stable digest of a JSON-able value (strict JSON)."""
    text = json.dumps(value, sort_keys=True, allow_nan=False,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _system_overrides(name):
    overrides = dict(MULTI_CHANNEL if name.endswith("-4ch")
                     else SINGLE_CHANNEL)
    overrides.update(table_rows=NUM_ROWS, vector_size_bytes=VECTOR_BYTES)
    return overrides


def sweep_requests(kind, seed):
    """One ``BATCH x POOLING`` SLS request per table.

    The generators match ``benchmarks/workloads.py``
    (``production_requests`` / ``random_requests``), so seed 0 is the
    workload ``perf_reference.json`` pins.
    """
    lookups = BATCH * POOLING
    if kind == "production":
        traces = make_production_table_traces(
            num_lookups_per_table=lookups, num_rows=NUM_ROWS,
            num_tables=NUM_TABLES, seed=seed)
        return [SLSRequest(table_id=trace.table_id,
                           indices=trace.indices[:lookups],
                           lengths=np.full(BATCH, POOLING))
                for trace in traces]
    rng = np.random.default_rng(seed)
    return [SLSRequest(table_id=table,
                       indices=rng.integers(0, NUM_ROWS, size=lookups),
                       lengths=np.full(BATCH, POOLING))
            for table in range(NUM_TABLES)]


def _sweep_row(result):
    return {"cycles": int(result.total_cycles),
            "baseline_cycles": int(result.baseline_cycles),
            "hit_rate": float(result.cache_hit_rate),
            "energy_nj": float(result.energy_nj)}


def _golden(workload, seed):
    if not GOLDEN_PATH.exists():
        return None
    with GOLDEN_PATH.open() as handle:
        table = json.load(handle)
    return table.get(workload, {}).get(str(seed))


class Workload:
    """One named input set of the benchmark (see module docstring)."""

    name = None

    def setup(self, seed, tmp_dir, span=None):
        raise NotImplementedError

    def op(self, state, pause=None):
        raise NotImplementedError

    def close(self, state):
        pass

    def check(self, outputs, seed):
        """Mismatches against the pinned outputs for this seed."""
        golden = _golden(self.name, seed)
        if golden is None or golden == outputs["digest"]:
            return []
        return ["%s seed %d: output digest %s != pinned %s"
                % (self.name, seed, outputs["digest"], golden)]

    @staticmethod
    def end_to_end(work, op_s, setup_s, scale, peak_rss_mb):
        """The end-to-end metrics of one untraced run.

        Throughputs are the run's total work over its total timed
        seconds; times are scaled to the reference host speed (``scale``
        reference seconds per host second, from the run's mean probe).
        """
        def rate(key):
            return sum(done[key] for done in work) / sum(op_s) / scale
        return {
            "lookups_per_s": {"value": rate("lookups"),
                              "unit": "lookups/s"},
            "queries_per_s": {"value": rate("queries"),
                              "unit": "queries/s"},
            "setup_s": {"value": setup_s * scale, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }


# --------------------------------------------------------------------- #
class PaperSweep(Workload):
    name = "paper-sweep"

    def setup(self, seed, tmp_dir, span=None):
        requests = {kind: sweep_requests(kind, seed)
                    for kind in ("production", "random")}
        systems = {(kind, name): build_system(name, **_system_overrides(name))
                   for kind in requests for name in SWEEP_SYSTEMS}
        return {"requests": requests, "systems": systems}

    def op(self, state, pause=None):
        clear_baseline_cache()
        rows, lookups = {}, 0
        for (kind, name), system in state["systems"].items():
            result = system.run(state["requests"][kind])
            rows["%s/%s" % (kind, name)] = _sweep_row(result)
            lookups += result.num_lookups
            if pause is not None:
                pause()
        cache = baseline_cache_stats()
        counts = {"baseline_cache.hits": cache["hits"],
                  "baseline_cache.misses": cache["misses"]}
        # Each system run answers one inference batch of BATCH queries.
        work = {"lookups": lookups, "queries": len(rows) * BATCH}
        return work, {"rows": rows, "digest": digest(rows)}, counts

    def close(self, state):
        for system in state["systems"].values():
            system.close()

    def check(self, outputs, seed):
        errors = super().check(outputs, seed)
        errors.extend(check_perf_reference())
        return errors


def check_perf_reference():
    """The recnmp-opt rows of the perf-reference workload (seed 0, NMP
    side only) against the ``exact`` cycles pinned in
    ``benchmarks/perf_reference.json``."""
    with PERF_REFERENCE.open() as handle:
        reference = json.load(handle)["full"]["workloads"]
    errors = []
    for kind in ("production", "random"):
        requests = sweep_requests(kind, 0)
        for name, block in (("recnmp-opt", "single"),
                            ("recnmp-opt-4ch", "multi4")):
            pinned = reference[kind]["exact"][block]
            with build_system(name, compare_baseline=False,
                              **_system_overrides(name)) as system:
                result = system.run(requests)
            got = {"total_cycles": result.total_cycles,
                   "cache_hit_rate": result.cache_hit_rate,
                   "energy_nj": result.energy_nj}
            want = {key: pinned[key] for key in got}
            if got != want:
                errors.append("perf_reference %s/%s: %r != %r"
                              % (kind, name, got, want))
    return errors


# --------------------------------------------------------------------- #
class _ServeWorkload(Workload):
    """Shared cluster/store plumbing of the serving workloads."""

    node_system = "recnmp-opt"
    num_nodes = 4
    num_frontends = 1
    num_queries = None
    lookups_per_table = None

    def traces(self, seed):
        return make_production_table_traces(
            num_lookups_per_table=self.lookups_per_table,
            num_rows=NUM_ROWS, num_tables=NUM_TABLES, seed=seed)

    def cluster(self, tmp_dir):
        return ShardedServingCluster(
            num_nodes=self.num_nodes, node_system=self.node_system,
            num_frontends=self.num_frontends, table_rows=NUM_ROWS,
            vector_size_bytes=VECTOR_BYTES,
            service_store=Path(tmp_dir) / STORE_FILENAME)

    def calibrated_model(self, traces, cluster, span):
        """An interp model with its grid calibrated, as every
        ``serve --service-model interp`` run pays before serving."""
        model = InterpolatingServiceModel(traces)
        probe = serving.queries_from_traces(
            traces, 1, [0.0], batch_size=QUERY_BATCH,
            pooling_factor=QUERY_POOLING)
        with (span or _no_span)("service_model.calibrate"):
            model.service_times_us(
                cluster, [QueryBatch(queries=probe, open_us=0.0,
                                     formed_us=0.0)])
        return model

    def work(self):
        return {"lookups": self.num_queries * LOOKUPS_PER_QUERY,
                "queries": self.num_queries}

    def close(self, state):
        state["cluster"].close()

    @staticmethod
    def service_counts(before, after):
        cache_hits = after["cache"]["hits"] - before["cache"]["hits"]
        cache_misses = after["cache"]["misses"] - before["cache"]["misses"]
        lookups = cache_hits + cache_misses
        return {
            "service_cache.hits": cache_hits,
            "service_cache.misses": cache_misses,
            "service_cache.hit_ratio":
                cache_hits / lookups if lookups else 0.0,
            "service.dedup_hits":
                after["dedup_hits"] - before["dedup_hits"],
            "service.exact_sims":
                after["exact_simulations"] - before["exact_simulations"],
        }

    @staticmethod
    def report_counts(report):
        counts = {"batcher.batches": report.num_batches,
                  "batcher.mean_size":
                      report.num_queries / report.num_batches,
                  "batcher.timeout_share":
                      report.trigger_counts.get("deadline", 0)
                      / report.num_batches}
        slo = report.extras.get("slo")
        if slo is not None:
            counts["admission.offered"] = slo["num_offered"]
            counts["admission.admit_ratio"] = \
                1.0 - slo["num_shed"] / slo["num_offered"]
        return counts

    def outputs(self, report, stats):
        stats = dict(stats)
        store = stats.get("store")
        if store is not None:
            # The store's path names the run's temp dir: keep only the
            # run's counters.
            stats["store"] = {key: store[key]
                              for key in ("hits", "misses", "puts")}
        value = {"report": report.as_dict(), "service_stats": stats}
        return {"digest": digest(value),
                "num_shed": (report.extras.get("slo") or {}).get(
                    "num_shed", 0)}


class ServeExact(_ServeWorkload):
    name = "serve-exact"
    num_queries = 2000
    qps = 100_000.0
    slo_us = 2000.0
    #: 160 distinct requests per table: 20 distinct 8-query batch
    #: compositions, so the exact simulator and the cache/store tiers
    #: both do real work in a ~1.5 s call.
    lookups_per_table = 160 * QUERY_BATCH * QUERY_POOLING

    def setup(self, seed, tmp_dir, span=None):
        traces = self.traces(seed)
        return {"traces": traces, "cluster": self.cluster(tmp_dir),
                "seed": seed}

    def op(self, state, pause=None):
        cluster = state["cluster"]
        before = cluster.service_stats()
        queries = serving.queries_from_traces(
            state["traces"], self.num_queries,
            PoissonArrivalProcess(rate_qps=self.qps, seed=state["seed"]),
            batch_size=QUERY_BATCH, pooling_factor=QUERY_POOLING)
        report = cluster.simulate(
            queries, frontend=BatchingFrontend(max_queries=8,
                                               max_delay_us=200.0),
            engine="event-edf", slo_policy=self.slo_us,
            admission="deadline")
        stats = cluster.service_stats()
        counts = self.service_counts(before, stats)
        counts.update(self.report_counts(report))
        return self.work(), self.outputs(report, stats), counts


class ServeInterpStream(_ServeWorkload):
    name = "serve-interp-stream"
    node_system = "recnmp-opt-4ch"
    num_nodes = 2
    num_frontends = 4
    num_queries = 500_000
    qps = 400_000.0
    stream_chunk = 65_536
    lookups_per_table = 2_000

    def setup(self, seed, tmp_dir, span=None):
        traces = self.traces(seed)
        cluster = self.cluster(tmp_dir)
        model = self.calibrated_model(traces, cluster, span)
        return {"traces": traces, "cluster": cluster, "model": model,
                "seed": seed}

    def op(self, state, pause=None):
        cluster = state["cluster"]
        before = cluster.service_stats()
        stream = QueryStream(
            state["traces"],
            PoissonArrivalProcess(rate_qps=self.qps, seed=state["seed"]),
            num_queries=self.num_queries, batch_size=QUERY_BATCH,
            pooling_factor=QUERY_POOLING)
        report = cluster.simulate(
            stream, frontend=BatchingFrontend(max_queries=8,
                                              max_delay_us=200.0),
            engine="event", service_model=state["model"],
            stream_chunk=self.stream_chunk)
        stats = cluster.service_stats()
        counts = self.service_counts(before, stats)
        counts.update(self.report_counts(report))
        outputs = self.outputs(report, stats)
        outputs["timed_exact_sims"] = counts["service.exact_sims"]
        return self.work(), outputs, counts

    def check(self, outputs, seed):
        errors = super().check(outputs, seed)
        if outputs["timed_exact_sims"]:
            errors.append("%s: %d exact sims in the timed section "
                          "(calibration must answer every batch)"
                          % (self.name, outputs["timed_exact_sims"]))
        return errors


class ServeOverloadTraced(_ServeWorkload):
    name = "serve-overload-traced"
    node_system = "recnmp-opt-4ch"
    num_nodes = 2
    num_frontends = 4
    num_queries = 40_000
    #: Far above the 2-node cluster's capacity: about half is shed.
    qps = 30_000_000.0
    slo_us = 500.0
    lookups_per_table = 2_000

    def setup(self, seed, tmp_dir, span=None):
        traces = self.traces(seed)
        cluster = self.cluster(tmp_dir)
        model = self.calibrated_model(traces, cluster, span)
        return {"traces": traces, "cluster": cluster, "model": model,
                "seed": seed, "tmp_dir": Path(tmp_dir)}

    def op(self, state, pause=None):
        cluster = state["cluster"]
        before = cluster.service_stats()
        queries = serving.queries_from_traces(
            state["traces"], self.num_queries,
            MMPPArrivalProcess.from_mean(self.qps, seed=state["seed"]),
            batch_size=QUERY_BATCH, pooling_factor=QUERY_POOLING)
        tracer = obs.Tracer(label="serve")
        report = cluster.simulate(
            queries, frontend=BatchingFrontend(max_queries=8,
                                               max_delay_us=200.0),
            engine="event-edf", service_model=state["model"],
            slo_policy=self.slo_us, admission="deadline",
            trace=tracer, metrics=True)
        stats = cluster.service_stats()
        snapshot = cluster.metrics.snapshot()
        trace_path = tracer.write_chrome_trace(
            state["tmp_dir"] / "trace.json")
        metrics_path = obs.write_metrics_json(
            snapshot, state["tmp_dir"] / "metrics.json")
        counts = self.service_counts(before, stats)
        counts.update(self.report_counts(report))
        counts["obs.trace_bytes"] = os.path.getsize(trace_path)
        outputs = self.outputs(report, stats)
        outputs["trace_path"] = str(trace_path)
        outputs["metrics_snapshot"] = snapshot
        outputs["metrics_path"] = str(metrics_path)
        return self.work(), outputs, counts

    def check(self, outputs, seed):
        """Shed count, strict metrics JSON and the written trace; runs
        outside the timed section."""
        errors = super().check(outputs, seed)
        if not outputs["num_shed"]:
            errors.append("%s: nothing shed; the workload must run above "
                          "capacity" % self.name)
        try:
            json.dumps(outputs["metrics_snapshot"], allow_nan=False)
        except ValueError as error:
            errors.append("%s: metrics snapshot is not strict JSON: %s"
                          % (self.name, error))
        with open(outputs["trace_path"]) as handle:
            trace = json.load(handle, parse_constant=_reject_constant)
        try:
            obs.validate_chrome_trace(trace)
        except ValueError as error:
            errors.append("%s: trace fails its schema: %s"
                          % (self.name, error))
        return errors


def _no_span(name):
    return nullcontext()


def _reject_constant(token):
    raise ValueError("non-finite JSON constant %s" % token)


WORKLOADS = {workload.name: workload for workload in
             (PaperSweep(), ServeExact(), ServeInterpStream(),
              ServeOverloadTraced())}


def host_record():
    """Host facts recorded beside every result."""
    import os
    import platform

    try:
        import numba  # noqa: F401
        numba_imported = True
    except ImportError:
        numba_imported = False
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel_flavor": kernels.KERNEL_FLAVOR,
            "numba_imported": numba_imported,
            "backend": "serial"}
