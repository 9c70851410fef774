"""Execution backends for multi-channel RecNMP simulation.

The per-channel cycle simulations of
:class:`~repro.core.multi_channel.MultiChannelRecNMP` are independent
(disjoint table partitions, per-channel simulators), so *how* they are
executed is a policy separate from *what* they compute.  This module
provides that policy layer:

``serial``
    One channel after another on the calling thread.  The reference
    backend: zero coordination overhead, deterministic, and what the
    process backend must match bit for bit.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` with picklable
    ``(config, address_of, requests)`` work units, so N channels use N
    cores.  Worker-side baseline-cache entries are exported as
    ``(key, result)`` pairs and merged back into the parent's cache
    (:func:`repro.perf.baseline_cache.merge_baseline_entries`), so a
    baseline simulated in a worker is a cache hit for every later
    dispatch on either backend.

Both backends return per-channel
:class:`~repro.core.simulator.RecNMPResult` objects in job order;
their equivalence is pinned by ``tests/test_core_backend.py``.
"""

import abc
import dataclasses
import itertools
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.core.simulator import RecNMPSimulator
from repro.perf.baseline_cache import (
    baseline_cache_stats,
    export_baseline_entries,
    merge_baseline_entries,
)

_CALLABLE_HINT = ("module-level functions and bound methods of picklable "
                  "objects work; lambdas and closures do not")


def _pickles(value):
    try:
        pickle.dumps(value)
    except Exception:  # repro-lint: allow-broad-except-audit (probing which input fails to pickle; the culprit is named in the preflight error)
        return False
    return True


def _preflight(payload, purpose, parts, whole):
    """Pickle a worker payload in the parent, naming the part that fails.

    A pickling failure inside a pool worker surfaces as an opaque
    ``BrokenProcessPool``, so every payload is pickled here first.
    ``parts`` lists ``(label, value)`` candidates in probe order; the
    error names the first one that does not pickle on its own, or
    ``whole`` when each part does.  Returns the pickled payload.
    """
    try:
        return pickle.dumps(payload)
    except Exception as error:  # repro-lint: allow-broad-except-audit (preflight probe: any pickling failure becomes the actionable ValueError raised below)
        culprit = next((label for label, value in parts
                        if not _pickles(value)), whole)
        raise ValueError(
            "the process backend %s and needs picklable inputs, but %s "
            "is not picklable (%s) -- use backend='serial' instead"
            % (purpose, culprit, error)) from error


def _with_baseline_delta(run):
    """Call ``run()`` in a worker; return its value and baseline delta.

    The delta is ``(new_entries, hits, misses)``: the baseline-cache
    entries the call added in this worker and its hit/miss counts, which
    the parent merges into its own cache.
    """
    before_keys = {key for key, _ in export_baseline_entries()}
    stats_before = baseline_cache_stats()
    value = run()
    stats_after = baseline_cache_stats()
    new_entries = [(key, result) for key, result in export_baseline_entries()
                   if key not in before_keys]
    return value, (new_entries,
                   stats_after["hits"] - stats_before["hits"],
                   stats_after["misses"] - stats_before["misses"])


#: Per-worker memo of objects rebuilt from pickled payloads -- node
#: systems, sweep clusters and sweep parameters -- keyed by
#: ``(builder, payload)``.  Registry systems reset per run and
#: ``simulate`` resets routing per run, so a cached instance answers
#: every later job of the same spec without paying construction again.
_WORKER_BUILDS = {}


def _rebuilt(build, payload):
    """``build(pickle.loads(payload))``, memoised per worker process."""
    key = (build, payload)
    value = _WORKER_BUILDS.get(key)
    if value is None:
        value = _WORKER_BUILDS[key] = build(pickle.loads(payload))
    return value


def _build_node_system(spec):
    from repro.systems.registry import build_system

    name, overrides = spec
    return build_system(name, **overrides)


def _build_sweep_cluster(spec):
    from repro.serving.cluster import build_sweep_cluster

    return build_sweep_cluster(spec)


def _run_channel_job(job):
    """Simulate one channel's request partition (process-pool worker).

    The work unit is fully picklable: the channel :class:`RecNMPConfig`,
    the ``(table_id, row) -> physical address`` callable (a plain function
    or bound method of a picklable object; ``None`` selects the
    simulator's default dense layout), the channel's requests and the
    baseline flag.
    """
    config, address_of, requests, compare_baseline = job
    simulator = RecNMPSimulator(config, address_of=address_of)
    return _with_baseline_delta(lambda: simulator.run_requests(
        requests, compare_baseline=compare_baseline))


def _run_node_job(job):
    """Node-level serving job: one node's shard of one batch.

    The node system is rebuilt from the registry spec (cached per
    worker) and the shard's service time returned.
    """
    spec_payload, shard = job
    system = _rebuilt(_build_node_system, spec_payload)
    return _with_baseline_delta(lambda: system.service_time_us(shard))


def _run_sweep_point(job):
    """Simulate one QPS point on a worker-local cluster rebuild.

    The cluster is rebuilt from the pickled sweep spec and the shared
    simulate parameters come from their own payload (both cached per
    worker).  ``simulate`` resets routing state per run, so a point's
    report is a pure function of its query stream -- identical whether
    it runs here or in the parent.  Returns the report plus the *new*
    service-cache entries and counter deltas this point produced, so
    the parent can merge them.
    """
    spec_payload, params_payload, queries = job
    cluster = _rebuilt(_build_sweep_cluster, spec_payload)
    frontend, engine, model, slo_policy, admission = \
        _rebuilt(tuple, params_payload)
    before = cluster.export_service_state()
    report, baseline_delta = _with_baseline_delta(
        lambda: cluster.simulate(queries, frontend=frontend, engine=engine,
                                 service_model=model, slo_policy=slo_policy,
                                 admission=admission))
    after = cluster.export_service_state()
    before_keys = {key for key, _ in before["entries"]}
    delta = {"entries": [(key, value) for key, value in after["entries"]
                         if key not in before_keys]}
    for counter in ("hits", "misses", "exact_simulations", "dedup_hits",
                    "store_hits", "store_misses", "store_puts"):
        if counter in after:
            delta[counter] = after[counter] - before.get(counter, 0)
    return (report, delta), baseline_delta


class ParallelBackend(abc.ABC):
    """How the independent per-channel simulations are executed.

    Parameters
    ----------
    max_workers:
        Upper bound on concurrent workers; ``None`` defaults to one per
        busy channel.
    """

    #: Registry name (``"serial"`` / ``"process"``).
    name = "parallel-backend"

    def __init__(self, max_workers=None):
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers

    @abc.abstractmethod
    def run_channels(self, coordinator, jobs, compare_baseline):
        """Execute ``jobs`` (``(slot, simulator, requests)`` triples).

        Returns the per-channel results in job order.
        """

    def run_service_jobs(self, cluster, jobs):
        """Execute node-level serving jobs (``(slot, node, shard)``).

        One job is one serving node's shard of one batch; the return
        value is the per-job service time in microseconds, in job
        order.  The default runs the cluster's own (in-process) node
        systems serially; the process backend rebuilds the nodes from
        ``cluster.node_system``/``cluster.node_overrides`` in its
        workers (cached per worker by spec) so the per-node simulations
        of one batch use real cores.
        """
        return [node.service_time_us(shard) for _, node, shard in jobs]

    def run_sweep_points(self, cluster, point_queries, frontend=None,
                         engine=None, service_model=None, slo_policy=None,
                         admission=None):
        """Simulate one QPS sweep point per query stream, in order.

        ``point_queries`` holds the materialised query stream of every
        sweep point.  Points are independent given fresh routing state
        (``simulate`` resets it per run), so the process backend fans
        them out to worker-side cluster rebuilds and merges each
        worker's service-time cache/store deltas back into ``cluster``,
        exactly like the baseline-cache merge of the channel jobs.
        Reports are bit-identical to this default, the serial loop on
        the cluster itself.
        """
        return [cluster.simulate(queries, frontend=frontend, engine=engine,
                                 service_model=service_model,
                                 slo_policy=slo_policy, admission=admission)
                for queries in point_queries]

    def shutdown(self):
        """Release any pooled workers (idempotent)."""

    def __enter__(self):
        """Backends are context managers: exit releases pooled workers."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.shutdown()
        return False

    def describe(self):
        if self.max_workers is None:
            return self.name
        return "%s(max_workers=%d)" % (self.name, self.max_workers)


class SerialBackend(ParallelBackend):
    """Run the channels one after another on the calling thread."""

    name = "serial"

    def run_channels(self, coordinator, jobs, compare_baseline):
        return [simulator.run_requests(requests,
                                       compare_baseline=compare_baseline)
                for _, simulator, requests in jobs]


class ProcessBackend(ParallelBackend):
    """Run the channels on a process pool (true multi-core execution).

    Work units are rebuilt in the workers from the picklable channel
    config and address map, so each dispatch runs on *fresh* channel
    simulators -- the contract of the registry systems, which reset
    per run; a coordinator that relies on channel state accumulating
    across ``run_requests`` calls must use ``serial``.  The pool is
    created lazily and kept alive across dispatches (amortising worker
    start-up); call :meth:`shutdown` (or ``MultiChannelRecNMP.close``)
    for deterministic cleanup.  A pool broken by a dead worker fails the
    dispatch that saw it and is replaced on the next one.
    """

    name = "process"

    def __init__(self, max_workers=None):
        super().__init__(max_workers=max_workers)
        self._pool = None
        self._pool_workers = 0

    def _ensure_pool(self, wanted):
        if self.max_workers is not None:
            wanted = min(wanted, self.max_workers)
        wanted = max(1, wanted)
        if self._pool is not None and self._pool_workers < wanted:
            self.shutdown()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=wanted)
            self._pool_workers = wanted
        return self._pool

    def _dispatch(self, worker, jobs):
        """Run ``worker`` over ``jobs`` on the pool, results in job order.

        Every job's baseline-cache delta is merged into this process.
        When a worker has died, the pool is dropped so the next dispatch
        builds a fresh one, and this dispatch still raises
        ``BrokenProcessPool``.
        """
        pool = self._ensure_pool(len(jobs))
        try:
            futures = [pool.submit(worker, job) for job in jobs]
            outcomes = [future.result() for future in futures]
        except BrokenProcessPool:
            self.shutdown()
            raise
        merged = {}
        hits = misses = 0
        for _, (entries, job_hits, job_misses) in outcomes:
            merged.update(entries)
            hits += job_hits
            misses += job_misses
        if merged or hits or misses:
            merge_baseline_entries(merged.items(), hits=hits, misses=misses)
        return [value for value, _ in outcomes]

    def run_channels(self, coordinator, jobs, compare_baseline):
        config = coordinator.channel_config
        address_of = coordinator.address_of
        fields = (dataclasses.fields(config)
                  if dataclasses.is_dataclass(config) else ())
        _preflight(
            (config, address_of), "ships work units to worker processes",
            itertools.chain(
                [("the address_of callable %r (%s)"
                  % (address_of, _CALLABLE_HINT), address_of)],
                (("the channel config field %r" % field.name,
                  getattr(config, field.name)) for field in fields)),
            "the channel config")
        return self._dispatch(_run_channel_job,
                              [(config, address_of, requests,
                                compare_baseline)
                               for _, _, requests in jobs])

    def run_service_jobs(self, cluster, jobs):
        overrides = dict(cluster.node_overrides)
        spec_payload = _preflight(
            (cluster.node_system, overrides),
            "rebuilds serving nodes in worker processes",
            (("the node override %r (%r; %s)" % (key, value,
                                                 _CALLABLE_HINT), value)
             for key, value in overrides.items()),
            "the node spec")
        return self._dispatch(_run_node_job,
                              [(spec_payload, shard)
                               for _, _, shard in jobs])

    def run_sweep_points(self, cluster, point_queries, frontend=None,
                         engine=None, service_model=None, slo_policy=None,
                         admission=None):
        """Fan the sweep points out to worker processes, one per point.

        Workers rebuild the cluster from its picklable sweep spec
        (cached per worker, so several points in one worker share a
        rebuild and its service cache) and receive the simulate
        parameters through one shared payload.  Each point's query
        stream is pickled into its job; the worker's report comes back
        with its service-cache and baseline-cache deltas, which are
        merged into the parent in point order -- statistics cover the
        whole sweep and later runs on either backend hit what the
        workers simulated.
        """
        if len(point_queries) <= 1:
            return ParallelBackend.run_sweep_points(
                self, cluster, point_queries, frontend=frontend,
                engine=engine, service_model=service_model,
                slo_policy=slo_policy, admission=admission)
        purpose = "runs sweep points in worker processes"
        spec = cluster.sweep_spec()
        spec_payload = _preflight(
            spec, purpose,
            (("the sweep spec entry %r" % key, value)
             for key, value in spec.items()),
            "the cluster's sweep spec")
        params = {"frontend": frontend, "engine": engine,
                  "service model": service_model,
                  "SLO policy": slo_policy, "admission controller": admission}
        params_payload = _preflight(
            tuple(params.values()), purpose,
            (("the %s passed to the sweep" % label, value)
             for label, value in params.items()),
            "the sweep parameters")
        outcomes = self._dispatch(_run_sweep_point,
                                  [(spec_payload, params_payload, queries)
                                   for queries in point_queries])
        reports = []
        for report, delta in outcomes:
            cluster.merge_service_state(delta)
            reports.append(report)
        return reports

    def shutdown(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_workers = 0


#: Backend registry: name -> class.
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def resolve_backend(backend, max_workers=None):
    """Normalise a ``backend=`` argument into a backend instance.

    Accepts ``None`` (the serial default -- no coordination overhead
    and bit-identical to the process backend), a registry
    name, a :class:`ParallelBackend` subclass, or a ready instance
    (returned as-is; ``max_workers`` must then be unset -- the instance
    already carries its bound).
    """
    if isinstance(backend, ParallelBackend):
        if max_workers is not None:
            raise ValueError("pass max_workers to the backend constructor, "
                             "not alongside a ready backend instance")
        return backend
    if backend is None:
        return SerialBackend(max_workers=max_workers)
    if isinstance(backend, type) and issubclass(backend, ParallelBackend):
        return backend(max_workers=max_workers)
    try:
        cls = BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError("unknown backend %r; available: %s"
                         % (backend, ", ".join(sorted(BACKENDS)))) from None
    return cls(max_workers=max_workers)
