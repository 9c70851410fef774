"""Checked-in golden fixtures for the cycle-exact state machines.

Each fixture under ``tests/golden/`` pins the output of one hot loop for
a fixed set of seeded inputs:

* ``rank_nmp.json`` -- the end state of a :class:`RankNMP` (last
  completion cycle, per-bank and rank-level timing state, statistics,
  partial-sum counts and RankCache contents in LRU order) after a
  randomized instruction stream, with and without the RankCache;
* ``event_queues.json`` -- FIFO and EDF starts/completes and the peak
  queue depth of :func:`simulate_batch_queue`;
* ``admission.json`` -- the admit masks of every built-in admission
  controller mode;
* ``ddr4_baseline.json`` -- cycles, per-channel row hit/miss/conflict
  counts, commands issued, cycles elapsed and a digest of the
  per-request latencies of the FR-FCFS DDR4 baseline
  (:meth:`DramSystem.run_trace` over channels x DIMMs x ranks x queue
  depth x outstanding cap x request size x trace shape, plus bare
  :meth:`MemoryController.run_until_drained` runs with more requests
  than queue slots), plus cases that stress the rank timing floors:
  ACT storms over distinct banks of one rank (tFAW / tRRD bound) and
  128 B bursts across 4 DIMMs x 2 ranks (rank-to-rank data-bus
  switching), each at several outstanding caps.

The replay runs under the *ambient* kernel flavor (whatever
``REPRO_DISABLE_KERNELS`` and the numba probe selected at import), so
the same fixtures pin the legacy object / ``heapq`` paths on hosts
without numba and the jitted kernels on hosts with it.  The parity
tests compare flavors against each other; these fixtures compare every
flavor against recorded numbers, so a change that alters all flavors at
once still fails.

Regenerate (only for a change that is *meant* to alter simulated
results) from the repository root::

    PYTHONPATH=src python tests/test_golden_fixtures.py
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_PRE,
    DDR_CMD_RD,
    NMPInstruction,
)
from repro.core.rank_nmp import RankNMP, RankNMPConfig
from repro.dram.address_mapping import SkylakeAddressMapping
from repro.dram.commands import MemoryRequest
from repro.dram.controller import MemoryController
from repro.dram.system import DramSystem, DramSystemConfig
from repro.serving.admission import (
    DeadlineAwareAdmission,
    NoAdmission,
    QueueDepthAdmission,
    TokenBucketAdmission,
    admission_kernel_spec,
    apply_admission,
)
from repro.serving.arrival import ServingQuery
from repro.serving.event_kernels import (
    admission_mask,
    force_flavor,
    new_admission_state,
)
from repro.serving.events import simulate_batch_queue

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

FULL_CMD = DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE

#: 300 instructions: above every flavor's packed-dispatch cutover, so a
#: kernel (when one is bound) runs rather than the small-stream fallback.
RANK_STREAM_LENGTH = 300
RANK_CASES = [(seed, use_cache) for seed in range(4)
              for use_cache in (True, False)]
#: Streams whose arrival cycles are *not* non-decreasing: shuffled
#: arrivals and descending runs.  They pin the window scan's path that
#: must skip a late member and keep scanning instead of stopping.
RANK_UNORDERED_CASES = [(kind, seed, use_cache)
                        for kind in ("shuffled", "descending-runs")
                        for seed in (4, 5)
                        for use_cache in (True, False)]

FIFO_CASES = [(seed, servers, 400) for seed in range(4)
              for servers in (1, 2, 8)] \
    + [(seed, servers, 300) for seed in (10, 11, 12) for servers in (2, 8)]
EDF_CASES = [(seed, servers) for seed in (20, 21, 22, 23)
             for servers in (1, 2, 8)]

ADMISSION_CONTROLLERS = {
    "none": NoAdmission(),
    "token-bucket": TokenBucketAdmission(burst=8),
    "token-bucket-rated": TokenBucketAdmission(rate_qps=40_000.0, burst=4),
    "queue-depth": QueueDepthAdmission(max_depth=16),
    "queue-depth-tight": QueueDepthAdmission(max_depth=2),
    "deadline": DeadlineAwareAdmission(margin=1.2),
}
ADMISSION_SEEDS = (30, 31)
#: (num_servers, est_query_us, est_batch_us) of every admission case.
ADMISSION_MODEL = (3, 25.0, 200.0)

DDR4_TRACES = ("random", "sequential", "hot-row")
DDR4_TRACE_LENGTH = 32
#: (channels, DIMMs per channel, ranks per DIMM, trace, request bytes);
#: each case runs every (queue depth, outstanding cap) pair below.
DDR4_CASES = list(itertools.product((1, 4), (1, 4), (1, 2), DDR4_TRACES,
                                    (64, 128, 256)))
DDR4_QUEUES = list(itertools.product((1, 4, 32), (None, 1, 8, 32)))
#: (trace, queue depth) of the bare-controller drains: 48 requests
#: enqueued up front, so most of them wait for a queue slot.
CONTROLLER_CASES = list(itertools.product(DDR4_TRACES, (1, 4, 8)))
#: Traces that stress the rank timing floors, each run at every
#: outstanding cap of ``FLOOR_OUTSTANDING``: on a single rank, ACT storms
#: over the four banks of one bank group (tRRD_L, then tRC) and over all
#: 16 banks, bank groups interleaved (tRRD_S + tFAW); on 4 DIMMs x 2
#: ranks of one channel, random 128 B bursts (rank-to-rank data-bus
#: switching).
FLOOR_TRACES = ("act-same-group", "act-all-groups", "rank-switch")
FLOOR_OUTSTANDING = (1, 4, 32)
FLOOR_CASES = list(itertools.product(FLOOR_TRACES, FLOOR_OUTSTANDING))
SINGLE_RANK = DramSystemConfig(num_channels=1, dimms_per_channel=1,
                               ranks_per_dimm=1)


# --------------------------------------------------------------------- #
# Seeded inputs                                                         #
# --------------------------------------------------------------------- #
def _rank_stream(seed, arrival_order="sorted"):
    """Instructions and arrival cycles exercising hits, misses, bypasses
    and row conflicts.

    ``arrival_order`` reorders the (non-decreasing) arrival cycles:
    ``"shuffled"`` permutes them over a wider span, and
    ``"descending-runs"`` reverses every run of 12 so arrivals fall
    inside each run."""
    rng = np.random.default_rng(seed)
    instructions = []
    for _ in range(RANK_STREAM_LENGTH):
        daddr = int(rng.integers(0, 4096)) * int(rng.integers(1, 64))
        instructions.append(NMPInstruction(
            ddr_cmd=FULL_CMD, daddr=daddr, vsize=int(rng.integers(1, 5)),
            weight=float(rng.choice([1.0, 0.5])),
            locality_bit=bool(rng.integers(0, 2)),
            psum_tag=int(rng.integers(0, 8))))
    arrivals = np.cumsum(rng.integers(0, 3, size=RANK_STREAM_LENGTH))
    if arrival_order == "shuffled":
        arrivals = rng.permutation(arrivals * 8)
    elif arrival_order == "descending-runs":
        arrivals = np.concatenate([run[::-1] for run in np.array_split(
            arrivals * 4, RANK_STREAM_LENGTH // 12)])
    return instructions, arrivals.tolist()


def _queue_inputs(seed, size):
    """Ready/service vectors with ties, bursts and idle gaps, shuffled so
    arrival order differs from index order."""
    rng = np.random.default_rng(seed)
    gaps = rng.choice([0.0, 1.0, 2.0, 7.0, 500.0], size=size,
                      p=[0.3, 0.3, 0.2, 0.15, 0.05])
    ready = np.cumsum(gaps)
    services = rng.integers(1, 60, size=size).astype(np.float64)
    perm = rng.permutation(size)
    return ready[perm], services[perm]


def _edf_priorities(seed, size):
    rng = np.random.default_rng(seed)
    priorities = rng.choice([10.0, 20.0, 20.0, 50.0, np.inf], size=size)
    return priorities + rng.integers(0, 3, size=size).astype(np.float64)


def _admission_queries(seed, size=500):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.choice([0.0, 3.0, 9.0, 40.0], size=size))
    queries = []
    for index in range(size):
        deadline = None
        if rng.random() < 0.8:
            deadline = float(arrivals[index]) + float(rng.integers(20, 400))
        queries.append(ServingQuery(query_id=index,
                                    arrival_us=float(arrivals[index]),
                                    deadline_us=deadline))
    return queries


def _ddr4_trace(kind, length, stride, seed=0):
    """Physical byte addresses: uniform random blocks, one sequential
    stream of ``stride``-byte requests, or random blocks of six hot
    4 KiB pages.  The hot pages are two bases each repeated at 1 GiB
    offsets, which keeps the bank and changes the row under every
    geometry here, so the stream mixes row hits with row conflicts."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return (rng.integers(0, 1 << 24, size=length) * 64).tolist()
    if kind == "sequential":
        return [7 * 4096 + index * stride for index in range(length)]
    hot = np.array([base + (offset << 30)
                    for base in rng.integers(0, 1 << 14, size=2) * 4096
                    for offset in range(3)])
    return (hot[rng.integers(0, hot.size, size=length)]
            + 64 * rng.integers(0, 64, size=length)).tolist()


def _act_storm_trace(banks, rounds):
    """64 B reads of one single-rank channel that visit ``banks`` (a
    list of ``(bank group, bank)``) round-robin, a new row on every
    visit: every read after the first round is a row conflict, so the
    ACTs run back to back at the tRRD / tFAW / tRC limit."""
    mapping = SkylakeAddressMapping(SINGLE_RANK.geometry())
    row_bytes = mapping.geometry.row_size_bytes
    # One row-size step moves to the next (bank group, bank) slot, so 16
    # steps cover every bank of one row exactly once.
    by_bank_row = {}
    for step in range(16 * rounds):
        address = step * row_bytes
        decoded = mapping.map(address)
        by_bank_row[(decoded.bank_group, decoded.bank, decoded.row)] = \
            address
    return [by_bank_row[(group, bank, row)]
            for row in range(rounds) for group, bank in banks]


# --------------------------------------------------------------------- #
# Replay (ambient flavor)                                               #
# --------------------------------------------------------------------- #
def _replay_rank(seed, use_cache, arrival_order="sorted"):
    instructions, arrivals = _rank_stream(seed, arrival_order)
    rank = RankNMP(RankNMPConfig(use_cache=use_cache,
                                 cache_capacity_bytes=4096))
    last = rank.execute_instructions(instructions, arrival_cycles=arrivals,
                                     reorder_window=8)
    return {
        "last_cycle": int(last),
        "current_cycle": int(rank.current_cycle),
        "rank_scalars": [int(v) for v in rank.dram_rank.kernel_scalars()],
        "banks": [[int(v) for v in bank.kernel_state()]
                  for bank in rank.dram_rank.banks],
        "stats": rank.stats.as_dict(),
        "cache_stats": None if rank.cache is None else {
            "hits": rank.cache.stats.hits,
            "misses": rank.cache.stats.misses,
            "bypasses": rank.cache.stats.bypasses,
            "evictions": rank.cache.stats.evictions,
        },
        "psums": sorted([int(tag), int(count)]
                        for tag, count in rank._psum_counts.items()),
        "cache_order": None if rank.cache is None
        else [int(daddr) for daddr in rank.cache._entries],
    }


def _queue_result(starts, completes, depth):
    return {"starts": starts.tolist(), "completes": completes.tolist(),
            "max_depth": int(depth)}


def _replay_fifo(seed, servers, size):
    ready, services = _queue_inputs(seed, size)
    return _queue_result(*simulate_batch_queue(ready, services, servers))


def _replay_edf(seed, servers):
    ready, services = _queue_inputs(seed, 300)
    priorities = _edf_priorities(seed, ready.size)
    return _queue_result(*simulate_batch_queue(
        ready, services, servers, order="edf", priorities=priorities))


def _mask_string(mask):
    return "".join("1" if admit else "0" for admit in mask)


def _replay_admission(name, seed):
    """The admit mask from the per-query controller loop and from the
    vectorised :func:`admission_mask` (the cluster's two routes)."""
    controller = ADMISSION_CONTROLLERS[name]
    num_servers, est_query_us, est_batch_us = ADMISSION_MODEL
    queries = _admission_queries(seed)
    with force_flavor("disabled"):
        # The per-query controller loop, whatever the ambient flavor.
        admitted, _ = apply_admission(queries, controller, num_servers,
                                      est_query_us, est_batch_us)
    admitted_ids = {query.query_id for query in admitted}
    loop_mask = [query.query_id in admitted_ids for query in queries]

    arrivals = np.array([query.arrival_us for query in queries])
    slacks = np.array([np.nan if query.deadline_us is None
                       else query.deadline_us - query.arrival_us
                       for query in queries])
    mode, param0, param1, initial_tokens = admission_kernel_spec(
        controller, num_servers / est_query_us * 1e6)
    state = new_admission_state(arrivals[0], initial_tokens)
    vector_mask = admission_mask(arrivals, slacks, state, num_servers,
                                 est_query_us, est_batch_us, mode, param0,
                                 param1)
    return _mask_string(loop_mask), _mask_string(vector_mask)


def _latency_digest(latencies):
    text = ",".join(str(int(latency)) for latency in latencies)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _controller_stats(stats):
    return {
        "row_hits": stats.row_hits,
        "row_misses": stats.row_misses,
        "row_conflicts": stats.row_conflicts,
        "commands_issued": stats.commands_issued,
        "cycles_elapsed": stats.cycles_elapsed,
        "requests": stats.requests_completed,
        "latency_digest": _latency_digest(stats.latencies),
    }


def _replay_ddr4(channels, dimms, ranks, kind, request_bytes):
    """One :meth:`DramSystem.run_trace` per (queue depth, outstanding
    cap), keyed ``"<depth>/<cap>"``."""
    addresses = _ddr4_trace(kind, DDR4_TRACE_LENGTH, request_bytes)
    runs = {}
    for queue_depth, outstanding in DDR4_QUEUES:
        config = DramSystemConfig(num_channels=channels,
                                  dimms_per_channel=dimms,
                                  ranks_per_dimm=ranks,
                                  queue_depth=queue_depth)
        result = DramSystem(config).run_trace(
            addresses, request_bytes=request_bytes,
            outstanding_per_channel=outstanding)
        runs["%d/%s" % (queue_depth, outstanding)] = {
            "cycles": result.cycles,
            "channels": [_controller_stats(stats)
                         for stats in result.per_channel_stats],
        }
    return runs


def _replay_controller(kind, queue_depth):
    """A bare controller draining 48 requests enqueued at cycle 0;
    also pins every request's completion cycle in enqueue order."""
    controller = MemoryController(queue_depth=queue_depth)
    requests = [MemoryRequest(physical_address=int(address))
                for address in _ddr4_trace(kind, 48, 64, seed=1)]
    for request in requests:
        controller.enqueue(request)
    stats = _controller_stats(controller.run_until_drained())
    stats["completion_digest"] = _latency_digest(
        request.completion_cycle for request in requests)
    return stats


def _replay_floors(kind, outstanding):
    """One :meth:`DramSystem.run_trace` of a rank-floor trace."""
    config, request_bytes = SINGLE_RANK, 64
    if kind == "act-same-group":
        addresses = _act_storm_trace([(1, bank) for bank in range(4)], 12)
    elif kind == "act-all-groups":
        addresses = _act_storm_trace(
            [(group, bank) for bank in range(4) for group in range(4)], 3)
    else:
        config = DramSystemConfig(num_channels=1, dimms_per_channel=4,
                                  ranks_per_dimm=2)
        addresses = _ddr4_trace("random", 96, 128, seed=2)
        request_bytes = 128
    result = DramSystem(config).run_trace(
        addresses, request_bytes=request_bytes,
        outstanding_per_channel=outstanding)
    return {"cycles": result.cycles,
            "channels": [_controller_stats(stats)
                         for stats in result.per_channel_stats]}


def _case_key(*parts):
    return "-".join(str(part) for part in parts)


def _load(name):
    return json.loads((GOLDEN_DIR / name).read_text())


# --------------------------------------------------------------------- #
# Tests                                                                 #
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed,use_cache", RANK_CASES)
def test_rank_nmp_end_state(seed, use_cache):
    expected = _load("rank_nmp.json")[_case_key(seed, use_cache)]
    assert _replay_rank(seed, use_cache) == expected


@pytest.mark.parametrize("kind,seed,use_cache", RANK_UNORDERED_CASES)
def test_rank_nmp_end_state_unordered_arrivals(kind, seed, use_cache):
    expected = _load("rank_nmp.json")[_case_key(kind, seed, use_cache)]
    assert _replay_rank(seed, use_cache, kind) == expected


@pytest.mark.parametrize("seed,servers,size", FIFO_CASES)
def test_fifo_queue_times(seed, servers, size):
    expected = _load("event_queues.json")[
        _case_key("fifo", seed, servers, size)]
    assert _replay_fifo(seed, servers, size) == expected


@pytest.mark.parametrize("seed,servers", EDF_CASES)
def test_edf_queue_times(seed, servers):
    expected = _load("event_queues.json")[_case_key("edf", seed, servers)]
    assert _replay_edf(seed, servers) == expected


@pytest.mark.parametrize("seed", ADMISSION_SEEDS)
@pytest.mark.parametrize("name", sorted(ADMISSION_CONTROLLERS))
def test_admission_masks(name, seed):
    expected = _load("admission.json")[_case_key(name, seed)]
    loop_mask, vector_mask = _replay_admission(name, seed)
    assert loop_mask == expected
    assert vector_mask == expected


@pytest.mark.parametrize("channels,dimms,ranks,kind,request_bytes",
                         DDR4_CASES)
def test_ddr4_baseline_run_trace(channels, dimms, ranks, kind,
                                 request_bytes):
    expected = _load("ddr4_baseline.json")[_case_key(
        "system", channels, dimms, ranks, kind, request_bytes)]
    assert _replay_ddr4(channels, dimms, ranks, kind,
                        request_bytes) == expected


@pytest.mark.parametrize("kind,queue_depth", CONTROLLER_CASES)
def test_ddr4_controller_drain(kind, queue_depth):
    expected = _load("ddr4_baseline.json")[_case_key(
        "controller", kind, queue_depth)]
    assert _replay_controller(kind, queue_depth) == expected


@pytest.mark.parametrize("kind,outstanding", FLOOR_CASES)
def test_ddr4_rank_floor_traces(kind, outstanding):
    expected = _load("ddr4_baseline.json")[_case_key(
        "floors", kind, outstanding)]
    assert _replay_floors(kind, outstanding) == expected


# --------------------------------------------------------------------- #
# Regeneration                                                          #
# --------------------------------------------------------------------- #
def _write(name, cases):
    """One case per line: readable diffs without one line per number."""
    lines = ["%s: %s" % (json.dumps(key),
                         json.dumps(cases[key], sort_keys=True,
                                    allow_nan=False))
             for key in sorted(cases)]
    (GOLDEN_DIR / name).write_text("{\n" + ",\n".join(lines) + "\n}\n")


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    ranks = {_case_key(seed, use_cache): _replay_rank(seed, use_cache)
             for seed, use_cache in RANK_CASES}
    ranks.update({_case_key(kind, seed, use_cache):
                  _replay_rank(seed, use_cache, kind)
                  for kind, seed, use_cache in RANK_UNORDERED_CASES})
    _write("rank_nmp.json", ranks)
    queues = {_case_key("fifo", seed, servers, size):
              _replay_fifo(seed, servers, size)
              for seed, servers, size in FIFO_CASES}
    queues.update({_case_key("edf", seed, servers):
                   _replay_edf(seed, servers)
                   for seed, servers in EDF_CASES})
    _write("event_queues.json", queues)
    admission = {}
    for name in sorted(ADMISSION_CONTROLLERS):
        for seed in ADMISSION_SEEDS:
            loop_mask, vector_mask = _replay_admission(name, seed)
            if loop_mask != vector_mask:
                raise SystemExit("admission routes disagree for %s/%d"
                                 % (name, seed))
            admission[_case_key(name, seed)] = loop_mask
    _write("admission.json", admission)
    ddr4 = {_case_key("system", *case): _replay_ddr4(*case)
            for case in DDR4_CASES}
    ddr4.update({_case_key("controller", kind, queue_depth):
                 _replay_controller(kind, queue_depth)
                 for kind, queue_depth in CONTROLLER_CASES})
    ddr4.update({_case_key("floors", kind, outstanding):
                 _replay_floors(kind, outstanding)
                 for kind, outstanding in FLOOR_CASES})
    _write("ddr4_baseline.json", ddr4)


if __name__ == "__main__":
    regenerate()
