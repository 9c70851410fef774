"""Tests for repro.dram.controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.address_mapping import MemoryGeometry, SkylakeAddressMapping
from repro.dram.commands import MemoryRequest, RequestType
from repro.dram.controller import MemoryController
from repro.dram.timing import DDR4_2400


class TestControllerBasics:
    def test_single_read_latency(self):
        controller = MemoryController()
        request = MemoryRequest(physical_address=0)
        controller.enqueue(request)
        stats = controller.run_until_drained()
        assert stats.requests_completed == 1
        # Closed bank: ACT + RD -> at least tRCD + tCL + tBL cycles.
        minimum = DDR4_2400.tRCD + DDR4_2400.tCL + DDR4_2400.tBL
        assert request.latency_cycles >= minimum

    def test_row_hit_faster_than_miss(self):
        controller = MemoryController()
        first = MemoryRequest(physical_address=0)
        second = MemoryRequest(physical_address=64 * 4)  # same row, same bank
        controller.enqueue(first)
        controller.enqueue(second)
        controller.run_until_drained()
        assert second.completion_cycle > first.completion_cycle
        assert controller.stats.row_hits >= 1

    def test_writes_not_supported(self):
        controller = MemoryController()
        with pytest.raises(NotImplementedError):
            controller.enqueue(MemoryRequest(physical_address=0,
                                             request_type=RequestType.WRITE))

    def test_queue_depth_validation(self):
        with pytest.raises(ValueError):
            MemoryController(queue_depth=0)

    def test_pending_counts_waiting_requests(self):
        controller = MemoryController(queue_depth=2)
        for i in range(5):
            controller.enqueue(MemoryRequest(physical_address=i * 1 << 20))
        assert controller.pending_requests == 5
        controller.run_until_drained()
        assert controller.pending_requests == 0
        assert controller.stats.requests_completed == 5


class TestFRFCFS:
    def test_prioritises_row_hits(self):
        controller = MemoryController()
        # Request A opens row X.  Then enqueue B (different row, same bank)
        # and C (row X, same bank).  FR-FCFS should serve C before B.
        row_bytes = 4 * 128 * 64 * 4  # stride that lands on same bank/diff row
        a = MemoryRequest(physical_address=0)
        controller.enqueue(a)
        controller.run_until_drained()
        b = MemoryRequest(physical_address=row_bytes)
        c = MemoryRequest(physical_address=64 * 4)
        controller.enqueue(b)
        controller.enqueue(c)
        controller.run_until_drained()
        if controller.stats.row_hits >= 2:
            assert c.completion_cycle < b.completion_cycle

    def test_throughput_of_random_trace(self):
        controller = MemoryController()
        import random

        rng = random.Random(0)
        addresses = [rng.randrange(0, 1 << 30) // 64 * 64 for _ in range(200)]
        stats = controller.process_trace(addresses)
        assert stats.requests_completed == 200
        # Bank-level parallelism must beat fully serialised row misses.
        serialized = 200 * (DDR4_2400.tRP + DDR4_2400.tRCD + DDR4_2400.tCL)
        assert stats.cycles_elapsed < serialized

    def test_data_bus_bound_for_row_hits(self):
        controller = MemoryController()
        # Sequential addresses in one row: throughput ~ tBL per burst.
        addresses = [i * 64 for i in range(64)]
        stats = controller.process_trace(addresses)
        assert stats.cycles_elapsed >= 64 * DDR4_2400.tBL
        assert stats.cycles_elapsed <= 64 * DDR4_2400.tBL + 200

    def test_outstanding_cap(self):
        controller = MemoryController()
        addresses = [i * 4096 for i in range(50)]
        stats = controller.process_trace(addresses, batch_size=4)
        assert stats.requests_completed == 50

    def test_stats_row_hit_rate(self):
        controller = MemoryController()
        addresses = [i * 64 for i in range(32)]
        stats = controller.process_trace(addresses)
        assert 0.9 <= stats.row_hit_rate <= 1.0 or stats.row_hits >= 28
        assert stats.average_latency_cycles > 0


# --------------------------------------------------------------------- #
# Properties over generated traces and configurations                   #
# --------------------------------------------------------------------- #
#: 4 KiB pages repeated at 1 GiB offsets: same bank, different rows, so
#: generated traces mix row hits, misses and conflicts.
_HOT_PAGES = [base + (offset << 30) for base in (0, 5 * 4096, 9 * 4096)
              for offset in range(3)]


@st.composite
def controller_cases(draw):
    """(controller, requests, outstanding cap): 1-2 DIMMs x 1-2 ranks,
    any queue depth, random blocks mixed with hot-page blocks."""
    dimms = draw(st.integers(1, 2))
    ranks = draw(st.integers(1, 2))
    queue_depth = draw(st.integers(1, 32))
    cap = draw(st.one_of(st.none(), st.integers(1, 32)))
    hot = st.builds(lambda page, block: page + 64 * block,
                    st.sampled_from(_HOT_PAGES), st.integers(0, 63))
    cold = st.integers(0, 1 << 24).map(lambda block: 64 * block)
    addresses = draw(st.lists(st.one_of(hot, cold), min_size=1,
                              max_size=60))
    geometry = MemoryGeometry(num_channels=1, dimms_per_channel=dimms,
                              ranks_per_dimm=ranks)
    controller = MemoryController(
        num_dimms=dimms, ranks_per_dimm=ranks, queue_depth=queue_depth,
        address_mapping=SkylakeAddressMapping(geometry))
    requests = [MemoryRequest(physical_address=address)
                for address in addresses]
    return controller, requests, cap


def _next_commands(controller, requests):
    """``(command, rank, bank group, bank)`` each request needs next,
    from the public bank state."""
    channel = controller.channel
    commands = []
    for request in requests:
        address = controller.address_mapping.map(request.physical_address)
        rank_index = channel.global_rank_index(address.dimm, address.rank)
        bank = channel.rank(rank_index).bank(address.bank_group,
                                             address.bank)
        commands.append((bank.required_commands(address.row)[0],
                         rank_index, address.bank_group, address.bank))
    return commands


def _drive(controller, requests, cap, on_tick):
    """Enqueue ``requests`` in order, at most ``cap`` outstanding, and
    tick by hand until drained; ``on_tick(old_cycle, old_commands,
    queued)`` runs after every tick, ``queued`` being the requests in
    the read queue."""
    enqueued = []
    index = 0
    limit = len(requests) if cap is None else cap
    while index < len(requests) or controller.pending_requests:
        while index < len(requests) and \
                controller.pending_requests < limit:
            controller.enqueue(requests[index])
            enqueued.append(requests[index])
            index += 1
        old_cycle = controller.cycle
        old_commands = controller.stats.commands_issued
        controller.tick()
        # Admission is FIFO and fills every free slot, so the queue holds
        # the oldest ``queue_depth`` outstanding requests.
        outstanding = [request for request in enqueued
                       if request.completion_cycle < 0]
        on_tick(old_cycle, old_commands,
                outstanding[:controller.queue_depth])


class TestControllerProperties:
    @settings(max_examples=80, deadline=None)
    @given(controller_cases())
    def test_every_request_completes_once_and_bus_is_never_shared(
            self, case):
        controller, requests, cap = case
        _drive(controller, requests, cap, lambda *_: None)
        stats = controller.stats
        assert stats.requests_completed == len(requests)
        assert len(stats.latencies) == len(requests)
        assert all(request.completion_cycle >= 0 for request in requests)
        floor = DDR4_2400.tCL + DDR4_2400.tBL
        assert all(request.latency_cycles >= floor for request in requests)
        completions = sorted(request.completion_cycle
                             for request in requests)
        assert all(later - earlier >= DDR4_2400.tBL
                   for earlier, later in zip(completions, completions[1:]))

    @settings(max_examples=80, deadline=None)
    @given(controller_cases())
    def test_skipped_cycles_are_idle(self, case):
        controller, requests, cap = case
        channel = controller.channel

        def check(old_cycle, old_commands, queued):
            issued = controller.stats.commands_issued - old_commands
            if issued:
                assert issued == 1
                assert controller.cycle == old_cycle + 1
                return
            assert controller.cycle > old_cycle
            commands = _next_commands(controller, queued)
            for cycle in range(old_cycle, controller.cycle):
                for command in commands:
                    assert not channel.can_issue(*command, cycle)
            if commands:
                # The jump lands on the first cycle a command can issue.
                assert any(channel.can_issue(*command, controller.cycle)
                           for command in commands)

        _drive(controller, requests, cap, check)
        assert controller.stats.requests_completed == len(requests)
