"""Host-side FR-FCFS memory controller.

The controller owns one channel.  Requests arrive as
:class:`~repro.dram.commands.MemoryRequest` objects; each 64-byte burst is
scheduled with the First-Ready, First-Come-First-Served policy: among queued
requests whose next DDR command is ready to issue, row-buffer hits win, ties
broken by age.  An open-page policy keeps rows open after a read.  The
clock jumps over cycles at which no queued request can issue (see
:meth:`MemoryController.tick`), so results are cycle-exact at a cost that
follows the commands issued, not the cycles elapsed.

The DDR timing arithmetic lives in :mod:`repro.dram`, once per level:
the bank keeps its own ready cycles (``Bank.next_act``/``next_read``/
``next_pre``); the rank folds tFAW, tRRD_S/L, tCCD_S/L and its data bus
into per-bank-group *timing floors* (:meth:`Rank.timing_floors`), cached
until a writer of rank state drops them -- :meth:`Rank.issue`,
:meth:`Rank.set_kernel_scalars` and :meth:`Rank.set_timing_state` (the
rank-NMP write-back); the channel adds the shared C/A bus and the
data-bus floors (:meth:`Channel.data_floors`).  The selection pass reads
one bank field, one cached rank floor and, for RD, one channel data floor
per queued request, with no per-entry method call.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.dram.address_mapping import SkylakeAddressMapping
from repro.dram.channel import Channel
from repro.dram.commands import CommandType, MemoryRequest, RequestType
from repro.dram.timing import DDR4_2400


@dataclass
class ControllerStats:
    """Aggregated controller statistics."""

    requests_completed: int = 0
    total_latency_cycles: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    commands_issued: int = 0
    cycles_elapsed: int = 0
    latencies: list = field(default_factory=list)

    @property
    def average_latency_cycles(self):
        if not self.requests_completed:
            return 0.0
        return self.total_latency_cycles / self.requests_completed

    @property
    def row_hit_rate(self):
        total = self.row_hits + self.row_misses + self.row_conflicts
        if not total:
            return 0.0
        return self.row_hits / total


class _PendingRequest:
    """Book-keeping wrapper around a queued memory request.

    The request's address is decoded once, at enqueue: the wrapper keeps
    the channel-wide rank index, the :class:`~repro.dram.bank.Bank`
    object and the row it reads.
    """

    __slots__ = ("request", "rank_index", "bank", "row", "outcome_recorded")

    def __init__(self, request, rank_index, bank, row):
        self.request = request
        self.rank_index = rank_index
        self.bank = bank
        self.row = row
        self.outcome_recorded = False


class MemoryController:
    """FR-FCFS controller for a single DRAM channel.

    Parameters
    ----------
    timing:
        DDR4 timing parameters.
    num_dimms, ranks_per_dimm:
        Channel population.
    address_mapping:
        An address-mapping object with a ``map(physical_address)`` method.
        Defaults to the Skylake-style mapping.
    queue_depth:
        Read-queue capacity (Table I: 32 entries).
    """

    def __init__(self, timing=None, num_dimms=1, ranks_per_dimm=2,
                 address_mapping=None, queue_depth=32, channel_index=0):
        self.timing = timing or DDR4_2400
        self.channel = Channel(self.timing, num_dimms=num_dimms,
                               ranks_per_dimm=ranks_per_dimm,
                               channel_index=channel_index)
        self.address_mapping = address_mapping or SkylakeAddressMapping()
        self.queue_depth = int(queue_depth)
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.cycle = 0
        self._queue = []
        self._waiting = deque()     # requests not yet admitted to the queue
        self.stats = ControllerStats()

    # ------------------------------------------------------------------ #
    # Request admission                                                  #
    # ------------------------------------------------------------------ #
    def enqueue(self, request):
        """Submit a memory request; it is admitted when queue space allows."""
        self._enqueue(request,
                      self.address_mapping.map(request.physical_address))

    def _enqueue(self, request, address):
        """:meth:`enqueue` for a request whose ``address`` (a
        :class:`~repro.dram.address_mapping.DramAddress`) is decoded."""
        if request.request_type is not RequestType.READ:
            raise NotImplementedError(
                "the RecNMP study only exercises read traffic")
        channel = self.channel
        rank_index = channel.global_rank_index(address.dimm, address.rank)
        bank = channel.rank(rank_index).bank(address.bank_group, address.bank)
        request.arrival_cycle = self.cycle
        self._waiting.append(
            _PendingRequest(request, rank_index, bank, address.row))
        self._admit_waiting()

    def _admit_waiting(self):
        while self._waiting and len(self._queue) < self.queue_depth:
            self._queue.append(self._waiting.popleft())

    @property
    def pending_requests(self):
        """Number of requests still queued or waiting for admission."""
        return len(self._queue) + len(self._waiting)

    # ------------------------------------------------------------------ #
    # Scheduling                                                         #
    # ------------------------------------------------------------------ #
    def _select_request(self):
        """FR-FCFS selection in one pass over the queue.

        An entry's next command is RD on a row hit, ACT on a closed bank
        and PRE on a row conflict.  It may issue once its bank's ready
        cycle for that command, the rank's cached timing floor for the
        bank's group (:meth:`Rank.timing_floors`) and, for RD, the
        channel's data-bus floor for the rank (:meth:`Channel.
        data_floors`) have all passed, and the C/A bus is free.  Returns
        ``(pending, command, None)`` for the oldest entry that is a
        ready row hit, else the oldest ready entry.  When no entry can
        issue at ``self.cycle`` it returns ``(None, None, wake)`` with
        ``wake`` the earliest cycle any entry can issue (``None`` for an
        empty queue).
        """
        channel = self.channel
        # Nothing issues while the C/A bus is busy (the wake below is
        # then raised to its free cycle); ready cycles are never negative.
        ca_free = channel.next_ca_free
        cycle = self.cycle if ca_free <= self.cycle else -1
        floors = [rank.timing_floors() for rank in channel.ranks]
        data_rank, data_same, data_other = channel.data_floors()
        first = None
        first_command = None
        wake = None
        for pending in self._queue:
            bank = pending.bank
            open_row = bank.open_row
            if open_row == pending.row:
                ready = bank.next_read
                floor = floors[pending.rank_index][1][bank.bank_group]
                if floor > ready:
                    ready = floor
                floor = data_same if pending.rank_index == data_rank \
                    else data_other
                if floor > ready:
                    ready = floor
                if ready <= cycle:
                    # Queue order is arrival order, so the first ready
                    # hit is the oldest ready hit.
                    return pending, CommandType.RD, None
            elif first is not None:
                # A ready entry is already chosen; only a ready row hit
                # can displace it.
                continue
            elif open_row is None:
                ready = bank.next_act
                floor = floors[pending.rank_index][0][bank.bank_group]
                if floor > ready:
                    ready = floor
                if ready <= cycle:
                    first = pending
                    first_command = CommandType.ACT
                    continue
            else:
                ready = bank.next_pre
                if ready <= cycle:
                    first = pending
                    first_command = CommandType.PRE
                    continue
            if wake is None or ready < wake:
                wake = ready
        if first is not None:
            return first, first_command, None
        if wake is not None and ca_free > wake:
            wake = ca_free
        return None, None, wake

    # ------------------------------------------------------------------ #
    # Simulation loop                                                    #
    # ------------------------------------------------------------------ #
    def tick(self):
        """Issue at most one command and advance the clock (>= 1 cycle).

        Admits waiting requests, then issues the FR-FCFS pick at the
        current cycle and moves on one cycle.  When no queued request
        can issue now, the clock jumps straight to the next cycle at
        which one can: nothing in the bank, rank, bus or queue state
        changes in between, so the skipped cycles are idle and the
        results are cycle-exact.
        """
        self._admit_waiting()
        pending, command, wake = self._select_request()
        if pending is None:
            self.cycle = self.cycle + 1 if wake is None else wake
            return
        self._issue_for(pending, command)
        self.cycle += 1

    def _issue_for(self, pending, command):
        if not pending.outcome_recorded:
            # Record hit/miss/conflict once, at the first command issued on
            # behalf of this request.
            if command is CommandType.RD:
                self.stats.row_hits += 1
            elif command is CommandType.ACT:
                self.stats.row_misses += 1
            else:
                self.stats.row_conflicts += 1
            pending.outcome_recorded = True
        bank = pending.bank
        data_done = self.channel.issue(command, pending.rank_index,
                                       bank.bank_group, bank.bank_index,
                                       pending.row, self.cycle)
        self.stats.commands_issued += 1
        if command is CommandType.RD:
            self._complete(pending, data_done)

    def _complete(self, pending, completion_cycle):
        pending.request.completion_cycle = completion_cycle
        latency = completion_cycle - pending.request.arrival_cycle
        self.stats.requests_completed += 1
        self.stats.total_latency_cycles += latency
        self.stats.latencies.append(latency)
        self._queue.remove(pending)

    def run_until_drained(self, max_cycles=10_000_000):
        """Tick until all queued requests complete (or ``max_cycles``)."""
        start_cycle = self.cycle
        while self.pending_requests:
            if self.cycle - start_cycle > max_cycles:
                raise RuntimeError(
                    "controller did not drain within %d cycles" % max_cycles)
            self.tick()
        self.stats.cycles_elapsed = self.cycle
        return self.stats

    # ------------------------------------------------------------------ #
    def process_trace(self, physical_addresses, batch_size=None):
        """Convenience helper: enqueue a read for every address and drain.

        ``batch_size`` optionally throttles admission so that at most that
        many requests are outstanding at once (mimicking a core's MSHR
        limit); ``None`` enqueues everything up front.
        """
        mapping = self.address_mapping
        trace = []
        for address in physical_addresses:
            address = int(address)
            trace.append((address, mapping.map(address)))
        return self._process_decoded(trace, batch_size)

    def _process_decoded(self, trace, batch_size):
        """:meth:`process_trace` over ``(physical address, DramAddress)``
        pairs, for callers that already decoded the addresses."""
        if batch_size is None:
            for address, decoded in trace:
                self._enqueue(MemoryRequest(physical_address=address),
                              decoded)
            return self.run_until_drained()
        index = 0
        while index < len(trace) or self.pending_requests:
            while index < len(trace) and self.pending_requests < batch_size:
                address, decoded = trace[index]
                self._enqueue(MemoryRequest(physical_address=address),
                              decoded)
                index += 1
            self.tick()
        self.stats.cycles_elapsed = self.cycle
        return self.stats
