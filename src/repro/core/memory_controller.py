"""Host-side memory controller with the NMP extension (Fig. 10(d)).

The NMP extension adds, next to the regular FR-FCFS read/write queues, an
NMP packet queue with its own scheduling and arbitration: packets from
parallel cores are queued, scheduled (optionally table-aware), decoded into
NMP-Insts, translated from physical to DRAM addresses, and streamed to the
RecNMP processing units over the channel.  The FR-FCFS reordering applies
*within* a packet only, never across packets, so partial-sum accumulation
counters stay consistent.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core import kernels as _kernels
from repro.core.instruction import PackedInstructions
from repro.core.scheduler import PacketScheduler


@dataclass
class NMPControllerStats:
    """Counters of the NMP-extended memory controller."""

    packets_received: int = 0
    packets_issued: int = 0
    instructions_issued: int = 0
    counter_configurations: int = 0
    per_rank_instructions: dict = field(default_factory=dict)


class NMPMemoryController:
    """Queue, schedule and dispatch NMP packets to a RecNMP channel.

    Parameters
    ----------
    num_ranks:
        Channel-wide rank count of the attached RecNMP channel.
    scheduling_policy:
        ``"fcfs"`` or ``"table-aware"`` (Section III-D).
    rank_of_address:
        Callable mapping a physical byte address to a channel-wide rank
        index; defaults to 64 B-block interleaving across ranks.
    reorder_window:
        FR-FCFS reordering window *within* a packet: instructions to the
        same DRAM row within the window are grouped to increase row-buffer
        hits (the host-side controller does the heavy lifting of request
        reordering per the paper).
    ranks_of_addresses:
        Optional vectorised counterpart of ``rank_of_address``: a callable
        mapping a numpy array of physical byte addresses to a numpy array
        of rank indices.  When given, the per-packet rank computation runs
        as one array operation instead of one Python call per instruction.
        Only valid for *stateless* mappings (a stateful mapping such as
        first-touch page colouring depends on call order and must come in
        as the scalar ``rank_of_address``).
    """

    def __init__(self, num_ranks=8, scheduling_policy="table-aware",
                 rank_of_address=None, reorder_window=16,
                 ranks_of_addresses=None):
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        if reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        self.num_ranks = int(num_ranks)
        self.scheduler = PacketScheduler(policy=scheduling_policy)
        if rank_of_address is None:
            rank_of_address = lambda address: \
                (address // 64) % self.num_ranks  # noqa: E731
        self.rank_of_address = rank_of_address
        self.ranks_of_addresses = ranks_of_addresses
        self.reorder_window = int(reorder_window)
        self.stats = NMPControllerStats()

    # ------------------------------------------------------------------ #
    def submit(self, packets):
        """Submit the packet stream of one core / SLS thread."""
        packets = list(packets)
        self.scheduler.add_source(packets)
        self.stats.packets_received += len(packets)

    def rank_of_instruction(self, instruction):
        """Channel-wide rank index an NMP-Inst is routed to."""
        return self.rank_of_address(instruction.daddr * 64)

    def _packet_ranks(self, daddrs):
        """Per-instruction rank indices of a packet's Daddr array, computed
        once per packet and validated.

        Uses the vectorised ``ranks_of_addresses`` hook when available;
        otherwise one scalar ``rank_of_address`` call per instruction *in
        packet order* -- the first-touch order a stateful mapping (page
        colouring) has always observed.  Returns an int64 array; raises
        ``ValueError`` for a rank outside ``[0, num_ranks)``.
        """
        if self.ranks_of_addresses is not None:
            ranks = np.asarray(self.ranks_of_addresses(daddrs * 64),
                               dtype=np.int64)
        else:
            rank_of_address = self.rank_of_address
            ranks = np.fromiter(
                (rank_of_address(daddr * 64) for daddr in daddrs.tolist()),
                np.int64, len(daddrs))
        if len(ranks) and (int(ranks.min()) < 0
                           or int(ranks.max()) >= self.num_ranks):
            bad = ranks[(ranks < 0) | (ranks >= self.num_ranks)][0]
            raise ValueError("invalid rank %d for instruction" % int(bad))
        return ranks

    def _reorder_indices(self, rows, ranks):
        """FR-FCFS reorder as an index permutation (see dispatch).

        Within a sliding window of the ``reorder_window`` oldest unissued
        instructions, the oldest one whose row matches the last row issued
        to its rank goes first (row-buffer hit); without a match the
        oldest goes.  Ordering across PsumTags is irrelevant for
        correctness because each accumulates into its own register.
        ``rows`` carries the per-instruction DRAM row (``daddr // 128``)
        and ``ranks`` the rank indices, each in ``[0, num_ranks)``.

        One pass per instruction instead of a window rescan: every
        instruction links to the next one of the same ``(rank, row)``,
        and ``candidate[rank]`` holds the oldest unissued instruction of
        the row last issued to that rank -- always the head of its
        ``(rank, row)`` group, since a group only ever issues its head.
        The pick is the smallest candidate that has entered the window,
        else the oldest unissued instruction.
        """
        count = len(rows)
        if count <= 2:
            return list(range(count))
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        if isinstance(ranks, np.ndarray):
            ranks = ranks.tolist()
        next_same = [count] * count
        latest = {}
        for index in range(count - 1, -1, -1):
            key = (ranks[index], rows[index])
            next_same[index] = latest.get(key, count)
            latest[key] = index
        candidate = [count] * self.num_ranks
        # One trailing never-issued slot stops the oldest-pointer scan.
        issued = bytearray(count + 1)
        oldest = 0
        window_end = min(self.reorder_window, count)
        order = []
        append = order.append
        for _ in range(count):
            index = min(candidate)
            if index >= window_end:
                index = oldest
            append(index)
            issued[index] = 1
            while issued[oldest]:
                oldest += 1
            candidate[ranks[index]] = next_same[index]
            if window_end < count:
                window_end += 1
        return order

    def _reorder_within_packet(self, packet):
        """FR-FCFS-style reordering of instructions inside one packet."""
        instructions = list(packet.instructions)
        if len(instructions) <= 2:
            return instructions
        daddrs = packet.packed_arrays().daddrs
        return [instructions[i] for i in self._reorder_indices(
            daddrs // 128, self._packet_ranks(daddrs))]

    # ------------------------------------------------------------------ #
    def dispatch(self, channel, reorder=True):
        """Schedule all submitted packets and execute them on ``channel``.

        Returns ``(total_cycles, per_packet_completions)`` where completions
        are measured relative to each packet's own start (latency), and the
        packets are issued back to back (the channel pipeline overlaps the
        rank work of consecutive packets through the rank-NMP state).

        Per packet, the instruction->rank mapping is computed exactly once
        from the packet's cached Daddr array and threaded through the
        reorder pass, the per-rank statistics and the channel.  Packets
        of at least the kernel cutover size run array-native
        (``channel.execute_packed``, bit-identical); smaller ones, and
        every packet on hosts without a kernel, run on instruction
        objects (``channel.execute_packet``).
        """
        order = self.scheduler.schedule()
        per_packet = []
        current_cycle = 0
        per_rank_counts = self.stats.per_rank_instructions
        use_packed = getattr(channel, "supports_packed", False)
        # Tiny packets stay on the object path: the kernel-call fixed
        # costs only pay for themselves past a minimum packet size.
        packed_min = _kernels.packed_dispatch_min_instructions() \
            if use_packed else 0
        for packet in order:
            packed = packet.packed_arrays()
            daddrs = packed.daddrs
            count = len(daddrs)
            ranks = self._packet_ranks(daddrs)
            array_native = use_packed and count >= packed_min
            instructions = packet.instructions
            if reorder and count > 2:
                if array_native:
                    permutation = _kernels.reorder_indices(
                        daddrs // 128, ranks, self.reorder_window,
                        self.num_ranks)
                else:
                    permutation = self._reorder_indices(daddrs // 128,
                                                        ranks)
                    instructions = [instructions[i] for i in permutation]
                    permutation = np.array(permutation, dtype=np.int64)
                packed = packed.take(permutation)
                ranks = ranks[permutation]
            self.stats.counter_configurations += 1
            if array_native:
                completion = channel.execute_packed(
                    packed, start_cycle=current_cycle, ranks=ranks)
            else:
                completion = channel.execute_packet(
                    _ReorderedPacketView(packet, instructions, packed),
                    start_cycle=current_cycle, ranks=ranks)
            per_packet.append(completion - current_cycle)
            if count:
                for rank, rank_count in enumerate(
                        np.bincount(ranks).tolist()):
                    if rank_count:
                        per_rank_counts[rank] = \
                            per_rank_counts.get(rank, 0) + rank_count
            self.stats.instructions_issued += count
            self.stats.packets_issued += 1
            current_cycle = completion
        return current_cycle, per_packet

    def reset(self):
        """Clear queued packets and statistics."""
        self.scheduler.clear()
        self.stats = NMPControllerStats()


class _ReorderedPacketView:
    """A lightweight packet proxy exposing reordered instructions.

    ``__slots__`` keeps the proxy explicit: its own state is exactly
    ``(_packet, instructions, num_poolings, _packed)``, a mistyped
    assignment raises instead of silently creating an attribute that the
    ``__getattr__`` delegation would then mask, and ``num_poolings`` is
    computed once at construction instead of rebuilding a set of PsumTags
    on every access (the channel reads it per packet completion).
    ``packed`` optionally carries the
    :class:`~repro.core.instruction.PackedInstructions` of
    ``instructions`` (the packet's cached arrays, permuted), which
    :meth:`packed_arrays` then returns instead of re-packing.
    """

    __slots__ = ("_packet", "instructions", "num_poolings", "_packed")

    def __init__(self, packet, instructions, packed=None):
        self._packet = packet
        self.instructions = instructions
        self.num_poolings = len({inst.psum_tag for inst in instructions})
        self._packed = packed

    def packed_arrays(self):
        """Struct-of-arrays view of :attr:`instructions` (issue order)."""
        if self._packed is None:
            self._packed = PackedInstructions.from_instructions(
                self.instructions)
        return self._packed

    def __len__(self):
        return len(self.instructions)

    def __getattr__(self, name):
        return getattr(self._packet, name)
