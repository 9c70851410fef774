"""RecNMP processing unit (PU): one per DIMM buffer chip (Fig. 8(a)).

A PU is a DIMM-NMP module plus one rank-NMP module per rank.  A memory
channel populated with several RecNMP DIMMs exposes ``num_dimms *
ranks_per_dimm`` concurrently active ranks; with software coordination the
partial sums of multiple PUs are combined on the host.

This module also provides :class:`RecNMPChannel`, the channel-level
composition used by the simulator: it distributes a packet's instructions
over all PUs/ranks of the channel and accounts for the shared C/A interface
through which the compressed NMP-Insts are delivered.
"""

import numpy as np

from repro.core import kernels as _kernels
from repro.core.dimm_nmp import DimmNMP
from repro.core.rank_nmp import RankNMPConfig


def _rank_segments(ranks):
    """Split a packet per rank with one stable sort.

    Returns ``(order, bounds)``: ``order`` lists packet positions grouped
    by ascending rank, in packet order within a rank, and rank ``k``'s
    positions are ``order[bounds[k]:bounds[k + 1]]``.
    """
    order = np.argsort(ranks, kind="stable")
    sorted_ranks = ranks[order]
    starts = np.flatnonzero(sorted_ranks[1:] != sorted_ranks[:-1]) + 1
    return order, [0] + starts.tolist() + [len(ranks)]


class RecNMPProcessingUnit:
    """One RecNMP PU: the DIMM-NMP plus its rank-NMPs on one DIMM."""

    def __init__(self, num_ranks=2, rank_config=None, dimm_index=0):
        self.dimm_index = dimm_index
        self.dimm_nmp = DimmNMP(num_ranks=num_ranks, rank_config=rank_config,
                                dimm_index=dimm_index)

    @property
    def num_ranks(self):
        return self.dimm_nmp.num_ranks

    @property
    def rank_nmps(self):
        return self.dimm_nmp.rank_nmps

    def execute_packet(self, packet, start_cycle=0, rank_of=None):
        """Run one packet on this PU; returns the completion cycle."""
        completion, _ = self.dimm_nmp.execute_packet(
            packet, start_cycle=start_cycle, rank_of=rank_of)
        return completion

    def stats(self):
        return self.dimm_nmp.aggregate_stats()

    def reset(self):
        self.dimm_nmp.reset()


class RecNMPChannel:
    """All RecNMP PUs on one memory channel.

    Parameters
    ----------
    num_dimms, ranks_per_dimm:
        Channel population (the paper sweeps 1x2, 1x4, 2x2, 2x4, 4x2).
    rank_config:
        Shared rank-NMP configuration.
    instruction_rate_per_cycle:
        NMP-Insts the host memory controller can push over the channel per
        DRAM cycle.  The compressed format achieves 2 per cycle (Fig. 9(b)).
    """

    def __init__(self, num_dimms=4, ranks_per_dimm=2, rank_config=None,
                 instruction_rate_per_cycle=2.0):
        if num_dimms <= 0 or ranks_per_dimm <= 0:
            raise ValueError("num_dimms and ranks_per_dimm must be positive")
        self.num_dimms = int(num_dimms)
        self.ranks_per_dimm = int(ranks_per_dimm)
        self.rank_config = rank_config or RankNMPConfig()
        self.instruction_rate_per_cycle = float(instruction_rate_per_cycle)
        self._arrival_offsets = np.empty(0, dtype=np.int64)
        self.processing_units = [
            RecNMPProcessingUnit(num_ranks=ranks_per_dimm,
                                 rank_config=self.rank_config,
                                 dimm_index=d)
            for d in range(self.num_dimms)
        ]

    # ------------------------------------------------------------------ #
    @property
    def num_ranks(self):
        """Total concurrently-activatable ranks on the channel."""
        return self.num_dimms * self.ranks_per_dimm

    def rank_nmp(self, channel_rank_index):
        """Rank-NMP module for a channel-wide rank index."""
        dimm, rank = divmod(channel_rank_index, self.ranks_per_dimm)
        return self.processing_units[dimm].rank_nmps[rank]

    def all_rank_nmps(self):
        """All rank-NMP modules of the channel, in channel-rank order."""
        return [self.rank_nmp(r) for r in range(self.num_ranks)]

    # ------------------------------------------------------------------ #
    def execute_packet(self, packet, start_cycle=0, rank_of_instruction=None,
                       ranks=None):
        """Execute one packet across all ranks of the channel.

        ``rank_of_instruction`` maps an instruction to a channel-wide rank
        index (default: Daddr modulo rank count); ``ranks`` optionally
        carries the precomputed per-instruction rank indices (aligned with
        ``packet.instructions``) so the memory controller's once-per-packet
        mapping is not re-derived here.  Returns the packet completion
        cycle.
        """
        instructions = packet.instructions
        count = len(instructions)
        if count == 0:
            return start_cycle
        daddrs = packet.packed_arrays().daddrs
        if ranks is None and rank_of_instruction is not None:
            ranks = [rank_of_instruction(inst) for inst in instructions]
        ranks = self._checked_ranks(daddrs, ranks)
        # Decode every instruction's (bank group, bank, row) once for the
        # whole packet (the rank config is shared by all rank-NMPs), then
        # split the packet per rank with one stable sort: each rank keeps
        # its instructions in packet order, so their arrival cycles (the
        # shared C/A interface delivering instructions sequentially) stay
        # non-decreasing.
        order, bounds = _rank_segments(ranks)
        bank_groups, bank_indices, rows = _kernels.pack_decoded(
            self.rank_config, daddrs[order])
        bank_groups = bank_groups.tolist()
        bank_indices = bank_indices.tolist()
        rows = rows.tolist()
        arrivals = self._arrivals(start_cycle, count)[order].tolist()
        positions = order.tolist()
        issue_ranks = ranks[order].tolist()
        per_rank_last = []
        for begin, end in zip(bounds, bounds[1:]):
            rank_nmp = self.rank_nmp(issue_ranks[begin])
            per_rank_last.append(rank_nmp.execute_instructions(
                [instructions[i] for i in positions[begin:end]],
                arrival_cycles=arrivals[begin:end],
                decoded=(bank_groups[begin:end], bank_indices[begin:end],
                         rows[begin:end])))
        return self._completion(max(per_rank_last), packet.num_poolings)

    @property
    def supports_packed(self):
        """True when every rank-NMP has an active command-issue kernel
        (the array-native :meth:`execute_packed` path is then available
        and bit-identical to :meth:`execute_packet`)."""
        return all(rank_nmp.supports_packed
                   for rank_nmp in self.all_rank_nmps())

    def execute_packed(self, packed, start_cycle=0, ranks=None):
        """Array-native twin of :meth:`execute_packet`.

        ``packed`` is a :class:`~repro.core.instruction.PackedInstructions`
        already in issue order; ``ranks`` the aligned per-instruction
        channel-rank indices (int64 array; defaults to Daddr modulo rank
        count like the object path).  The per-rank split, C/A arrival
        times and completion math are shared with the object path.
        """
        count = len(packed)
        if count == 0:
            return start_cycle
        ranks = self._checked_ranks(packed.daddrs, ranks)
        order, bounds = _rank_segments(ranks)
        packed = packed.take(order)
        arrivals = self._arrivals(start_cycle, count)[order]
        issue_ranks = ranks[order].tolist()
        per_rank_last = []
        for begin, end in zip(bounds, bounds[1:]):
            rank_nmp = self.rank_nmp(issue_ranks[begin])
            per_rank_last.append(rank_nmp.execute_packed(
                packed.take(slice(begin, end)), arrivals[begin:end]))
        return self._completion(max(per_rank_last), packed.num_poolings)

    def _checked_ranks(self, daddrs, ranks):
        """Per-instruction rank indices as a validated int64 array
        (default: Daddr modulo rank count)."""
        num_ranks = self.num_ranks
        if ranks is None:
            return daddrs % num_ranks
        ranks = np.asarray(ranks, dtype=np.int64)
        if int(ranks.min()) < 0 or int(ranks.max()) >= num_ranks:
            bad = ranks[(ranks < 0) | (ranks >= num_ranks)][0]
            raise ValueError("invalid rank %d for instruction" % int(bad))
        return ranks

    def _arrivals(self, start_cycle, count):
        """C/A arrival cycle of each packet position: the shared
        interface delivers ``instruction_rate_per_cycle`` per cycle."""
        offsets = self._arrival_offsets
        if len(offsets) < count:
            offsets = (np.arange(max(count, 2 * len(offsets)))
                       / self.instruction_rate_per_cycle).astype(np.int64)
            self._arrival_offsets = offsets
        return start_cycle + offsets[:count]

    def _completion(self, slowest, num_poolings):
        """Adder-tree + DIMM.Sum transfer overhead (constant per packet,
        one transfer cycle per pooled output) after the slowest rank."""
        dimm_nmp = self.processing_units[0].dimm_nmp
        return (slowest + dimm_nmp.adder_tree_latency_cycles
                + dimm_nmp.sum_transfer_cycles * num_poolings)

    def rank_load(self, packet, rank_of_instruction=None):
        """Per-rank instruction counts for one packet."""
        if rank_of_instruction is None:
            rank_of_instruction = \
                lambda inst: int(inst.daddr) % self.num_ranks  # noqa: E731
        counts = [0] * self.num_ranks
        for instruction in packet.instructions:
            counts[rank_of_instruction(instruction)] += 1
        return counts

    def aggregate_stats(self):
        """Aggregate statistics across all PUs of the channel."""
        totals = {
            "instructions": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_bypasses": 0,
            "dram_reads": 0,
            "activations": 0,
            "bytes_from_dram": 0,
            "bytes_from_cache": 0,
        }
        for rank_nmp in self.all_rank_nmps():
            stats = rank_nmp.stats
            totals["instructions"] += stats.instructions
            totals["cache_hits"] += stats.cache_hits
            totals["cache_misses"] += stats.cache_misses
            totals["cache_bypasses"] += stats.cache_bypasses
            totals["dram_reads"] += stats.dram_reads
            totals["activations"] += stats.activations
            totals["bytes_from_dram"] += stats.bytes_from_dram
            totals["bytes_from_cache"] += stats.bytes_from_cache
        lookups = (totals["cache_hits"] + totals["cache_misses"]
                   + totals["cache_bypasses"])
        totals["cache_hit_rate"] = (totals["cache_hits"] / lookups
                                    if lookups else 0.0)
        return totals

    def reset(self):
        for pu in self.processing_units:
            pu.reset()
