"""Packet generator: turn SLS operator calls into packets of NMP-Insts.

This module reproduces the software/memory-controller pipeline of Fig. 10 and
Fig. 13: physical addresses are generated for every embedding lookup (via the
simplified OS page mapping), the DDR command tags (ACT/RD/PRE presence) are
set from the relative position of consecutive accesses, the LocalityBit is
filled in from hot-entry profiling, and the lookups are grouped into NMP
packets of a configurable number of poolings (bounded by the 4-bit PsumTag).
"""

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.core.hot_entry import HotEntryProfiler
from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_PRE,
    DDR_CMD_RD,
    NMPInstruction,
    NMPOpcode,
    NMPPacket,
    PackedInstructions,
)

_FULL_SEQUENCE = DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE


def _tags_from_row_changes(rows, opens):
    """Set ACT/RD/PRE presence from consecutive-access row locality.

    The host-side memory controller sets the tags from the relative
    physical address of consecutive embedding accesses: when the next
    vector falls in the same DRAM row (``rows``) the ACT (and the
    preceding PRE) can be elided; otherwise -- and wherever ``opens``
    starts a new packet -- the full PRE+ACT+RD sequence is required.
    """
    changes = opens.copy()
    changes[1:] |= rows[1:] != rows[:-1]
    return np.where(changes, _FULL_SEQUENCE, DDR_CMD_RD)


@dataclass
class PacketGeneratorConfig:
    """Configuration of packet generation.

    Attributes
    ----------
    poolings_per_packet:
        How many pooling operations share one NMP packet (1-16; the paper
        sweeps 1-8 in Fig. 14(a)).
    vector_size_bytes:
        Embedding vector size (64-256 B in production).
    row_buffer_bytes:
        DRAM row size used to decide whether consecutive vectors share a row
        (and therefore can skip ACT/PRE).
    enable_hot_entry_profiling:
        If True the LocalityBit is set from a :class:`HotEntryProfiler`;
        otherwise every instruction is marked cacheable (the paper's
        "RecNMP-cache" configuration without profiling).
    hot_entry_threshold:
        Repetition threshold for the profiler.
    opcode:
        SLS-family opcode stamped on the generated instructions.
    """

    poolings_per_packet: int = 8
    vector_size_bytes: int = 64
    row_buffer_bytes: int = 8192
    enable_hot_entry_profiling: bool = True
    hot_entry_threshold: int = 2
    opcode: NMPOpcode = NMPOpcode.SUM

    def __post_init__(self):
        if not 1 <= self.poolings_per_packet <= 16:
            raise ValueError("poolings_per_packet must be in [1, 16] "
                             "(4-bit PsumTag)")
        if self.vector_size_bytes % 64:
            raise ValueError("vector_size_bytes must be a multiple of 64")
        if self.vector_size_bytes <= 0:
            raise ValueError("vector_size_bytes must be positive")
        if self.row_buffer_bytes <= 0:
            raise ValueError("row_buffer_bytes must be positive")

    @property
    def vsize(self):
        """Vector size in 64 B bursts."""
        return self.vector_size_bytes // 64


class PacketGenerator:
    """Generate NMP packets from SLS requests.

    Parameters
    ----------
    config:
        A :class:`PacketGeneratorConfig`.
    address_of:
        Callable ``(table_id, row_index) -> physical byte address``.  The
        embedding-bag layout plus the simplified OS page mapper provide this
        in the full pipeline; tests can pass simple lambdas.
    """

    def __init__(self, config=None, address_of=None):
        self.config = config or PacketGeneratorConfig()
        if address_of is None:
            # Default: dense row-major placement of a single table at 0.
            address_of = lambda table_id, row: \
                row * self.config.vector_size_bytes  # noqa: E731
        self.address_of = address_of
        self._packet_counter = 0
        self._last_profiles = {}

    @property
    def last_profiles(self):
        """Per-table :class:`ProfileResult` of the most recent batch."""
        return dict(self._last_profiles)

    def reset(self):
        """Clear cross-run state (packet ids and retained hot-entry profiles).

        Without this, a reused generator keeps numbering packets from where
        the previous run stopped and keeps serving the previous batch's
        locality profiles through :attr:`last_profiles`.
        """
        self._packet_counter = 0
        self._last_profiles = {}

    # ------------------------------------------------------------------ #
    def packets_for_request(self, request, model_id=0, batch_index=0,
                            profile=None):
        """Generate the NMP packets for one :class:`SLSRequest`.

        ``profile`` optionally passes a pre-computed
        :class:`~repro.core.hot_entry.ProfileResult`; otherwise the profiler
        runs on the request's own indices when profiling is enabled.

        Addresses (one ``address_of`` call per lookup), Daddrs, DDR
        command tags, LocalityBits and PsumTags are computed in one array
        pass over the whole request; each packet is then a slice of those
        arrays, and its :meth:`~repro.core.instruction.NMPPacket.
        packed_arrays` cache is seeded from them so the dispatch path never
        re-packs the instruction objects.
        """
        config = self.config
        profiling = config.enable_hot_entry_profiling
        if profiling and profile is None:
            profiler = HotEntryProfiler(threshold=config.hot_entry_threshold)
            profile = profiler.profile(request.indices,
                                       table_id=request.table_id)
        # Validate the shared fields once per request so the instructions
        # can be built with the no-validation fast constructor below (the
        # per-instruction fields are in range by construction: Daddr is
        # masked, the PsumTag slot is bounded by poolings_per_packet).
        opcode = NMPOpcode(config.opcode)
        vsize = int(config.vsize)
        if not 1 <= vsize < 16:
            raise ValueError("vsize must be in [1, 16)")
        table_id = request.table_id
        rows = request.indices.tolist()
        count = len(rows)
        address_of = self.address_of
        addresses = np.array([address_of(table_id, row) for row in rows],
                             dtype=np.int64)
        per_packet = config.poolings_per_packet
        poolings = np.repeat(np.arange(request.batch_size), request.lengths)
        packet_of = poolings // per_packet
        tags = poolings % per_packet
        opens = np.ones(count, np.bool_)
        opens[1:] = packet_of[1:] != packet_of[:-1]
        ddr_cmds = _tags_from_row_changes(
            addresses // config.row_buffer_bytes, opens)
        daddrs = (addresses // 64) & 0xFFFFFFFF
        if profiling:
            hot_rows = profile.hot_rows
            localities = [row in hot_rows for row in rows]
        else:
            localities = [True] * count
        weights = [1.0] * count if request.weights is None \
            else request.weights.tolist()
        instructions = list(map(
            NMPInstruction.trusted, repeat(opcode, count), ddr_cmds.tolist(),
            daddrs.tolist(), repeat(vsize, count), weights, localities,
            tags.tolist(), repeat(table_id, count), poolings.tolist(),
            rows))
        locality_array = np.array(localities, dtype=np.bool_)
        weighted = np.array(weights) != 1.0
        vsizes = np.full(count, vsize, dtype=np.int64)
        bounds = np.flatnonzero(opens).tolist() + [count]
        packets = []
        for begin, end in zip(bounds, bounds[1:]):
            packet = NMPPacket(instructions=instructions[begin:end],
                               table_id=table_id, model_id=model_id,
                               batch_index=batch_index,
                               packet_id=self._packet_counter)
            packet._packed = PackedInstructions(
                daddrs[begin:end], vsizes[begin:end], weighted[begin:end],
                locality_array[begin:end], tags[begin:end])
            packets.append(packet)
            self._packet_counter += 1
        return packets

    def packets_for_requests(self, requests, model_id=0):
        """Generate packets for a list of SLS requests (one batch)."""
        packets = []
        profiles = None
        if self.config.enable_hot_entry_profiling:
            profiler = HotEntryProfiler(
                threshold=self.config.hot_entry_threshold)
            profiles = profiler.profile_requests(requests)
            self._last_profiles = profiles
        for batch_index, request in enumerate(requests):
            profile = profiles.get(request.table_id) if profiles else None
            packets.extend(self.packets_for_request(
                request, model_id=model_id, batch_index=batch_index,
                profile=profile))
        return packets

    # ------------------------------------------------------------------ #
    def rank_load(self, packets, rank_of_address, num_ranks):
        """Distribution of instructions over ranks for a list of packets.

        Returns an integer array of length ``num_ranks`` counting how many
        embedding lookups each rank serves -- the quantity behind the
        load-imbalance analysis of Fig. 14(b).
        """
        counts = np.zeros(num_ranks, dtype=np.int64)
        for packet in packets:
            for inst in packet.instructions:
                counts[rank_of_address(inst.daddr * 64)] += 1
        return counts
