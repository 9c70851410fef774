"""Rank-NMP module (Fig. 8(c)).

Each rank of a RecNMP-equipped DIMM has its own rank-NMP module performing
three functions:

1. translate NMP-Insts into low-level DDR command sequences for the DRAM
   devices of that rank (the local command decoder),
2. manage the memory-side RankCache (with LocalityBit bypass),
3. execute the SLS-family datapath: multiply the fetched vector by the
   weight (and dequantisation scalar/bias when needed) and accumulate it
   into the partial-sum register selected by the PsumTag.

The module is modelled at cycle granularity: every instruction is charged
either the RankCache access latency (on a hit) or the DRAM access latency
derived from the rank's DDR4 timing state (on a miss / bypass).  The
arithmetic pipeline (FP32 multipliers and adders, Table I) is overlapped
with memory reads, so it only contributes when it is the bottleneck.
"""

from dataclasses import dataclass, field
from operator import le

import numpy as np

from repro.cache.rank_cache import RankCache
from repro.core import kernels as _kernels
from repro.dram.rank import Rank
from repro.dram.timing import DDR4_2400

#: A start estimate above any reachable cycle.
_NEVER = 1 << 62


@dataclass
class RankNMPConfig:
    """Configuration of one rank-NMP module.

    Latencies follow Table I: RankCache access 1 cycle, FP32 adder 3 cycles,
    FP32 multiplier 4 cycles (all in DRAM cycles at the DIMM buffer clock).
    """

    timing: object = field(default_factory=lambda: DDR4_2400)
    use_cache: bool = True
    cache_capacity_bytes: int = 128 * 1024
    vector_size_bytes: int = 64
    cache_latency_cycles: int = 1
    adder_latency_cycles: int = 3
    multiplier_latency_cycles: int = 4
    num_bank_groups: int = 4
    banks_per_group: int = 4
    columns_per_row: int = 128

    def __post_init__(self):
        if self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive")
        if self.vector_size_bytes <= 0 or self.vector_size_bytes % 64:
            raise ValueError("vector_size_bytes must be a positive multiple "
                             "of 64")


@dataclass
class RankNMPStats:
    """Counters of one rank-NMP module."""

    instructions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bypasses: int = 0
    dram_reads: int = 0
    activations: int = 0
    busy_cycles: int = 0
    bytes_from_dram: int = 0
    bytes_from_cache: int = 0

    @property
    def cache_hit_rate(self):
        total = self.cache_hits + self.cache_misses + self.cache_bypasses
        if not total:
            return 0.0
        return self.cache_hits / total

    def as_dict(self):
        return {
            "instructions": self.instructions,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_bypasses": self.cache_bypasses,
            "dram_reads": self.dram_reads,
            "activations": self.activations,
            "busy_cycles": self.busy_cycles,
            "bytes_from_dram": self.bytes_from_dram,
            "bytes_from_cache": self.bytes_from_cache,
            "cache_hit_rate": self.cache_hit_rate,
        }


class RankNMP:
    """Cycle-approximate model of one rank-NMP module.

    The bank and rank timing state lives in a :class:`~repro.dram.rank.
    Rank` (``dram_rank``), but the DDR timing arithmetic of the object
    path -- the PRE/ACT/RD issue sequence and the window scheduler's
    start estimates -- is inlined in :meth:`execute_instructions`, one
    fused loop per call.  Routing the issue sequence and the estimates
    through ``Rank.ready_cycle`` (one method call per DRAM instruction
    plus one per estimate) made that loop about a fifth slower, so the
    inline copy stays: the estimates use local copies of the rank's
    timing floors (``act_same``/``act_other``, ``rd_same``/``rd_other``:
    the values :meth:`Rank.timing_floors` would give), refreshed after
    each DRAM access, and the loop writes the rank-level state back once
    per call through :meth:`Rank.set_timing_state`, which drops the
    rank's cached floors.  :meth:`Rank.timing_floors` remains the single
    source of the rank-level arithmetic in :mod:`repro.dram`, used by
    the DDR4 baseline controller.  The numba flat kernel
    (:mod:`repro.core.kernels`) keeps its own copy.
    """

    def __init__(self, config=None, rank_index=0):
        self.config = config or RankNMPConfig()
        self.rank_index = rank_index
        self.dram_rank = Rank(self.config.timing,
                              num_bank_groups=self.config.num_bank_groups,
                              banks_per_group=self.config.banks_per_group,
                              rank_index=rank_index)
        self.cache = RankCache(
            capacity_bytes=self.config.cache_capacity_bytes,
            vector_size_bytes=self.config.vector_size_bytes,
            access_latency_cycles=self.config.cache_latency_cycles,
        ) if self.config.use_cache else None
        self.stats = RankNMPStats()
        # Partial-sum register file: PsumTag -> accumulated vector count.
        self._psum_counts = {}
        self.current_cycle = 0
        # Compiled command-issue kernel; None without numba or with
        # REPRO_DISABLE_KERNELS set, in which case the object-based
        # methods below run as-is (they remain the readable spec the
        # kernel is tested against).  Streams shorter than the cutover
        # take the legacy path even with a kernel bound: the kernel's
        # packing and sync costs only amortise on long streams (the
        # cutover is 0 -- kernel always -- inside force_flavor).
        self._kernel = _kernels.make_rank_kernel(self)
        self._kernel_min_instructions = \
            _kernels.packed_dispatch_min_instructions()
        self._timing_params = self.config.timing.kernel_params()

    # ------------------------------------------------------------------ #
    # Address decoding                                                   #
    # ------------------------------------------------------------------ #
    def decode_bank_row(self, daddr):
        """Decode (bank_group, bank, row, column) from a 64 B block Daddr.

        The low bits address the column within a row, the next bits pick the
        bank group and bank, and the remaining bits are the row -- consistent
        with the channel-level mapping used by the packet generator.
        """
        config = self.config
        block = int(daddr)
        column = block % config.columns_per_row
        block //= config.columns_per_row
        bank_group = block % config.num_bank_groups
        block //= config.num_bank_groups
        bank = block % config.banks_per_group
        block //= config.banks_per_group
        row = block
        return bank_group, bank, row, column

    def decode_bank_rows(self, daddrs):
        """Vectorised :meth:`decode_bank_row` over many Daddrs.

        Returns ``(bank_groups, banks, rows)`` as plain Python lists (the
        column is not needed by the timing model).  Used to decode a whole
        packet once instead of re-decoding per instruction per scheduler
        scan.
        """
        return tuple(part.tolist() for part in _kernels.pack_decoded(
            self.config, np.asarray(daddrs, dtype=np.int64)))

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #
    def execute_instruction(self, instruction, arrival_cycle=0,
                            decoded=None):
        """Execute one NMP-Inst; returns the cycle its Psum update completes.

        The one-instruction case of :meth:`execute_instructions`;
        ``decoded`` optionally carries its ``(bank_group, bank_index,
        row)``.
        """
        return self.execute_instructions(
            (instruction,), (arrival_cycle,),
            decoded=None if decoded is None else
            ((decoded[0],), (decoded[1],), (decoded[2],)))

    def execute_instructions(self, instructions, arrival_cycles=None,
                             reorder_window=16, decoded=None):
        """Execute a list of instructions; returns the last completion cycle.

        Instructions are issued FR-FCFS-style within a small reorder window
        (the host-side memory controller performs this reordering inside a
        packet per the paper): among the ``reorder_window`` oldest pending
        instructions, the one whose first command -- RD on an open-row hit,
        ACT on a closed bank, PRE on a row conflict; none for a resident
        vector it would allocate -- can issue earliest goes first (ties keep
        the oldest).  Correctness is unaffected because each pooling
        accumulates into its own PsumTag register.

        One fused loop: each pick executes inline (RankCache lookup, the
        PRE/ACT/RD issue sequence at each command's earliest legal cycle,
        datapath latency).  Commands of consecutive instructions are
        pipelined -- the next instruction only waits for the C/A slots this
        one used -- and the datapath overlaps the next access, so only its
        depth shows in the completion.  Rank-level timing state and the
        statistics live in locals, written back once per call; the
        estimates' rank-level floors (tRRD/tFAW, tCCD/data bus) depend on
        the bank group only through equality with the last ACT/column
        group, so four values are recomputed only after a DRAM access.
        The scan stops once no later member can beat the best estimate: at
        an estimate equal to ``current_cycle`` and, when
        ``arrival_cycles`` is non-decreasing (as in both callers,
        :meth:`RecNMPChannel.execute_packet` and
        :meth:`~repro.core.dimm_nmp.DimmNMP.execute_packet`), at the first
        member arriving no earlier than it.  ``decoded`` optionally carries
        ``(bank_groups, banks, rows)`` lists from :meth:`decode_bank_rows`.
        """
        count = len(instructions)
        if arrival_cycles is None:
            arrival_cycles = [0] * count
        if len(arrival_cycles) != count:
            raise ValueError("arrival_cycles must match instructions")
        if not count:
            return self.current_cycle
        if self._kernel is not None and \
                count >= self._kernel_min_instructions:
            return self._kernel.execute_objects(
                instructions, arrival_cycles, reorder_window,
                decoded=decoded)
        if decoded is None:
            decoded = self.decode_bank_rows(
                [inst.daddr for inst in instructions])
        bank_groups, bank_indices, rows = decoded
        config = self.config
        rank = self.dram_rank
        banks = rank.banks
        per_group = config.banks_per_group
        cache = self.cache
        if cache is None:
            entries = {}
            probes = [-1] * count
        else:
            entries = cache._entries
            capacity = cache.num_entries
            move_to_end = entries.move_to_end
            popitem = entries.popitem
            # Only a resident vector the instruction would allocate
            # counts as a hit in the start estimate.
            probes = [inst.daddr if inst.locality_bit else -1
                      for inst in instructions]
        members = list(zip(
            arrival_cycles, probes,
            [banks[group * per_group + index]
             for group, index in zip(bank_groups, bank_indices)],
            bank_groups, rows, range(count)))
        monotone = all(map(le, arrival_cycles, arrival_cycles[1:]))
        (tRP, tRCD, tCL, tBL, tCCD_S, tCCD_L, tRRD_S, tRRD_L, tFAW, tRAS,
         tRC, tRTP) = self._timing_params
        # After its first burst, every further burst of one vector (same
        # bank group, bus just freed) issues exactly this much later.
        burst_step = tCCD_L if tCCD_L > tBL else tBL
        adder = config.adder_latency_cycles
        weighted_compute = adder + config.multiplier_latency_cycles
        cache_latency = config.cache_latency_cycles
        history = rank._act_history
        last_act = rank._last_act_cycle
        last_act_group = rank._last_act_bank_group
        last_col = rank._last_col_cycle
        last_col_group = rank._last_col_bank_group
        bus_free = rank.next_data_bus_free
        current = self.current_cycle
        last_completion = current
        hits = misses = bypasses = evictions = 0
        dram_reads = activations = busy = bytes_dram = bytes_cache = 0
        psums = self._psum_counts
        psum_of = psums.get
        stale = True
        window = members[:reorder_window if reorder_window > 1 else 1]
        next_index = len(window)
        while window:
            best = _NEVER
            best_pos = 0
            for pos, (arrival, probe, bank, group, row, _) in \
                    enumerate(window):
                start = arrival if arrival > current else current
                if start >= best:
                    # estimate >= start: this member cannot win (ties
                    # keep the oldest), nor can any later one when
                    # arrivals are non-decreasing.
                    if monotone:
                        break
                    continue
                if probe in entries:
                    estimate = start
                else:
                    if stale:
                        floor = bus_free - tCL
                        if last_col is None:
                            rd_same = rd_other = floor
                        else:
                            rd_same = last_col + tCCD_L
                            rd_other = last_col + tCCD_S
                            if floor > rd_same:
                                rd_same = floor
                            if floor > rd_other:
                                rd_other = floor
                        floor = history[-4] + tFAW if len(history) >= 4 \
                            else 0
                        if last_act is None:
                            act_same = act_other = floor
                        else:
                            act_same = last_act + tRRD_L
                            act_other = last_act + tRRD_S
                            if floor > act_same:
                                act_same = floor
                            if floor > act_other:
                                act_other = floor
                        stale = False
                    open_row = bank.open_row
                    if open_row == row:
                        ready = bank.next_read
                        floor = rd_same if group == last_col_group \
                            else rd_other
                        if floor > ready:
                            ready = floor
                    elif open_row is None:
                        ready = bank.next_act
                        floor = act_same if group == last_act_group \
                            else act_other
                        if floor > ready:
                            ready = floor
                    else:
                        ready = bank.next_pre
                    estimate = start if start > ready else ready
                if estimate < best:
                    best = estimate
                    best_pos = pos
                    if estimate <= current:
                        # Every estimate is >= current_cycle.
                        break
            arrival, _, bank, group, row, index = window.pop(best_pos)
            if next_index < count:
                window.append(members[next_index])
                next_index += 1
            instruction = instructions[index]
            tag = instruction.psum_tag
            psums[tag] = psum_of(tag, 0) + 1
            start = arrival if arrival > current else current
            daddr = instruction.daddr
            vector_bytes = instruction.vsize * 64
            if daddr in entries:
                move_to_end(daddr)
                hits += 1
                bytes_cache += vector_bytes
                data_ready = next_free = start + cache_latency
            else:
                if cache is not None:
                    if instruction.locality_bit:
                        misses += 1
                        if len(entries) >= capacity:
                            popitem(last=False)
                            evictions += 1
                        entries[daddr] = None
                    else:
                        bypasses += 1
                # PRE / ACT / RD issue sequence, each command at its
                # earliest legal cycle.  The rank command decoder replays
                # the compressed DDR cmd field; a conflicting open row
                # forces PRE+ACT even if the tag omitted them (the
                # host-side tags are hints based on consecutive
                # addresses).
                cycle = start
                first = None
                commands = instruction.vsize
                if commands < 1:
                    commands = 1
                bursts = commands
                open_row = bank.open_row
                if open_row != row:
                    if open_row is not None:
                        ready = bank.next_pre
                        if ready > cycle:
                            cycle = ready
                        bank.precharges += 1
                        value = cycle + tRP
                        if value > bank.next_act:
                            bank.next_act = value
                        first = cycle
                        commands += 1
                    ready = bank.next_act
                    if len(history) >= 4:
                        value = history[-4] + tFAW
                        if value > ready:
                            ready = value
                    if last_act is not None:
                        value = last_act + (tRRD_L if group == last_act_group
                                            else tRRD_S)
                        if value > ready:
                            ready = value
                    if ready > cycle:
                        cycle = ready
                    bank.open_row = row
                    bank.activations += 1
                    value = cycle + tRCD
                    if value > bank.next_read:
                        bank.next_read = value
                    value = cycle + tRAS
                    if value > bank.next_pre:
                        bank.next_pre = value
                    value = cycle + tRC
                    if value > bank.next_act:
                        bank.next_act = value
                    history.append(cycle)
                    if len(history) > 4:
                        history.popleft()
                    last_act = cycle
                    last_act_group = group
                    activations += 1
                    if first is None:
                        first = cycle
                    commands += 1
                ready = bank.next_read
                if last_col is not None:
                    value = last_col + (tCCD_L if group == last_col_group
                                        else tCCD_S)
                    if value > ready:
                        ready = value
                value = bus_free - tCL
                if value > ready:
                    ready = value
                if ready > cycle:
                    cycle = ready
                if first is None:
                    first = cycle
                cycle += (bursts - 1) * burst_step
                data_ready = cycle + tCL + tBL
                bank.reads += bursts
                value = cycle + tCCD_L
                if value > bank.next_read:
                    bank.next_read = value
                value = cycle + tRTP
                if value > bank.next_pre:
                    bank.next_pre = value
                last_col = cycle
                last_col_group = group
                if data_ready > bus_free:
                    bus_free = data_ready
                dram_reads += bursts
                bytes_dram += vector_bytes
                next_free = first + commands
                stale = True
            completion = data_ready + (adder if instruction.weight == 1.0
                                       else weighted_compute)
            if completion > last_completion:
                last_completion = completion
            if next_free > start:
                busy += next_free - start
            current = next_free
        rank.set_timing_state(last_act, last_act_group, last_col,
                              last_col_group, bus_free)
        self.current_cycle = current
        stats = self.stats
        stats.instructions += count
        stats.cache_hits += hits
        stats.cache_misses += misses
        stats.cache_bypasses += bypasses
        stats.dram_reads += dram_reads
        stats.activations += activations
        stats.busy_cycles += busy
        stats.bytes_from_dram += bytes_dram
        stats.bytes_from_cache += bytes_cache
        if cache is not None:
            cache_stats = cache.stats
            cache_stats.hits += hits
            cache_stats.misses += misses
            cache_stats.bypasses += bypasses
            cache_stats.evictions += evictions
        return last_completion

    @property
    def supports_packed(self):
        """True when the array-native kernel entry point is available."""
        return self._kernel is not None

    def execute_packed(self, packed, arrival_cycles, reorder_window=16):
        """Array-native twin of :meth:`execute_instructions`.

        ``packed`` is a :class:`~repro.core.instruction.PackedInstructions`
        (flat numpy arrays, no NMPInstruction objects); callers must check
        :attr:`supports_packed` first.  Bit-identical to the object path.
        """
        kernel = self._kernel
        if kernel is None:
            raise RuntimeError("kernels are disabled; use "
                               "execute_instructions instead")
        daddrs = packed.daddrs
        if not len(daddrs):
            return self.current_cycle
        bank_groups, banks, rows = _kernels.pack_decoded(self.config, daddrs)
        return kernel.execute_arrays(
            daddrs, packed.vsizes, packed.weighted, packed.localities,
            packed.psum_tags, arrival_cycles, bank_groups, banks, rows,
            reorder_window)

    # ------------------------------------------------------------------ #
    def psum_count(self, psum_tag):
        """Number of vectors accumulated into a PsumTag so far."""
        return self._psum_counts.get(psum_tag, 0)

    def reset_psums(self):
        """Clear the partial-sum register file (between packets)."""
        self._psum_counts.clear()

    def reset(self):
        """Reset timing state, cache contents and statistics."""
        self.dram_rank = Rank(self.config.timing,
                              num_bank_groups=self.config.num_bank_groups,
                              banks_per_group=self.config.banks_per_group,
                              rank_index=self.rank_index)
        if self.cache is not None:
            self.cache.flush()
            self.cache.reset_stats()
        self.stats = RankNMPStats()
        self._psum_counts.clear()
        self.current_cycle = 0
        if self._kernel is not None:
            self._kernel.reset()
