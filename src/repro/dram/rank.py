"""DRAM rank: a collection of banks sharing rank-level timing constraints.

The rank enforces the constraints that span banks:

* tRRD_S / tRRD_L -- minimum spacing between ACTs to different banks,
* tFAW -- at most four ACTs within any tFAW window,
* tCCD_S / tCCD_L -- column command spacing,
* a single shared data bus (one burst at a time per rank towards the channel).

None of them depends on which bank asks, only on whether the bank shares
the bank group of the last ACT or column command, so the rank folds them
into cached per-bank-group *timing floors* (see
:meth:`Rank.timing_floors`); a command's earliest issue cycle is its
bank's ready cycle raised to the floor of the bank's group.
"""

from collections import deque

from repro.dram.bank import Bank
from repro.dram.commands import CommandType
from repro.dram.timing import DDR4Timing


class Rank:
    """One rank of a DIMM: ``num_bank_groups * banks_per_group`` banks.

    All rank-level DDR timing arithmetic (tFAW, tRRD, tCCD and the
    rank's data bus) lives in :meth:`timing_floors`, which caches its
    result.  Every writer of rank-level state drops the cache:
    :meth:`issue` (ACT and RD), :meth:`set_kernel_scalars` (the flat
    kernels' write-back) and :meth:`set_timing_state` (the inline loop
    of :meth:`repro.core.rank_nmp.RankNMP.execute_instructions`).
    """

    def __init__(self, timing, num_bank_groups=4, banks_per_group=4,
                 rank_index=0):
        if not isinstance(timing, DDR4Timing):
            raise TypeError("timing must be a DDR4Timing instance")
        if num_bank_groups <= 0 or banks_per_group <= 0:
            raise ValueError("bank counts must be positive")
        self.timing = timing
        self.rank_index = rank_index
        self.num_bank_groups = num_bank_groups
        self.banks_per_group = banks_per_group
        self.banks = [
            Bank(timing, bank_group=g, bank_index=b)
            for g in range(num_bank_groups)
            for b in range(banks_per_group)
        ]
        # Rank-level timing state.
        self._act_history = deque()      # cycles of recent ACTs (for tFAW)
        self._last_act_cycle = None
        self._last_act_bank_group = None
        self._last_col_cycle = None
        self._last_col_bank_group = None
        self.next_data_bus_free = 0
        self._floors = None              # timing_floors() cache

    # ------------------------------------------------------------------ #
    def bank(self, bank_group, bank_index):
        """Return the bank object for ``(bank_group, bank_index)``."""
        if not 0 <= bank_group < self.num_bank_groups:
            raise IndexError("bank_group out of range: %d" % bank_group)
        if not 0 <= bank_index < self.banks_per_group:
            raise IndexError("bank_index out of range: %d" % bank_index)
        return self.banks[bank_group * self.banks_per_group + bank_index]

    # ------------------------------------------------------------------ #
    # Rank-level constraints                                             #
    # ------------------------------------------------------------------ #
    def timing_floors(self):
        """The rank-level lower bounds on a command's issue cycle.

        Returns ``(act, col)``, two lists indexed by bank group.  An ACT
        to a bank of group ``g`` may not issue before ``act[g]``: tRRD_L
        after the last ACT when that ACT was to group ``g``, tRRD_S when
        it was to another group, and no sooner than tFAW after the
        fourth-last ACT.  A column command to group ``g`` may not issue
        before ``col[g]``: tCCD_L or tCCD_S after the last column
        command (same or other group), and not before the rank's data
        bus is free when its burst starts, tCL after the command.  The
        floors may lie in the past; they are cached until the next write
        of rank-level state, and the lists returned are that cache, so
        callers only read them.
        """
        floors = self._floors
        if floors is not None:
            return floors
        timing = self.timing
        history = self._act_history
        floor = history[-4] + timing.tFAW if len(history) >= 4 else 0
        last = self._last_act_cycle
        if last is None:
            act = [floor] * self.num_bank_groups
        else:
            act = [max(last + timing.tRRD_S, floor)] * self.num_bank_groups
            act[self._last_act_bank_group] = max(last + timing.tRRD_L, floor)
        floor = self.next_data_bus_free - timing.tCL
        last = self._last_col_cycle
        if last is None:
            col = [floor] * self.num_bank_groups
        else:
            col = [max(last + timing.tCCD_S, floor)] * self.num_bank_groups
            col[self._last_col_bank_group] = max(last + timing.tCCD_L, floor)
        floors = self._floors = (act, col)
        return floors

    def ready_cycle(self, command_type, bank):
        """Earliest cycle a command to ``bank`` (one of this rank's banks)
        may issue under the bank and rank constraints; it may lie in the
        past.

        * ACT: the bank's tRC/tRP, raised to the ACT floor of its bank
          group (:meth:`timing_floors`);
        * RD/WR: the bank's tRCD/tCCD_L, raised to the column floor of
          its bank group;
        * PRE: the bank's tRAS/tRTP.
        """
        floors = self.timing_floors()
        if command_type is CommandType.ACT:
            ready = bank.next_act
            floor = floors[0][bank.bank_group]
        elif command_type is CommandType.RD or \
                command_type is CommandType.WR:
            ready = bank.next_read
            floor = floors[1][bank.bank_group]
        elif command_type is CommandType.PRE:
            return bank.next_pre
        else:
            raise ValueError("unsupported command %r" % (command_type,))
        return floor if floor > ready else ready

    def earliest_issue_cycle(self, command_type, bank_group, bank_index,
                             current_cycle):
        """Earliest legal issue cycle combining bank and rank constraints."""
        return max(self.ready_cycle(command_type,
                                    self.bank(bank_group, bank_index)),
                   current_cycle)

    def can_issue(self, command_type, bank_group, bank_index, current_cycle):
        """True if the command may legally issue at ``current_cycle``."""
        return self.earliest_issue_cycle(
            command_type, bank_group, bank_index, current_cycle) <= \
            current_cycle

    # ------------------------------------------------------------------ #
    # Issue                                                              #
    # ------------------------------------------------------------------ #
    def issue(self, command_type, bank_group, bank_index, row, cycle):
        """Issue a command; returns data-completion cycle for RD else None."""
        if not self.can_issue(command_type, bank_group, bank_index, cycle):
            raise RuntimeError(
                "%s to rank %d bg %d bank %d not ready at cycle %d"
                % (command_type.value, self.rank_index, bank_group,
                   bank_index, cycle))
        bank = self.bank(bank_group, bank_index)
        if command_type is CommandType.ACT:
            bank.issue_activate(row, cycle)
            self._act_history.append(cycle)
            while len(self._act_history) > 4:
                self._act_history.popleft()
            self._last_act_cycle = cycle
            self._last_act_bank_group = bank_group
            self._floors = None
            return None
        if command_type is CommandType.RD:
            data_done = bank.issue_read(row, cycle)
            self._last_col_cycle = cycle
            self._last_col_bank_group = bank_group
            self.next_data_bus_free = max(self.next_data_bus_free, data_done)
            self._floors = None
            return data_done
        if command_type is CommandType.PRE:
            bank.issue_precharge(cycle)
            return None
        raise ValueError("unsupported command %r" % (command_type,))

    # ------------------------------------------------------------------ #
    # Kernel state sync (see repro.core.kernels)                         #
    # ------------------------------------------------------------------ #
    def kernel_scalars(self):
        """Rank-level scalars in the flat ``RS_*`` layout of
        :mod:`repro.core.kernels` (sans the trailing ``current_cycle``
        slot, which the rank-NMP wrapper appends).

        Layout: ``[ring0..ring3, act_count, last_act_cycle,
        last_act_bank_group, last_col_cycle, last_col_bank_group,
        next_data_bus_free]`` with ``-1`` encoding ``None``.  The ring
        buffer holds the recent ACT cycles at slot ``act_index % 4``, so
        ``ring[act_count % 4]`` is ``history[-4]`` once four ACTs
        happened -- exactly the tFAW reference cycle.
        """
        history = self._act_history
        rs = [0, 0, 0, 0,
              len(history),
              -1 if self._last_act_cycle is None else self._last_act_cycle,
              -1 if self._last_act_bank_group is None
              else self._last_act_bank_group,
              -1 if self._last_col_cycle is None else self._last_col_cycle,
              -1 if self._last_col_bank_group is None
              else self._last_col_bank_group,
              self.next_data_bus_free]
        for i, cycle in enumerate(history):
            rs[i] = cycle
        return rs

    def set_kernel_scalars(self, rs):
        """Write back scalars mutated by a kernel call (inverse of
        :meth:`kernel_scalars`; tolerates the extra trailing slots of the
        full RS vector)."""
        count = int(rs[4])
        keep = 4 if count > 4 else count
        history = self._act_history
        history.clear()
        for i in range(keep):
            history.append(int(rs[(count - keep + i) % 4]))
        value = int(rs[5])
        self._last_act_cycle = None if value < 0 else value
        value = int(rs[6])
        self._last_act_bank_group = None if value < 0 else value
        value = int(rs[7])
        self._last_col_cycle = None if value < 0 else value
        value = int(rs[8])
        self._last_col_bank_group = None if value < 0 else value
        self.next_data_bus_free = int(rs[9])
        self._floors = None

    def set_timing_state(self, last_act_cycle, last_act_bank_group,
                         last_col_cycle, last_col_bank_group,
                         next_data_bus_free):
        """Write back rank-level state advanced outside :meth:`issue`
        (the ACT history deque is updated in place by the caller) and
        drop the cached floors."""
        self._last_act_cycle = last_act_cycle
        self._last_act_bank_group = last_act_bank_group
        self._last_col_cycle = last_col_cycle
        self._last_col_bank_group = last_col_bank_group
        self.next_data_bus_free = next_data_bus_free
        self._floors = None

    # ------------------------------------------------------------------ #
    def stats(self):
        """Aggregate bank statistics for this rank."""
        totals = {"row_hits": 0, "row_misses": 0, "row_conflicts": 0,
                  "activations": 0, "reads": 0, "precharges": 0}
        for bank in self.banks:
            for key, value in bank.stats().items():
                totals[key] += value
        return totals
