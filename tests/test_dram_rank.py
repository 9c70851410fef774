"""Tests for repro.dram.rank."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.instruction import NMPInstruction
from repro.core.rank_nmp import RankNMP, RankNMPConfig
from repro.dram.commands import CommandType
from repro.dram.rank import Rank
from repro.dram.timing import DDR4_2400


@pytest.fixture
def rank():
    return Rank(DDR4_2400)


class TestRankStructure:
    def test_bank_count(self, rank):
        assert len(rank.banks) == 16

    def test_bank_lookup(self, rank):
        bank = rank.bank(2, 3)
        assert bank.bank_group == 2
        assert bank.bank_index == 3

    def test_bank_lookup_out_of_range(self, rank):
        with pytest.raises(IndexError):
            rank.bank(4, 0)
        with pytest.raises(IndexError):
            rank.bank(0, 4)

    def test_rejects_bad_timing(self):
        with pytest.raises(TypeError):
            Rank("nope")

    def test_rejects_bad_bank_counts(self):
        with pytest.raises(ValueError):
            Rank(DDR4_2400, num_bank_groups=0)


class TestRankTiming:
    def test_trrd_short_across_bank_groups(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        ready = rank.earliest_issue_cycle(CommandType.ACT, 1, 0, 0)
        assert ready == DDR4_2400.tRRD_S

    def test_trrd_long_same_bank_group(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        ready = rank.earliest_issue_cycle(CommandType.ACT, 0, 1, 0)
        assert ready == DDR4_2400.tRRD_L

    def test_tfaw_limits_fifth_activate(self, rank):
        # Four ACTs to different banks as fast as tRRD allows.
        cycle = 0
        for i in range(4):
            bank_group = i % 4
            cycle = rank.earliest_issue_cycle(CommandType.ACT, bank_group, i // 4,
                                              cycle)
            rank.issue(CommandType.ACT, bank_group, i // 4, 1, cycle)
        # The fifth ACT must wait for the tFAW window of the first.
        ready = rank.earliest_issue_cycle(CommandType.ACT, 0, 2, cycle)
        assert ready >= rank._act_history[0] + DDR4_2400.tFAW

    def test_tccd_spacing(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        rank.issue(CommandType.ACT, 1, 0, 1, DDR4_2400.tRRD_S)
        first_rd = rank.earliest_issue_cycle(CommandType.RD, 0, 0, 0)
        rank.issue(CommandType.RD, 0, 0, 1, first_rd)
        # Same bank group -> tCCD_L; different -> tCCD_S.
        same_group = rank.earliest_issue_cycle(CommandType.RD, 0, 0,
                                               first_rd)
        other_group = rank.earliest_issue_cycle(CommandType.RD, 1, 0,
                                                first_rd)
        assert same_group >= first_rd + DDR4_2400.tCCD_L
        assert other_group >= first_rd + DDR4_2400.tCCD_S

    def test_data_bus_serialises_bursts(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        rank.issue(CommandType.ACT, 1, 0, 1, DDR4_2400.tRRD_S)
        rd1_cycle = rank.earliest_issue_cycle(CommandType.RD, 0, 0, 0)
        done1 = rank.issue(CommandType.RD, 0, 0, 1, rd1_cycle)
        rd2_cycle = rank.earliest_issue_cycle(CommandType.RD, 1, 0, rd1_cycle)
        done2 = rank.issue(CommandType.RD, 1, 0, 1, rd2_cycle)
        # Second burst cannot finish before the first plus one burst length.
        assert done2 >= done1 + DDR4_2400.tBL

    def test_illegal_issue_raises(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        with pytest.raises(RuntimeError):
            rank.issue(CommandType.ACT, 0, 1, 1, 1)   # violates tRRD_L

    def test_stats_aggregation(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        rd = rank.earliest_issue_cycle(CommandType.RD, 0, 0, 0)
        rank.issue(CommandType.RD, 0, 0, 1, rd)
        stats = rank.stats()
        assert stats["activations"] == 1
        assert stats["reads"] == 1


# --------------------------------------------------------------------- #
# Cached timing floors against the uncached arithmetic                  #
# --------------------------------------------------------------------- #
def _spec_ready_cycle(rank, command_type, bank):
    """``Rank.ready_cycle`` recomputed from the rank state on every call
    (its arithmetic before the rank cached timing floors)."""
    timing = rank.timing
    if command_type is CommandType.ACT:
        ready = bank.next_act
        history = rank._act_history
        if len(history) >= 4 and history[-4] + timing.tFAW > ready:
            ready = history[-4] + timing.tFAW
        if rank._last_act_cycle is not None:
            if bank.bank_group == rank._last_act_bank_group:
                rrd = rank._last_act_cycle + timing.tRRD_L
            else:
                rrd = rank._last_act_cycle + timing.tRRD_S
            ready = max(ready, rrd)
        return ready
    if command_type is CommandType.RD:
        ready = bank.next_read
        if rank._last_col_cycle is not None:
            if bank.bank_group == rank._last_col_bank_group:
                ccd = rank._last_col_cycle + timing.tCCD_L
            else:
                ccd = rank._last_col_cycle + timing.tCCD_S
            ready = max(ready, ccd)
        return max(ready, rank.next_data_bus_free - timing.tCL)
    return bank.next_pre


#: One step on the rank: ``("issue", bank slot, row, delay)`` issues the
#: next command a read of ``row`` needs through ``Rank.issue``;
#: ``("nmp", reads, delay)`` runs ``RankNMP.execute_instructions`` over
#: ``(bank slot, row, vsize)`` reads arriving ``delay`` cycles on.
_RANK_STEPS = st.one_of(
    st.tuples(st.just("issue"), st.integers(0, 15), st.integers(0, 2),
              st.integers(0, 12)),
    st.tuples(st.just("nmp"),
              st.lists(st.tuples(st.integers(0, 15), st.integers(0, 2),
                                 st.integers(1, 3)),
                       min_size=1, max_size=5),
              st.integers(0, 40)))


class TestTimingFloorProperties:
    """``Rank.ready_cycle`` (bank ready cycle raised to a cached floor)
    equals the uncached arithmetic for every command, bank and cycle,
    whichever writer last changed the rank: ``Rank.issue`` or the NMP
    write-back (``set_timing_state`` on the object path,
    ``set_kernel_scalars`` on the flat kernel)."""

    @pytest.mark.parametrize("flavor", ["disabled", "flat-python"])
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_RANK_STEPS, min_size=1, max_size=30))
    def test_ready_cycle_matches_uncached_arithmetic(self, flavor, steps):
        with kernels.force_flavor(flavor):
            nmp = RankNMP(RankNMPConfig(use_cache=False))
        rank = nmp.dram_rank
        config = nmp.config
        now = 0
        for step in steps:
            if step[0] == "issue":
                _, slot, row, delay = step
                bank = rank.banks[slot]
                command = bank.required_commands(row)[0]
                cycle = max(now + delay,
                            _spec_ready_cycle(rank, command, bank))
                rank.issue(command, bank.bank_group, bank.bank_index, row,
                           cycle)
                now = cycle + 1
            else:
                _, reads, delay = step
                instructions = [
                    NMPInstruction(
                        daddr=((row * config.banks_per_group
                                + slot % config.banks_per_group)
                               * config.num_bank_groups
                               + slot // config.banks_per_group)
                        * config.columns_per_row,
                        vsize=vsize)
                    for slot, row, vsize in reads]
                nmp.execute_instructions(
                    instructions, [now + delay] * len(instructions),
                    reorder_window=4)
                now = max(now, nmp.current_cycle)
            for bank in rank.banks:
                for command in (CommandType.ACT, CommandType.RD,
                                CommandType.PRE):
                    expected = _spec_ready_cycle(rank, command, bank)
                    assert rank.ready_cycle(command, bank) == expected
                    for cycle in (now, expected - 1, expected):
                        assert rank.can_issue(
                            command, bank.bank_group, bank.bank_index,
                            cycle) == (expected <= cycle)
