"""Algorithm 1 (Partition RESET) tests, including the paper's example,
and the vectorised partitioners checked against scalar oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.techniques import DummyBitlinePartitioner, IdentityPartitioner
from repro.techniques.partition_reset import PartitionResetPartitioner


def bits(*positions, width=8):
    mask = np.zeros(width, dtype=bool)
    for p in positions:
        mask[p] = True
    return mask


@pytest.fixture()
def pr():
    return PartitionResetPartitioner()


class TestPaperExamples:
    def test_write0_near_reset_untouched(self, pr):
        # Fig. 10 write0: a RESET only on bit 0 -> PR does nothing.
        plan = pr.plan(bits(0), bits())
        assert plan.reset_groups == (0,)
        assert plan.extra_resets == 0
        assert plan.extra_sets == 0

    def test_write1_far_reset_padded(self, pr):
        # Fig. 10 write1: a RESET on bit 7 -> benign pairs on 1, 3, 5.
        plan = pr.plan(bits(7), bits())
        assert plan.reset_groups == (1, 3, 5, 7)
        assert plan.set_groups == (1, 3, 5)
        assert plan.extra_resets == 3
        assert plan.extra_sets == 3

    def test_trigger_window_boundary(self, pr):
        # Bit 2 is inside the fast region; bit 3 activates PR.
        assert pr.plan(bits(2), bits()).extra_resets == 0
        assert pr.plan(bits(3), bits()).extra_resets > 0

    def test_existing_group_resets_not_duplicated(self, pr):
        plan = pr.plan(bits(0, 7), bits())
        # Groups (0,1) and (6,7) already reset; only (2,3), (4,5) pad.
        assert plan.reset_groups == (0, 3, 5, 7)
        assert plan.extra_resets == 2


class TestInvariants:
    @given(
        reset_mask=st.integers(min_value=0, max_value=255),
        set_mask=st.integers(min_value=0, max_value=255),
    )
    def test_plan_invariants(self, reset_mask, set_mask):
        set_mask &= ~reset_mask  # a bit cannot be both
        pr = PartitionResetPartitioner()
        resets = np.array([(reset_mask >> i) & 1 for i in range(8)], dtype=bool)
        sets = np.array([(set_mask >> i) & 1 for i in range(8)], dtype=bool)
        plan = pr.plan(resets, sets)
        # Required operations are always preserved.
        assert set(np.flatnonzero(resets)) <= set(plan.reset_groups)
        assert set(np.flatnonzero(sets)) <= set(plan.set_groups)
        # Every benign RESET is matched by a SET of the same cell, so
        # data is restored (extra sets only on cells not already SET).
        added = set(plan.reset_groups) - set(np.flatnonzero(resets))
        assert added <= set(plan.set_groups)
        assert plan.extra_resets == len(added)

    @given(reset_mask=st.integers(min_value=1, max_value=255))
    def test_partitioning_guarantee(self, reset_mask):
        # Once triggered, every 2-bit group at or below the last RESET
        # carries at least one RESET: the array is well partitioned.
        pr = PartitionResetPartitioner()
        resets = np.array([(reset_mask >> i) & 1 for i in range(8)], dtype=bool)
        plan = pr.plan(resets, np.zeros(8, dtype=bool))
        last = int(np.flatnonzero(resets)[-1])
        if last >= pr.trigger_start:
            final = np.zeros(8, dtype=bool)
            final[list(plan.reset_groups)] = True
            for start in range(0, last + 1, 2):
                assert final[start : start + 2].any()

    def test_conflicting_masks_rejected(self, pr):
        with pytest.raises(ValueError):
            pr.plan(bits(1), bits(1))

    def test_mismatched_widths_rejected(self, pr):
        with pytest.raises(ValueError):
            pr.plan(np.zeros(8, dtype=bool), np.zeros(4, dtype=bool))

    def test_empty_write_noop(self, pr):
        plan = pr.plan(bits(), bits())
        assert plan.reset_groups == ()
        assert plan.set_groups == ()


class TestParameters:
    def test_custom_group_size(self):
        pr = PartitionResetPartitioner(group_size=4)
        plan = pr.plan(bits(7), bits())
        # Two 4-bit groups -> one benign pair in group (0..3).
        assert plan.extra_resets == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PartitionResetPartitioner(trigger_start=-1)
        with pytest.raises(ValueError):
            PartitionResetPartitioner(group_size=0)


def algorithm1(reset_bits, set_bits, trigger_start, group_size):
    """Algorithm 1 one slice at a time: the scalar loop, as an oracle.

    Returns the final RESET and SET bits and the extra RESET and SET
    counts.
    """
    reset_bits, set_bits = list(reset_bits), list(set_bits)
    width = len(reset_bits)
    extra_resets = extra_sets = 0
    required = [i for i, bit in enumerate(reset_bits) if bit]
    if required and required[-1] >= trigger_start:
        # Walk groups from the last required RESET towards bit 0
        # (Algorithm 1 lines 4-8): L rounded down to its group start.
        last = required[-1]
        group_start = last - last % group_size
        for start in range(group_start, -1, -group_size):
            if not any(reset_bits[start : start + group_size]):
                # A benign RESET on the group's last bit, offset by a SET
                # of the same cell in the SET phase (lines 7-8).
                benign = min(start + group_size - 1, width - 1)
                reset_bits[benign] = True
                extra_resets += 1
                if not set_bits[benign]:
                    set_bits[benign] = True
                    extra_sets += 1
    return reset_bits, set_bits, extra_resets, extra_sets


def dummy_bitlines(reset_bits, set_bits):
    """D-BL one slice at a time: every group resets once any bit does."""
    width = len(reset_bits)
    if not any(reset_bits):
        return list(reset_bits), list(set_bits), 0, 0
    return [True] * width, list(set_bits), width - sum(reset_bits), 0


def identity(reset_bits, set_bits):
    return list(reset_bits), list(set_bits), 0, 0


def all_pairs(width=8):
    """Every disjoint (RESET, SET) mask pair of one slice: 3^width rows."""
    digits = np.arange(3**width)[:, None] // 3 ** np.arange(width) % 3
    return digits == 1, digits == 2


def as_rows(plans):
    return list(
        zip(
            plans.resets.tolist(),
            plans.sets.tolist(),
            plans.extra_resets.tolist(),
            plans.extra_sets.tolist(),
        )
    )


class TestPlanMany:
    """``plan_many`` equals the scalar oracles on every valid pair."""

    @pytest.mark.parametrize("group_size", range(1, 5))
    @pytest.mark.parametrize("trigger_start", range(8))
    def test_partition_reset(self, trigger_start, group_size):
        resets, sets = all_pairs()
        partitioner = PartitionResetPartitioner(trigger_start, group_size)
        want = [
            algorithm1(r, s, trigger_start, group_size)
            for r, s in zip(resets.tolist(), sets.tolist())
        ]
        assert as_rows(partitioner.plan_many(resets, sets)) == want

    @pytest.mark.parametrize(
        "partitioner, oracle",
        [(DummyBitlinePartitioner(), dummy_bitlines), (IdentityPartitioner(), identity)],
        ids=["D-BL", "identity"],
    )
    def test_other_partitioners(self, partitioner, oracle):
        resets, sets = all_pairs()
        want = [oracle(r, s) for r, s in zip(resets.tolist(), sets.tolist())]
        assert as_rows(partitioner.plan_many(resets, sets)) == want

    def test_plan_is_the_one_row_case(self, pr):
        resets, sets = all_pairs()
        plans = pr.plan_many(resets, sets)
        for index in range(0, len(resets), 97):
            plan = pr.plan(resets[index], sets[index])
            assert plan.reset_groups == tuple(np.flatnonzero(plans.resets[index]))
            assert plan.set_groups == tuple(np.flatnonzero(plans.sets[index]))
            assert plan.extra_resets == plans.extra_resets[index]
            assert plan.extra_sets == plans.extra_sets[index]

    def test_empty_batch(self, pr):
        empty = np.zeros((0, 8), dtype=bool)
        plans = pr.plan_many(empty, empty)
        assert plans.resets.shape == (0, 8) and plans.extra_resets.shape == (0,)


@pytest.mark.parametrize(
    "partitioner",
    [PartitionResetPartitioner(), DummyBitlinePartitioner(), IdentityPartitioner()],
    ids=["PR", "D-BL", "identity"],
)
class TestMaskValidation:
    def test_overlapping_masks_rejected(self, partitioner):
        with pytest.raises(ValueError):
            partitioner.plan(bits(1), bits(1))
        resets, sets = all_pairs()
        sets[5, 0] = resets[5, 0] = True
        with pytest.raises(ValueError):
            partitioner.plan_many(resets, sets)

    def test_mismatched_shapes_rejected(self, partitioner):
        with pytest.raises(ValueError):
            partitioner.plan(np.zeros(8, dtype=bool), np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            partitioner.plan_many(np.zeros(8, dtype=bool), np.zeros(8, dtype=bool))
