"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.cell import CellModel
from repro.circuit.equivalent import WordlineDropModel
from repro.config import CellParams, default_config
from repro.techniques.base import WritePlan
from repro.techniques.dummy_bl import DummyBitlinePartitioner
from repro.techniques.partition_reset import PartitionResetPartitioner


def mask_pair(reset_int, set_int, width=8):
    reset_int &= (1 << width) - 1
    set_int &= ~reset_int & ((1 << width) - 1)
    resets = np.array([(reset_int >> i) & 1 for i in range(width)], dtype=bool)
    sets = np.array([(set_int >> i) & 1 for i in range(width)], dtype=bool)
    return resets, sets


class TestLatencyEnduranceDuality:
    """Equations 1 and 2 are monotone duals: any voltage ordering maps
    to the opposite latency ordering and the same endurance ordering."""

    @given(
        v1=st.floats(min_value=1.71, max_value=3.7),
        v2=st.floats(min_value=1.71, max_value=3.7),
    )
    @settings(max_examples=80)
    def test_orderings(self, v1, v2):
        model = CellModel.from_params(CellParams())
        t1, t2 = model.reset_latency(v1), model.reset_latency(v2)
        e1, e2 = model.endurance(t1), model.endurance(t2)
        if v1 < v2:
            assert t1 >= t2
            assert e1 >= e2

    @given(v=st.floats(min_value=1.71, max_value=3.7))
    def test_round_trip(self, v):
        model = CellModel.from_params(CellParams())
        t = model.reset_latency(v)
        assert model.voltage_for_latency(t) == pytest.approx(v, abs=1e-9)


class TestWordlineModelProperties:
    @given(
        col=st.integers(min_value=0, max_value=511),
        n=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_drop_nonnegative_and_bounded(self, col, n):
        model = WordlineDropModel(default_config(), sneak_current=19e-6)
        drop = model.drop(col, n_bits=n)
        assert 0.0 <= drop < 3.0

    @given(n=st.integers(min_value=1, max_value=8))
    def test_far_column_dominates(self, n):
        model = WordlineDropModel(default_config(), sneak_current=19e-6)
        assert model.drop(511, n_bits=n) >= model.drop(100, n_bits=n)


class TestPartitionerProperties:
    """Invariants every partitioner must respect."""

    @given(
        reset_int=st.integers(min_value=0, max_value=255),
        set_int=st.integers(min_value=0, max_value=255),
        partitioner=st.sampled_from(
            [PartitionResetPartitioner(), DummyBitlinePartitioner()]
        ),
    )
    @settings(max_examples=120)
    def test_plans_preserve_required_operations(
        self, reset_int, set_int, partitioner
    ):
        resets, sets = mask_pair(reset_int, set_int)
        plan = partitioner.plan(resets, sets)
        assert set(np.flatnonzero(resets)) <= set(plan.reset_groups)
        assert set(np.flatnonzero(sets)) <= set(plan.set_groups)
        # Extra-op accounting is consistent.
        assert len(plan.reset_groups) == int(resets.sum()) + plan.extra_resets
        assert plan.extra_sets <= plan.extra_resets
        assert plan.n_concurrent_resets <= 8


class TestWritePlanProperties:
    @given(groups=st.sets(st.integers(min_value=0, max_value=7)))
    def test_concurrency_counts(self, groups):
        plan = WritePlan(reset_groups=tuple(sorted(groups)), set_groups=())
        assert plan.n_concurrent_resets == len(groups)
