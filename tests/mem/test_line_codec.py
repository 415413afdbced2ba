"""Line-to-MAT write model tests."""

import pickle

import numpy as np
import pytest

from repro.mem.line_codec import LineWriteModel
from repro.techniques import (
    SchemeLatencyModel,
    make_baseline,
    make_dbl,
    make_udrvr_pr,
)
from repro.techniques.stacks import standard_schemes


@pytest.fixture(scope="module")
def base_model(small_config):
    return LineWriteModel(small_config, make_baseline(small_config))


def masks_for(line_bits, reset_positions=(), set_positions=()):
    resets = np.zeros(line_bits, dtype=bool)
    sets = np.zeros(line_bits, dtype=bool)
    resets[list(reset_positions)] = True
    sets[list(set_positions)] = True
    return resets, sets


class TestBaseline:
    def test_empty_write(self, base_model, small_config):
        line_bits = small_config.memory.line_bytes * 8
        result = base_model.write(*masks_for(line_bits), row=0)
        assert result.latency == 0.0
        assert result.total_writes == 0

    def test_counts_match_masks(self, base_model, small_config):
        line_bits = small_config.memory.line_bytes * 8
        resets, sets = masks_for(line_bits, (0, 9, 100), (5, 200))
        result = base_model.write(resets, sets, row=0)
        assert result.reset_bits == 3
        assert result.set_bits == 2
        assert result.extra_resets == 0
        assert result.concurrent_resets == 3

    def test_latency_is_slowest_mat(self, base_model, small_config):
        line_bits = small_config.memory.line_bytes * 8
        near, _ = masks_for(line_bits, (0,))
        far, _ = masks_for(line_bits, (7,))  # far group of MAT 0
        zero = np.zeros(line_bits, dtype=bool)
        fast = base_model.write(near, zero, row=0).latency
        slow = base_model.write(far, zero, row=0).latency
        assert slow > fast
        # A combined 2-bit write partitions the WL (Fig. 8b), so it can
        # be *faster* than the lone far-group RESET — but never faster
        # than the near-group one.
        both = near | far
        combined = base_model.write(both, zero, row=0).latency
        assert fast < combined <= slow

    def test_reset_energy_positive_and_scales(self, base_model, small_config):
        line_bits = small_config.memory.line_bytes * 8
        one, _ = masks_for(line_bits, (7,))
        many, _ = masks_for(line_bits, (7, 15, 23, 31))
        zero = np.zeros(line_bits, dtype=bool)
        e1 = base_model.write(one, zero, row=0).reset_energy
        e4 = base_model.write(many, zero, row=0).reset_energy
        assert e1 > 0
        assert e4 > e1

    def test_set_energy_from_table_iii(self, base_model, small_config):
        line_bits = small_config.memory.line_bytes * 8
        resets, sets = masks_for(line_bits, (), (0, 1, 2))
        result = base_model.write(resets, sets, row=0)
        assert result.set_energy == pytest.approx(
            3 * small_config.cell.e_set_per_bit
        )


class TestSchemesThroughCodec:
    def test_pr_adds_pairs(self, small_config):
        model = LineWriteModel(small_config, make_udrvr_pr(small_config))
        line_bits = small_config.memory.line_bytes * 8
        resets, sets = masks_for(line_bits, (7,))
        result = model.write(resets, sets, row=0)
        assert result.extra_resets == 3
        assert result.extra_sets == 3
        assert result.total_resets == 4

    def test_dbl_adds_dummies_without_sets(self, small_config):
        model = LineWriteModel(small_config, make_dbl(small_config))
        line_bits = small_config.memory.line_bytes * 8
        resets, sets = masks_for(line_bits, (0,))
        result = model.write(resets, sets, row=0)
        assert result.extra_resets == 7
        assert result.extra_sets == 0
        assert result.concurrent_resets == 8

    def test_plan_cache_stability(self, base_model, small_config):
        line_bits = small_config.memory.line_bytes * 8
        resets, sets = masks_for(line_bits, (3, 11), (4,))
        first = base_model.write(resets, sets, row=5)
        second = base_model.write(resets, sets, row=5)
        assert first.latency == second.latency
        assert first.reset_energy == second.reset_energy


def _bits(key, width):
    return np.array([(key >> k) & 1 for k in range(width)], dtype=bool)


def _mat_pairs(width):
    """Every valid (RESET key, SET key) pair of one MAT (disjoint bits)."""
    return [
        (r, s) for r in range(1 << width) for s in range(1 << width) if not r & s
    ]


class Reference:
    """One-off per-MAT evaluation through the scheme's latency model."""

    def __init__(self, config, scheme):
        self.scheme = scheme
        self.model = SchemeLatencyModel(config, scheme)
        self.width = config.array.data_width
        a = config.array.size
        cols = np.arange(self.width) * (a // self.width) + (a // self.width - 1)
        self.v_matrix = scheme.regulator.matrix(self.model.ir_model)[:, cols]
        self.i_on = config.cell.i_on
        self.e_set = config.cell.e_set_per_bit
        self._plans = {}
        self._timings = {}

    def plan(self, reset_key, set_key):
        key = (reset_key, set_key)
        if key not in self._plans:
            self._plans[key] = self.scheme.partitioner.plan(
                _bits(reset_key, self.width), _bits(set_key, self.width)
            )
        return self._plans[key]

    def timing(self, row, plan):
        """(write latency, RESET-phase latency, RESET energy) of a plan."""
        key = (row, plan.reset_groups, bool(plan.set_groups))
        if key not in self._timings:
            groups = list(plan.reset_groups)
            energy = 0.0
            if groups:
                durations = self.model.table[len(groups) - 1, row, groups]
                energy = float(
                    np.sum(self.v_matrix[row, groups] * self.i_on * durations)
                )
            self._timings[key] = (
                self.model.write_latency(row, plan),
                self.model.reset_phase_latency(row, plan.reset_groups),
                energy,
            )
        return self._timings[key]

    def mat(self, reset_key, set_key, row):
        plan = self.plan(reset_key, set_key)
        latency, reset_latency, energy = self.timing(row, plan)
        return dict(
            latency=latency,
            reset_latency=reset_latency,
            reset_energy=energy,
            set_energy=len(plan.set_groups) * self.e_set,
            reset_bits=bin(reset_key).count("1"),
            set_bits=bin(set_key).count("1"),
            extra_resets=plan.extra_resets,
            extra_sets=plan.extra_sets,
            concurrent_resets=len(plan.reset_groups),
            concurrent_sets=len(plan.set_groups),
        )

    def line(self, reset_keys, set_keys, row):
        """Aggregate in ascending MAT order, one running sum per field."""
        total = dict.fromkeys(
            ("reset_bits", "set_bits", "extra_resets", "extra_sets",
             "concurrent_resets", "concurrent_sets"), 0
        )
        total.update(latency=0.0, reset_latency=0.0, reset_energy=0.0, set_energy=0.0)
        for r, s in zip(reset_keys, set_keys):
            if not (r or s):
                continue
            part = self.mat(int(r), int(s), row)
            for name in ("latency", "reset_latency"):
                total[name] = max(total[name], part[name])
            for name, value in part.items():
                if name not in ("latency", "reset_latency"):
                    total[name] += value
        return total


def _as_dict(result):
    return {
        name: getattr(result, name)
        for name in (
            "latency", "reset_latency", "reset_energy", "set_energy",
            "reset_bits", "set_bits", "extra_resets", "extra_sets",
            "concurrent_resets", "concurrent_sets",
        )
    }


@pytest.fixture(scope="module")
def parity_schemes(small_config):
    schemes = dict(standard_schemes(small_config))
    schemes["D-BL"] = make_dbl(small_config)
    return schemes


class TestTableDrivenParity:
    """The memoised tables equal one-off evaluations bit for bit."""

    def test_every_mat_pair_on_boundary_and_interior_rows(
        self, small_config, parity_schemes
    ):
        """Every valid key pair on the slowest boundary row, and every
        (RESET groups, SET phase) class on the other boundary and some
        interior rows.

        A pair's result is its row-independent plan summary read against
        the row's tables: the first sweep covers every summary, the
        second every table entry the partitioner can reach.
        """
        mats = small_config.memory.line_bytes
        a = small_config.array.size
        pairs = _mat_pairs(small_config.array.data_width)
        for name, scheme in parity_schemes.items():
            model = LineWriteModel(small_config, scheme)
            reference = Reference(small_config, scheme)
            classes = {}
            for r, s in pairs:
                plan = reference.plan(r, s)
                classes.setdefault((plan.reset_groups, bool(plan.set_groups)), (r, s))
            worst = [int(row) for row in model.latency_model._worst_rows()]
            for row in worst + [1, a // 3, a // 2 + 1]:
                cases = pairs if row == worst[-1] else list(classes.values())
                for index, (r, s) in enumerate(cases):
                    resets = np.zeros(mats, dtype=np.uint8)
                    sets = np.zeros(mats, dtype=np.uint8)
                    resets[index % mats], sets[index % mats] = r, s
                    got = _as_dict(model.write(resets, sets, row))
                    assert got == reference.mat(r, s, row), (name, row, r, s)

    def test_multi_mat_lines_bool_and_packed(self, small_config, parity_schemes):
        mats = small_config.memory.line_bytes
        width = small_config.array.data_width
        a = small_config.array.size
        budget = small_config.pump.max_concurrent_writes
        rng = np.random.default_rng(11)
        over_budget = False
        for name, scheme in parity_schemes.items():
            model = LineWriteModel(small_config, scheme)
            reference = Reference(small_config, scheme)
            for trial in range(40):
                density = 0.9 if trial % 4 == 0 else 0.1
                changed = rng.random(mats * width) < density
                direction = rng.random(mats * width) < 0.5
                resets, sets = changed & direction, changed & ~direction
                row = int(rng.integers(a))
                packed = (
                    np.packbits(resets, bitorder="little"),
                    np.packbits(sets, bitorder="little"),
                )
                from_bool = _as_dict(model.write(resets, sets, row))
                from_packed = _as_dict(model.write(*packed, row))
                want = reference.line(packed[0], packed[1], row)
                assert from_bool == want, (name, row)
                assert from_packed == want, (name, row)
                if name == "D-BL" and want["concurrent_resets"] > budget:
                    over_budget = True
        # D-BL's dense lines exceed the baseline pump budget (the reason
        # D-BL doubles the pump).
        assert over_budget

    def test_packed_form_is_per_mat_keys(self, base_model, small_config):
        line_bits = small_config.memory.line_bytes * 8
        resets, sets = masks_for(line_bits, (0, 9, 100), (5, 200))
        packed = np.packbits(resets, bitorder="little")
        assert packed[0] == 1 and packed[1] == 2 and packed[12] == 16
        a = base_model.write(resets, sets, row=3)
        b = base_model.write(packed, np.packbits(sets, bitorder="little"), row=3)
        assert a == b

    def test_pickles_as_recipe(self, base_model, small_config):
        line_bits = small_config.memory.line_bytes * 8
        resets, sets = masks_for(line_bits, (7, 63), (1,))
        clone = pickle.loads(pickle.dumps(base_model))
        assert clone.scheme.name == base_model.scheme.name
        assert clone.write(resets, sets, 9) == base_model.write(resets, sets, 9)
