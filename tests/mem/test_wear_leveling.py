"""Wear-leveling model tests: bijectivity and wear spreading."""

import pytest

from repro.mem.wear_leveling import InterLineWearLeveling


class TestInterLine:
    def test_mapping_is_bijective(self):
        wl = InterLineWearLeveling(lines=256)
        mapped = {wl.physical_line(i) for i in range(256)}
        assert mapped == set(range(256))

    def test_rekey_changes_mapping(self):
        wl = InterLineWearLeveling(lines=256, epoch_writes=10, seed=3)
        before = [wl.physical_line(i) for i in range(256)]
        for _ in range(10):
            wl.record_write(0)
        after = [wl.physical_line(i) for i in range(256)]
        assert before != after

    def test_hot_line_spreads_over_epochs(self):
        wl = InterLineWearLeveling(lines=64, epoch_writes=8, seed=5)
        landed = set()
        for _ in range(400):
            landed.add(wl.record_write(7))
        # A single hot logical line visits many physical lines.
        assert len(landed) > 16

    def test_validation(self):
        with pytest.raises(ValueError):
            InterLineWearLeveling(lines=100)  # not a power of two
        with pytest.raises(ValueError):
            InterLineWearLeveling(lines=64, epoch_writes=0)
        wl = InterLineWearLeveling(lines=64)
        with pytest.raises(ValueError):
            wl.physical_line(64)

