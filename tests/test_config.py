"""Configuration dataclass tests (Tables I and III)."""

import pytest

from repro.config import (
    ArrayParams,
    CellParams,
    MemoryParams,
    PumpParams,
    SelectorParams,
    config_hash,
    default_config,
)


class TestDefaults:
    def test_table_i_values(self):
        config = default_config()
        assert config.array.size == 512
        assert config.array.data_width == 8
        assert config.array.r_wire == 11.5
        assert config.array.selector.kr == 1000.0
        assert config.cell.i_on == pytest.approx(90e-6)
        assert config.cell.v_reset == 3.0
        assert config.cell.v_read == 1.8

    def test_table_iii_values(self):
        config = default_config()
        assert config.memory.capacity_bytes == 64 << 30
        assert config.memory.ranks_per_channel == 2
        assert config.memory.chips_per_rank == 8
        assert config.memory.total_banks == 16
        assert config.pump.i_reset_budget == pytest.approx(23e-3)
        assert config.pump.efficiency == pytest.approx(0.33)
        assert config.cpu.cores == 8
        assert config.cpu.freq_ghz == 3.2

    def test_derived_geometry(self):
        config = default_config()
        assert config.array.cells_per_mux == 64
        assert config.array.section_rows == 64
        assert config.memory.lines == (64 << 30) // 64
        assert config.memory.arrays_per_line == 64


class TestValidation:
    def test_array_geometry(self):
        with pytest.raises(ValueError):
            ArrayParams(size=1)
        with pytest.raises(ValueError):
            ArrayParams(size=512, data_width=7)
        with pytest.raises(ValueError):
            ArrayParams(r_wire=0.0)
        with pytest.raises(ValueError):
            ArrayParams(drvr_sections=3)

    def test_selector_params(self):
        with pytest.raises(ValueError):
            SelectorParams(kr=1.0)
        with pytest.raises(ValueError):
            SelectorParams(leak_sat_ratio=0.0)

    def test_cell_params(self):
        with pytest.raises(ValueError):
            CellParams(i_on=-1.0)

    def test_memory_geometry_consistency(self):
        with pytest.raises(ValueError):
            MemoryParams(capacity_bytes=32 << 30)  # mismatch with chips
        with pytest.raises(ValueError):
            MemoryParams(line_bytes=48)

    def test_pump_params(self):
        with pytest.raises(ValueError):
            PumpParams(efficiency=0.0)
        with pytest.raises(ValueError):
            PumpParams(v_out=1.0)


class TestDerivation:
    def test_with_array(self):
        config = default_config()
        derived = config.with_array(size=256)
        assert derived.array.size == 256
        assert config.array.size == 512  # original untouched

    def test_with_helpers_chain(self):
        config = (
            default_config()
            .with_cell(v_reset=3.2)
            .with_pump(v_out=3.2)
            .with_memory(write_queue_entries=48)
            .with_cpu(cores=4)
        )
        assert config.cell.v_reset == 3.2
        assert config.memory.write_queue_entries == 48
        assert config.cpu.cores == 4

    def test_config_hashable(self):
        assert hash(default_config()) == hash(default_config())
        assert default_config() == default_config()


class TestConfigHash:
    def test_equal_configs_hash_equal(self):
        assert config_hash(default_config()) == config_hash(default_config())
        derived = default_config().with_array(size=256).with_array(size=512)
        assert config_hash(derived) == config_hash(default_config())

    def test_one_field_change_changes_hash(self):
        base = config_hash(default_config())
        assert config_hash(default_config(size=256)) != base
        assert config_hash(default_config().with_cell(v_reset=3.1)) != base
        assert config_hash(default_config().with_cpu(cores=4)) != base

    def test_hash_shape(self):
        digest = config_hash(default_config())
        assert len(digest) == 16
        int(digest, 16)  # hex

    def test_sub_dataclasses_hashable_too(self):
        assert config_hash(ArrayParams()) == config_hash(ArrayParams())
        assert config_hash(ArrayParams()) != config_hash(ArrayParams(size=256))

    def test_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            config_hash({"not": "a dataclass"})

    def test_digests_are_pinned(self):
        # Disk caches and payload keys are addressed by these digests;
        # a change here orphans every cached artefact.
        from repro.faults.model import FaultModel

        assert config_hash(default_config()) == "b409ad1c826f2c99"
        assert config_hash(default_config(size=64)) == "45d61993005db873"
        assert config_hash(FaultModel.at_rate(1e-3, seed=7)) == (
            "c3959e2ea5cecc55"
        )

    def test_repeated_call_does_not_render_again(self, monkeypatch):
        import dataclasses

        from repro import config as config_module
        from repro.faults.model import FaultModel

        renders = []
        real_asdict = dataclasses.asdict

        def counting_asdict(obj, *args, **kwargs):
            renders.append(type(obj).__name__)
            return real_asdict(obj, *args, **kwargs)

        monkeypatch.setattr(config_module.dataclasses, "asdict", counting_asdict)
        config = default_config()
        faults = FaultModel.at_rate(1e-3, seed=7)
        first = [config_hash(config), config_hash(faults)]
        assert renders == ["SystemConfig", "FaultModel"]
        assert [config_hash(config), config_hash(faults)] == first
        assert renders == ["SystemConfig", "FaultModel"]
        # The memo lives outside the fields: equality is untouched.
        assert config == default_config()
