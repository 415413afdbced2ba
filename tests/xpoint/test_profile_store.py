"""Profile sharing layers: registry, persistent store, seeds.

``ArrayIRModel`` resolves a BL drop profile through four layers — the
per-model memo, the process-wide :data:`profile_registry`, the
checksummed disk :class:`~repro.engine.cache.ProfileStore`, and finally
a live (continuation-seeded) solve.  These tests pin the lookup order,
the validation that guards every shared layer, and the corruption
fallback inherited from :class:`~repro.engine.cache.ResultCache`.
Cross-process sharing through the shared-memory segment is covered in
``tests/engine/test_compute_shared.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.circuit.crosspoint import BASELINE_BIAS
from repro.config import default_config
from repro.engine.cache import NullCache, ProfileStore, ResultCache
from repro.engine.context import RunContext
from repro.xpoint.vmap import ArrayIRModel, profile_registry

#: Seeded (continuation) and cold solves may land on different points
#: inside the Newton tolerance: the cold stopping point sits wherever
#: the residual first dips under 1e-10, up to ~1e-6 V from the true
#: solution, while seeded solves land essentially on it.  Profiles are
#: therefore compared at the microvolt level, far below any physics.
SEED_ATOL = 2e-6


def _collected(fn):
    """Run ``fn`` under a fresh collector; return (result, counters)."""
    collector = obs.Collector()
    with obs.collecting(collector):
        result = fn()
    return result, (collector.snapshot().to_plain().get("counters") or {})


def _model(solver="factor-cache", size=32, store=None):
    model = ArrayIRModel(default_config(size=size), solver=solver)
    model.profile_store = store
    return model


class TestReadonlyProfiles:
    def test_profile_is_readonly_and_mutation_raises(self):
        profile = _model().bl_drop_profile(3.3)
        assert profile.flags.writeable is False
        with pytest.raises(ValueError):
            profile[0] = 99.0

    def test_memo_returns_same_readonly_object(self):
        model = _model()
        first = model.bl_drop_profile(3.3)
        # 165 * 0.02 != 3.3 in floats; integer quantisation must bucket
        # them together (profile purity: one bucket, one byte pattern).
        second = model.bl_drop_profile(165 * 0.02)
        assert second is first


class TestProcessRegistry:
    def test_second_model_reuses_first_models_profile(self):
        first = _model().bl_drop_profile(3.3)
        second, counters = _collected(lambda: _model().bl_drop_profile(3.3))
        assert second is first  # shared through the registry, not re-solved
        assert counters.get("profile_cache.registry_hit") == 1
        assert "solver.solves" not in counters  # served, not re-solved

    def test_registry_is_solver_keyed(self):
        reference = _model(solver="reference").bl_drop_profile(3.3)
        _, counters = _collected(
            lambda: _model(solver="factor-cache").bl_drop_profile(3.3)
        )
        # The byte-locked reference artefact must not be served to an
        # accelerated backend: the factor-cache model solves live.
        assert "profile_cache.registry_hit" not in counters
        assert counters.get("profile_cache.miss") == 1
        assert reference is not None


class TestContinuationSeeds:
    def test_accelerated_solves_are_seeded_from_nearest_quantum(self):
        model = _model()
        model.bl_drop_profile(3.3)
        _, counters = _collected(lambda: model.bl_drop_profile(3.2))
        assert counters.get("profile_cache.continuation_seeds") == 1

    def test_reference_backend_is_never_seeded(self):
        model = _model(solver="reference")
        model.bl_drop_profile(3.3)
        _, counters = _collected(lambda: model.bl_drop_profile(3.2))
        assert "profile_cache.continuation_seeds" not in counters

    def test_seeded_profile_matches_cold_profile(self):
        model = _model()
        model.bl_drop_profile(3.3)
        seeded = model.bl_drop_profile(3.2)

        profile_registry.clear()
        cold = _model().bl_drop_profile(3.2)
        np.testing.assert_allclose(seeded, cold, rtol=0.0, atol=SEED_ATOL)


class TestPersistentStore:
    def test_round_trip_across_processes_simulated(self, tmp_path):
        cache = ResultCache(tmp_path)
        stored, counters = _collected(
            lambda: _model(store=ProfileStore(cache)).bl_drop_profile(3.3)
        )
        assert counters.get("profile_cache.disk_store") == 1

        # A "new process": empty registry, fresh store over the same dir.
        profile_registry.clear()
        loaded, counters = _collected(
            lambda: _model(store=ProfileStore(cache)).bl_drop_profile(3.3)
        )
        assert counters.get("profile_cache.disk_hit") == 1
        assert "solver.solves" not in counters
        np.testing.assert_array_equal(loaded, stored)
        assert loaded.flags.writeable is False

    def test_registry_hit_is_written_through_once(self, tmp_path):
        store = ProfileStore(ResultCache(tmp_path))
        _model().bl_drop_profile(3.3)  # registry only — no store attached

        def lookup():
            return _model(store=store).bl_drop_profile(3.3)

        _, counters = _collected(lookup)
        assert counters.get("profile_cache.disk_store") == 1
        _, counters = _collected(lookup)
        assert "profile_cache.disk_store" not in counters  # already on disk

    def test_stores_over_one_directory_write_a_profile_once(self, tmp_path):
        # Each fault identity's run context opens a store of its own
        # over the same directory; the profiles they all share must not
        # be rewritten by every one of them.
        first = ProfileStore(ResultCache(tmp_path))
        _, counters = _collected(
            lambda: _model(store=first).bl_drop_profile(3.3)
        )
        assert counters.get("profile_cache.disk_store") == 1
        second = ProfileStore(ResultCache(tmp_path))
        _, counters = _collected(
            lambda: _model(store=second).bl_drop_profile(3.3)
        )
        assert counters.get("profile_cache.registry_hit") == 1
        assert "profile_cache.disk_store" not in counters
        assert len(list(tmp_path.glob("*.pkl"))) == 1

    def test_profile_gone_from_disk_is_written_again(self, tmp_path):
        cache = ResultCache(tmp_path)
        _collected(lambda: _model(store=ProfileStore(cache)).bl_drop_profile(3.3))
        for path in tmp_path.glob("*.pkl"):
            path.unlink()
        profile_registry.clear()
        _, counters = _collected(
            lambda: _model(store=ProfileStore(cache)).bl_drop_profile(3.3)
        )
        assert counters.get("profile_cache.disk_store") == 1
        assert len(list(tmp_path.glob("*.pkl"))) == 1

    def test_wl_calibration_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        first, counters = _collected(
            lambda: _model(store=ProfileStore(cache)).wl_model
        )
        assert counters.get("profile_cache.disk_store") == 1

        profile_registry.clear()
        second, counters = _collected(
            lambda: _model(store=ProfileStore(cache)).wl_model
        )
        assert counters.get("profile_cache.disk_hit") == 1
        assert "solver.solves" not in counters
        assert second.sneak_current == first.sneak_current

    def test_corrupted_entry_quarantines_and_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        expected = _model(store=ProfileStore(cache)).bl_drop_profile(3.3)
        entries = list(tmp_path.glob("*.pkl"))
        assert len(entries) == 1
        entries[0].write_bytes(entries[0].read_bytes()[:48])  # truncate

        profile_registry.clear()
        fresh_cache = ResultCache(tmp_path)
        recomputed, counters = _collected(
            lambda: _model(store=ProfileStore(fresh_cache)).bl_drop_profile(3.3)
        )
        assert fresh_cache.quarantined == 1
        assert list(tmp_path.glob("quarantine/*.pkl"))
        assert "profile_cache.disk_hit" not in counters
        np.testing.assert_allclose(
            recomputed, expected, rtol=0.0, atol=SEED_ATOL
        )

    def test_wrong_shape_payload_reads_as_miss(self, tmp_path):
        # An entry that unpickles cleanly but holds the wrong artefact
        # (stale key collision, cross-version drift) must be rejected by
        # validation and recomputed — never crash or corrupt a map.
        cache = ResultCache(tmp_path)
        model = _model(store=ProfileStore(cache))
        quantum = int(round(3.3 / 0.02))
        parts = model._profile_parts("bl-profile", quantum, 0.02, 13, BASELINE_BIAS)
        ProfileStore(cache).store(parts, np.zeros(3))  # wrong shape

        profile, counters = _collected(lambda: model.bl_drop_profile(3.3))
        assert counters.get("profile_cache.invalid") == 1
        assert profile.shape == (model.config.array.size,)

    def test_invalid_wl_calibration_is_recalibrated(self, tmp_path):
        cache = ResultCache(tmp_path)
        model = _model(store=ProfileStore(cache))
        ProfileStore(cache).store(
            model._profile_parts("wl-calibration"), float("nan")
        )
        wl, counters = _collected(lambda: model.wl_model)
        assert counters.get("profile_cache.invalid") == 1
        assert np.isfinite(wl.sneak_current) and wl.sneak_current >= 0.0

    def test_invalid_profile_is_replaced_in_registry_and_on_disk(
        self, tmp_path
    ):
        # The rejected disk value must not reach the registry (where
        # every later model would reject it and re-solve) nor stay on
        # disk (where every later process would).
        cache = ResultCache(tmp_path)
        model = _model(store=ProfileStore(cache))
        parts = model._bl_parts(int(round(3.3 / 0.02)), BASELINE_BIAS)
        ProfileStore(cache).store(parts, np.zeros(3))
        recomputed = model.bl_drop_profile(3.3)

        again, counters = _collected(
            lambda: _model(store=ProfileStore(cache)).bl_drop_profile(3.3)
        )
        assert "solver.solves" not in counters
        assert "profile_cache.invalid" not in counters
        np.testing.assert_array_equal(again, recomputed)
        loaded = ProfileStore(ResultCache(tmp_path)).load(parts)
        np.testing.assert_array_equal(loaded, recomputed)

    def test_invalid_wl_calibration_is_replaced_in_registry_and_on_disk(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        model = _model(store=ProfileStore(cache))
        parts = model._profile_parts("wl-calibration")
        ProfileStore(cache).store(parts, float("nan"))
        sneak = model.wl_model.sneak_current

        again, counters = _collected(
            lambda: _model(store=ProfileStore(cache)).wl_model
        )
        assert "solver.solves" not in counters
        assert "profile_cache.invalid" not in counters
        assert again.sneak_current == sneak
        assert ProfileStore(ResultCache(tmp_path)).load(parts) == sneak

    def test_null_cache_disables_persistence(self):
        store = ProfileStore(NullCache())
        assert store.enabled is False
        _, counters = _collected(
            lambda: _model(store=store).bl_drop_profile(3.3)
        )
        assert "profile_cache.disk_store" not in counters

    def test_run_context_attaches_store_to_models(self, tmp_path):
        context = RunContext(
            config=default_config(size=16), cache=ResultCache(tmp_path)
        )
        assert isinstance(context.profile_store, ProfileStore)
        assert context.ir_model().profile_store is context.profile_store

    def test_run_context_without_cache_has_no_store(self):
        assert RunContext(config=default_config(size=16)).profile_store is None

