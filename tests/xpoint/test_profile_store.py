"""Profile sharing layers: registry, persistent store, seeds.

``ArrayIRModel`` resolves a BL drop profile through four layers — the
per-model memo, the process-wide :data:`profile_registry`, the
registry's checksummed disk tier (one
:class:`~repro.engine.cache.ProfileStore` per cache directory, scoped
by :meth:`~repro.xpoint.vmap.ProfileRegistry.persisting`), and finally
a live (continuation-seeded) solve.  These tests pin the lookup order,
the validation that guards every shared layer, the corruption fallback
inherited from :class:`~repro.engine.cache.ResultCache`, and that a
run writes only into its own context's cache.  Cross-process sharing
through the disk tier is covered in
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
from repro.engine.registry import _REGISTRY, Experiment, register
from repro.engine.runner import run_experiment
from repro.xpoint.vmap import _DEFAULT_CACHE, ArrayIRModel, profile_registry

#: Seeded (continuation) and cold solves may land on different points
#: inside the Newton tolerance: the cold stopping point sits wherever
#: the residual first dips under 1e-10, up to ~1e-6 V from the true
#: solution, while seeded solves land essentially on it.  Profiles are
#: therefore compared at the microvolt level, far below any physics.
SEED_ATOL = 2e-6


def _collected(fn, cache=None):
    """Run ``fn`` under a fresh collector, persisting into ``cache``;
    return (result, counters)."""
    collector = obs.Collector()
    with obs.collecting(collector), profile_registry.persisting(cache):
        result = fn()
    return result, (collector.snapshot().to_plain().get("counters") or {})


def _model(solver="batched", size=32):
    return ArrayIRModel(default_config(size=size), solver=solver)


def _profile_files(root):
    return sorted(path.name for path in root.glob("*.pkl"))


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
            lambda: _model(solver="batched").bl_drop_profile(3.3)
        )
        # The byte-locked reference artefact must not be served to an
        # accelerated backend: the batched model solves live.
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
        stored, counters = _collected(lambda: _model().bl_drop_profile(3.3), cache)
        assert counters.get("profile_cache.disk_store") == 1

        # A "new process": empty registry, the same directory.
        profile_registry.clear()
        loaded, counters = _collected(lambda: _model().bl_drop_profile(3.3), cache)
        assert counters.get("profile_cache.disk_hit") == 1
        assert "solver.solves" not in counters
        np.testing.assert_array_equal(loaded, stored)
        assert loaded.flags.writeable is False

    def test_registry_hit_is_written_through_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        _model().bl_drop_profile(3.3)  # registry only — no disk tier

        def lookup():
            return _model().bl_drop_profile(3.3)

        _, counters = _collected(lookup, cache)
        assert counters.get("profile_cache.disk_store") == 1
        _, counters = _collected(lookup, cache)
        assert "profile_cache.disk_store" not in counters  # already on disk

    def test_stores_over_one_directory_write_a_profile_once(self, tmp_path):
        # Every fault identity's run context opens a cache of its own
        # over the same directory; the registry keeps one store for the
        # directory, so the profiles they all share are written once.
        _, counters = _collected(
            lambda: _model().bl_drop_profile(3.3), ResultCache(tmp_path)
        )
        assert counters.get("profile_cache.disk_store") == 1
        _, counters = _collected(
            lambda: _model().bl_drop_profile(3.3), ResultCache(str(tmp_path))
        )
        assert counters.get("profile_cache.registry_hit") == 1
        assert "profile_cache.disk_store" not in counters
        assert len(_profile_files(tmp_path)) == 1

    def test_profile_gone_from_disk_is_written_again(self, tmp_path):
        cache = ResultCache(tmp_path)
        _collected(lambda: _model().bl_drop_profile(3.3), cache)
        for path in tmp_path.glob("*.pkl"):
            path.unlink()
        profile_registry.clear()
        _, counters = _collected(lambda: _model().bl_drop_profile(3.3), cache)
        assert counters.get("profile_cache.disk_store") == 1
        assert len(_profile_files(tmp_path)) == 1

    def test_wl_calibration_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        first, counters = _collected(lambda: _model().wl_model, cache)
        assert counters.get("profile_cache.disk_store") == 1

        profile_registry.clear()
        second, counters = _collected(lambda: _model().wl_model, cache)
        assert counters.get("profile_cache.disk_hit") == 1
        assert "solver.solves" not in counters
        assert second.sneak_current == first.sneak_current

    def test_corrupted_entry_quarantines_and_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        expected, _ = _collected(lambda: _model().bl_drop_profile(3.3), cache)
        entries = list(tmp_path.glob("*.pkl"))
        assert len(entries) == 1
        entries[0].write_bytes(entries[0].read_bytes()[:48])  # truncate

        profile_registry.clear()
        recomputed, counters = _collected(
            lambda: _model().bl_drop_profile(3.3), ResultCache(tmp_path)
        )
        assert counters.get("disk_cache.quarantine") == 1
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
        model = _model()
        quantum = int(round(3.3 / 0.02))
        parts = model._profile_parts("bl-profile", quantum, 0.02, 13, BASELINE_BIAS)
        ProfileStore(cache).store(parts, np.zeros(3))  # wrong shape

        profile, counters = _collected(lambda: model.bl_drop_profile(3.3), cache)
        assert counters.get("profile_cache.invalid") == 1
        assert profile.shape == (model.config.array.size,)

    def test_invalid_wl_calibration_is_recalibrated(self, tmp_path):
        cache = ResultCache(tmp_path)
        model = _model()
        ProfileStore(cache).store(
            model._profile_parts("wl-calibration"), float("nan")
        )
        wl, counters = _collected(lambda: model.wl_model, cache)
        assert counters.get("profile_cache.invalid") == 1
        assert np.isfinite(wl.sneak_current) and wl.sneak_current >= 0.0

    def test_invalid_profile_is_replaced_in_registry_and_on_disk(
        self, tmp_path
    ):
        # The rejected disk value must not reach the registry (where
        # every later model would reject it and re-solve) nor stay on
        # disk (where every later process would).
        cache = ResultCache(tmp_path)
        model = _model()
        parts = model._bl_parts(int(round(3.3 / 0.02)), BASELINE_BIAS)
        ProfileStore(cache).store(parts, np.zeros(3))
        recomputed, _ = _collected(lambda: model.bl_drop_profile(3.3), cache)

        again, counters = _collected(lambda: _model().bl_drop_profile(3.3), cache)
        assert "solver.solves" not in counters
        assert "profile_cache.invalid" not in counters
        np.testing.assert_array_equal(again, recomputed)
        loaded = ProfileStore(ResultCache(tmp_path)).load(parts)
        np.testing.assert_array_equal(loaded, recomputed)

    def test_invalid_wl_calibration_is_replaced_in_registry_and_on_disk(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        model = _model()
        parts = model._profile_parts("wl-calibration")
        ProfileStore(cache).store(parts, float("nan"))
        wl, _ = _collected(lambda: model.wl_model, cache)

        again, counters = _collected(lambda: _model().wl_model, cache)
        assert "solver.solves" not in counters
        assert "profile_cache.invalid" not in counters
        assert again.sneak_current == wl.sneak_current
        assert ProfileStore(ResultCache(tmp_path)).load(parts) == wl.sneak_current

    def test_null_cache_disables_persistence(self):
        _, counters = _collected(
            lambda: _model().bl_drop_profile(3.3), NullCache()
        )
        assert "profile_cache.disk_store" not in counters


def _probe_driver(config=None, context=None, v=3.3):
    """Solve one profile through the context's model."""
    context.ir_model().bl_drop_profile(v)
    return {"v": v}


class TestRunScopedPersistence:
    """A plan persists profiles into its own context's cache, and only
    there, although contexts share models through the default cache."""

    @pytest.fixture
    def probe(self):
        register(
            Experiment(
                name="_profile_probe", driver=_probe_driver,
                title="probe", params=("v",),
            )
        )
        _DEFAULT_CACHE.clear()
        yield "_profile_probe"
        _REGISTRY.pop("_profile_probe", None)
        _DEFAULT_CACHE.clear()

    def _context(self, cache=None, v=3.3):
        return RunContext(
            config=default_config(size=16), cache=cache, params={"v": v}
        )

    def test_plan_persists_into_its_contexts_cache(self, tmp_path, probe):
        run_experiment(probe, self._context(ResultCache(tmp_path)))
        # The payload and the profile, nothing else is written.
        assert len(_profile_files(tmp_path)) == 2

    def test_no_cache_context_never_writes_another_contexts_cache(
        self, tmp_path, probe
    ):
        # Context A builds the shared model under a disk cache; context
        # B has none (a --no-cache run, or a service request with
        # "no_cache": true) and reuses that model.
        cached = self._context(ResultCache(tmp_path))
        run_experiment(probe, cached)
        written = _profile_files(tmp_path)
        uncached = self._context(v=2.9)
        assert uncached.ir_model() is cached.ir_model()
        run_experiment(probe, uncached)
        uncached.ir_model().bl_drop_profile(3.1)
        assert _profile_files(tmp_path) == written
