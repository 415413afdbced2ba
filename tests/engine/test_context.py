"""RunContext: model cache, scheme registry cache, seed derivation."""

import numpy as np

from repro.config import default_config
from repro.engine import RunContext
from repro.xpoint.vmap import ModelCache


class TestModelCache:
    def test_structurally_equal_configs_share_models(self, small_config):
        cache = ModelCache()
        twin = default_config(size=small_config.array.size)
        assert cache.get(small_config) is cache.get(twin)

    def test_bounded_eviction(self, tiny_config):
        cache = ModelCache(maxsize=2)
        a = cache.get(tiny_config)
        cache.get(default_config(size=32))
        cache.get(default_config(size=64))  # evicts the tiny model
        assert len(cache) == 2
        assert cache.get(tiny_config) is not a

    def test_context_ir_model_uses_own_cache(self, tiny_config):
        context = RunContext(config=tiny_config, model_cache=ModelCache())
        assert context.ir_model() is context.ir_model()
        assert context.ir_model().config is tiny_config

    def test_hit_refreshes_recency(self, tiny_config):
        """A re-used entry must become the hottest, not stay coldest."""
        cache = ModelCache(maxsize=2)
        tiny = cache.get(tiny_config)
        cache.get(default_config(size=32))
        cache.get(tiny_config)  # now the 32-model is the coldest
        cache.get(default_config(size=64))  # evicts the 32-model
        assert cache.get(tiny_config) is tiny
        assert len(cache) == 2

    def test_put_resident_key_at_capacity_never_evicts(self, tiny_config):
        """Regression: re-inserting a resident key at capacity must
        refresh it in place, not evict an unrelated warm entry."""
        from repro.xpoint.vmap import ArrayIRModel

        cache = ModelCache(maxsize=2)
        cache.get(tiny_config)
        other = default_config(size=32)
        other_model = cache.get(other)
        replacement = ArrayIRModel(tiny_config)
        cache.put(tiny_config, replacement)
        assert len(cache) == 2
        assert cache.get(other) is other_model  # still resident
        assert cache.get(tiny_config) is replacement  # value refreshed

    def test_put_new_key_at_capacity_evicts_coldest(self, tiny_config):
        from repro.xpoint.vmap import ArrayIRModel

        cache = ModelCache(maxsize=2)
        tiny = cache.get(tiny_config)
        cache.get(default_config(size=32))
        third = default_config(size=64)
        cache.put(third, ArrayIRModel(third))
        assert len(cache) == 2
        assert cache.get(tiny_config) is not tiny  # coldest was evicted


class TestSolverSelection:
    def test_solver_backends_never_alias_in_model_cache(self, tiny_config):
        cache = ModelCache()
        default = cache.get(tiny_config)
        oracle = cache.get(tiny_config, solver="reference")
        assert oracle is not default
        assert oracle.solver == "reference"
        assert cache.get(tiny_config, solver="reference") is oracle

    def test_batched_solver_shares_default_entry(self, tiny_config):
        """The default and an explicit ``batched`` are one entry."""
        cache = ModelCache()
        assert cache.get(tiny_config) is cache.get(tiny_config, solver="batched")

    def test_context_threads_solver_into_models(self, tiny_config):
        context = RunContext(
            config=tiny_config, model_cache=ModelCache(), solver="batched"
        )
        assert context.solver == "batched"
        assert context.ir_model().solver == "batched"
        assert context.ir_model().reduced.solver == "batched"

    def test_context_defaults_to_batched(self, tiny_config):
        context = RunContext(config=tiny_config, model_cache=ModelCache())
        assert context.solver == "batched"
        assert context.ir_model().solver == "batched"

    def test_unknown_solver_fails_at_construction(self, tiny_config):
        import pytest

        with pytest.raises(ValueError, match="unknown solver backend"):
            RunContext(config=tiny_config, solver="superlu-typo")

    def test_solver_participates_in_experiment_cache_key(self, tmp_path):
        from repro.engine import ResultCache, run_experiment

        cache = ResultCache(str(tmp_path / "cache"))
        first = run_experiment("fig11a", RunContext(cache=cache))
        assert first.cache == "miss"
        # Same experiment under the other backend: its own key.
        other = run_experiment(
            "fig11a", RunContext(cache=cache, solver="reference")
        )
        assert other.cache == "miss"
        # Both namespaces hit on re-run.
        assert run_experiment("fig11a", RunContext(cache=cache)).cache == "hit"
        assert (
            run_experiment(
                "fig11a", RunContext(cache=cache, solver="reference")
            ).cache
            == "hit"
        )


class TestSchemes:
    def test_cached_per_config_hash(self, small_config):
        context = RunContext(config=small_config)
        first = context.schemes(oracle_sections=(16,))
        second = context.schemes(oracle_sections=(16,))
        assert first is second
        assert "UDRVR+PR" in first

    def test_standard_schemes_delegates_to_context(self, small_config):
        from repro.techniques.stacks import standard_schemes

        context = RunContext(config=small_config)
        via_helper = standard_schemes(
            small_config, oracle_sections=(16,), context=context
        )
        assert via_helper is context.schemes(small_config, (16,))


class TestSeeds:
    def test_default_context_preserves_base_seeds(self):
        context = RunContext()
        assert context.seed_for(17) == 17
        assert context.seed_for(29) == 29

    def test_nonzero_seed_perturbs_deterministically(self):
        a = RunContext(seed=5)
        b = RunContext(seed=5)
        c = RunContext(seed=6)
        assert a.seed_for(17) == b.seed_for(17)
        assert a.seed_for(17) != 17
        assert a.seed_for(17) != c.seed_for(17)
        assert a.seed_for(17, "mcf_m") != a.seed_for(17, "zeu_m")

    def test_rng_reproducible(self):
        context = RunContext(seed=9)
        x = context.rng(3, "stream").random(4)
        y = context.rng(3, "stream").random(4)
        assert np.array_equal(x, y)

    def test_string_and_int_tokens_mix_differently(self):
        """``"12"`` and ``12`` are distinct stream identities."""
        context = RunContext(seed=5)
        assert context.seed_for(17, "12") != context.seed_for(17, 12)

    def test_token_boundaries_are_significant(self):
        """``("ab", "c")`` and ``("a", "bc")`` must not collide."""
        context = RunContext(seed=5)
        assert context.seed_for(17, "ab", "c") != context.seed_for(17, "a", "bc")

    def test_token_order_is_significant(self):
        context = RunContext(seed=5)
        assert context.seed_for(17, "x", "y") != context.seed_for(17, "y", "x")

    def test_tokens_perturb_even_with_default_seed(self):
        context = RunContext()  # seed=0
        assert context.seed_for(17, "stream") != 17
        assert context.seed_for(17, "stream") == RunContext().seed_for(
            17, "stream"
        )
