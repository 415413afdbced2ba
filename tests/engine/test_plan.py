"""Experiment plans: the shared request -> task layer of both planes."""

import pytest

from repro.engine import RunContext, run_experiment
from repro.engine.cache import ResultCache
from repro.engine.compute import InlineBackend, inline_backend
from repro.engine.plan import build_plan, execute_plan
from repro.engine.registry import _REGISTRY, Experiment, register


def _seed_driver(config=None, context=None):
    return {"value": context.seed * 10}


@pytest.fixture
def probe():
    register(Experiment(name="_plan_probe", driver=_seed_driver, title="p"))
    yield "_plan_probe"
    _REGISTRY.pop("_plan_probe", None)


class TestBuildPlan:
    def test_resolves_and_keys(self, probe):
        context = RunContext(seed=3)
        plan = build_plan(probe, context)
        assert plan.name == probe
        assert plan.experiment.driver is _seed_driver
        assert plan.key == build_plan(probe, context).key  # deterministic
        assert not plan.simulation

    def test_unknown_experiment_raises_before_compute(self):
        with pytest.raises(KeyError):
            build_plan("_no_such_experiment", RunContext())

    def test_key_sensitive_to_run_parameters(self, probe):
        base = build_plan(probe, RunContext(seed=0)).key
        assert build_plan(probe, RunContext(seed=1)).key != base

    def test_default_solver_shares_explicit_key(self, probe):
        """Default and explicit-batched contexts share cache entries."""
        default = build_plan(probe, RunContext()).key
        explicit = build_plan(probe, RunContext(solver="batched")).key
        oracle = build_plan(probe, RunContext(solver="reference")).key
        assert default == explicit
        assert oracle != default

    def test_settings_dropped_for_non_simulation(self, probe):
        from repro.analysis.experiments import PerfSettings

        plan = build_plan(probe, RunContext(), PerfSettings())
        assert plan.settings is None


class TestExecutePlan:
    def test_cache_miss_then_hit(self, tmp_path, probe):
        context = RunContext(seed=2, cache=ResultCache(tmp_path))
        plan = build_plan(probe, context)
        first = execute_plan(plan, context)
        second = execute_plan(plan, context)
        assert first.cache == "miss" and second.cache == "hit"
        assert first.payload == second.payload == {"value": 20}

    def test_matches_run_experiment(self, tmp_path, probe):
        """Both front doors assemble identical artifacts."""
        context = RunContext(seed=4, cache=ResultCache(tmp_path))
        via_plan = execute_plan(build_plan(probe, context), context)
        context2 = RunContext(seed=4, cache=ResultCache(tmp_path))
        via_runner = run_experiment(probe, context2)
        assert via_runner.payload == via_plan.payload
        assert via_runner.cache == "hit"  # same key: the plan run filled it


class TestBackends:
    def test_inline_backend_is_shared_and_synchronous(self, probe):
        assert inline_backend() is inline_backend()
        context = RunContext(seed=1)
        plan = build_plan(probe, context)
        future = InlineBackend().submit(plan, context)
        assert future.done()  # resolved before submit() returned
        assert future.result().payload == {"value": 10}

    def test_run_experiment_accepts_explicit_backend(self, probe):
        result = run_experiment(
            probe, RunContext(seed=5), backend=InlineBackend()
        )
        assert result.payload == {"value": 50}
