"""Ensemble amortisation, bounded on solver counters.

A K-sample ensemble solves every missing profile quantum once, as one
flat batch over the shared sparsity pattern.  The path it replaces — a
fresh :class:`ArrayIRModel` per instance on the ``reference`` backend,
each from a cold profile registry — solves each instance's profile
grid and WL calibration.  (Profiles are not keyed on the fault model,
so instances sharing one registry would share the quanta their droops
have in common.)  Counting solves instead of timing them keeps the
bound independent of the host.
"""

from repro import obs
from repro.circuit.solvers import reset_backend_state
from repro.config import default_config
from repro.engine import RunContext
from repro.faults import FaultModel
from repro.mc import run_ensemble
from repro.xpoint.vmap import ArrayIRModel, ModelCache, profile_registry

SIZE = 64
RATE = 1e-2
SEED = 11
REFERENCE_INSTANCES = 8
SAMPLES = 64
#: Minimum ratio of per-instance to per-sample solves.
MIN_AMORTISATION = 5.0


def _counted(run):
    """Solver counters of ``run()`` from cold solver and profile state."""
    reset_backend_state()
    profile_registry.clear()
    collector = obs.Collector()
    with obs.collecting(collector):
        run()
    return collector.counters


def test_ensemble_amortises_solves_over_samples():
    config = default_config(size=SIZE)
    master = FaultModel.at_rate(RATE, seed=SEED)

    def per_instance():
        for instance in range(REFERENCE_INSTANCES):
            profile_registry.clear()
            ArrayIRModel(
                config,
                faults=master.for_instance(instance),
                solver="reference",
            ).latency_map()

    def ensemble():
        context = RunContext(
            config=config, model_cache=ModelCache(), solver="batched"
        )
        run_ensemble(context, samples=SAMPLES, faults=master)

    reference = _counted(per_instance)["solver.solves"] / REFERENCE_INSTANCES
    per_sample = _counted(ensemble)["solver.solves"] / SAMPLES
    assert per_sample > 0
    assert per_sample <= reference / MIN_AMORTISATION
