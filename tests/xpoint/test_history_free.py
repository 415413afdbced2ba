"""A profile's bytes depend on its cache key alone, never on history.

The key is (config, solver, voltage quantum, bias): no fault model, for
faults act on a profile after it is solved.  Whatever a model solved
before, whichever fault identity it carries and whichever path asks for
it, a profile is the same bytes: each quantum's Newton solves start from
the anchor quantum's solution, which is itself solved from a flat start
once per configuration, solver and bias.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.circuit.crosspoint import BASELINE_BIAS
from repro.config import default_config
from repro.engine import RunContext, run_experiment
from repro.faults import FaultModel
from repro.xpoint.vmap import ArrayIRModel, ModelCache, profile_registry

V_PROFILE = 3.1  # a quantum fig13 does not visit at this size
QUANTUM = int(round(V_PROFILE / 0.02))


@pytest.fixture
def config():
    return default_config(size=64)


def test_one_profile_in_four_ways(config):
    fresh = ArrayIRModel(config).bl_drop_profile(V_PROFILE)

    # After fig13's quanta on the same model (its anchor state warm).
    profile_registry.clear()
    context = RunContext(config=config, model_cache=ModelCache())
    run_experiment("fig13", context)
    model = context.ir_model()
    assert (QUANTUM, BASELINE_BIAS) not in model._bl_profiles
    after_fig13 = model.bl_drop_profile(V_PROFILE)

    # From the Monte Carlo path, beside other quanta in one ensemble.
    profile_registry.clear()
    ensemble = ArrayIRModel(config).ensemble_bl_profiles([3.26, V_PROFILE, 2.9])

    # As a registry hit from another model.
    other = ArrayIRModel(config).bl_drop_profile(V_PROFILE)

    for profile in (after_fig13, ensemble[QUANTUM], other):
        np.testing.assert_array_equal(profile, fresh)


def test_models_of_one_config_share_grid_networks(config):
    """Faults never reach the grid networks: one set per configuration
    and bias serves every model, until the registry is cleared."""
    nominal = ArrayIRModel(config)
    faulted = ArrayIRModel(config, faults=FaultModel.at_rate(1e-2, seed=7))
    oracle = ArrayIRModel(config, solver="reference")
    templates = nominal._grid_templates(BASELINE_BIAS)
    assert faulted._grid_templates(BASELINE_BIAS) is templates
    assert oracle._grid_templates(BASELINE_BIAS) is templates
    assert ArrayIRModel(default_config(size=32))._grid_templates(
        BASELINE_BIAS
    ) is not templates
    profile_registry.clear()
    assert nominal._grid_templates(BASELINE_BIAS) is not templates


def test_reference_profiles_are_unseeded(config):
    """The oracle's profile is the flat-start solve, bit for bit."""
    profile_registry.clear()
    model = ArrayIRModel(config, solver="reference")
    got = model.bl_drop_profile(V_PROFILE)
    assert profile_registry.get(
        ("anchor", model._config_hash, "reference", BASELINE_BIAS)
    ) is None
    pairs = model._solve_grid(QUANTUM, BASELINE_BIAS)
    np.testing.assert_array_equal(got, model._interpolate(QUANTUM, pairs))


def _solves(run):
    collector = obs.Collector()
    with obs.collecting(collector):
        run()
    return collector.counters.get("solver.solves", 0)


#: A per-row drive spanning many voltage quanta.
ROW_DRIVE = np.linspace(3.0, 3.4, 64)


def test_second_seed_of_a_rate_reuses_every_profile(config):
    """Seeds of one rate droop alike, so a second seed's maps solve
    nothing and read the very arrays the first seed solved."""
    profile_registry.clear()
    first = ArrayIRModel(config, faults=FaultModel.at_rate(1e-2, seed=1))
    first.v_eff_map(ROW_DRIVE)
    second = ArrayIRModel(config, faults=FaultModel.at_rate(1e-2, seed=2))
    assert _solves(lambda: second.v_eff_map(ROW_DRIVE)) == 0
    assert second._bl_profiles.keys() == first._bl_profiles.keys()
    for key, profile in first._bl_profiles.items():
        assert second._bl_profiles[key] is profile


def test_new_rate_seeds_from_the_nominal_anchor(config):
    """A faulted model meeting a new quantum after the nominal model
    solves only that quantum's grid: no flat-start anchor solve."""
    profile_registry.clear()
    ArrayIRModel(config).v_eff_map()  # the anchor quantum, 3.0 V
    faulted = ArrayIRModel(config, faults=FaultModel.at_rate(5e-3, seed=3))
    v_applied = float(faulted.faults.applied_voltage(3.0))
    assert round(v_applied / 0.02) != faulted._anchor_quantum
    assert _solves(lambda: faulted.bl_drop_profile(v_applied)) == len(
        faulted._grid()
    )


def test_faulted_maps_do_not_depend_on_identities_before(config):
    target = FaultModel.at_rate(1e-2, seed=7)

    def maps(faults):
        model = ArrayIRModel(config, faults=faults)
        return [m.tobytes() for m in model.cell_maps(ROW_DRIVE, n_bits=2)]

    profile_registry.clear()
    cold = maps(target)
    profile_registry.clear()
    maps(FaultModel.at_rate(5e-3, seed=1))
    maps(FaultModel.at_rate(1e-2, seed=2))
    assert maps(target) == cold


def _arrays(value):
    """Every ndarray reachable through containers in ``value``."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


def test_faulted_model_keeps_no_array_sized_fault_state(config):
    """fig07b reads only the per-line wire factors: the model keeps
    those two vectors and no (A, A) mask or latency-factor array."""
    a = config.array.size
    context = RunContext(
        config=config,
        faults=FaultModel.at_rate(1e-2, seed=7),
        model_cache=ModelCache(),
    )
    run_experiment("fig07b", context)
    model = context.ir_model()
    kept = [array.shape for array in _arrays(vars(model))]
    assert (a,) in kept
    assert (a, a) not in kept


#: sha256 over a faulted 64x64 model's v_eff/latency/endurance maps at a
#: scalar and a per-row drive plus point queries, on ``reference``: the
#: values the model produced when it kept every fault array resident.
FAULTED_MAPS_SHA256 = "d30aca9019a3c8bc328f2fdffd5f6a330c3f4666f45a55fd9ba2592791c37624"


def test_faulted_maps_unchanged_by_sampling_on_use(config):
    model = ArrayIRModel(
        config, faults=FaultModel.at_rate(1e-2, seed=7), solver="reference"
    )
    digest = hashlib.sha256()
    for v in (3.0, np.linspace(3.0, 3.4, 64)):
        for build in (model.v_eff_map, model.latency_map, model.endurance_map):
            digest.update(np.ascontiguousarray(build(v)).tobytes())
    cells = ((0, 0), (63, 63), (17, 40))
    digest.update(repr([model.v_eff(r, c) for r, c in cells]).encode())
    digest.update(
        repr(
            [model.reset_latency(r, c) for r in range(64) for c in (0, 31, 63)]
        ).encode()
    )
    assert digest.hexdigest() == FAULTED_MAPS_SHA256
