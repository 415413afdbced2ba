"""A profile's bytes depend on its cache key alone, never on history.

The key is (config, faults, solver, voltage quantum, bias).  Whatever a
model solved before, and whichever path asks for it, a profile is the
same bytes: each quantum's Newton solves start from the anchor
quantum's solution, which is itself solved from a flat start.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

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


def test_reference_profiles_are_unseeded(config):
    """The oracle's profile is the flat-start solve, bit for bit."""
    profile_registry.clear()
    model = ArrayIRModel(config, solver="reference")
    got = model.bl_drop_profile(V_PROFILE)
    assert not model._anchors
    pairs = model._solve_grid(QUANTUM, BASELINE_BIAS)
    np.testing.assert_array_equal(got, model._interpolate(QUANTUM, pairs))


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
