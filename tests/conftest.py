"""Shared fixtures: small array configurations keep circuit solves fast.

Also hosts the canonical network/array builders the circuit suites
share — the resistor-ladder factory, deterministic RESET-vector
generators, and per-backend reduced models — so individual test modules
stop growing ad-hoc copies — and the per-test wall-time budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import default_config

#: Every registered solver backend, in parity-suite order.
ALL_SOLVERS = ("reference", "factor-cache", "batched")

#: Longest a test's setup, call or teardown may run.  The slowest test
#: takes about 6.5 s on a 2-vCPU host; a phase past this budget is
#: sitting out a timeout rather than testing anything.
WALL_TIME_BUDGET_S = 60.0


def over_budget(duration: float, when: str) -> str | None:
    """The failure message for a phase past the budget, else ``None``."""
    if duration <= WALL_TIME_BUDGET_S:
        return None
    return (
        f"{when} took {duration:.1f} s, over the "
        f"{WALL_TIME_BUDGET_S:.0f} s per-test wall-time budget"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Fail an otherwise passing phase that ran past the budget."""
    outcome = yield
    report = outcome.get_result()
    message = over_budget(call.duration, call.when)
    if message is not None and report.passed:
        report.outcome = "failed"
        report.longrepr = message


@pytest.fixture(autouse=True)
def _isolated_profile_registry():
    """Empty the process-wide profile registry before every test.

    The registry deliberately shares solved profiles across models and
    experiments within one process; between tests that sharing would
    leak state (a later test silently consuming an earlier test's
    solves), so each test starts from a clean registry.
    """
    from repro.xpoint.vmap import profile_registry

    profile_registry.clear()
    yield


@pytest.fixture(scope="session")
def tiny_config():
    """16x16 array: fast enough for exact full-network solves."""
    return default_config(size=16)


@pytest.fixture(scope="session")
def mini_config():
    """32x32 array: the smallest size with visible IR-drop structure."""
    return default_config(size=32)


@pytest.fixture(scope="session")
def small_config():
    """64x64 array: the workhorse size for technique-level tests."""
    return default_config(size=64)


@pytest.fixture(scope="session")
def paper_config():
    """The paper's 512x512 baseline (Tables I and III)."""
    return default_config()


@pytest.fixture
def ladder_builder():
    """Factory for a series resistor ladder source -> r1 -> ... -> ground.

    Returns ``(net, nodes)``; the final resistor (re-using the last
    resistance value) ties the ladder to :data:`~repro.circuit.network.GROUND`.
    """
    from repro.circuit.network import GROUND, Network

    def build(resistances, v_source):
        net = Network()
        source = net.add_node()
        net.fix_voltage(source, v_source)
        previous = source
        nodes = []
        for r in resistances:
            node = net.add_node()
            net.add_resistor(previous, node, r)
            nodes.append(node)
            previous = node
        net.add_resistor(previous, GROUND, resistances[-1])
        return net, nodes

    return build


@pytest.fixture
def reduced_model_builder():
    """Factory for :class:`~repro.circuit.line_model.ReducedArrayModel`.

    ``build(size, solver)`` shares one config per size (via
    ``default_config``'s structural equality) so cross-backend
    comparisons see identical physics.
    """
    from repro.circuit.line_model import ReducedArrayModel

    configs = {}

    def build(size=64, solver=None):
        config = configs.setdefault(size, default_config(size=size))
        return ReducedArrayModel(config, solver=solver)

    return build


@pytest.fixture
def reset_vector_gen():
    """Deterministic RESET-selection generator.

    ``generate(size, count, n_bits=1, seed=1234)`` yields ``count``
    tuples ``(row, cols)`` with ``n_bits`` distinct columns each, drawn
    from a fixed-seed generator so golden/parity suites are stable
    across runs and platforms.
    """

    def generate(size, count, n_bits=1, seed=1234):
        rng = np.random.default_rng(seed)
        selections = []
        for _ in range(count):
            row = int(rng.integers(size))
            cols = tuple(
                sorted(int(c) for c in rng.choice(size, size=n_bits, replace=False))
            )
            selections.append((row, cols))
        return selections

    return generate
