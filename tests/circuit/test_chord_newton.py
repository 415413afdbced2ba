"""Chord (modified) Newton: parity, adaptive refresh, guaranteed fallback.

The chord iteration reuses one LU factorisation across Newton steps and
is exposed as ``FactorCacheBackend(chord=...)`` /
``BatchedBackend(chord=...)`` — both strategies run on identical
machinery, so the contract tested here is *chord vs full Newton*, not
chord vs the ``reference`` backend: warm-started solves of either
strategy land essentially on the true solution, while the reference
backend's cold stopping point can sit up to ~1e-6 V away from it (its
final quadratic step lands wherever the residual first dips under the
tolerance).  Cold flat starts disable the chord path entirely and
remain bit-identical to reference — that is enforced by
``test_solver_parity.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.circuit.crosspoint import BASELINE_BIAS
from repro.circuit.network import ConvergenceError
from repro.circuit.solvers import factor_cache as factor_cache_module
from repro.circuit.solvers.batched import BatchedBackend
from repro.circuit.solvers.factor_cache import FactorCacheBackend

#: Chord and full Newton must agree on node voltages to this (V).  The
#: measured agreement is ~4e-13; 1e-9 is the repo-wide parity budget.
CHORD_ATOL = 1e-9

#: A warm sweep (distinct consecutive voltages, so every solve does real
#: Newton work) used by the parity and efficiency tests below.
WARM_SWEEP = (3.2, 3.0, 3.4, 2.9, 3.3, 3.1)


def _solve_voltages(model, backend, row, cols, v):
    """Node-voltage vector for one RESET solved through ``backend``."""
    row, cols, drive = model._normalise(row, cols, v)
    net, _wl, _bl = model._build_reset_network(row, cols, drive, BASELINE_BIAS)
    return backend.solve(net).voltages


def _sweep_diff(model, row, cols, voltages):
    """Max |chord - full Newton| over a warm sweep on fresh backends."""
    chord = FactorCacheBackend(chord=True)
    full = FactorCacheBackend(chord=False)
    worst = 0.0
    for v in voltages:
        got = _solve_voltages(model, chord, row, cols, v)
        want = _solve_voltages(model, full, row, cols, v)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


class TestChordFullNewtonParity:
    @pytest.mark.parametrize("size", (32, 64, 128))
    def test_warm_sweep_matches_full_newton(self, reduced_model_builder, size):
        model = reduced_model_builder(size=size)
        row, cols = size // 2, (size // 3,)
        assert _sweep_diff(model, row, cols, WARM_SWEEP) <= CHORD_ATOL

    def test_multibit_selection_matches_full_newton(self, reduced_model_builder):
        model = reduced_model_builder(size=64)
        assert _sweep_diff(model, 17, (5, 23, 58), WARM_SWEEP) <= CHORD_ATOL

    def test_caller_seeded_cold_structure_matches_full_newton(
        self, reduced_model_builder
    ):
        # An explicit `initial` activates the chord path even on a
        # freshly built structure (no warm state yet) — the
        # continuation-seeding entry point used by the profile solver.
        model = reduced_model_builder(size=64)
        warmup = FactorCacheBackend(chord=True)
        seed = _solve_voltages(model, warmup, 20, (40,), 3.1)

        row, cols, drive = model._normalise(20, (40,), 3.3)
        net, _wl, _bl = model._build_reset_network(
            row, cols, drive, BASELINE_BIAS
        )
        chord = FactorCacheBackend(chord=True)
        full = FactorCacheBackend(chord=False)
        got = chord.solve(net, initial=seed.copy()).voltages
        want = full.solve(net, initial=seed.copy()).voltages
        np.testing.assert_allclose(got, want, rtol=0.0, atol=CHORD_ATOL)

    def test_repeat_of_identical_drive_is_idempotent(
        self, reduced_model_builder
    ):
        # Re-solving an unchanged drive point from its own landing must
        # return that landing unchanged (the warm residual already
        # satisfies the tolerance), not chord-polish past it.
        model = reduced_model_builder(size=64)
        backend = FactorCacheBackend(chord=True)
        first = _solve_voltages(model, backend, 10, (50,), 3.2)
        second = _solve_voltages(model, backend, 10, (50,), 3.2)
        np.testing.assert_array_equal(first, second)

    def test_batched_chord_matches_full_newton(self, reduced_model_builder):
        model = reduced_model_builder(size=64)
        selections = [(8, (12,)), (30, (44,)), (55, (3, 61))]
        chord = BatchedBackend(chord=True)
        full = BatchedBackend(chord=False)
        for v in (3.2, 3.0, 3.4):
            prepared = [model._normalise(r, c, v) for r, c in selections]
            nets = [
                model._build_reset_network(r, c, d, BASELINE_BIAS)[0]
                for r, c, d in prepared
            ]
            got = chord.solve_many(nets)
            want = full.solve_many(
                [
                    model._build_reset_network(r, c, d, BASELINE_BIAS)[0]
                    for r, c, d in prepared
                ]
            )
            for g, w in zip(got, want):
                np.testing.assert_allclose(
                    g.voltages, w.voltages, rtol=0.0, atol=CHORD_ATOL
                )


class TestChordAdaptivity:
    def test_large_voltage_jump_triggers_refresh_and_stays_in_parity(
        self, reduced_model_builder
    ):
        # Dropping from a 3.0-3.4 V neighbourhood to 2.2 V leaves the
        # carried LU far from the new operating point: the damping/
        # slow-contraction guard must refactorise (chord_refreshes) yet
        # still land on the full-Newton answer.
        model = reduced_model_builder(size=128)
        backend = FactorCacheBackend(chord=True)
        full = FactorCacheBackend(chord=False)
        for v in (3.0, 3.4):
            _solve_voltages(model, backend, 64, (42,), v)
            _solve_voltages(model, full, 64, (42,), v)

        collector = obs.Collector()
        with obs.collecting(collector):
            got = _solve_voltages(model, backend, 64, (42,), 2.2)
        counters = collector.snapshot().to_plain()["counters"]
        assert counters.get("solver.chord_refreshes", 0) >= 1

        want = _solve_voltages(model, full, 64, (42,), 2.2)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=CHORD_ATOL)

    def test_warm_sweep_factorisations_per_solve_bounded(
        self, reduced_model_builder
    ):
        # The tentpole acceptance figure: amortised over a warm sweep
        # the chord backend must spend <= 2.5 factorisations per solve
        # (the reference schedule spends one per Newton iteration, ~8).
        model = reduced_model_builder(size=128)
        backend = FactorCacheBackend(chord=True)
        _solve_voltages(model, backend, 64, (42,), 3.2)  # warm the cache

        collector = obs.Collector()
        with obs.collecting(collector):
            for i in range(20):
                v = 3.0 + 0.02 * i
                _solve_voltages(model, backend, 64, (42,), v)
        counters = collector.snapshot().to_plain()["counters"]
        solves = counters["solver.solves"]
        assert solves == 20
        assert counters.get("solver.factorisations", 0) / solves <= 2.5
        assert counters.get("solver.lu_carryovers", 0) >= 1
        assert counters.get("solver.warm_starts", 0) == 20

    def test_cold_flat_start_never_uses_chord(self, reduced_model_builder):
        # A cold structure with no caller seed must run the reference
        # full-Newton schedule: factorisation count equals iteration
        # count and no chord bookkeeping fires.
        model = reduced_model_builder(size=64)
        backend = FactorCacheBackend(chord=True)
        collector = obs.Collector()
        with obs.collecting(collector):
            _solve_voltages(model, backend, 10, (50,), 3.3)
        counters = collector.snapshot().to_plain()["counters"]
        assert counters["solver.factorisations"] == counters[
            "solver.newton_iterations"
        ]
        assert "solver.chord_refreshes" not in counters
        assert "solver.lu_carryovers" not in counters


class TestGuaranteedFallback:
    def _network(self, model, row=10, cols=(50,), v=3.2):
        row, cols, drive = model._normalise(row, cols, v)
        return model._build_reset_network(row, cols, drive, BASELINE_BIAS)[0]

    def test_seeded_failure_falls_back_to_cold_full_newton(
        self, reduced_model_builder, monkeypatch
    ):
        model = reduced_model_builder(size=64)
        backend = FactorCacheBackend(chord=True)
        expected = backend.solve(self._network(model)).voltages  # warms state

        real = factor_cache_module.newton_block_solve
        calls = []

        def flaky(structure, blocks, **kwargs):
            warm = kwargs["warm"]
            calls.append({**kwargs, "cold": warm.free is None and warm.lu is None})
            if len(calls) == 1:
                raise ConvergenceError("injected warm-path failure")
            return real(structure, blocks, **kwargs)

        monkeypatch.setattr(
            factor_cache_module, "newton_block_solve", flaky
        )
        collector = obs.Collector()
        with obs.collecting(collector):
            solution = backend.solve(self._network(model))

        # The fallback re-solve is a cold flat-start full Newton.
        assert len(calls) == 2
        assert calls[1]["chord"] is False
        assert calls[0]["cold"] is False
        assert calls[1]["cold"] is True
        assert calls[1]["initial"] is None
        counters = collector.snapshot().to_plain()["counters"]
        assert counters.get("solver.full_newton_fallbacks") == 1
        np.testing.assert_allclose(
            solution.voltages, expected, rtol=0.0, atol=CHORD_ATOL
        )

    def test_cold_failure_is_final(self, reduced_model_builder, monkeypatch):
        model = reduced_model_builder(size=64)
        backend = FactorCacheBackend(chord=True)

        def always_fails(structure, blocks, **kwargs):
            raise ConvergenceError("injected cold failure")

        monkeypatch.setattr(
            factor_cache_module, "newton_block_solve", always_fails
        )
        collector = obs.Collector()
        with obs.collecting(collector):
            with pytest.raises(ConvergenceError):
                backend.solve(self._network(model))
        counters = collector.snapshot().to_plain()["counters"]
        assert "solver.full_newton_fallbacks" not in counters
