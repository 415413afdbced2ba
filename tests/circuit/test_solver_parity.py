"""Solver-backend parity: every backend agrees, reference is golden.

Two-tier contract (see ``docs/solvers.md``):

* ``reference`` is the seed implementation behind an interface; its
  results are locked byte-for-byte by committed fingerprints.
* ``factor-cache`` and ``batched`` may take different linear-algebra
  paths (cached structures, warm starts, block-diagonal stacking) and
  must agree with the reference on node voltages within 1e-9 V.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.config import default_config
from repro.circuit.line_model import ReducedArrayModel

from ..conftest import ALL_SOLVERS

PARITY_ATOL = 1e-9
ACCELERATED = tuple(s for s in ALL_SOLVERS if s != "reference")


def _patterns(a):
    """The seed selection matrix: single-bit, 4-bit PR, worst corner."""
    return {
        "single-bit": (a // 3, (a - 1,)),
        "4-bit-pr": (a // 2, (a // 8, a // 4 + 1, a // 2 + 3, a - 2)),
        "worst-corner": (a - 1, (a - 1,)),
    }


def _canonical(obj):
    if isinstance(obj, dict):
        return [
            [str(k), _canonical(v)]
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.ravel().tolist()]
    if isinstance(obj, float):
        return float(obj).hex()  # exact: no decimal round-trip noise
    if isinstance(obj, (int, str)):
        return obj
    raise TypeError(f"unexpected payload type {type(obj)!r}")


def fingerprint(solution) -> str:
    """Content hash of a solution dataclass, exact to the last bit."""
    doc = json.dumps(
        _canonical(dataclasses.asdict(solution)), separators=(",", ":")
    )
    return hashlib.sha256(doc.encode()).hexdigest()[:32]


#: Byte-exact fingerprints of the seed solver's output at 64x64.  These
#: were captured from the historical per-solve code path; the reference
#: backend must reproduce them forever.
REFERENCE_GOLDENS_64 = {
    "single-bit": "6768606f8bbda9cb17d9820552150c78",
    "4-bit-pr": "6346006213594086dbcc439915a02a14",
    "worst-corner": "52dd321f5789053bf92f692b0e8e8246",
}
#: Chained fingerprint over six deterministic 2-bit RESET vectors
#: (``reset_vector_gen`` defaults: seed 1234).
REFERENCE_VECTOR_GOLDEN_64 = "a1bac30be0158ee498e1819f79f2c487"
#: The seed solver's schedule on the same selections:
#: ``(solves, factorisations, newton_iterations)``.
REFERENCE_SCHEDULE_64 = {
    "single-bit": (1, 7, 7),
    "4-bit-pr": (1, 10, 10),
    "worst-corner": (1, 7, 7),
}


def _assert_close(reference, other, context=""):
    np.testing.assert_allclose(
        other.wl_profile,
        reference.wl_profile,
        atol=PARITY_ATOL,
        rtol=0,
        err_msg=f"WL profile diverged {context}",
    )
    for col, profile in reference.bl_profiles.items():
        np.testing.assert_allclose(
            other.bl_profiles[col],
            profile,
            atol=PARITY_ATOL,
            rtol=0,
            err_msg=f"BL {col} profile diverged {context}",
        )
    for key, value in reference.v_eff.items():
        assert other.v_eff[key] == pytest.approx(value, abs=PARITY_ATOL)


class TestBackendParity:
    @pytest.mark.parametrize("size", [64, 128, 256, 512])
    def test_all_backends_agree(self, size, reduced_model_builder):
        reference = reduced_model_builder(size, "reference")
        others = {s: reduced_model_builder(size, s) for s in ACCELERATED}
        for name, (row, cols) in _patterns(size).items():
            want = reference.solve_reset(row, cols)
            for solver, model in others.items():
                got = model.solve_reset(row, cols)
                _assert_close(want, got, f"({solver}, {name}, A={size})")

    def test_repeat_solves_stay_in_parity(self, reduced_model_builder):
        """Warm-started re-solves (where accelerated backends diverge
        most from the cold reference path) stay within tolerance."""
        reference = reduced_model_builder(128, "reference")
        for solver in ACCELERATED:
            model = reduced_model_builder(128, solver)
            for v_applied in (3.2, 3.0, 3.4, 3.2):
                want = reference.solve_reset(100, (120,), v_applied)
                got = model.solve_reset(100, (120,), v_applied)
                _assert_close(want, got, f"({solver}, v={v_applied})")

    def test_batched_solve_many_matches_sequential(
        self, reduced_model_builder, reset_vector_gen
    ):
        reference = reduced_model_builder(128, "reference")
        selections = reset_vector_gen(128, 5, n_bits=2)
        want = [reference.solve_reset(row, cols) for row, cols in selections]
        for solver in ACCELERATED:
            model = reduced_model_builder(128, solver)
            got = model.solve_reset_many(selections)
            for (row, cols), w, g in zip(selections, want, got):
                _assert_close(w, g, f"({solver}, row={row}, cols={cols})")

    @pytest.mark.parametrize("solver", ACCELERATED)
    def test_fault_injected_full_array_parity(self, small_config, solver):
        from repro.circuit.crosspoint import FullArrayModel
        from repro.faults import FaultModel

        faults = FaultModel.at_rate(0.01, seed=3)
        a = small_config.array.size
        want = FullArrayModel(small_config, faults=faults).solve_reset(
            a - 1, (a - 1,)
        )
        got = FullArrayModel(
            small_config, faults=faults, solver=solver
        ).solve_reset(a - 1, (a - 1,))
        np.testing.assert_allclose(
            got.wl_plane, want.wl_plane, atol=PARITY_ATOL, rtol=0
        )
        np.testing.assert_allclose(
            got.bl_plane, want.bl_plane, atol=PARITY_ATOL, rtol=0
        )
        for key, value in want.v_eff.items():
            assert got.v_eff[key] == pytest.approx(value, abs=PARITY_ATOL)


class TestReferenceGoldens:
    """The reference backend is byte-locked to the seed implementation."""

    def test_selection_matrix_fingerprints(self, reduced_model_builder):
        model = reduced_model_builder(64, "reference")
        for name, (row, cols) in _patterns(64).items():
            assert (
                fingerprint(model.solve_reset(row, cols))
                == REFERENCE_GOLDENS_64[name]
            ), f"reference payload drifted for pattern {name!r}"

    def test_selection_matrix_schedule(self, reduced_model_builder):
        """Same bits by the same route: one factorisation per Newton step."""
        from repro import obs

        model = reduced_model_builder(64, "reference")
        for name, (row, cols) in _patterns(64).items():
            collector = obs.Collector()
            with obs.collecting(collector):
                model.solve_reset(row, cols)
            counters = collector.snapshot().to_plain()["counters"]
            schedule = tuple(
                counters.get(f"solver.{key}", 0)
                for key in ("solves", "factorisations", "newton_iterations")
            )
            assert schedule == REFERENCE_SCHEDULE_64[name], name

    def test_reset_vector_chain_fingerprint(
        self, reduced_model_builder, reset_vector_gen
    ):
        model = reduced_model_builder(64, "reference")
        combined = hashlib.sha256()
        for row, cols in reset_vector_gen(64, 6, n_bits=2):
            combined.update(fingerprint(model.solve_reset(row, cols)).encode())
        assert combined.hexdigest()[:32] == REFERENCE_VECTOR_GOLDEN_64

    def test_solve_many_is_byte_identical_to_loop(
        self, reduced_model_builder, reset_vector_gen
    ):
        """The reference backend's many-solve path is the plain loop."""
        model = reduced_model_builder(64, "reference")
        selections = reset_vector_gen(64, 4, n_bits=2)
        looped = [model.solve_reset(row, cols) for row, cols in selections]
        batched = model.solve_reset_many(selections)
        for w, g in zip(looped, batched):
            assert fingerprint(w) == fingerprint(g)


class TestExperimentPayloadParity:
    def test_reference_backend_payload_is_default_payload(self):
        from repro.engine import NullCache, RunContext, run_experiment

        default = run_experiment("fig11a", RunContext(cache=NullCache()))
        explicit = run_experiment(
            "fig11a", RunContext(cache=NullCache(), solver="reference")
        )
        assert explicit.payload == default.payload

    @pytest.mark.parametrize("solver", ACCELERATED)
    def test_accelerated_backend_payload_in_tolerance(self, solver):
        from repro.engine import NullCache, RunContext, run_experiment

        want = run_experiment("fig11a", RunContext(cache=NullCache())).payload
        got = run_experiment(
            "fig11a", RunContext(cache=NullCache(), solver=solver)
        ).payload
        assert got["optimal_bits"] == want["optimal_bits"]
        for (n_w, v_w), (n_g, v_g) in zip(want["series"], got["series"]):
            assert n_g == n_w
            assert v_g == pytest.approx(v_w, rel=1e-6, abs=1e-8)
