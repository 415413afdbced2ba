"""Effective-voltage / latency / endurance maps over a cross-point MAT.

:class:`ArrayIRModel` is the facade the rest of the library consumes.
It combines

* the distributed reduced solver (:mod:`repro.circuit.line_model`) for
  the bit-line drop profile — solved on a sparse row grid per distinct
  applied voltage and interpolated, then cached, and
* the analytic word-line model (:mod:`repro.circuit.equivalent`),
  auto-calibrated against the reduced solver at construction,

into vectorised full-array maps: ``v_eff_map`` reproduces Fig. 4b /
6b / 11b, ``latency_map`` Fig. 4c / 6c / 11c / 13a, and
``endurance_map`` Fig. 4d / 6d / 11d / 13b.

Applied voltage may be a scalar (static Vrst), a per-row vector (DRVR
row sections) or a full per-cell matrix (UDRVR column levels stacked on
DRVR sections).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any

import numpy as np

from .. import obs
from ..circuit.cell import CellModel
from ..circuit.crosspoint import BASELINE_BIAS, BiasScheme
from ..circuit.equivalent import WordlineDropModel
from ..circuit.line_model import ReducedArrayModel
from ..circuit.network import ConvergenceError
from ..config import SystemConfig, config_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.model import FaultModel

__all__ = [
    "ArrayIRModel",
    "ModelCache",
    "ProfileRegistry",
    "get_ir_model",
    "profile_registry",
]

_PROFILE_SAMPLES = 13
_VOLTAGE_QUANTUM = 0.02  # cache key resolution for applied voltages
_SEED_QUANTA = 16  # continuation-seed store depth per bias scheme


class ProfileRegistry:
    """Process-wide registry of solved profile artefacts.

    Entries are keyed by the same canonical part tuples the persistent
    :class:`~repro.engine.cache.ProfileStore` uses — config hash, solver
    name, fault token, and the artefact-specific tail (voltage quantum,
    bias scheme) — so a profile solved by any :class:`ArrayIRModel` in
    this process is visible to every later model with an equal key, even
    across distinct :class:`ModelCache` instances.

    The export buffer records entries first *computed* here (as opposed
    to absorbed or loaded): pool workers drain it after each task so the
    parent executor can ship worker-solved profiles back and absorb them
    (see :mod:`repro.engine.executor`), closing the loop that otherwise
    makes every worker re-solve the same profiles.

    When a :class:`~repro.engine.shm.SharedProfilePlane` is attached
    (:meth:`attach_shared`), locally solved entries publish straight
    into the shared segment instead of queuing for ship-back — siblings
    read them zero-copy — and the export buffer only fills when the
    plane declines a write (lock timeout, stripe full), preserving the
    ship-back path as the strict fallback.
    """

    def __init__(self, maxsize: int = 512, max_exports: int = 256) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._exports: deque[tuple[tuple, Any]] = deque(maxlen=max_exports)
        self._shared = None  # SharedProfilePlane | None
        self._digests: dict[tuple, str] = {}  # parts -> shared-plane key
        #: Monotonic count of locally *computed* artefacts registered
        #: here (``export=True`` inserts).  Promotions — disk hits,
        #: shared-plane hits, absorbed ship-backs — don't count, so a
        #: before/after delta measures real solver work, which is what
        #: :func:`repro.mc.ensemble.run_ensemble` reports as
        #: ``quanta_solved``.
        self.stores = 0

    # -- shared-plane attachment -------------------------------------------------

    def attach_shared(self, plane: Any) -> None:
        """Route puts/gets through ``plane`` (a ``SharedProfilePlane``)."""
        self._shared = plane
        self._digests.clear()

    def detach_shared(self, plane: Any = None) -> None:
        """Drop the shared plane (only if it is ``plane``, when given).

        The owner-check keeps a backend that closes late from
        detaching a plane a newer backend attached.
        """
        if plane is None or self._shared is plane:
            self._shared = None
            self._digests.clear()

    @property
    def shared_plane(self) -> Any:
        return self._shared

    def _digest(self, parts: tuple) -> str:
        """The shared-plane key for ``parts`` (the ProfileStore digest)."""
        key = self._digests.get(parts)
        if key is None:
            from ..engine.cache import cache_key

            if len(self._digests) >= 4096:
                self._digests.clear()
            key = cache_key("profile", *parts)
            self._digests[parts] = key
        return key

    # -- local entries -----------------------------------------------------------

    def get(self, parts: tuple) -> Any:
        value = self._entries.get(parts)
        if value is not None:
            self._entries.move_to_end(parts)
        return value

    def shared_get(self, parts: tuple) -> Any:
        """Probe the shared plane and promote a hit into local entries."""
        shared = self._shared
        if shared is None:
            return None
        value = shared.get(self._digest(parts))
        if value is None:
            return None
        obs.count("profile_cache.shared_hit")
        # Promote without re-publishing: the block already lives in the
        # segment, and republishing would misread as a duplicate solve.
        self.put(parts, value, export=False, publish=False)
        return value

    def put(
        self,
        parts: tuple,
        value: Any,
        export: bool = True,
        publish: bool = True,
    ) -> None:
        if parts in self._entries:
            self._entries.move_to_end(parts)
            return
        self._entries[parts] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        if export:
            self.stores += 1
        shared = self._shared
        if shared is not None and publish:
            status = shared.put(self._digest(parts), value)
            if export:
                if status == "duplicate":
                    # This process solved an artefact a sibling had
                    # already published — exactly the wasted Newton
                    # work the plane exists to eliminate.
                    obs.count("profile_cache.duplicate_solves")
                elif status == "stored":
                    obs.count("profile_cache.shared_stores")
                else:
                    obs.count("profile_cache.shm_fallbacks")
                    self._exports.append((parts, value))
            return
        if export:
            self._exports.append((parts, value))

    def drain_exports(self) -> tuple[tuple[tuple, Any], ...]:
        """Hand over (and clear) the entries computed since last drain.

        Ship-back payloads are deduped by their full part tuple (config
        hash, solver, fault token, quantum/bias tail): registry eviction
        churn inside one plan can queue the same artefact repeatedly,
        and re-pickling it once per task is pure pipe traffic.  The
        bytes the dedupe saves are counted so the bench can see them.
        """
        if not self._exports:
            return ()
        exports: list[tuple[tuple, Any]] = []
        seen: set[tuple] = set()
        duplicates = 0
        bytes_saved = 0
        for parts, value in self._exports:
            if parts in seen:
                duplicates += 1
                nbytes = getattr(value, "nbytes", None)
                bytes_saved += int(nbytes) if nbytes is not None else 64
                continue
            seen.add(parts)
            exports.append((parts, value))
        self._exports.clear()
        if duplicates:
            obs.count("profile_cache.shipback_deduped", duplicates)
            obs.count("profile_cache.shipback_bytes_saved", bytes_saved)
        return tuple(exports)

    def absorb(self, items: "tuple[tuple[tuple, Any], ...]") -> int:
        """Merge shipped-back entries; absorbed entries never re-export.

        With a shared plane attached (the supervisor's side of the
        process pool), absorbed entries are also published into the
        segment: a profile that arrived via the fallback pipe still
        becomes zero-copy readable to every sibling.
        """
        absorbed = 0
        for parts, value in items:
            if parts not in self._entries:
                self.put(parts, value, export=False)
                absorbed += 1
        return absorbed

    def clear(self) -> None:
        """Drop local entries and pending exports (shared plane stays)."""
        self._entries.clear()
        self._exports.clear()
        self._digests.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Per-process singleton (one per pool worker; the executor merges).
profile_registry = ProfileRegistry()


class ArrayIRModel:
    """IR-drop maps for one array configuration.

    Construct via :func:`get_ir_model` to share cached instances.

    ``faults`` layers a :class:`~repro.faults.model.FaultModel` on top
    of the calibrated solvers: applied voltages droop, per-line wire
    factors scale the BL/WL drops, per-cell LRS spread scales the
    latency map, and stuck cells pin their latency (SA0 -> 0, nothing
    to RESET; SA1 -> inf, never completes) and zero their endurance.
    The underlying solvers stay calibrated at nominal — faults are a
    deterministic analytic layer, so a null model is bit-identical to
    the fault-free path.
    """

    def __init__(
        self,
        config: SystemConfig,
        faults: "FaultModel | None" = None,
        solver: str | None = None,
    ) -> None:
        self.config = config
        self.reduced = ReducedArrayModel(config, solver=solver)
        self.solver = self.reduced.solver
        self.cell_model: CellModel = self.reduced.cell_model
        self.faults = faults if faults is None or not faults.is_null else None
        self._fault_state: tuple | None = None
        # Keyed by the *integer* quantum count (round(v / quantum)), not
        # the quantised float: float keys carry representation noise
        # (0.060000000000000005 vs 0.06), so near-identical voltages
        # could land in distinct buckets and bloat the profile cache.
        self._bl_profiles: dict[tuple[int, BiasScheme], np.ndarray] = {}
        self._wl_model: WordlineDropModel | None = None
        #: Persistent profile layer (a ``ProfileStore``), attached by the
        #: engine's :class:`ModelCache` hookup; ``None`` = memory only.
        self.profile_store = None
        self._profile_tokens: tuple[str, str | None] | None = None
        # Continuation seeds: per bias scheme, the node-voltage vectors
        # of the most recently solved quanta (grid-row order), so the
        # next quantum's Newton solves start next to their solution.
        self._profile_seeds: dict[
            BiasScheme, OrderedDict[int, list[np.ndarray]]
        ] = {}

    def _fault_arrays(self) -> tuple:
        """(sa0, sa1, wl_factors, bl_factors, latency_factors), sampled once."""
        if self._fault_state is None:
            a = self.config.array.size
            sa0, sa1 = self.faults.stuck_masks(a)
            wl_factors, bl_factors = self.faults.line_factors(a)
            self._fault_state = (
                sa0, sa1, wl_factors, bl_factors,
                self.faults.cell_latency_factors(a),
            )
        return self._fault_state

    # -- persistent profile plumbing --------------------------------------------

    def _profile_parts(self, kind: str, *extra: Any) -> tuple:
        """Canonical key parts for one profile artefact.

        The solver name is part of the key so the byte-locked
        ``reference`` backend can never be served an artefact computed
        by an accelerated backend (and vice versa); the fault token
        keeps fault-sweep runs from aliasing the perfect-array entries.
        """
        if self._profile_tokens is None:
            self._profile_tokens = (
                config_hash(self.config),
                None if self.faults is None else config_hash(self.faults),
            )
        cfg_token, faults_token = self._profile_tokens
        return (kind, cfg_token, self.solver, faults_token, *extra)

    def _persist(self, parts: tuple, value: Any) -> None:
        """Write-through to the attached disk store (first write only)."""
        store = self.profile_store
        if store is not None and store.enabled and store.store(parts, value):
            obs.count("profile_cache.disk_store")

    def _lookup_artefact(self, parts: tuple) -> Any:
        """Registry -> shared plane -> disk lookup; validated by caller.

        A shared-plane or disk hit is promoted into the registry
        (without re-export); a registry hit is lazily written through to
        the disk store, which is how worker-shipped profiles reach the
        persistent layer.
        """
        value = profile_registry.get(parts)
        if value is not None:
            obs.count("profile_cache.registry_hit")
            self._persist(parts, value)
            return value
        value = profile_registry.shared_get(parts)
        if value is not None:
            self._persist(parts, value)
            return value
        store = self.profile_store
        if store is None or not store.enabled:
            return None
        value = store.load(parts)
        if value is None:
            return None
        obs.count("profile_cache.disk_hit")
        profile_registry.put(parts, value, export=False)
        return value

    # -- calibration ------------------------------------------------------------

    @property
    def wl_model(self) -> WordlineDropModel:
        """Word-line model, calibrated lazily against the reduced solver.

        The calibration collapses to one float (the distributed sneak
        current ``s``), which is shared through the profile registry and
        the persistent store; a value that fails validation — wrong
        type, non-finite, negative — is treated as a miss and
        recalibrated live.
        """
        if self._wl_model is None:
            parts = self._profile_parts("wl-calibration")
            sneak = self._lookup_artefact(parts)
            if not isinstance(sneak, float) or not (
                np.isfinite(sneak) and sneak >= 0.0
            ):
                if sneak is not None:
                    obs.count("profile_cache.invalid")
                sneak = self._calibrate_wl_sneak()
                profile_registry.put(parts, sneak)
                self._persist(parts, sneak)
            self._wl_model = WordlineDropModel(self.config, sneak)
        return self._wl_model

    def _calibrate_wl_sneak(self) -> float:
        """Live calibration: two far-corner solves -> sneak current."""
        a = self.config.array.size
        v_rst = self.config.cell.v_reset
        with obs.span("calibrate.wl_model", array=a):
            far_corner = self.reduced.solve_reset(a - 1, (a - 1,))
            bl_drop_far = v_rst - self.reduced.solve_reset(
                a - 1, (0,)
            ).v_eff[(a - 1, 0)]
            wl_drop_far = (
                v_rst - far_corner.v_eff[(a - 1, a - 1)] - bl_drop_far
            )
            model = WordlineDropModel.calibrate(
                self.config, max(0.0, wl_drop_far)
            )
        return float(model.sneak_current)

    # -- bit-line profiles --------------------------------------------------------

    def bl_drop_profile(
        self, v_applied: float | None = None, bias: BiasScheme = BASELINE_BIAS
    ) -> np.ndarray:
        """BL voltage drop (V) by row for one applied WD voltage.

        Solved exactly on a sparse row grid (column 0, where the WL drop
        is negligible) and linearly interpolated; cached per quantised
        voltage and bias scheme.  Lookup order is in-memory memo, then
        the process-wide :data:`profile_registry`, then the persistent
        disk store, then a live solve (continuation-seeded from the
        nearest already-solved voltage on accelerated backends).

        The returned array is **read-only**: it is shared between every
        caller of this quantum (and, through the registry and disk
        layers, across models and processes), so an in-place mutation
        would silently corrupt all of them.  Copy before editing.
        """
        a = self.config.array.size
        if v_applied is None:
            v_applied = self.config.cell.v_reset
        quantum = int(round(v_applied / _VOLTAGE_QUANTUM))
        key = (quantum, bias)
        cached = self._bl_profiles.get(key)
        if cached is not None:
            obs.count("profile_cache.hit")
            return cached
        obs.count("profile_cache.miss")
        parts = self._profile_parts(
            "bl-profile", quantum, _VOLTAGE_QUANTUM, _PROFILE_SAMPLES, bias
        )
        profile = self._validated_profile(self._lookup_artefact(parts), a)
        if profile is None:
            profile = self._solve_profile(quantum, bias)
            profile.setflags(write=False)
            profile_registry.put(parts, profile)
            self._persist(parts, profile)
        self._bl_profiles[key] = profile
        return profile

    def ensemble_bl_profiles(
        self,
        v_applied: "np.ndarray | list[float]",
        bias: BiasScheme = BASELINE_BIAS,
        chunk: int | None = None,
    ) -> "dict[int, np.ndarray]":
        """BL drop profiles for many applied voltages at once.

        The Monte Carlo engine's entry point: the distinct voltage
        quanta of ``v_applied`` are resolved through the same
        memo/registry/disk chain as :meth:`bl_drop_profile`, and every
        *missing* quantum's sample-row grid is solved in one flat
        ensemble batch (``solve_reset_ensemble``) — the networks all
        share one sparsity pattern, so the ``batched`` backend
        factorises once per chord refresh for the whole ensemble
        instead of once per quantum.  Solved profiles land in the
        shared registry and the persistent store under the exact keys
        the single-voltage path uses, so nominal models get free hits
        afterwards.  Returns ``{quantum: read-only profile}``.
        """
        a = self.config.array.size
        quanta = sorted(
            {int(round(float(v) / _VOLTAGE_QUANTUM)) for v in np.atleast_1d(v_applied)}
        )
        profiles: dict[int, np.ndarray] = {}
        missing: list[int] = []
        for q in quanta:
            key = (q, bias)
            cached = self._bl_profiles.get(key)
            if cached is not None:
                obs.count("profile_cache.hit")
                profiles[q] = cached
                continue
            obs.count("profile_cache.miss")
            parts = self._profile_parts(
                "bl-profile", q, _VOLTAGE_QUANTUM, _PROFILE_SAMPLES, bias
            )
            cached = self._validated_profile(self._lookup_artefact(parts), a)
            if cached is not None:
                self._bl_profiles[key] = cached
                profiles[q] = cached
            else:
                missing.append(q)
        if not missing:
            return profiles
        grid = np.unique(
            np.round(np.linspace(0, a - 1, min(_PROFILE_SAMPLES, a))).astype(int)
        )
        jobs = [
            (int(row), (0,), q * _VOLTAGE_QUANTUM) for q in missing for row in grid
        ]
        with obs.span("solve.profile.ensemble", array=a, quanta=len(missing)):
            pairs = self.reduced.solve_reset_ensemble(jobs, bias, chunk=chunk)
        for j, q in enumerate(missing):
            v_solve = q * _VOLTAGE_QUANTUM
            block = pairs[j * len(grid) : (j + 1) * len(grid)]
            drops = [
                v_solve - solution.v_eff[(int(row), 0)]
                for row, (solution, _voltages) in zip(grid, block)
            ]
            profile = np.interp(np.arange(a), grid, np.asarray(drops))
            profile.setflags(write=False)
            parts = self._profile_parts(
                "bl-profile", q, _VOLTAGE_QUANTUM, _PROFILE_SAMPLES, bias
            )
            profile_registry.put(parts, profile)
            self._persist(parts, profile)
            self._bl_profiles[(q, bias)] = profile
            profiles[q] = profile
        return profiles

    @staticmethod
    def _validated_profile(value: Any, a: int) -> "np.ndarray | None":
        """A shared/persisted profile, or ``None`` if it fails validation.

        The disk envelope's checksum catches bit rot, but not a stale or
        colliding entry that unpickles cleanly into the wrong shape —
        those must read as a miss (recompute live), never as a crash or
        a silently wrong map.
        """
        if value is None:
            return None
        if (
            not isinstance(value, np.ndarray)
            or value.shape != (a,)
            or not np.all(np.isfinite(value))
        ):
            obs.count("profile_cache.invalid")
            return None
        profile = value.astype(float, copy=False)
        profile.setflags(write=False)
        return profile

    def _solve_profile(self, quantum: int, bias: BiasScheme) -> np.ndarray:
        """Live grid solve of one quantised voltage (with warm seeds)."""
        a = self.config.array.size
        v_solve = quantum * _VOLTAGE_QUANTUM
        grid = np.unique(
            np.round(np.linspace(0, a - 1, min(_PROFILE_SAMPLES, a))).astype(int)
        )
        selections = [(int(row), (0,)) for row in grid]
        seeds = self._continuation_seeds(quantum, bias, len(selections))
        with obs.span("solve.profile", array=a):
            # One batch covers the whole grid: backends that stack
            # solves (``batched``) factorise once per Newton iteration
            # for all sample rows instead of once per row.
            try:
                pairs = self.reduced.solve_reset_batch(
                    selections, v_solve, bias, initials=seeds
                )
            except ConvergenceError:
                if seeds is None:
                    raise
                # The backends already retry a failed seeded solve from
                # a cold start; an error surfacing here means even that
                # failed, so the guaranteed fallback is one more fully
                # unseeded batch before giving up.
                obs.count("profile_cache.seed_fallbacks")
                pairs = self.reduced.solve_reset_batch(selections, v_solve, bias)
            # Drops are measured against the *quantised* solve voltage,
            # keeping the profile a pure function of its cache key: two
            # raw voltages landing in the same bucket must produce the
            # same bytes, or the registry/disk layers would serve
            # whichever caller happened to fill the bucket first.
            drops = [
                v_solve - solution.v_eff[(int(row), 0)]
                for row, (solution, _voltages) in zip(grid, pairs)
            ]
        self._remember_seeds(quantum, bias, [v for _sol, v in pairs])
        return np.interp(np.arange(a), grid, np.asarray(drops))

    def _continuation_seeds(
        self, quantum: int, bias: BiasScheme, count: int
    ) -> "list[np.ndarray] | None":
        """Node-voltage seeds from the nearest already-solved quantum.

        The ``reference`` backend must never be seeded: its payloads are
        byte-locked to the cold flat-start Newton trajectory.
        """
        if self.solver == "reference":
            return None
        store = self._profile_seeds.get(bias)
        if not store:
            return None
        nearest = min(store, key=lambda q: abs(q - quantum))
        seeds = store[nearest]
        if len(seeds) != count:
            return None
        obs.count("profile_cache.continuation_seeds")
        return [seed.copy() for seed in seeds]

    def _remember_seeds(
        self, quantum: int, bias: BiasScheme, voltages: "list[np.ndarray]"
    ) -> None:
        if self.solver == "reference":
            return
        store = self._profile_seeds.setdefault(bias, OrderedDict())
        store[quantum] = [np.array(v, dtype=float) for v in voltages]
        store.move_to_end(quantum)
        while len(store) > _SEED_QUANTA:
            store.popitem(last=False)

    # -- point queries --------------------------------------------------------------

    def v_eff(
        self,
        row: int,
        col: int,
        v_applied: float | None = None,
        n_bits: int = 1,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> float:
        """Effective RESET voltage of one cell under an N-bit RESET."""
        if v_applied is None:
            v_applied = self.config.cell.v_reset
        if self.faults is not None:
            v_applied = float(self.faults.applied_voltage(v_applied))
        bl = float(self.bl_drop_profile(v_applied, bias)[row])
        wl = float(self.wl_model.drop(col, n_bits, bias))
        if self.faults is not None:
            _, _, wl_factors, bl_factors, _ = self._fault_arrays()
            bl *= float(bl_factors[col])
            wl *= float(wl_factors[row])
        return v_applied - bl - wl

    def reset_latency(
        self,
        row: int,
        col: int,
        v_applied: float | None = None,
        n_bits: int = 1,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> float:
        """RESET latency (s) of one cell under an N-bit RESET."""
        latency = float(
            self.cell_model.reset_latency(
                self.v_eff(row, col, v_applied, n_bits, bias)
            )
        )
        if self.faults is not None:
            sa0, sa1, _, _, cell_factors = self._fault_arrays()
            if sa0[row, col]:
                return 0.0
            if sa1[row, col]:
                return float("inf")
            latency *= float(cell_factors[row, col])
        return latency

    # -- full-array maps ---------------------------------------------------------------

    def applied_matrix(
        self, v_applied: "float | np.ndarray | None"
    ) -> np.ndarray:
        """Broadcast an applied-voltage spec to a full (A, A) matrix.

        Accepts a scalar (static Vrst), an (A,) vector read as per-row
        levels (DRVR sections), or a full (A, A) matrix (UDRVR).
        """
        a = self.config.array.size
        if v_applied is None:
            v_applied = self.config.cell.v_reset
        v = np.asarray(v_applied, dtype=float)
        if v.ndim == 0:
            return np.full((a, a), float(v))
        if v.shape == (a,):
            return np.repeat(v[:, None], a, axis=1)
        if v.shape == (a, a):
            return v.copy()
        raise ValueError(
            f"applied voltage must be scalar, ({a},) or ({a}, {a}); got {v.shape}"
        )

    def v_eff_map(
        self,
        v_applied: "float | np.ndarray | None" = None,
        n_bits: int = 1,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> np.ndarray:
        """Effective RESET voltage of every cell, shape (A, A)."""
        a = self.config.array.size
        v = self.applied_matrix(v_applied)
        if self.faults is not None:
            v = np.asarray(self.faults.applied_voltage(v))
        bl_drop = np.empty_like(v)
        # Group cells by integer quantum count, mirroring the profile
        # cache's keys: comparing integers is exact, whereas comparing
        # re-quantised floats can split one bucket on representation
        # noise (see ``_bl_profiles``).
        quanta = np.rint(v / _VOLTAGE_QUANTUM)
        for q in np.unique(quanta):
            profile = self.bl_drop_profile(float(q) * _VOLTAGE_QUANTUM, bias)
            mask = quanta == q
            bl_drop[mask] = np.repeat(profile[:, None], a, axis=1)[mask]
        wl_drop = np.asarray(self.wl_model.drop(np.arange(a), n_bits, bias))
        if self.faults is None:
            return v - bl_drop - wl_drop[None, :]
        _, _, wl_factors, bl_factors, _ = self._fault_arrays()
        # A line's resistance factor scales its whole IR-drop profile:
        # bit line c contributes its BL drop scaled by bl_factors[c], and
        # selected word line r its WL drop scaled by wl_factors[r].
        return (
            v
            - bl_drop * bl_factors[None, :]
            - wl_drop[None, :] * wl_factors[:, None]
        )

    def latency_map(
        self,
        v_applied: "float | np.ndarray | None" = None,
        n_bits: int = 1,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> np.ndarray:
        """Per-cell RESET latency (s), shape (A, A) (Fig. 4c family)."""
        latency = np.asarray(
            self.cell_model.reset_latency(self.v_eff_map(v_applied, n_bits, bias))
        )
        if self.faults is not None:
            sa0, sa1, _, _, cell_factors = self._fault_arrays()
            latency = latency * cell_factors
            latency[sa0] = 0.0  # stuck at HRS: nothing to RESET
            latency[sa1] = np.inf  # stuck at LRS: RESET never completes
        return latency

    def endurance_map(
        self,
        v_applied: "float | np.ndarray | None" = None,
        n_bits: int = 1,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> np.ndarray:
        """Per-cell write endurance, shape (A, A) (Fig. 4d family)."""
        endurance = np.asarray(
            self.cell_model.endurance(self.latency_map(v_applied, n_bits, bias))
        )
        if self.faults is not None:
            sa0, sa1, *_ = self._fault_arrays()
            endurance[sa0 | sa1] = 0.0  # stuck cells store nothing
        return endurance

    def array_reset_latency(
        self,
        v_applied: "float | np.ndarray | None" = None,
        n_bits: int = 1,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> float:
        """Array RESET latency: the slowest finite cell RESET."""
        latency = self.latency_map(v_applied, n_bits, bias)
        finite = latency[np.isfinite(latency)]
        if finite.size == 0:
            return float("inf")
        return float(finite.max())


class ModelCache:
    """Bounded LRU cache of :class:`ArrayIRModel` instances.

    Keyed by :func:`repro.config.config_hash`, so structurally equal
    configurations share one model regardless of object identity or the
    per-process ``hash()`` salt.  An engine
    :class:`~repro.engine.context.RunContext` carries its own instance;
    the module-level :func:`get_ir_model` delegates to a shared default.
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, ArrayIRModel] = OrderedDict()

    @staticmethod
    def _key(
        config: SystemConfig,
        faults: "FaultModel | None",
        solver: str | None = None,
    ) -> str:
        """Compound cache key: a fault sweep never poisons (or reuses)
        the perfect-array entry, and models running different solver
        backends never alias.  The default (reference) backend adds no
        token, preserving historical keys."""
        from ..circuit.solvers import solver_name

        key = config_hash(config)
        if faults is not None:
            key = f"{key}:{config_hash(faults)}"
        solver = solver_name(solver)
        if solver != "reference":
            key = f"{key}:solver={solver}"
        return key

    def _insert(self, key: str, model: ArrayIRModel) -> None:
        """Insert (or refresh) ``key`` and evict the coldest overflow.

        A key already resident is refreshed in place — recency bumped,
        value replaced — and never triggers an eviction: the cache does
        not grow, so evicting on a re-insert at capacity would throw
        away a warm entry for nothing.
        """
        if key in self._entries:
            self._entries[key] = model
            self._entries.move_to_end(key)
            return
        self._entries[key] = model
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            obs.count("model_cache.evict")

    def get(
        self,
        config: SystemConfig,
        faults: "FaultModel | None" = None,
        solver: str | None = None,
        profile_store=None,
    ) -> ArrayIRModel:
        """The cached model for ``(config, faults, solver)``.

        ``profile_store`` (a :class:`~repro.engine.cache.ProfileStore`)
        attaches the persistent profile layer; it is (re-)attached on
        hits too, so a model built before the store existed gains it.
        """
        if faults is not None and faults.is_null:
            faults = None
        key = self._key(config, faults, solver)
        model = self._entries.get(key)
        if model is not None:
            obs.count("model_cache.hit")
            self._entries.move_to_end(key)
            if profile_store is not None:
                model.profile_store = profile_store
            return model
        obs.count("model_cache.miss")
        model = ArrayIRModel(config, faults=faults, solver=solver)
        if profile_store is not None:
            model.profile_store = profile_store
        self._insert(key, model)
        return model

    def put(
        self,
        config: SystemConfig,
        model: ArrayIRModel,
        faults: "FaultModel | None" = None,
        solver: str | None = None,
    ) -> None:
        """Seed the cache with a pre-built model (e.g. deserialised from
        a worker); follows the same residency/recency rules as misses."""
        if faults is not None and faults.is_null:
            faults = None
        self._insert(self._key(config, faults, solver), model)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_DEFAULT_CACHE = ModelCache()


def get_ir_model(
    config: SystemConfig, solver: str | None = None
) -> ArrayIRModel:
    """Shared, memoised :class:`ArrayIRModel` per configuration."""
    return _DEFAULT_CACHE.get(config, solver=solver)
