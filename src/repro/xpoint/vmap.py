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
``endurance_map`` Fig. 4d / 6d / 11d / 13b; ``cell_maps`` gives all
three of one drive at once.

Applied voltage may be a scalar (static Vrst), a per-row vector (DRVR
row sections) or a full per-cell matrix (UDRVR column levels stacked on
DRVR sections).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from .. import obs
from ..circuit.cell import CellModel
from ..circuit.crosspoint import BASELINE_BIAS, BiasScheme
from ..circuit.equivalent import WordlineDropModel
from ..circuit.line_model import ReducedArrayModel, ResetNetwork
from ..config import SystemConfig, config_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.cache import NullCache, ProfileStore, ResultCache
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


class ProfileRegistry:
    """Process-wide registry of solved profile artefacts, over a disk tier.

    Entries are keyed by canonical part tuples — config hash, solver
    name, and the artefact-specific tail (voltage quantum, bias scheme)
    — so a profile solved by any :class:`ArrayIRModel` in this process
    is visible to every later model with an equal key, even across
    distinct :class:`ModelCache` instances.  No key names a fault model:
    faults act on the profiles after they are solved, so every fault
    identity of one configuration and solver reads the same entries.

    Profiles cross processes only through the disk tier: one
    :class:`~repro.engine.cache.ProfileStore` per cache directory.
    Which directory a lookup reads and writes is scoped, per thread, by
    :meth:`persisting` — the plan being executed names its context's
    cache — so a model shared by contexts with different caches never
    writes into a cache its caller did not name.  :meth:`lookup` is the
    one registry -> disk path.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._stores: dict[str, ProfileStore] = {}  # by cache directory
        self._scope = threading.local()
        self._derived: list[Callable[[], None]] = []
        #: Monotonic count of locally *computed* artefacts registered
        #: here (new :meth:`put` entries).  Disk hits don't count, so a
        #: before/after delta measures real solver work, which is what
        #: :func:`repro.mc.ensemble.run_ensemble` reports as
        #: ``quanta_solved``.
        self.stores = 0

    # -- disk tier ---------------------------------------------------------------

    @contextmanager
    def persisting(self, cache: "ResultCache | NullCache") -> Iterator[None]:
        """Read and write this thread's disk tier in ``cache``'s directory.

        ``cache`` is a :class:`~repro.engine.cache.ResultCache` or a
        disabled :class:`~repro.engine.cache.NullCache` (memory only).
        The previous scope is restored on exit, so blocks nest.
        """
        previous = getattr(self._scope, "store", None)
        self._scope.store = self._store_for(cache)
        try:
            yield
        finally:
            self._scope.store = previous

    def _store_for(
        self, cache: "ResultCache | NullCache"
    ) -> "ProfileStore | None":
        """This process's store over ``cache``'s directory (None if off)."""
        if not getattr(cache, "enabled", False):
            return None
        from ..engine.cache import ProfileStore

        root = os.path.abspath(cache.root)
        store = self._stores.get(root)
        if store is None:
            store = self._stores.setdefault(root, ProfileStore(cache))
        return store

    # -- entries -----------------------------------------------------------------

    def get(self, parts: tuple) -> Any:
        value = self._entries.get(parts)
        if value is not None:
            self._entries.move_to_end(parts)
        return value

    def _insert(self, parts: tuple, value: Any) -> bool:
        """Hold ``value`` under ``parts``; ``False`` if already held."""
        if parts in self._entries:
            self._entries.move_to_end(parts)
            return False
        self._entries[parts] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return True

    def _write_through(self, parts: tuple, value: Any) -> None:
        store = getattr(self._scope, "store", None)
        if store is not None and store.store(parts, value):
            obs.count("profile_cache.disk_store")

    def lookup(self, parts: tuple, validate: Callable[[Any], Any]) -> Any:
        """Registry -> disk lookup of a valid artefact; ``None`` to solve.

        ``validate`` returns the value to use, or ``None`` for one that
        must be recomputed (counted as ``profile_cache.invalid``).  A
        registry hit is written through to the disk tier (once per
        directory), which is how a profile solved under another scope
        reaches this one's cache.  A disk value is validated *before* it
        is promoted, and a rejected one does not count as on disk, so
        the caller's recompute (:meth:`put`) replaces it in the registry
        and on disk alike.
        """

        def checked(value: Any) -> Any:
            valid = validate(value)
            if valid is None:
                obs.count("profile_cache.invalid")
            return valid

        value = self.get(parts)
        if value is not None:
            obs.count("profile_cache.registry_hit")
            value = checked(value)
            if value is not None:
                self._write_through(parts, value)
            return value
        store = getattr(self._scope, "store", None)
        if store is None:
            return None
        value = store.load(parts, checked)
        if value is not None:
            obs.count("profile_cache.disk_hit")
            self._insert(parts, value)
        return value

    def put(self, parts: tuple, value: Any) -> None:
        """Register an artefact solved in this process and write it through."""
        if self._insert(parts, value):
            self.stores += 1
        self._write_through(parts, value)

    def local(self, parts: tuple, build: Callable[[], Any]) -> Any:
        """The process-local entry ``parts``, built on a miss.

        For state derived from the configuration (and solver) alone:
        the profile grid's networks (:meth:`ArrayIRModel._grid_templates`)
        and the anchor seeds (:meth:`ArrayIRModel._anchor`).  It shares
        the entries' bound and :meth:`clear`, but is never written to
        disk or counted as a solve.
        """
        value = self.get(parts)
        if value is None:
            value = build()
            self._insert(parts, value)
        return value

    def derive(self, clear: Callable[[], None]) -> None:
        """Register another process cache that a fresh process would not
        have — the line-write models built from these artefacts, the
        recorded front ends: :meth:`clear` calls ``clear`` to drop it too."""
        self._derived.append(clear)

    def clear(self) -> None:
        """Drop the entries, the caches derived from them and the
        stores' record of what is on disk (the disk itself is
        untouched), as in a fresh process."""
        self._entries.clear()
        self._stores.clear()
        for clear in self._derived:
            clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Per-process singleton (one per pool worker).
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
    the fault-free path, and every fault identity of one configuration
    and solver reads the same solved profiles, WL calibration and anchor
    seeds (see :meth:`_profile_parts`).
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
        #: (word-line, bit-line) wire factors, sampled on first use.
        self._line_factors: tuple[np.ndarray, np.ndarray] | None = None
        # Keyed by the *integer* quantum count (round(v / quantum)), not
        # the quantised float: float keys carry representation noise
        # (0.060000000000000005 vs 0.06), so near-identical voltages
        # could land in distinct buckets and bloat the profile cache.
        self._bl_profiles: dict[tuple[int, BiasScheme], np.ndarray] = {}
        self._wl_model: WordlineDropModel | None = None
        self._config_hash = config_hash(config)

    def _wire_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(word-line, bit-line) wire factors of the fault model.

        The only per-identity arrays the model keeps: two length-A
        vectors.  The (A, A) stuck masks and latency factors are sampled
        where they are used (each draw has its own RNG token, so the
        values are the same whenever they are drawn).
        """
        if self._line_factors is None:
            self._line_factors = self.faults.line_factors(self.config.array.size)
        return self._line_factors

    # -- profile keys -------------------------------------------------------------

    def _profile_parts(self, kind: str, *extra: Any) -> tuple:
        """Canonical key parts for one profile artefact.

        The configuration and the solver name alone: the ``reference``
        oracle can never be served an artefact computed by a seeded
        backend (and vice versa), while every fault identity shares the
        entries, since profiles and the WL calibration are solved on the
        nominal :class:`ReducedArrayModel` and faults act afterwards.
        """
        return (kind, self._config_hash, self.solver, *extra)

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
            sneak = profile_registry.lookup(parts, self._validated_sneak)
            if sneak is None:
                sneak = self._calibrate_wl_sneak()
                profile_registry.put(parts, sneak)
            self._wl_model = WordlineDropModel(self.config, sneak)
        return self._wl_model

    @staticmethod
    def _validated_sneak(value: Any) -> "float | None":
        """A shared/persisted sneak current, or ``None`` if invalid."""
        if isinstance(value, float) and np.isfinite(value) and value >= 0.0:
            return value
        return None

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
        disk store, then a live solve (seeded from the anchor quantum's
        solution, see :meth:`_anchor`).

        The returned array is **read-only**: it is shared between every
        caller of this quantum (and, through the registry and disk
        layers, across models and processes), so an in-place mutation
        would silently corrupt all of them.  Copy before editing.
        """
        if v_applied is None:
            v_applied = self.config.cell.v_reset
        return self._profile(int(round(v_applied / _VOLTAGE_QUANTUM)), bias)

    def _profile(self, quantum: int, bias: BiasScheme) -> np.ndarray:
        """The read-only profile of one integer quantum, cached or solved."""
        profile = self._cached_profile(quantum, bias)
        if profile is None:
            profile = self._register(
                quantum, bias, self._solve_profile(quantum, bias)
            )
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
        ensemble batch (``solve_networks(..., ensemble=True)``) on
        re-driven copies of the grid networks — the networks all
        share one sparsity pattern, so the ``batched`` backend runs one
        Newton loop for the whole ensemble instead of one per quantum.
        Each solve starts from the same anchor seed the single-voltage
        path uses, so the profiles are the same bytes, and land in the
        shared registry and the persistent store under the same keys.
        Returns ``{quantum: read-only profile}``.
        """
        quanta = sorted(
            {int(round(float(v) / _VOLTAGE_QUANTUM)) for v in np.atleast_1d(v_applied)}
        )
        profiles = {q: self._cached_profile(q, bias) for q in quanta}
        missing = [q for q in quanta if profiles[q] is None]
        initials = None
        if missing and self.solver != "reference":
            seeds, anchor_profile = self._anchor(bias)
            if self._anchor_quantum in missing:
                missing.remove(self._anchor_quantum)
                profiles[self._anchor_quantum] = self._register(
                    self._anchor_quantum, bias, anchor_profile
                )
            obs.count("profile_cache.continuation_seeds", len(missing))
            initials = seeds * len(missing)
        if not missing:
            return profiles
        a = self.config.array.size
        size = len(self._grid())
        templates = self._grid_templates(bias)
        networks = [net for q in missing for net in self._redriven(templates, q)]
        with obs.span("solve.profile.ensemble", array=a, quanta=len(missing)):
            pairs = self.reduced.solve_networks(
                networks, initials, ensemble=True, chunk=chunk
            )
        for j, q in enumerate(missing):
            block = pairs[j * size : (j + 1) * size]
            profiles[q] = self._register(q, bias, self._interpolate(q, block))
        return profiles

    def _cached_profile(self, quantum: int, bias: BiasScheme) -> "np.ndarray | None":
        """Memo -> registry -> disk, or ``None`` to solve."""
        key = (quantum, bias)
        cached = self._bl_profiles.get(key)
        if cached is not None:
            obs.count("profile_cache.hit")
            return cached
        obs.count("profile_cache.miss")
        profile = profile_registry.lookup(
            self._bl_parts(quantum, bias), self._validated_profile
        )
        if profile is not None:
            self._bl_profiles[key] = profile
        return profile

    def _bl_parts(self, quantum: int, bias: BiasScheme) -> tuple:
        return self._profile_parts(
            "bl-profile", quantum, _VOLTAGE_QUANTUM, _PROFILE_SAMPLES, bias
        )

    def _register(
        self, quantum: int, bias: BiasScheme, profile: np.ndarray
    ) -> np.ndarray:
        """Memoise a solved profile and share it through the registry."""
        profile_registry.put(self._bl_parts(quantum, bias), profile)
        self._bl_profiles[(quantum, bias)] = profile
        return profile

    def _validated_profile(self, value: Any) -> "np.ndarray | None":
        """A shared/persisted profile, or ``None`` if it fails validation.

        The disk envelope's checksum catches bit rot, but not a stale or
        colliding entry that unpickles cleanly into the wrong shape —
        those must read as a miss (recompute live), never as a crash or
        a silently wrong map.
        """
        if (
            not isinstance(value, np.ndarray)
            or value.shape != (self.config.array.size,)
            or not np.all(np.isfinite(value))
        ):
            return None
        profile = value.astype(float, copy=False)
        profile.setflags(write=False)
        return profile

    def _grid(self) -> np.ndarray:
        """The sample rows a profile is solved at."""
        a = self.config.array.size
        return np.unique(
            np.round(np.linspace(0, a - 1, min(_PROFILE_SAMPLES, a))).astype(int)
        )

    @property
    def _anchor_quantum(self) -> int:
        """The quantum of the nominal RESET voltage."""
        return int(round(self.config.cell.v_reset / _VOLTAGE_QUANTUM))

    def _solve_profile(self, quantum: int, bias: BiasScheme) -> np.ndarray:
        """Live solve of one quantum's profile.

        Seeded from the anchor (see :meth:`_anchor`); the ``reference``
        backend is the oracle and always starts flat.
        """
        if self.solver == "reference":
            return self._interpolate(quantum, self._solve_grid(quantum, bias))
        seeds, anchor_profile = self._anchor(bias)
        if quantum == self._anchor_quantum:
            return anchor_profile
        obs.count("profile_cache.continuation_seeds")
        return self._interpolate(quantum, self._solve_grid(quantum, bias, seeds))

    def _anchor(self, bias: BiasScheme) -> "tuple[list[np.ndarray], np.ndarray]":
        """The anchor quantum's grid node voltages and profile for ``bias``.

        The anchor, ``round(v_reset / quantum)``, is solved from a flat
        start; every other quantum's Newton solves start from its node
        voltages.  The seed therefore never depends on which quanta were
        solved before, and neither do the bytes of any profile.  Like
        the profiles, it depends on the configuration and solver alone,
        so it is a local entry of the registry that every model of that
        pair — each fault identity included — seeds from.
        """
        return profile_registry.local(
            ("anchor", self._config_hash, self.solver, bias),
            lambda: self._solve_anchor(bias),
        )

    def _solve_anchor(
        self, bias: BiasScheme
    ) -> "tuple[list[np.ndarray], np.ndarray]":
        """The anchor quantum's grid, solved from a flat start."""
        pairs = self._solve_grid(self._anchor_quantum, bias)
        seeds = [voltages for _solution, voltages in pairs]
        for seed in seeds:
            seed.setflags(write=False)
        return seeds, self._interpolate(self._anchor_quantum, pairs)

    def _solve_grid(
        self,
        quantum: int,
        bias: BiasScheme,
        seeds: "list[np.ndarray] | None" = None,
    ) -> "list[tuple[Any, np.ndarray]]":
        """One quantum's grid solves, as ``(solution, voltages)`` pairs.

        One batch covers the whole grid: backends that stack solves
        (``batched``) run one Newton loop for all sample rows.
        """
        networks = self._redriven(self._grid_templates(bias), quantum)
        with obs.span("solve.profile", array=self.config.array.size):
            return self.reduced.solve_networks(networks, initials=seeds)

    def _grid_templates(self, bias: BiasScheme) -> list[ResetNetwork]:
        """The grid's reduced networks for ``bias``, built once.

        The networks of a bias scheme differ between quanta only in
        their pinned drive values, so each quantum solves re-driven
        copies (:meth:`_redriven`).  They depend on the configuration
        alone (faults act on the profiles, and solvers only read the
        networks), so every model of one configuration shares one set
        through the registry: a service holding a model per fault
        identity keeps one set (about 0.65 MB at 512x512) per bias, not
        one per model.
        """
        return profile_registry.local(
            ("grid-networks", self._config_hash, bias),
            lambda: [
                self.reduced.reset_network(int(row), (0,), bias=bias)
                for row in self._grid()
            ],
        )

    @staticmethod
    def _redriven(
        templates: list[ResetNetwork], quantum: int
    ) -> list[ResetNetwork]:
        """The grid at one quantum: the networks a fresh build would give,
        hence the same profile bytes."""
        drive = {0: quantum * _VOLTAGE_QUANTUM}
        return [template.redriven(drive) for template in templates]

    def _interpolate(
        self, quantum: int, pairs: "list[tuple[Any, np.ndarray]]"
    ) -> np.ndarray:
        """The read-only profile of one quantum's grid solves.

        Drops are measured against the *quantised* solve voltage, keeping
        the profile a pure function of its cache key: two raw voltages
        landing in the same bucket must produce the same bytes, or the
        registry/disk layers would serve whichever caller happened to
        fill the bucket first.
        """
        grid = self._grid()
        v_solve = quantum * _VOLTAGE_QUANTUM
        drops = [
            v_solve - solution.v_eff[(int(row), 0)]
            for row, (solution, _voltages) in zip(grid, pairs)
        ]
        profile = np.interp(np.arange(self.config.array.size), grid, np.asarray(drops))
        profile.setflags(write=False)
        return profile

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
            wl_factors, bl_factors = self._wire_factors()
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
            a = self.config.array.size
            sa0, sa1 = self.faults.stuck_masks(a)
            if sa0[row, col]:
                return 0.0
            if sa1[row, col]:
                return float("inf")
            latency *= float(self.faults.cell_latency_factors(a)[row, col])
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
        return next(self._v_eff_maps(v_applied, (n_bits,), bias))

    def latency_map(
        self,
        v_applied: "float | np.ndarray | None" = None,
        n_bits: int = 1,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> np.ndarray:
        """Per-cell RESET latency (s), shape (A, A) (Fig. 4c family)."""
        return next(self.latency_maps(v_applied, (n_bits,), bias))

    def latency_maps(
        self,
        v_applied: "float | np.ndarray | None",
        n_bits: Iterable[int],
        bias: BiasScheme = BASELINE_BIAS,
    ) -> Iterator[np.ndarray]:
        """:meth:`latency_map` for each of ``n_bits`` in turn.

        The BL drop does not depend on ``n_bits``, so one gather serves
        every map; the maps are the bytes separate calls would give, and
        are made one at a time as the iterator is read.
        """
        cell_faults = None if self.faults is None else self._cell_faults()
        for v_eff in self._v_eff_maps(v_applied, n_bits, bias):
            yield self._latency(v_eff, cell_faults)

    def cell_maps(
        self,
        v_applied: "float | np.ndarray | None" = None,
        n_bits: int = 1,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(v_eff, latency, endurance)`` maps of one drive.

        One BL gather and one draw of the per-cell faults serve all
        three; each map is the bytes :meth:`v_eff_map`,
        :meth:`latency_map` and :meth:`endurance_map` give alone.
        """
        v_eff = next(self._v_eff_maps(v_applied, (n_bits,), bias))
        cell_faults = None if self.faults is None else self._cell_faults()
        latency = self._latency(v_eff, cell_faults)
        endurance = np.asarray(self.cell_model.endurance(latency))
        if cell_faults is not None:
            sa0, sa1, _factors = cell_faults
            endurance[sa0 | sa1] = 0.0  # stuck cells store nothing
        return v_eff, latency, endurance

    def _cell_faults(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fault model's (SA0 mask, SA1 mask, latency factors)."""
        a = self.config.array.size
        sa0, sa1 = self.faults.stuck_masks(a)
        return sa0, sa1, self.faults.cell_latency_factors(a)

    def _latency(
        self,
        v_eff: np.ndarray,
        cell_faults: "tuple[np.ndarray, np.ndarray, np.ndarray] | None",
    ) -> np.ndarray:
        """The latency map of ``v_eff`` under the drawn per-cell faults."""
        latency = np.asarray(self.cell_model.reset_latency(v_eff))
        if cell_faults is not None:
            sa0, sa1, factors = cell_faults
            latency = latency * factors
            latency[sa0] = 0.0  # stuck at HRS: nothing to RESET
            latency[sa1] = np.inf  # stuck at LRS: RESET never completes
        return latency

    def _v_eff_maps(
        self,
        v_applied: "float | np.ndarray | None",
        n_bits: Iterable[int],
        bias: BiasScheme,
    ) -> Iterator[np.ndarray]:
        """:meth:`v_eff_map` for each of ``n_bits``, from one BL gather.

        ``v - bl - wl`` evaluates as ``(v - bl) - wl``, so the shared
        ``v - bl`` leaves every map's bytes as a separate call's.
        """
        a = self.config.array.size
        v = self.applied_matrix(v_applied)
        if self.faults is not None:
            v = np.asarray(self.faults.applied_voltage(v))
        bl_drop = self._bl_drop_map(v, bias)
        if self.faults is None:
            v_after_bl = v - bl_drop
        else:
            wl_factors, bl_factors = self._wire_factors()
            # A line's resistance factor scales its whole IR-drop
            # profile: bit line c contributes its BL drop scaled by
            # bl_factors[c], and selected word line r its WL drop scaled
            # by wl_factors[r].
            v_after_bl = v - bl_drop * bl_factors[None, :]
        del v, bl_drop
        for bits in n_bits:
            wl_drop = np.asarray(self.wl_model.drop(np.arange(a), bits, bias))
            if self.faults is None:
                yield v_after_bl - wl_drop[None, :]
            else:
                yield v_after_bl - wl_drop[None, :] * wl_factors[:, None]

    def _bl_drop_map(self, v: np.ndarray, bias: BiasScheme) -> np.ndarray:
        """Each cell's BL drop: its row of the profile at its quantum.

        Cells are grouped by integer quantum count, mirroring the
        profile cache's keys: comparing integers is exact, whereas
        comparing re-quantised floats can split one bucket on
        representation noise (see ``_bl_profiles``).  The quanta present
        are counted, not sorted; their profiles fill a (span, A) table,
        and one flat gather reads every cell's drop from it.
        """
        a = self.config.array.size
        if not np.all(np.isfinite(v)):
            raise ValueError("applied voltages must be finite")
        index = np.rint(v / _VOLTAGE_QUANTUM).astype(np.intp)
        low = int(index.min())
        index -= low
        counts = np.bincount(index.ravel())
        table = np.empty((counts.size, a))
        for offset in np.flatnonzero(counts).tolist():
            table[offset] = self._profile(low + offset, bias)
        index *= a
        index += np.arange(a)[:, None]
        return np.take(table, index)

    def endurance_map(
        self,
        v_applied: "float | np.ndarray | None" = None,
        n_bits: int = 1,
        bias: BiasScheme = BASELINE_BIAS,
    ) -> np.ndarray:
        """Per-cell write endurance, shape (A, A) (Fig. 4d family)."""
        return self.cell_maps(v_applied, n_bits, bias)[2]

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
        backends never alias."""
        from ..circuit.solvers import solver_name

        key = config_hash(config)
        if faults is not None:
            key = f"{key}:{config_hash(faults)}"
        return f"{key}:solver={solver_name(solver)}"

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
    ) -> ArrayIRModel:
        """The cached model for ``(config, faults, solver)``."""
        if faults is not None and faults.is_null:
            faults = None
        key = self._key(config, faults, solver)
        model = self._entries.get(key)
        if model is not None:
            obs.count("model_cache.hit")
            self._entries.move_to_end(key)
            return model
        obs.count("model_cache.miss")
        model = ArrayIRModel(config, faults=faults, solver=solver)
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
