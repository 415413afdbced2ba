"""Opt-in on-disk result cache under ``.repro_cache/``.

Results are keyed by a stable SHA-256 over (cache-schema version,
package version, and arbitrary JSON-canonicalisable key parts — in
practice the :func:`repro.config.config_hash`, the experiment name, and
the workload parameters).  Values are pickled into a checksummed
envelope, written atomically, and loaded back bit-identical, so a
re-run of ``python -m repro fig15`` is a cache hit and composed figures
share (scheme, benchmark) cells across invocations.

Integrity: every entry stores the SHA-256 of its payload bytes plus the
schema and code version that wrote it.  A truncated, bit-flipped or
version-skewed entry is **quarantined** (moved to
``.repro_cache/quarantine/``) and reads as a miss, so the caller
recomputes instead of crashing on (or silently trusting) bad data.

Invalidation: bumping the package version (or :data:`SCHEMA_VERSION`)
changes every key; ``python -m repro <exp> --no-cache`` bypasses the
cache; deleting ``.repro_cache/`` clears it.  Cache files are local
pickles — do not share them across trust boundaries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import logging
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable

from .. import chaos, obs

__all__ = [
    "MISSING",
    "NullCache",
    "ProfileStore",
    "ResultCache",
    "cache_key",
    "DEFAULT_CACHE_DIR",
]

DEFAULT_CACHE_DIR = ".repro_cache"

#: Bump when the on-disk layout or keying scheme changes.
#: v2: checksummed envelopes with quarantine handling.
#: v3: profiles are anchor-seeded, so v2 entries of the same key may
#: hold other bytes.
#: v4: ``batched`` takes banded Newton steps on forest patterns, so v3
#: entries of the same key may hold other bytes.
SCHEMA_VERSION = 4

QUARANTINE_DIR = "quarantine"

#: Process-wide quarantine sequence: shared by every :class:`ResultCache`
#: instance so concurrent writers (service request threads, two caches
#: opened on the same directory) can never pick the same
#: ``{stem}.{pid}.{seq}`` evidence name.  The lock also guards the
#: per-instance ``quarantined`` counters, which must stay picklable and
#: therefore cannot carry locks of their own.
_QUARANTINE_SEQ = itertools.count(1)
_QUARANTINE_LOCK = threading.Lock()

_MISSING_TYPE = type("_MISSING_TYPE", (), {"__repr__": lambda self: "MISSING"})
MISSING: Any = _MISSING_TYPE()

_log = logging.getLogger(__name__)


def _code_version() -> str:
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - import cycle / broken install
        return "unknown"


def _canonical(part: Any) -> Any:
    """Render one key part as a JSON-stable value.

    Only types with a canonical, process-independent rendering are
    accepted: falling back to ``repr()`` would embed ``0x7f...`` memory
    addresses for objects without a stable ``__repr__``, silently making
    keys nondeterministic across runs (every run a miss, the cache a
    write-only disk filler).
    """
    if dataclasses.is_dataclass(part) and not isinstance(part, type):
        return dataclasses.asdict(part)
    if isinstance(part, (list, tuple)):
        return [_canonical(item) for item in part]
    if isinstance(part, dict):
        return {str(k): _canonical(v) for k, v in sorted(part.items(), key=str)}
    if isinstance(part, (str, int, float, bool)) or part is None:
        return part
    raise TypeError(
        f"cache key part {part!r} of type {type(part).__name__} has no "
        "canonical rendering; use dataclasses, containers or scalars"
    )


def cache_key(*parts: Any) -> str:
    """Stable hex key over arbitrary key parts plus the code version."""
    doc = json.dumps(
        [SCHEMA_VERSION, _code_version(), [_canonical(p) for p in parts]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode()).hexdigest()[:32]


class NullCache:
    """Cache disabled: every lookup misses, every store is dropped."""

    enabled = False

    def load(self, key: str) -> Any:
        return MISSING

    def store(self, key: str, value: Any) -> None:
        pass


class ProfileStore:
    """Persistent solver-profile layer over one result-cache directory.

    The disk tier of :class:`~repro.xpoint.vmap.ProfileRegistry`, which
    keeps one store per cache directory in each process.  It promotes
    expensive per-model intermediates — quantised BL drop profiles, WL
    calibrations — into the checksummed ``.repro_cache`` disk layer so
    they are shared *across* processes and *across* runs (the
    experiment-level cache only shares whole payloads).  Keys are the
    registry's canonical part tuples (``("bl-profile", config_hash,
    solver, quantum, ...)``); the store namespaces them under
    ``"profile"`` so they can never collide with experiment result keys.

    Integrity is inherited from :class:`ResultCache`: a corrupted or
    version-skewed entry is quarantined on load and reads as a miss
    (``None``), so callers always fall back to a live solve.
    """

    def __init__(self, cache: "ResultCache") -> None:
        self._cache = cache
        #: Part tuples known to be on disk (loaded or stored through
        #: this store) — suppresses rewrites of unchanged artefacts.
        self._seen: set[tuple] = set()

    def load(
        self, parts: tuple, validate: Callable[[Any], Any] = lambda v: v
    ) -> Any:
        """The stored value for ``parts`` as ``validate`` returns it, or
        ``None`` on any miss.

        ``validate`` returns ``None`` to reject a value that unpickled
        cleanly but is the wrong artefact; like a deleted or quarantined
        entry, it is then not counted as on disk, so the caller's
        recompute writes it again.
        """
        value = self._cache.load(cache_key("profile", *parts))
        if value is not MISSING:
            value = validate(value)
        if value is MISSING or value is None:
            self._seen.discard(parts)
            return None
        self._seen.add(parts)
        return value

    def store(self, parts: tuple, value: Any) -> bool:
        """Write ``value`` under ``parts``; ``True`` if newly written."""
        if parts in self._seen:
            return False
        self._cache.store(cache_key("profile", *parts), value)
        self._seen.add(parts)
        return True


class ResultCache:
    """Pickle-per-key directory cache with atomic writes and checksums.

    Entries are envelopes ``{schema, version, sha256, data}`` where
    ``data`` holds the pickled payload bytes.  :meth:`load` verifies the
    envelope before unpickling the payload; anything that fails —
    truncation, corruption, checksum mismatch, or an entry written by a
    different schema/code version — is moved to the ``quarantine/``
    subdirectory and reported as a miss so the caller recomputes.
    ``quarantined`` counts how many entries this instance has set aside.
    """

    enabled = True

    def __init__(self, root: "str | Path" = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Set a bad entry aside (never delete: it may hold evidence).

        The quarantine filename carries the pid and a process-wide
        sequence number: concurrent writers — service request threads,
        two caches opened on one directory, or one instance
        re-quarantining a recomputed-then-re-corrupted entry — must
        each keep their own evidence.  ``os.replace`` silently
        overwrites an existing target, so the name is *reserved* first
        with ``O_EXCL`` (which also defends against a recycled pid
        colliding with a previous process's files) and the bad entry is
        then moved over the placeholder.
        """
        target_dir = self.root / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            return
        target = None
        while target is None:
            seq = next(_QUARANTINE_SEQ)
            candidate = target_dir / (
                f"{path.stem}.{os.getpid()}.{seq}{path.suffix}"
            )
            try:
                fd = os.open(candidate, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue  # stale file from a recycled pid: next seq
            except OSError:
                # Quarantine dir unusable (permissions, read-only fs):
                # drop the bad entry so it at least stops poisoning loads.
                try:
                    path.unlink()
                except OSError:
                    return
                break
            os.close(fd)
            target = candidate
        if target is not None:
            try:
                os.replace(path, target)
            except (FileNotFoundError, OSError):
                # A racing process already quarantined (or deleted) the
                # entry; release the unused placeholder.
                try:
                    os.unlink(target)
                except OSError:
                    pass
                return
        with _QUARANTINE_LOCK:
            self.quarantined += 1
        obs.count("disk_cache.quarantine")
        _log.warning("quarantined cache entry %s: %s", path.name, reason)

    def load(self, key: str) -> Any:
        """The stored value, or :data:`MISSING`.

        Corrupt or version-skewed entries are quarantined and miss.
        """
        path = self._path(key)
        # Chaos injection (no-op unless a policy is installed): corrupt
        # the entry *before* the envelope check so the quarantine
        # machinery below — not special-cased chaos handling — absorbs
        # the damage, proving the real recovery path under live traffic.
        chaos.corrupt_point(path)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            obs.count("disk_cache.miss")
            return MISSING
        except Exception:  # noqa: BLE001 - any unpickling failure is corruption
            self._quarantine(path, "unreadable envelope (truncated or corrupt)")
            return MISSING
        if (
            not isinstance(envelope, dict)
            or envelope.keys() != {"schema", "version", "sha256", "data"}
            or not isinstance(envelope.get("data"), bytes)
        ):
            self._quarantine(path, "malformed envelope")
            return MISSING
        if (
            envelope["schema"] != SCHEMA_VERSION
            or envelope["version"] != _code_version()
        ):
            self._quarantine(
                path,
                f"version skew (schema={envelope['schema']!r}, "
                f"version={envelope['version']!r})",
            )
            return MISSING
        if hashlib.sha256(envelope["data"]).hexdigest() != envelope["sha256"]:
            self._quarantine(path, "payload checksum mismatch")
            return MISSING
        try:
            value = pickle.loads(envelope["data"])
        except Exception:  # noqa: BLE001 - checksum passed but payload won't load
            self._quarantine(path, "payload failed to unpickle")
            return MISSING
        obs.count("disk_cache.hit")
        return value

    def store(self, key: str, value: Any) -> None:
        obs.count("disk_cache.store")
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "schema": SCHEMA_VERSION,
            "version": _code_version(),
            "sha256": hashlib.sha256(data).hexdigest(),
            "data": data,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
