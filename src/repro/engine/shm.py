"""Shared-memory profile plane: zero-copy solver artifacts across workers.

The process compute plane (:mod:`repro.engine.compute`) runs solves in
worker processes.  Without a shared segment, a BL-drop profile or WL
calibration solved by one worker reaches its siblings only through the
disk cache — or not at all, so siblings re-solve it.  At Monte Carlo
ensemble scale that duplicates the single hottest artifact class in the
stack.

:class:`SharedProfilePlane` is a cross-process, append-mostly key/value
segment over :mod:`multiprocessing.shared_memory`:

* **Layout.**  A small header (magic, stripe count, stripe size) makes
  the segment self-describing — a restarted worker reattaches by name
  and learns the geometry from the segment itself.  The body is split
  into lock-striped regions; a key hashes to one stripe, so concurrent
  writers on different stripes never contend.
* **Blocks.**  Each entry is ``[u32 total_len][u32 crc32(payload)]
  [u16 key_len][key][pickled payload]`` appended to its stripe.  The
  stripe's published-offset word is advanced *after* the block is fully
  written, so readers never observe a torn block: anything at or below
  the published offset is complete, and the CRC catches genuine
  corruption (a reader stops scanning a stripe whose next block fails
  validation rather than walking garbage).
* **Locking.**  Writers take the stripe's :class:`multiprocessing.Lock`
  with a short timeout; readers take no locks at all (they scan up to
  the published offset and keep a per-process index of what they have
  already parsed).  A writer that cannot get the lock — including the
  worst case, a sibling that died *while holding it* — reports
  ``"unavailable"`` and keeps the artefact to itself; that stripe
  becomes effectively read-only but every published block stays
  readable forever.
* **Lifecycle.**  The supervisor creates the segment and unlinks it on
  drain; workers receive a picklable :meth:`handle` at spawn (the same
  handle on restart — reattach is just attach-by-name).  Segments
  orphaned by a crashed supervisor are reclaimed by
  :func:`reap_stale_segments` under the shared grace-window rule of
  :mod:`repro.cleanup`, so the janitor can never race a live segment.

Keys are opaque short strings; the profile registry uses the
``cache_key("profile", *parts)`` digest, giving the plane the same
identity space as the on-disk :class:`~repro.engine.cache.ProfileStore`.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from typing import Any

from .. import chaos
from ..cleanup import DEFAULT_GRACE_S, is_stale

__all__ = [
    "SHM_PREFIX",
    "SharedPlaneUnavailable",
    "SharedProfilePlane",
    "reap_stale_segments",
]

#: Name prefix of every plane segment; the janitor only ever touches
#: files carrying it.
SHM_PREFIX = "repro-shm-"

_MAGIC = b"RPROSHM1"
_HEADER = struct.Struct("<8sIQ")  # magic, stripe count, stripe bytes
_HEADER_SIZE = 32  # header struct padded for alignment headroom
_OFFSET = struct.Struct("<Q")  # per-stripe published write offset
_BLOCK = struct.Struct("<IIH")  # total_len, crc32(payload), key_len

_DEFAULT_STRIPES = 8
_DEFAULT_STRIPE_BYTES = 512 * 1024
_DEFAULT_LOCK_TIMEOUT_S = 0.25

#: put() outcomes (also the obs counter suffixes the registry uses).
STORED = "stored"
DUPLICATE = "duplicate"
UNAVAILABLE = "unavailable"


class SharedPlaneUnavailable(RuntimeError):
    """Shared memory cannot be created/attached on this platform."""


def _segment_name() -> str:
    # pid + a monotonic counter: unique per creating process without
    # consuming OS randomness, and recognisable in /dev/shm listings.
    with _NAME_LOCK:
        global _NAME_SEQ
        _NAME_SEQ += 1
        return f"{SHM_PREFIX}{os.getpid()}-{_NAME_SEQ}"


_NAME_LOCK = threading.Lock()
_NAME_SEQ = 0


class SharedProfilePlane:
    """One lock-striped, append-mostly shared segment of profile blocks."""

    def __init__(
        self,
        shm: Any,
        locks: tuple,
        stripes: int,
        stripe_bytes: int,
        owner: bool,
        lock_timeout_s: float = _DEFAULT_LOCK_TIMEOUT_S,
    ) -> None:
        self._shm = shm
        self._locks = locks
        self._stripes = stripes
        self._stripe_bytes = stripe_bytes
        self._owner = owner
        self.lock_timeout_s = lock_timeout_s
        self._view = shm.buf
        # Per-process read state: parsed blocks by key, and how far into
        # each stripe this process has already scanned.
        self._index: dict[str, tuple[int, int]] = {}  # key -> (start, len)
        self._scanned = [0] * stripes
        self._mutex = threading.Lock()
        self._counters = {STORED: 0, DUPLICATE: 0, UNAVAILABLE: 0, "corrupt": 0}

    # -- construction ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        stripes: int = _DEFAULT_STRIPES,
        stripe_bytes: int = _DEFAULT_STRIPE_BYTES,
        lock_timeout_s: float = _DEFAULT_LOCK_TIMEOUT_S,
    ) -> "SharedProfilePlane":
        """Create a fresh segment (supervisor side); raises
        :class:`SharedPlaneUnavailable` where shared memory is absent."""
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        if stripe_bytes < _OFFSET.size + _BLOCK.size + 2:
            raise ValueError(f"stripe_bytes too small: {stripe_bytes}")
        try:
            import multiprocessing
            from multiprocessing import shared_memory

            size = _HEADER_SIZE + stripes * stripe_bytes
            shm = shared_memory.SharedMemory(
                create=True, size=size, name=_segment_name()
            )
        except Exception as exc:  # noqa: BLE001 - platform/permission dependent
            raise SharedPlaneUnavailable(
                f"cannot create shared memory segment: {exc}"
            ) from exc
        shm.buf[: _HEADER.size] = _HEADER.pack(_MAGIC, stripes, stripe_bytes)
        ctx = multiprocessing.get_context()
        locks = tuple(ctx.Lock() for _ in range(stripes))
        return cls(
            shm, locks, stripes, stripe_bytes,
            owner=True, lock_timeout_s=lock_timeout_s,
        )

    @classmethod
    def attach(
        cls,
        handle: tuple,
        lock_timeout_s: float = _DEFAULT_LOCK_TIMEOUT_S,
    ) -> "SharedProfilePlane":
        """Attach to an existing segment from its :meth:`handle`.

        Restart-safe by construction: the handle carries only the name
        and the stripe locks, and the geometry is read back out of the
        segment header — a worker respawned minutes later attaches with
        the same handle it would have received at first spawn.
        """
        name, locks = handle
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(name=name)
        except Exception as exc:  # noqa: BLE001 - segment may be gone
            raise SharedPlaneUnavailable(
                f"cannot attach shared memory segment {name!r}: {exc}"
            ) from exc
        # Note on the 3.11 resource tracker: attachers register too, but
        # every plane attacher is a descendant of the creator, so all of
        # them share one tracker process whose cache is a *set* — the
        # duplicate registration is idempotent, and the owner's unlink
        # clears the single entry.  Unregistering here instead would
        # strip the owner's registration and turn its unlink into
        # tracker noise.
        magic, stripes, stripe_bytes = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC or stripes != len(locks) or stripe_bytes < 16:
            shm.close()
            raise SharedPlaneUnavailable(
                f"segment {name!r} header does not match handle"
            )
        return cls(
            shm, tuple(locks), stripes, stripe_bytes,
            owner=False, lock_timeout_s=lock_timeout_s,
        )

    def handle(self) -> tuple:
        """Picklable spawn-time handshake: (segment name, stripe locks)."""
        return (self._shm.name, self._locks)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- geometry ----------------------------------------------------------------

    def _stripe_base(self, stripe: int) -> int:
        return _HEADER_SIZE + stripe * self._stripe_bytes

    def _stripe_for(self, key: str) -> int:
        return zlib.crc32(key.encode()) % self._stripes

    def _published(self, stripe: int) -> int:
        (offset,) = _OFFSET.unpack_from(self._view, self._stripe_base(stripe))
        # Clamp a torn offset read; blocks past the real published point
        # fail validation and stop the scan anyway.
        return min(offset, self._stripe_bytes - _OFFSET.size)

    # -- reading (lock-free) -----------------------------------------------------

    def _refresh(self, stripe: int) -> None:
        """Parse blocks published since this process last scanned.

        Callers hold ``self._mutex``.
        """
        base = self._stripe_base(stripe) + _OFFSET.size
        limit = self._published(stripe)
        position = self._scanned[stripe]
        while position < limit:
            header_end = position + _BLOCK.size
            if header_end > limit:
                break
            total_len, crc, key_len = _BLOCK.unpack_from(
                self._view, base + position
            )
            if (
                total_len < _BLOCK.size + key_len
                or position + total_len > limit
                or key_len == 0
            ):
                # Torn-offset artefact or corruption: stop here; a later
                # refresh rereads a clean offset and tries again.
                break
            key_start = base + header_end
            payload_start = key_start + key_len
            payload_len = total_len - _BLOCK.size - key_len
            payload = bytes(
                self._view[payload_start : payload_start + payload_len]
            )
            if zlib.crc32(payload) != crc:
                self._counters["corrupt"] += 1
                break
            key = bytes(self._view[key_start:payload_start]).decode("ascii")
            self._index[key] = (payload_start, payload_len)
            position += total_len
        self._scanned[stripe] = position

    def get(self, key: str) -> Any:
        """The stored value for ``key``, or ``None`` — never blocks."""
        with self._mutex:
            entry = self._index.get(key)
            if entry is None:
                self._refresh(self._stripe_for(key))
                entry = self._index.get(key)
        if entry is None:
            return None
        start, length = entry
        try:
            return pickle.loads(bytes(self._view[start : start + length]))
        except Exception:  # noqa: BLE001 - treat as corruption, not fatal
            with self._mutex:
                self._counters["corrupt"] += 1
                self._index.pop(key, None)
            return None

    def __contains__(self, key: str) -> bool:
        with self._mutex:
            if key in self._index:
                return True
            self._refresh(self._stripe_for(key))
            return key in self._index

    # -- writing (striped locks) -------------------------------------------------

    def put(self, key: str, value: Any) -> str:
        """Publish ``value`` under ``key``; returns the outcome.

        ``"stored"``      — the block is published and visible to every
                            attached process.
        ``"duplicate"``   — some process already published this key;
                            nothing was written.
        ``"unavailable"`` — lock timeout, stripe full, or serialization
                            failure: nothing was written, and the
                            artefact stays with its caller.
        """
        stripe = self._stripe_for(key)
        if key in self:
            with self._mutex:
                self._counters[DUPLICATE] += 1
            return DUPLICATE
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            key_bytes = key.encode("ascii")
        except Exception:  # noqa: BLE001 - unpicklable artefact
            with self._mutex:
                self._counters[UNAVAILABLE] += 1
            return UNAVAILABLE
        if len(key_bytes) >= 2**16:
            with self._mutex:
                self._counters[UNAVAILABLE] += 1
            return UNAVAILABLE
        total_len = _BLOCK.size + len(key_bytes) + len(payload)
        lock = self._locks[stripe]
        if not lock.acquire(timeout=self.lock_timeout_s):
            with self._mutex:
                self._counters[UNAVAILABLE] += 1
            return UNAVAILABLE
        try:
            # The chaos site the degradation ladder exists for: die
            # *while holding the stripe write lock*.
            chaos.exit_point("shm.kill_in_lock", token=key)
            with self._mutex:
                self._refresh(stripe)  # a sibling may have won the race
                if key in self._index:
                    self._counters[DUPLICATE] += 1
                    return DUPLICATE
            base = self._stripe_base(stripe) + _OFFSET.size
            used = self._published(stripe)
            capacity = self._stripe_bytes - _OFFSET.size
            if used + total_len > capacity:
                with self._mutex:
                    self._counters[UNAVAILABLE] += 1
                return UNAVAILABLE
            start = base + used
            _BLOCK.pack_into(
                self._view, start, total_len, zlib.crc32(payload),
                len(key_bytes),
            )
            self._view[
                start + _BLOCK.size : start + _BLOCK.size + len(key_bytes)
            ] = key_bytes
            self._view[
                start + _BLOCK.size + len(key_bytes) : start + total_len
            ] = payload
            # Publish last: a reader either sees the whole block or none
            # of it.
            _OFFSET.pack_into(
                self._view, self._stripe_base(stripe), used + total_len
            )
        except Exception:  # noqa: BLE001 - a torn write stays unpublished
            with self._mutex:
                self._counters[UNAVAILABLE] += 1
            return UNAVAILABLE
        finally:
            lock.release()
        with self._mutex:
            self._index[key] = (
                base + used + _BLOCK.size + len(key_bytes),
                len(payload),
            )
            self._scanned[stripe] = max(
                self._scanned[stripe], used + total_len
            )
            self._counters[STORED] += 1
        return STORED

    # -- accounting --------------------------------------------------------------

    def stats(self) -> dict:
        """Segment occupancy + this process's put/scan outcome totals."""
        used = sum(self._published(s) for s in range(self._stripes))
        with self._mutex:
            counters = dict(self._counters)
        return {
            "keys": len(self._index),
            "bytes_used": used,
            "bytes_capacity": self._stripes
            * (self._stripe_bytes - _OFFSET.size),
            "stripes": self._stripes,
            **counters,
        }

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Detach this process's mapping (and unlink if we created it)."""
        view, self._view = self._view, None
        self._index.clear()
        if view is None:
            return
        try:
            self._shm.close()
        except Exception:  # noqa: BLE001 - already closed is fine
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except Exception:  # noqa: BLE001 - already unlinked is fine
                pass


def reap_stale_segments(
    grace_s: float = DEFAULT_GRACE_S, root: str = "/dev/shm"
) -> int:
    """Unlink plane segments whose creator crashed; returns the count.

    Only names under :data:`SHM_PREFIX` are candidates, and only past
    the shared :func:`repro.cleanup.is_stale` grace window — the same
    rule the sweep-store janitor applies, so neither janitor can claim
    an artifact the other subsystem is still writing.  Live planes keep
    their segment young (creation counts as the last write; any put
    refreshes mtime through the page cache is *not* guaranteed, so the
    window errs long via :data:`~repro.cleanup.DEFAULT_GRACE_S`).
    """
    reaped = 0
    try:
        names = os.listdir(root)
    except OSError:
        return 0
    for name in names:
        if not name.startswith(SHM_PREFIX):
            continue
        path = os.path.join(root, name)
        if not is_stale(path, grace_s):
            continue
        try:
            os.unlink(path)
            reaped += 1
        except OSError:
            continue
    return reaped
