"""The grace-window staleness rule for crash debris.

The sweep store quarantines orphaned shard and manifest files
(:meth:`repro.sweepstore.store.SweepStore._stale`), including on a
service drain that flushes a ``--sweep-dir`` spill.  It must never reap
a file a live writer is still mid-write on.

The rule: a file is stale only once its mtime is at least ``grace_s``
seconds old.  Any in-flight write refreshes mtime, so a live producer
keeps its artifacts young; a crashed producer's debris ages past the
window and becomes collectable.  A vanished file (or any other
``OSError`` on stat) is *not* stale — someone else already owns its
cleanup.
"""

from __future__ import annotations

import os
import time

__all__ = ["DEFAULT_GRACE_S", "is_stale"]

#: Default janitor grace window, seconds.  Long enough that no healthy
#: writer holds an artifact mid-write this long; short enough that
#: crash debris is reclaimed on the next drain.
DEFAULT_GRACE_S = 60.0


def is_stale(
    path: "os.PathLike | str",
    grace_s: float = DEFAULT_GRACE_S,
    now: "float | None" = None,
) -> bool:
    """True when ``path``'s mtime is at least ``grace_s`` seconds old.

    ``now`` overrides the clock for tests.  Returns ``False`` when the
    file cannot be stat'ed (already removed, permission race): a janitor
    must never claim an artifact it cannot even observe.
    """
    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return False
    reference = time.time() if now is None else now
    return reference - mtime >= grace_s
