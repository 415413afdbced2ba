"""Declarative infrastructure chaos policy.

:class:`ChaosPolicy` is to the serving infrastructure what
:class:`~repro.faults.model.FaultModel` is to the array devices: a
frozen, picklable description of a *failure distribution* that can be
keyed, shipped to worker processes, and replayed.  Each injection site
(worker kill, future drop/delay, cache corruption, shared-plane lock kill)
carries a rate; whether a particular event fires is a pure function of
``(seed, site, token)``, so the same policy against the same request
stream produces the same failures — chaos runs are test cases, not
dice rolls.

Policies serialise to a compact ``key=value,...`` spec string
(``"seed=7,kill_worker_rate=0.5"``) so a chaos scenario fits on a CLI
flag (``python -m repro serve --chaos SPEC``) or in a CI job
definition and can be replayed verbatim.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

__all__ = ["ChaosPolicy"]

#: Injection site -> the policy field holding its firing rate.
SITE_RATES = {
    "worker.kill": "kill_worker_rate",
    "future.drop": "drop_future_rate",
    "future.delay": "delay_future_rate",
    "cache.corrupt": "corrupt_cache_rate",
    "shm.kill_in_lock": "kill_in_lock_rate",
}


@dataclass(frozen=True)
class ChaosPolicy:
    """One seeded, replayable infrastructure failure distribution.

    Attributes
    ----------
    seed:
        Base seed for every firing decision (mixed per site and token).
    kill_worker_rate:
        Probability that one (plan, attempt) execution kills its worker
        process mid-solve (``os._exit`` after ``kill_delay_ms``; a zero
        delay exits immediately, before the plan runs at all).  Tokens
        include the attempt number, so a resubmitted plan draws a
        fresh decision and the system can converge unless the rate
        is 1.0.
    drop_future_rate:
        Probability that a completed compute future is failed with a
        :class:`~repro.chaos.ChaosError` instead of its result.
    delay_future_rate / delay_future_ms:
        Probability/duration of holding a completed future's resolution.
    corrupt_cache_rate:
        Probability that a ``.repro_cache`` entry is bit-flipped on the
        read path *before* the envelope check runs — exercising the
        quarantine-and-recompute machinery under live traffic.
    kill_in_lock_rate:
        Probability that a worker publishing a profile block to the
        shared-memory data plane ``os._exit``\\ s *while holding the
        stripe write lock* — the nastiest crash the plane must survive
        (that stripe's lock is never released; writers degrade to the
        ship-back path, readers are unaffected).
    """

    seed: int = 0
    kill_worker_rate: float = 0.0
    kill_delay_ms: float = 5.0
    drop_future_rate: float = 0.0
    delay_future_rate: float = 0.0
    delay_future_ms: float = 25.0
    corrupt_cache_rate: float = 0.0
    kill_in_lock_rate: float = 0.0

    def __post_init__(self) -> None:
        for site, field in SITE_RATES.items():
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{field} must be in [0, 1], got {rate} (site {site})"
                )
        for field in ("kill_delay_ms", "delay_future_ms"):
            ms = getattr(self, field)
            if ms < 0:
                raise ValueError(f"{field} must be >= 0, got {ms}")

    # -- deterministic decisions -------------------------------------------------

    def draw(self, site: str, token: object) -> float:
        """A uniform [0, 1) draw, pure in ``(seed, site, token)``.

        Hashing (not ``random``) keeps the decision identical across
        processes, platforms and interpreter runs — a worker process
        and its supervisor agree on every event without coordination.
        """
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{token!r}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def rate(self, site: str) -> float:
        try:
            return getattr(self, SITE_RATES[site])
        except KeyError:
            raise ValueError(f"unknown chaos site {site!r}") from None

    def fires(self, site: str, token: object) -> bool:
        """Whether the event at ``(site, token)`` fires under this policy."""
        rate = self.rate(site)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self.draw(site, token) < rate

    @property
    def is_null(self) -> bool:
        """True when no site can ever fire."""
        return all(getattr(self, field) == 0.0 for field in SITE_RATES.values())

    # -- spec round-trip ---------------------------------------------------------

    def spec(self) -> str:
        """Compact ``key=value,...`` rendering (non-default fields only)."""
        parts = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                parts.append(f"{field.name}={value:g}"
                             if isinstance(value, float)
                             else f"{field.name}={value}")
        return ",".join(parts) or "seed=0"

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Parse a ``key=value,...`` spec string (inverse of :meth:`spec`)."""
        known = {field.name: field.type for field in dataclasses.fields(cls)}
        kwargs: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, raw = part.partition("=")
            name = name.strip()
            if not sep or name not in known:
                raise ValueError(
                    f"bad chaos spec field {part!r}; known fields: "
                    + ", ".join(sorted(known))
                )
            try:
                kwargs[name] = int(raw) if name == "seed" else float(raw)
            except ValueError:
                raise ValueError(
                    f"bad chaos spec value {raw!r} for {name}"
                ) from None
        return cls(**kwargs)
