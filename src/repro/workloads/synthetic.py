"""Synthetic address-stream generation.

SPEC-CPU2006 / BioBench traces cannot be redistributed, so each
benchmark is replaced by a parameterised stochastic stream that matches
the properties the evaluation depends on: the L2-level RPKI/WPKI of
Table IV, the working-set size (which sets the DRAM-L3 miss rate), the
skew of the line-popularity distribution, and the spatial run length of
consecutive accesses.

The popularity model is a truncated discrete Pareto ("Zipf-like") over
the working set: rank r is accessed with probability proportional to
``1 / (r + q) ** alpha``.  ``hotness_rank`` exposes each line's
popularity percentile, which SCH scheduling consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import MemoryAccess, Trace

__all__ = ["StreamParams", "SyntheticStream"]


@dataclass(frozen=True)
class StreamParams:
    """Knobs of one core's synthetic access stream."""

    rpki: float  # L2-miss reads per kilo-instruction
    wpki: float  # L2 writebacks per kilo-instruction
    working_set_lines: int = 1 << 20  # 64 MB at 64B lines
    zipf_alpha: float = 0.9  # popularity skew (0 = uniform)
    run_length: float = 4.0  # mean sequential-line run
    address_base: int = 0  # start of this stream's address region

    def __post_init__(self) -> None:
        if self.rpki < 0 or self.wpki < 0:
            raise ValueError("RPKI/WPKI must be >= 0")
        if self.rpki + self.wpki <= 0:
            raise ValueError("the stream must produce some accesses")
        if self.working_set_lines < 1:
            raise ValueError("working set must hold at least one line")
        if self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be >= 0")
        if self.run_length < 1:
            raise ValueError("mean run length must be >= 1")


class SyntheticStream:
    """Reproducible per-core access stream.

    Every random draw comes from the instance's own generator, seeded
    explicitly at construction — there is no module-level RNG, so two
    streams built with the same (params, seed) are bit-identical.  The
    engine's :meth:`repro.engine.context.RunContext.seed_for` derives
    per-driver seeds; pass a :class:`numpy.random.Generator` directly to
    hand over an externally managed stream.
    """

    LINE_BYTES = 64

    _PERM_MULTIPLIER = 0x9E3779B1  # odd -> bijective modulo any even size

    def __init__(
        self, params: StreamParams, seed: "int | np.random.Generator" = 0
    ) -> None:
        self.params = params
        self._rng = np.random.default_rng(seed)
        self._mpki = params.rpki + params.wpki
        self._write_probability = params.wpki / self._mpki
        # Truncated-Pareto popularity with an analytic inverse CDF: no
        # per-line tables, so multi-GB working sets cost no memory.
        self._n = params.working_set_lines
        self._q = 2.0
        alpha = params.zipf_alpha
        if abs(alpha - 1.0) < 1e-9:
            self._log_base = np.log((self._n + self._q) / self._q)
        else:
            power = 1.0 - alpha
            self._pow_lo = self._q**power
            self._pow_hi = (self._n + self._q) ** power
        # A fixed multiplicative permutation scatters popularity ranks
        # over the region as in real heaps (bijective: the multiplier is
        # odd and working sets have an even number of lines).
        mult = self._PERM_MULTIPLIER
        self._mult = mult if int(np.gcd(mult, self._n)) == 1 else 1
        self._mult_inv = pow(self._mult, -1, self._n) if self._n > 1 else 1
        self._run_remaining = 0
        self._run_line = 0

    # -- popularity -------------------------------------------------------------

    def hotness_ranks(self, addresses) -> np.ndarray:
        """Popularity percentile of each address's line: 0.0 = hottest."""
        addresses = np.asarray(addresses, dtype=np.int64)
        line = (addresses - self.params.address_base) // self.LINE_BYTES
        line %= self._n
        # line, _mult_inv < n: the product fits uint64 below 2**32 lines;
        # larger working sets multiply exactly as Python ints.
        wide = np.uint64 if self._n <= 1 << 32 else object
        rank = (line.astype(wide) * self._mult_inv) % self._n
        return rank.astype(np.float64) / self._n

    def hotness_rank(self, address: int) -> float:
        """:meth:`hotness_ranks` of one address."""
        return float(self.hotness_ranks([address])[0])

    # -- generation ----------------------------------------------------------------

    def draw(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``count`` accesses as ``(gaps, addresses, writes)``.

        ``gaps`` (instructions retired before each access) and
        ``addresses`` are int64, ``writes`` is bool.  Per access the
        generator draws, in order: the instruction gap (geometric); when
        a sequential run starts, the run length (geometric, only for a
        mean run above one line) and the popularity rank (uniform); then
        the read/write choice (uniform).  The stream is one sequence, so
        any split of it into ``draw`` calls yields the same accesses.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        params = self.params
        geometric = self._rng.geometric
        random = self._rng.random
        gap_p = self._mpki / 1000.0
        run_p = 1.0 / params.run_length if params.run_length > 1.0 else 0.0
        n, q, mult = self._n, self._q, self._mult
        # The rank arithmetic stays scalar: a vectorised power or exp may
        # differ in the last bit and move ``int(rank)``.
        alpha = params.zipf_alpha
        log_base = self._log_base if abs(alpha - 1.0) < 1e-9 else None
        if log_base is None:
            pow_lo, pow_span = self._pow_lo, self._pow_hi - self._pow_lo
            exponent = 1.0 / (1.0 - alpha)
        remaining, line = self._run_remaining, self._run_line
        gaps, lines, write_draws = [], [], []
        for _ in range(count):
            gaps.append(geometric(gap_p))
            if remaining > 0:
                remaining -= 1
                line = (line + 1) % n
            else:
                if run_p:
                    remaining = geometric(run_p) - 1
                u = random()
                if log_base is not None:
                    rank = q * np.exp(u * log_base) - q
                else:
                    rank = (pow_lo + u * pow_span) ** exponent - q
                line = (min(n - 1, max(0, int(rank))) * mult) % n
            lines.append(line)
            write_draws.append(random())
        self._run_remaining, self._run_line = remaining, line
        addresses = np.array(lines, dtype=np.int64)
        addresses *= self.LINE_BYTES
        addresses += params.address_base
        return (
            np.array(gaps, dtype=np.int64),
            addresses,
            np.array(write_draws) < self._write_probability,
        )

    def next_access(self) -> MemoryAccess:
        """Generate the next access of the stream (:meth:`draw` of one)."""
        gaps, addresses, writes = self.draw(1)
        return MemoryAccess(
            gap_instructions=int(gaps[0]),
            is_write=bool(writes[0]),
            address=int(addresses[0]),
        )

    def take(self, count: int) -> Trace:
        """Materialise ``count`` accesses as a replayable trace."""
        gaps, addresses, writes = self.draw(count)
        return Trace(
            MemoryAccess(gap_instructions=gap, is_write=write, address=address)
            for gap, address, write in zip(
                gaps.tolist(), addresses.tolist(), writes.tolist()
            )
        )
