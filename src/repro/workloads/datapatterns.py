"""Write data-pattern generation (feeds Figs. 9 and 14).

What the write path needs from "data" is only which cells flip, and in
which direction — the RESET/SET masks after Flip-N-Write.  Real
programs update a few dirty words per line with a handful of changed
bits each, which is why most of a line's 64 MATs see no RESET at all in
a write while a few see 1-3 (Fig. 9).

The generator draws, per write, a number of dirty 32-bit words
(geometric, matched to the benchmark's mean changed-cell fraction) and
flips each dirty word's bits with an in-word change probability; each
changed bit becomes a RESET or a SET with equal probability (steady
state of Flip-N-Write keeps the 0->1 / 1->0 flows balanced).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PatternParams", "WritePatternGenerator"]


@dataclass(frozen=True)
class PatternParams:
    """Per-benchmark write-pattern statistics."""

    changed_fraction: float = 0.10  # mean fraction of line cells changed
    word_bits: int = 32
    in_word_change: float = 0.4  # P(bit flips | its word is dirty)

    def __post_init__(self) -> None:
        if not 0.0 < self.changed_fraction <= 1.0:
            raise ValueError(
                f"changed fraction must be in (0, 1], got {self.changed_fraction}"
            )
        if not 0.0 < self.in_word_change <= 1.0:
            raise ValueError(
                f"in-word change must be in (0, 1], got {self.in_word_change}"
            )
        if self.word_bits < 1:
            raise ValueError(f"word size must be >= 1, got {self.word_bits}")


class WritePatternGenerator:
    """Draws (RESET mask, SET mask) pairs for line writes.

    All randomness lives in the instance's own generator, seeded
    explicitly at construction (no module-level RNG): identical
    (params, line_bits, seed) triples reproduce identical mask
    sequences, which is what makes repeated ``fig09``/``fig14`` runs
    bit-identical.  The seed may also be a ready-made
    :class:`numpy.random.Generator` (e.g. from
    :meth:`repro.engine.context.RunContext.rng`).
    """

    def __init__(
        self,
        params: PatternParams,
        line_bits: int = 512,
        seed: "int | np.random.Generator" = 0,
    ) -> None:
        if line_bits % params.word_bits:
            raise ValueError(
                f"word size {params.word_bits} must divide line size {line_bits}"
            )
        self.params = params
        self.line_bits = line_bits
        self.words = line_bits // params.word_bits
        self._rng = np.random.default_rng(seed)
        # Mean dirty words so that E[changed bits] matches the target:
        # changed_fraction * line_bits = dirty_words * word_bits * in_word.
        target_bits = params.changed_fraction * line_bits
        self._mean_dirty_words = max(
            1.0, target_bits / (params.word_bits * params.in_word_change)
        )

    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """One write's (RESET, SET) cell masks, each ``line_bits`` long."""
        resets, sets = self.masks_many(1)
        return resets[0], sets[0]

    def masks_many(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """``count`` writes' (RESET, SET) masks, each ``(count, line_bits)`` bool.

        Per write the generator draws, in order: the dirty-word count
        (geometric), the dirty words (a choice without replacement),
        each dirty word's flips in word order, then every cell's
        RESET-or-SET direction.  The flips and directions are
        consecutive uniforms, so they come from one ``random`` call.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        params = self.params
        geometric = self._rng.geometric
        choice = self._rng.choice
        random = self._rng.random
        dirty_p = 1.0 / self._mean_dirty_words
        words, word_bits = self.words, params.word_bits
        changed = np.zeros((count, self.line_bits), dtype=bool)
        resets = np.empty((count, self.line_bits), dtype=bool)
        cells = changed.reshape(count, words, word_bits)
        for row in range(count):
            dirty = min(words, geometric(dirty_p))
            dirty_words = choice(words, size=dirty, replace=False)
            uniforms = random(dirty * word_bits + self.line_bits)
            flips = uniforms[: dirty * word_bits].reshape(dirty, word_bits)
            cells[row, dirty_words] = flips < params.in_word_change
            np.less(uniforms[dirty * word_bits :], 0.5, out=resets[row])
        # ``resets`` holds the directions until here; a changed cell is a
        # RESET in direction 1 and a SET otherwise.
        resets &= changed
        changed ^= resets
        return resets, changed

    def mean_changed_bits(self, samples: int = 200) -> float:
        """Empirical mean changed cells per write (for calibration tests)."""
        resets, sets = self.masks_many(samples)
        return int(resets.sum() + sets.sum()) / samples
