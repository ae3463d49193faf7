"""Deterministic, position-addressable uniform random streams.

Sampling throughout the package is inverse-CDF transform sampling driven by a
counter-based generator (Philox).  A draw is addressed by the triple
``(seed, stream_index, draw_index)``: the value at a given address never
depends on how many draws were made before it, or on how the index range is
partitioned across workers.  That makes parallel Monte-Carlo runs bit-for-bit
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SeededSampler"]

# Philox emits 4 x 64-bit words per counter increment; Generator.random()
# consumes exactly one word per double.
_WORDS_PER_BLOCK = 4

# Keeps inverse-CDF images strictly inside positive supports (quantile(0) can
# sit on the support boundary).
_MIN_UNIFORM = 2.0**-64


@dataclass(frozen=True)
class SeededSampler:
    """A value object naming one uniform stream.

    ``seed`` selects the experiment, ``stream_index`` an independent substream
    within it.  Instances hold no mutable state; concurrent use is safe and
    draw-index ranges may be handed to workers in any partition.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.stream_index < 0:
            raise ValueError(f"stream_index must be nonnegative, got {self.stream_index}")

    def stream(self, stream_index: int) -> "SeededSampler":
        """Sampler for a sibling stream under the same seed."""
        return SeededSampler(self.seed, stream_index)

    def uniforms(self, count: int, start: int = 0) -> np.ndarray:
        """Draws ``count`` uniforms in (0, 1) at draw indices ``start..start+count-1``.

        The stream is addressed by absolute draw index: ``uniforms(n)`` equals
        the concatenation of ``uniforms(k, 0)`` and ``uniforms(n - k, k)`` for
        any split point ``k``.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if start < 0:
            raise ValueError(f"start must be nonnegative, got {start}")
        block, offset = divmod(start, _WORDS_PER_BLOCK)
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        bitgen = np.random.Philox(key=key)
        bitgen.advance(block)
        u = np.random.Generator(bitgen).random(offset + count)[offset:]
        return np.maximum(u, _MIN_UNIFORM, out=u)
