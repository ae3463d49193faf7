"""Deterministic, position-addressable uniform random streams.

Sampling throughout the package is inverse-CDF transform sampling driven by a
counter-based generator (Philox).  A draw is addressed by the triple
``(seed, stream_index, draw_index)``: the value at a given address never
depends on how many draws were made before it, or on how the index range is
partitioned across workers.  That makes parallel Monte-Carlo runs bit-for-bit
reproducible, and it is what lets large fills run in parallel here: each
usable core fills one contiguous chunk of the index range from its own
generator advanced to the chunk's first block, and the result is the same
bits as one sequential fill.

The same split helper runs the other element-wise or row-wise kernels: the
squared-factor transform that follows a fill (``multicert``); the Gaussian
noise rows of ``realistic``, where each core fills its rows, applies the
inverse normal CDF, scales and, in the inner loop, adds the transformed
image, one factor draw per core; and linear scoring by row chunks
(``runtime``).  Each computes every element or row on its own, so the split
never changes a bit.  The noise kernels fill through the private
:meth:`SeededSampler._fill`, the fill that :meth:`SeededSampler.uniforms`
runs per chunk, so both read the same bits at the same address.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["SeededSampler"]

# Philox emits 4 x 64-bit words per counter increment; Generator.random()
# consumes exactly one word per double.
_WORDS_PER_BLOCK = 4

# Keeps every uniform off 0, where quantile(0) sits on the support boundary; an
# image that still underflows to 0 is lifted back by SmoothingDistribution.sample.
_MIN_UNIFORM = 2.0**-64

# Below this many elements a split costs more than it saves.
_SPLIT_MIN = 2**15
# Chunk starts are multiples of 8 doubles: whole Philox blocks, and 64-byte
# boundaries, so vectorised kernels meet every element in the same lane.
_CHUNK_ALIGN = 8

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return 1


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split(kernel: Callable[[int, int], None], size: int, width: int = 1) -> None:
    """Runs ``kernel(lo, hi)`` over a partition of ``range(size)``.

    Each index stands for ``width`` contiguous doubles (1 for a flat buffer,
    the row length for a stack of rows).  One contiguous chunk per usable
    core, each starting on a multiple of 8 doubles.  The calling thread runs
    the first chunk, then, last chunk first, every chunk whose pool task it
    can still cancel (``Future.cancel`` succeeds only before a worker starts
    the task), so a worker that is slow to start (another thread holds its
    core) does not hold the caller up.  Small totals, or one core, run
    inline.  The kernels in use are listed in the module docstring.  A kernel
    must write disjoint slices and call no public smoothcert function or
    method and no base classifier (private helpers such as
    :meth:`SeededSampler._fill` are fine), so that per-call instrumentation
    (such as ``perfbench``'s span tracer, whose span stack is not
    thread-safe) only ever sees the calling thread.  An exception from any
    chunk is raised only once every chunk that started has finished.
    """
    global _pool
    cores = _usable_cores()
    if cores < 2 or size * width < _SPLIT_MIN:
        kernel(0, size)
        return
    align = _CHUNK_ALIGN // math.gcd(_CHUNK_ALIGN, width)
    step = -(-size // (cores * align)) * align
    chunks = [(lo, min(lo + step, size)) for lo in range(step, size, step)]

    # Queued tasks reach the kernel only through this closure's cell, which
    # the finally block clears.
    def run(lo: int, hi: int) -> None:
        kernel(lo, hi)

    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(cores - 1, thread_name_prefix="smoothcert-split")
        pool = _pool
    futures = [pool.submit(run, lo, hi) for lo, hi in chunks]
    try:
        kernel(0, step)
        for future, (lo, hi) in reversed(list(zip(futures, chunks))):
            if future.cancel():
                kernel(lo, hi)
    finally:
        # Tasks still queued have nothing left to run; wait for the others.
        started = [future for future in futures if not future.cancel()]
        wait(started)
        # Pool threads drop their tasks only after this call returns; drop the
        # kernel here so that they do not keep its buffers alive.
        kernel = None
    for future in started:
        future.result()


@dataclass(frozen=True)
class SeededSampler:
    """A value object naming one uniform stream.

    ``seed`` selects the experiment, ``stream_index`` an independent substream
    within it.  Instances hold no mutable state; concurrent use is safe and
    draw-index ranges may be handed to workers in any partition.  Large
    :meth:`uniforms` calls are filled that way, chunk by chunk on pool
    workers, and the partition guarantee makes the result exact.
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
        out = np.empty(count)
        _split(lambda lo, hi: self._fill(out[lo:hi], start + lo), count)
        return out

    def _fill(self, out: np.ndarray, start: int) -> None:
        """Writes the uniforms at draw indices ``start..start+out.size-1`` into ``out``, on this thread.

        ``out`` must be contiguous.  A start inside a Philox block draws and
        drops the block's earlier words, so any start reads the stream's bits.
        """
        block, offset = divmod(start, _WORDS_PER_BLOCK)
        bitgen = np.random.Philox(key=np.array([self.seed, self.stream_index], dtype=np.uint64))
        bitgen.advance(block)
        generator = np.random.Generator(bitgen)
        if offset:
            generator.random(offset)
        generator.random(out=out)
        np.maximum(out, _MIN_UNIFORM, out=out)
