"""Chunked fills of the uniform stream: partition exactness, the split helper,
fork safety.

Large ``SeededSampler.uniforms`` calls and the squared-factor transform run in
one chunk per usable core.  These tests pin the result against one sequential
Philox stream and exercise the helper directly; they use no golden values.
"""

import hashlib
import multiprocessing
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from queue import Empty

import numpy as np
import pytest

from smoothcert import RayleighParams, rng
from smoothcert.multicert import _exp_squares
from smoothcert.rng import _CHUNK_ALIGN, _MIN_UNIFORM, _SPLIT_MIN, SeededSampler, _split

SIGMA = RayleighParams.unit_median().sigma
COUNTS = [_SPLIT_MIN - 1, _SPLIT_MIN, _SPLIT_MIN + 1, _SPLIT_MIN + 3]
STARTS = [0, 1, 2, 3, 5, 4094]


def sequential_reference(sampler: SeededSampler, count: int, start: int) -> np.ndarray:
    """One Philox stream from draw 0, sliced: the definition of the stream."""
    key = np.array([sampler.seed, sampler.stream_index], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(start + count)[start:]
    return np.maximum(u, _MIN_UNIFORM)


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.fixture
def cores(monkeypatch):
    """Sets the core count the split helper sees."""

    def set_cores(count: int) -> None:
        monkeypatch.setattr(rng, "_usable_cores", lambda: count)

    return set_cores


class TestPartitionExactness:
    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("count", COUNTS)
    def test_equals_one_sequential_stream(self, count, start):
        sampler = SeededSampler(31, 4)
        u = sampler.uniforms(count, start)
        assert u.shape == (count,) and u.dtype == np.float64
        assert np.array_equal(u, sequential_reference(sampler, count, start))
        for k in (1, 7, 8, count // 2, count - 1):
            head = sampler.uniforms(k, start)
            tail = sampler.uniforms(count - k, start + k)
            assert np.array_equal(u, np.concatenate([head, tail]))

    @pytest.mark.parametrize("count, start", [(2**17 + 3, 5), (_SPLIT_MIN + 1, 2**40 + 7)])
    def test_core_count_does_not_change_bytes(self, cores, count, start):
        sampler = SeededSampler(8, 1)
        split = digest(sampler.uniforms(count, start))
        squares = digest(_exp_squares(SIGMA, 2, count, sampler))
        for count_of_cores in (1, 3, 4):
            cores(count_of_cores)
            assert digest(sampler.uniforms(count, start)) == split
            assert digest(_exp_squares(SIGMA, 2, count, sampler)) == squares


class TestSharedFill:
    """The private fill that pool workers call reads the same bits as ``uniforms``."""

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4097, 2**40 + 6])
    @pytest.mark.parametrize("count", [1, 7, 13, 1001, _SPLIT_MIN + 3])
    def test_equals_uniforms_at_any_start(self, count, start):
        sampler = SeededSampler(12, 5)
        out = np.empty(count)
        sampler._fill(out, start)
        assert out.tobytes() == sampler.uniforms(count, start).tobytes()
        if start < 2**20:
            assert np.array_equal(out, sequential_reference(sampler, count, start))


class TestSplitHelper:
    @pytest.mark.parametrize("count_of_cores", [1, 2, 3])
    @pytest.mark.parametrize("size", [0, 1, _SPLIT_MIN - 1, _SPLIT_MIN, _SPLIT_MIN + 1])
    def test_covers_range_exactly_once(self, cores, count_of_cores, size):
        cores(count_of_cores)
        chunks = []
        lock = threading.Lock()

        def kernel(lo, hi):
            with lock:
                chunks.append((lo, hi))

        _split(kernel, size)
        chunks.sort()
        assert len(chunks) <= count_of_cores
        assert chunks[0][0] == 0 and chunks[-1][1] == size
        for (_, hi), (lo, _) in zip(chunks, chunks[1:]):
            assert hi == lo
        assert all(lo % _CHUNK_ALIGN == 0 for lo, _ in chunks)
        if size < _SPLIT_MIN:
            assert chunks == [(0, size)]

    @pytest.mark.parametrize(
        "size, width, expected",
        [
            (50, 3072, [(0, 25), (25, 50)]),  # every row starts on 8 doubles
            (3001, 12, [(0, 1502), (1502, 3001)]),  # rows of 12: chunks start on even rows
            (50, 655, [(0, 50)]),  # 32,750 doubles: below the split size
            (_SPLIT_MIN // 4, 4, [(0, _SPLIT_MIN // 8), (_SPLIT_MIN // 8, _SPLIT_MIN // 4)]),
        ],
    )
    def test_width_counts_doubles_per_index(self, cores, size, width, expected):
        cores(2)
        chunks = []
        lock = threading.Lock()

        def kernel(lo, hi):
            with lock:
                chunks.append((lo, hi))

        _split(kernel, size, width)
        assert sorted(chunks) == expected

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_exception_waits_for_every_started_chunk(self, cores, failing):
        cores(2)
        worker_started = threading.Event()
        finished = []

        def kernel(lo, hi):
            if lo == 0:
                # hold the caller's chunk until a worker has taken the other one
                assert worker_started.wait(timeout=10)
                if failing == "caller":
                    raise RuntimeError("caller chunk")
                return
            worker_started.set()
            time.sleep(0.2)
            finished.append(lo)
            if failing == "worker":
                raise RuntimeError("worker chunk")

        with pytest.raises(RuntimeError, match=f"{failing} chunk"):
            _split(kernel, _SPLIT_MIN)
        assert finished == [_SPLIT_MIN // 2]

    def test_caller_runs_chunks_a_busy_pool_has_not_started(self, cores, monkeypatch):
        cores(2)
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(rng, "_pool", pool)
        release = threading.Event()
        blocker = pool.submit(release.wait, 10)
        try:
            ran = []

            def kernel(lo, hi):
                ran.append((lo, hi, threading.get_ident()))

            _split(kernel, _SPLIT_MIN)
            half = _SPLIT_MIN // 2
            assert sorted(r[:2] for r in ran) == [(0, half), (half, _SPLIT_MIN)]
            assert {r[2] for r in ran} == {threading.get_ident()}
            # the task still queued behind the blocker must not keep the kernel,
            # and with it the caller's buffers, alive
            kernel_ref = weakref.ref(kernel)
            del kernel
            assert kernel_ref() is None
        finally:
            release.set()
            blocker.result(timeout=10)
            pool.shutdown()


def _child_digest(queue) -> None:
    queue.put(digest(SeededSampler(4, 2).uniforms(100_000)))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_child_fills_after_parent_split(cores):
    cores(2)
    expected = digest(SeededSampler(4, 2).uniforms(100_000))  # leaves a live pool behind
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_digest, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=30)
    except Empty:
        got = None
    child.join(timeout=5)
    if child.is_alive():
        child.kill()
        child.join()
    assert got == expected, "forked child did not finish its first split fill within 30 s"
    assert child.exitcode == 0
