"""Split LAPACK stacks: the same bits and the same failures as one call.
Batch threads: every batch's result, in order, with no stack split and no
nested thread."""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from magnomech import errors
from magnomech.errors import (MIN_CHUNK, EigenSolveError, SingularSolveError,
                              lapack_stack, map_batches, no_failures,
                              split_stack)
from magnomech.measures import _I_OMEGA_2

#: Chunk sizes, on four usable cores, of a stack one short of two chunks,
#: one of exactly two, and one that makes four chunks of unequal sizes.
CHUNKS = {2 * MIN_CHUNK - 1: [2 * MIN_CHUNK - 1],
          2 * MIN_CHUNK: [MIN_CHUNK] * 2,
          4 * MIN_CHUNK + 3: [MIN_CHUNK] + [MIN_CHUNK + 1] * 3}


@pytest.fixture
def four_cores(monkeypatch):
    """Split as on four usable cores, on any machine."""
    monkeypatch.setattr(errors, "_usable_cores", lambda: 4)


def _kernels(n: int) -> dict:
    """Each kernel that goes through split_stack, with stacks of n inputs."""
    rng = np.random.default_rng(n)
    return {
        "drift eigenvalues": (np.linalg.eigvals, rng.standard_normal((n, 6, 6))),
        "PPT spectrum": (np.linalg.eigvals,
                         _I_OMEGA_2 @ rng.standard_normal((n, 4, 4))),
        "Lyapunov solve": (np.linalg.solve, rng.standard_normal((n, 36, 36)),
                           rng.standard_normal((n, 36, 1))),
    }


def _assert_same(split, whole):
    assert split.dtype == whole.dtype
    assert np.array_equal(split, whole)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity masks on this OS")
def test_usable_cores_follow_the_affinity_mask():
    assert errors._usable_cores() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("n", CHUNKS)
def test_split_gives_the_bits_of_one_call(four_cores, n):
    for func, *stacks in _kernels(n).values():
        sizes = []

        def recorded(*chunk, func=func):
            sizes.append(len(chunk[0]))
            return func(*chunk)

        _assert_same(split_stack(recorded, *stacks), func(*stacks))
        assert sorted(sizes) == CHUNKS[n]


@pytest.mark.parametrize("complex_first", [False, True])
def test_real_and_complex_chunks_join_as_one_call(four_cores, complex_first):
    # Symmetric drifts have real spectra, so LAPACK returns that chunk's
    # eigenvalues as float64, the other chunk's as complex128.
    rng = np.random.default_rng(3)
    real = rng.standard_normal((MIN_CHUNK, 6, 6))
    real = real + real.swapaxes(-1, -2)
    rotating = rng.standard_normal((MIN_CHUNK, 6, 6))
    rotating[:, 0, 1], rotating[:, 1, 0] = 5.0, -5.0
    chunks = [rotating, real] if complex_first else [real, rotating]
    assert np.linalg.eigvals(real).dtype == np.float64
    assert np.linalg.eigvals(rotating).dtype == np.complex128
    stack = np.concatenate(chunks)
    _assert_same(split_stack(np.linalg.eigvals, stack), np.linalg.eigvals(stack))
    _assert_same(split_stack(np.linalg.eigvals, np.concatenate([real, real])),
                 np.linalg.eigvals(np.concatenate([real, real])))


def _failures_of(monkeypatch, cores, func, stacks, out, error, what):
    monkeypatch.setattr(errors, "_usable_cores", lambda: cores)
    failures = no_failures(len(stacks[0]))
    result = lapack_stack(func, stacks, out.copy(), failures,
                          np.arange(len(stacks[0])), error, what)
    return result, [None if f is None else (type(f), f.args) for f in failures]


@pytest.mark.parametrize("bad", [0, MIN_CHUNK - 1, 3 * MIN_CHUNK + 2])
def test_a_failing_chunk_fails_its_points_as_one_call(monkeypatch, bad):
    n = 4 * MIN_CHUNK + 3
    rng = np.random.default_rng(5)
    drifts = rng.standard_normal((n, 6, 6))
    drifts[bad, 2, 3] = np.nan  # LAPACK rejects this chunk
    lhs, rhs = rng.standard_normal((n, 36, 36)), rng.standard_normal((n, 36, 1))
    lhs[bad] = 0.0  # singular
    cases = [(np.linalg.eigvals, (drifts,), np.zeros((n, 6), complex),
              EigenSolveError, "eigenvalue computation failed"),
             (np.linalg.solve, (lhs, rhs), np.zeros((n, 36, 1)),
              SingularSolveError, "vectorized Lyapunov solve failed")]
    for func, stacks, out, error, what in cases:
        whole, whole_failures = _failures_of(monkeypatch, 1, func, stacks, out,
                                             error, what)
        split, split_failures = _failures_of(monkeypatch, 4, func, stacks, out,
                                             error, what)
        assert split_failures == whole_failures
        assert [k for k, f in enumerate(split_failures) if f] == [bad]
        assert split_failures[bad][0] is error
        assert split_failures[bad][1][0].startswith(what + ": ")
        _assert_same(split, whole)


def test_a_failing_chunk_is_raised(four_cores):
    lhs = np.tile(np.eye(36), (2 * MIN_CHUNK, 1, 1))
    lhs[-1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        split_stack(np.linalg.solve, lhs, np.ones((2 * MIN_CHUNK, 36, 1)))


def test_split_chunks_keep_the_callers_errstate(four_cores):
    # NumPy 2 keeps errstate in a context variable, which a pool thread
    # does not inherit: each chunk runs in a copy of the caller's context.
    sub = np.zeros((4 * MIN_CHUNK, 4, 4))
    sub[:, range(4), range(4)] = 1e100  # det V = 1e400 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            dets = split_stack(np.linalg.det, sub)
    assert np.isinf(dets).all()



def test_concurrent_callers_share_one_pool(four_cores, monkeypatch):
    # More calling threads than cores, each splitting its own stack, while
    # the first splits race to make the pool.
    monkeypatch.setattr(errors, "_pool", None)
    stacks = [np.random.default_rng(seed).standard_normal((2 * MIN_CHUNK, 6, 6))
              for seed in range(8)]
    results = [None] * len(stacks)
    pools = set()

    def work(i):
        for _ in range(5):
            results[i] = split_stack(np.linalg.eigvals, stacks[i])
            pools.add(id(errors._pool))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(stacks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(pools) == 1
    for stack, result in zip(stacks, results):
        _assert_same(result, np.linalg.eigvals(stack))


def record_submissions(monkeypatch) -> list:
    """The arguments of each task submitted to the thread pool: a batch
    thread's are its one loop, a split chunk's the function and its
    stacks."""
    submitted = []
    pool = errors._thread_pool()

    class Recording:
        def submit(self, fn, *args):
            submitted.append(args)
            return pool.submit(fn, *args)
    monkeypatch.setattr(errors, "_thread_pool", Recording)
    return submitted


def threads_at(monkeypatch, threads: int) -> None:
    """Make map_batches run ``threads`` threads, on any machine."""
    monkeypatch.setattr(errors, "_usable_cores", lambda: threads)
    monkeypatch.setattr(errors, "BATCH_THREADS", max(threads, 2))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_batches_come_back_in_order(threads, monkeypatch):
    threads_at(monkeypatch, threads)
    submitted = record_submissions(monkeypatch)
    assert map_batches(lambda k: k * k, list(range(12))) == [
        k * k for k in range(12)]
    assert len(submitted) == threads - 1  # the helper loops


def test_batch_threads_never_split(four_cores, monkeypatch):
    monkeypatch.setattr(errors, "BATCH_THREADS", 4)
    submitted = record_submissions(monkeypatch)
    stack = np.random.default_rng(7).standard_normal((2 * MIN_CHUNK, 6, 6))

    def func(stack):
        time.sleep(0.002)
        return split_stack(np.linalg.eigvals, stack)
    for result in map_batches(func, [stack] * 8):
        _assert_same(result, np.linalg.eigvals(stack))
    assert [len(args) for args in submitted] == [1] * 3  # the helper loops
    # A lone batch is a plain call, and its stack splits.
    submitted.clear()
    [result] = map_batches(func, [stack])
    _assert_same(result, np.linalg.eigvals(stack))
    assert [len(args) for args in submitted] == [2]


def test_a_batch_thread_maps_serially(monkeypatch):
    # A nested call runs its items on its own batch's thread, in order: on
    # a pool thread it could queue behind its own batch.
    threads_at(monkeypatch, 2)
    submitted = record_submissions(monkeypatch)
    both = threading.Barrier(2, timeout=30)

    def outer(k):
        both.wait()  # the caller takes one batch and the helper the other
        return map_batches(lambda j: (k, j, threading.get_ident()), range(3))
    results = map_batches(outer, [0, 1])
    assert len(submitted) == 1  # the outer helper loop, nothing nested
    assert [[item[:2] for item in result] for result in results] == [
        [(k, j) for j in range(3)] for k in range(2)]
    idents = [{item[2] for item in result} for result in results]
    assert all(len(ident) == 1 for ident in idents)
    assert idents[0] != idents[1]


def test_a_forked_child_maps_serially(monkeypatch):
    # A forked child's copy of the pool has no threads to run a helper.
    threads_at(monkeypatch, 2)
    monkeypatch.setattr(errors, "_forked", True)
    submitted = record_submissions(monkeypatch)
    caller = threading.get_ident()
    assert map_batches(lambda k: (k, threading.get_ident()), list(range(4))) \
        == [(k, caller) for k in range(4)]
    assert submitted == []


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_an_error_stops_the_hand_out(threads, monkeypatch):
    # Batch 4 fails at once while the others take 50 ms: batches already
    # handed out finish, no later one starts, and no thread runs on.
    threads_at(monkeypatch, threads)
    bad, error = 4, EigenSolveError("injected")
    lock = threading.Lock()
    started, running = [], [0]

    def func(k):
        with lock:
            started.append(k)
            running[0] += 1
        try:
            if k == bad:
                raise error
            time.sleep(0.05)
            return k
        finally:
            with lock:
                running[0] -= 1
    with pytest.raises(EigenSolveError) as info:
        map_batches(func, list(range(12)))
    assert info.value is error
    assert running == [0]
    assert sorted(started) == list(range(len(started)))
    assert bad in started and max(started) < bad + threads
    count = len(started)
    time.sleep(0.1)
    assert len(started) == count


def test_batch_threads_keep_the_callers_errstate(monkeypatch):
    # Each of the two batches waits for the other: the caller runs one and
    # the helper the other, on any number of CPUs.
    threads_at(monkeypatch, 2)
    both = threading.Barrier(2, timeout=30)
    ran = set()

    def overflow(scale):
        both.wait()
        ran.add(threading.get_ident())
        return np.float64(1e300) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            results = map_batches(overflow, [np.float64(1e10)] * 2)
    assert np.isinf(results).all()
    assert len(ran) == 2
