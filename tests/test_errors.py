"""LAPACK stacks: a rejected point fails alone, the others keep the bits of
one call. Batch threads: every batch's result, in order."""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from magnomech import errors
from magnomech.errors import (EigenSolveError, SingularSolveError,
                              lapack_stack, map_batches, no_failures)


def _assert_same(result, whole):
    assert result.dtype == whole.dtype
    assert np.array_equal(result, whole)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity masks on this OS")
def test_usable_cores_follow_the_affinity_mask():
    assert errors._usable_cores() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("bad", [0, 255, 770])
def test_a_failing_chunk_fails_its_points_as_one_call(bad):
    # LAPACK rejects the whole stack for one bad point: that point fails
    # alone, and every other point keeps the bits of one call without it.
    n = 1027
    rng = np.random.default_rng(5)
    drifts = rng.standard_normal((n, 6, 6))
    drifts[bad, 2, 3] = np.nan
    lhs, rhs = rng.standard_normal((n, 36, 36)), rng.standard_normal((n, 36, 1))
    lhs[bad] = 0.0  # singular
    good = np.arange(n) != bad
    cases = [(np.linalg.eigvals, (drifts,), np.zeros((n, 6), complex),
              EigenSolveError, "eigenvalue computation failed"),
             (np.linalg.solve, (lhs, rhs), np.zeros((n, 36, 1)),
              SingularSolveError, "vectorized Lyapunov solve failed")]
    for func, stacks, out, error, what in cases:
        with pytest.raises(np.linalg.LinAlgError):
            func(*stacks)
        failures = no_failures(n)
        result = lapack_stack(func, stacks, out, failures, np.arange(n),
                              error, what)
        assert [k for k, f in enumerate(failures) if f is not None] == [bad]
        assert type(failures[bad]) is error
        assert failures[bad].args[0].startswith(what + ": ")
        _assert_same(result[good], func(*(stack[good] for stack in stacks)))


def record_submissions(monkeypatch) -> list:
    """The arguments of each task submitted to the thread pool: a batch
    thread's are its one loop."""
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


def test_concurrent_callers_share_one_pool(monkeypatch):
    # More calling threads than cores, each mapping its own stack's halves
    # over two threads, while the first maps race to make the pool.
    threads_at(monkeypatch, 2)
    monkeypatch.setattr(errors, "_pool", None)
    stacks = [np.random.default_rng(seed).standard_normal((64, 6, 6))
              for seed in range(8)]
    results = [None] * len(stacks)
    pools = set()

    def work(i):
        for _ in range(5):
            results[i] = map_batches(np.linalg.eigvals,
                                     [stacks[i][:32], stacks[i][32:]])
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
        _assert_same(np.concatenate(result), np.linalg.eigvals(stack))


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
