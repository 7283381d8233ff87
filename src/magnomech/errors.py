"""Exception types shared across the package.

Each class carries the short ``code`` that sweeps write into a failed point's
``error`` cell.

Batched kernels keep one entry per point in an object array of failures:
None while the point is fine, else the exception that stopped it. A point
that has failed is skipped by every later stage, and a scalar call is a
batch of one that raises its point's failure.

Stored exceptions carry no traceback. The cyclic garbage collector cannot see
into NumPy object arrays, so a traceback whose frames hold the array that
holds the exception would never be freed.

The usable cores share a job in two ways. A job runs its batches, or a
lone batch its series, on one thread per usable core (:func:`map_batches`);
a lone batch solves each large stack of small matrices in chunks, one per
usable core (:func:`split_stack`). NumPy's linear-algebra functions release
the GIL and solve each matrix of a stack on its own, so every matrix gets
the same bits on any number of threads.
"""

import contextvars
import os
import threading

import numpy as np


class MagnomechError(Exception):
    """Base class for all errors raised by this package."""
    code = "error"


class ParameterError(MagnomechError, ValueError):
    """Invalid or inconsistent physical parameters."""
    code = "parameter_error"


class ConfigError(MagnomechError, ValueError):
    """Malformed parameter file or override string."""
    code = "config_error"


class DegenerateDenominatorError(MagnomechError):
    """Linear response denominator vanished (parametric resonance)."""
    code = "degenerate_denominator"


class UnstableSystemError(MagnomechError):
    """Drift matrix has a non-negative Lyapunov exponent; no steady state."""
    code = "unstable"


class SingularSolveError(MagnomechError):
    """The vectorized Lyapunov system is numerically singular."""
    code = "singular_solve"


class EigenSolveError(MagnomechError):
    """Dense eigenvalue computation failed to converge."""
    code = "eigen_solve"


class NonPhysicalCMError(MagnomechError):
    """Covariance matrix violates positivity beyond tolerance."""
    code = "nonphysical_cm"


class NonFiniteDeterminantError(MagnomechError):
    """A two-mode determinant, or eta^- built from them, overflowed."""
    code = "nonfinite_determinant"


class CrossCheckMismatchError(MagnomechError):
    """Two independent routes to the same quantity disagree."""
    code = "cross_check_mismatch"


class BracketInvalidError(MagnomechError):
    """Bisection bracket does not straddle the sought boundary."""
    code = "bracket_invalid"


def no_failures(shape) -> np.ndarray:
    """Failure array of a batch of the given shape, none failed yet."""
    return np.full(shape, None, dtype=object)


def alive(failures: np.ndarray) -> np.ndarray:
    """Mask of the points that have not failed."""
    return np.equal(failures, None)


def store_failure(failures: np.ndarray, k, exc: MagnomechError) -> None:
    """Record a caught exception at point k, without its traceback."""
    failures[k] = exc.with_traceback(None)


def record_failures(failures: np.ndarray, mask, make) -> None:
    """Store ``make(k)`` at each index k of ``mask`` that has not failed yet."""
    if not np.count_nonzero(mask):
        return
    for k in zip(*np.nonzero(mask)):
        if failures[k] is None:
            failures[k] = make(k)


#: A stack splits only into chunks of at least this many matrices. Below a
#: kernel's own size, handing a chunk to a thread costs more than it saves:
#: on a 2-core VM, two threads beat one call from chunks of 256 companion
#: 3x3 matrices, 128 complex 4x4, 96 real 6x6 and 32 36x36 systems.
MIN_CHUNK = 256

#: Most threads of a map_batches call. Each keeps one batch in flight, and
#: two threads are all that was measured (a 2-core VM).
BATCH_THREADS = 2

# The thread pool of split stacks and batch threads, made on first use.
_pool = None
_pool_lock = threading.Lock()
# A forked child never splits a stack nor runs batch threads. It has none
# of its parent's pool threads, so it would wait on them forever; and a
# process pool's workers already share the cores, where splitting measured
# no faster.
_forked = False
# Set in every thread of a map_batches call: no stack or map_batches there
# splits. Its work would queue behind the batches; the cores are busy anyway.
_in_batch = contextvars.ContextVar("in_batch", default=False)


def _mark_forked() -> None:
    global _forked
    _forked = True


if hasattr(os, "register_at_fork"):  # absent where processes never fork
    os.register_at_fork(after_in_child=_mark_forked)


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask, where known."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this OS
        return os.cpu_count() or 1


def _thread_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here: importing the package loads no executor.
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1,
                                       thread_name_prefix="magnomech-stack")
        return _pool


def split_stack(func, *stacks):
    """``func(*stacks)`` for a NumPy linear-algebra function ``func`` over
    stacks of matrices along axis 0, split into one chunk per usable core
    while every chunk keeps MIN_CHUNK matrices. The calling thread solves
    chunk 0; each other chunk runs in the caller's context, so its
    ``np.errstate`` holds there too. A LinAlgError of any chunk is raised."""
    n = len(stacks[0])
    # Most stacks are small: they skip the affinity-mask system call.
    parts = (1 if n < 2 * MIN_CHUNK or _in_batch.get() or _forked
             else min(_usable_cores(), n // MIN_CHUNK))
    if parts < 2:
        return func(*stacks)
    bounds = [n * i // parts for i in range(parts + 1)]
    chunks = [[stack[lo:hi] for stack in stacks]
              for lo, hi in zip(bounds, bounds[1:])]
    pool = _thread_pool()
    from concurrent.futures import wait
    futures = [pool.submit(contextvars.copy_context().run, func, *chunk)
               for chunk in chunks[1:]]
    try:
        first = func(*chunks[0])
    finally:
        wait(futures)  # no thread still reads the stacks once this returns
    return np.concatenate([first, *(future.result() for future in futures)])


def map_batches(func, batches: list) -> list:
    """``[func(batch) for batch in batches]`` on one thread per usable core,
    at most BATCH_THREADS, the calling thread included, each in a copy of
    the caller's context (so its ``np.errstate`` holds there too) and each
    taking the next batch until none is left. A lone batch runs as a plain
    call, and so may split its stacks. In a batch thread, where a nested
    call would queue behind its own batch, or a forked child, whose pool has
    no threads, the batches run one after the other and no stack splits.
    The first error stops the hand-out of further batches and is raised
    once every thread has stopped."""
    threads = (1 if len(batches) < 2 or _in_batch.get() or _forked
               else min(BATCH_THREADS, _usable_cores()))
    if threads < 2:
        return [func(batch) for batch in batches]
    results = [None] * len(batches)
    pending = iter(range(len(batches)))
    raised = []
    lock = threading.Lock()

    def work():
        _in_batch.set(True)
        while True:
            with lock:
                k = None if raised else next(pending, None)
            if k is None:
                return
            try:
                results[k] = func(batches[k])
            except BaseException as exc:
                with lock:
                    raised.append(exc)
                return

    pool = _thread_pool()
    from concurrent.futures import wait
    helpers = [pool.submit(contextvars.copy_context().run, work)
               for _ in range(threads - 1)]
    contextvars.copy_context().run(work)
    for helper in helpers:
        helper.cancel()  # one still queued has no batch left to take
    wait(helpers)
    if raised:
        raise raised[0]
    return results


def lapack_stack(func, stacks: tuple, out, failures, points, error, what):
    """``func(*stacks)`` through :func:`split_stack`; entry j is point
    ``points[j]``. Only if LAPACK rejects the stacks does ``func`` run point
    by point, into ``out``: each point it rejects fails with
    ``error(f"{what}: {reason}")``."""
    try:
        return split_stack(func, *stacks)
    except np.linalg.LinAlgError:
        for j, k in enumerate(points.tolist()):
            try:
                out[j] = func(*(stack[j] for stack in stacks))
            except np.linalg.LinAlgError as exc:
                failures[k] = error(f"{what}: {exc}")
        return out


def raise_failure(failures: np.ndarray) -> None:
    """Raise (a copy of) the failure of a batch of one, if any."""
    failure = failures.flat[0]
    if failure is not None:
        raise type(failure)(*failure.args)
