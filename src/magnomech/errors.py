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

A job's items (a sweep's batches and series) run on one thread per usable
core, at most BATCH_THREADS, the calling thread included
(:func:`map_batches`); each stacked LAPACK call runs whole on its item's
thread. NumPy's linear-algebra functions release the GIL and solve each
matrix of a stack on its own, so every item gets the same bits on any
number of threads.
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


#: Most threads of a map_batches call. Each keeps one batch in flight, and
#: two threads are all that was measured (a 2-core VM).
BATCH_THREADS = 2

# The thread pool of map_batches, made on first use.
_pool = None
_pool_lock = threading.Lock()
# A forked child runs no helper thread. It has none of its parent's pool
# threads, so it would wait on them forever; and a process pool's workers
# already share the cores.
_forked = False


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
                                       thread_name_prefix="magnomech")
        return _pool


def map_batches(func, batches: list) -> list:
    """``[func(batch) for batch in batches]`` on one thread per usable core,
    at most BATCH_THREADS, the calling thread included, each in a copy of
    the caller's context (so its ``np.errstate`` holds there too) and each
    taking the next batch until none is left. A lone batch runs as a plain
    call; in a forked child, whose copy of the pool has no threads, the
    batches run one after the other. The first error stops the hand-out of
    further batches and is raised once every thread has stopped."""
    threads = (1 if len(batches) < 2 or _forked
               else min(BATCH_THREADS, _usable_cores()))
    if threads < 2:
        return [func(batch) for batch in batches]
    results = [None] * len(batches)
    pending = iter(range(len(batches)))
    raised = []
    lock = threading.Lock()

    def work():
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
    """``func(*stacks)``; entry j is point ``points[j]``. Only if LAPACK
    rejects the stacks does ``func`` run point by point, into ``out``: each
    point it rejects fails with ``error(f"{what}: {reason}")``."""
    try:
        return func(*stacks)
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
