"""Independent jobs spread over forked worker processes.

:func:`run_jobs` splits the jobs into fixed shares by their estimated
costs, one share per CPU this process may run on, forks one child per share
beyond its own and runs its own share while the children run theirs.  The
split depends on the costs and the CPU count only, so every run hands the
same jobs to the same processes.  Each child pickles its results, or the
exception that stopped it, into a pipe of its own and leaves through
``os._exit``.  The caller then collects and reaps every child, in a
``finally``, so none is left behind.

With one CPU, where ``os.fork`` is missing, or where other threads run,
the caller runs every job itself.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# The caller's share is this many times a child's.  The cores of a shared
# virtual machine run up to 1.6x apart in speed, each on its own
# (bench/README.md, "Machine speed").  A child's share that is 1/1.6 of the
# caller's then ends before the caller's own does even on the slower core,
# so the caller does not wait on a child, and a run's time follows the
# speed of the caller's core alone instead of the slower of two.
CALLER_WEIGHT = 1.6


def _worker_count(jobs: int) -> int:
    """How many processes share ``jobs`` jobs: one per CPU this process may
    run on, and at most one per job.  Only this one where ``os.fork`` is
    missing, or where other threads run: a child has only the thread that
    forked it, and a lock another thread held stays locked in the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, len(os.sched_getaffinity(0)))
    return min(jobs, os.cpu_count() or 1)


def shares(costs: Sequence[float], workers: int) -> list[list[int]]:
    """The indices of the jobs each of ``workers`` processes runs, the
    caller's share first.  Jobs go longest first, each to the process whose
    load over its weight it raises least; the caller weighs
    :data:`CALLER_WEIGHT` and each child 1.  Ties go to the earlier job
    and the earlier process."""
    weights = [CALLER_WEIGHT] + [1] * (workers - 1)
    loads = [0] * workers
    split: list[list[int]] = [[] for _ in range(workers)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        p = min(range(workers), key=lambda p: (loads[p] + costs[i]) / weights[p])
        loads[p] += costs[i]
        split[p].append(i)
    return split


def run_jobs(jobs: Sequence[Callable[[], T]], costs: Sequence[float]) -> list[T]:
    """Each of ``jobs`` run once, in the process :func:`shares` gives it by
    its estimated ``costs``, and their results in the order of ``jobs``.

    A job's exception is raised here as itself: the caller's own first, else
    the first child's in fork order.  A child that exits without sending its
    results raises :class:`RuntimeError`.
    """
    mine, *theirs = shares(costs, _worker_count(len(jobs)))
    children = {}  # pid -> read end of the child's result pipe
    sent = []  # (pid, payload bytes, wait status), one per child
    try:
        for share in filter(None, theirs):
            results, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one runs the share
                os.close(results)
                os.close(out)
                mine = mine + share
                continue
            if pid == 0:
                _work_and_exit(jobs, share, out)
            os.close(out)
            children[pid] = results
        done = _run(jobs, mine)
    finally:
        for pid, results in children.items():
            with open(results, "rb") as pipe:
                data = pipe.read()
            sent.append((pid, data, os.waitpid(pid, 0)[1]))
    for pid, data, status in sent:
        payload = _load(pid, data, status)
        if isinstance(payload, BaseException):
            raise payload
        done.update(payload)
    return [done[i] for i in range(len(jobs))]


def _run(jobs: Sequence[Callable[[], T]], share: Sequence[int]) -> dict[int, T]:
    """The result of each job of ``share``, by index."""
    return {i: jobs[i]() for i in share}


def _work_and_exit(jobs, share: Sequence[int], out: int):
    """A child's life: its share of the jobs, then its results or the
    exception that stopped it, pickled into ``out``.  It never returns."""
    import pickle  # here, not at the top: only a run that forks needs it

    try:
        try:
            payload = _run(jobs, share)
        except BaseException as exc:  # raised again by the caller
            payload = exc
        try:
            data = pickle.dumps(payload)
            if isinstance(payload, BaseException):
                pickle.loads(data)
        except Exception as exc:  # it does not pickle, or does not rebuild
            if isinstance(payload, BaseException):
                exc = payload  # sent as its text
            data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(out, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _load(pid: int, data: bytes, status: int):
    """The results or exception a child sent, or, when it sent nothing
    whole, a :class:`RuntimeError` naming how it ended."""
    import pickle

    try:
        return pickle.loads(data)
    except Exception:  # empty or cut short: the child died first
        code = os.waitstatus_to_exitcode(status)
        ended = f"status {code}" if code >= 0 else f"signal {-code}"
        return RuntimeError(f"worker {pid} ended with {ended} before sending its results")
