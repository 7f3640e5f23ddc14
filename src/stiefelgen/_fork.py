"""Row loops shared with one forked child process."""

import contextlib
import math
import mmap
import os
import warnings

import numpy as np

#: The smallest draw, on a 10-row page, takes about 0.3 ms, so 32 rows take a few times the 2.9 ms that
#: one fork, child exit and reap took in a 49 MB process (2-vCPU x86-64 VM).
_FORK_MIN_ROWS = 32


def _may_fork() -> bool:
    """Two or more CPUs allowed (Linux), and no other thread that could hold a lock across the fork."""
    cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
    return len(cpus) > 1 and len(os.listdir("/proc/self/task")) == 1


def fill_rows(shape: tuple, rng: np.random.Generator, step) -> np.ndarray:
    """A float64 array whose row k is step(k, g), g the k-th child of rng.spawn(shape[0]), which rng counts.

    With _FORK_MIN_ROWS rows or more and _may_fork(), a child forked before the first row (a draw made
    before would leave its OpenBLAS buffer pages resident) makes rows from the last down, this process
    from the first up, each stopping at a row the other took. This process then makes, in index order,
    each row the child did not finish, so a row raises here as it would serially.
    """
    count, size, shared = shape[0], math.prod(shape), None
    if count >= _FORK_MIN_ROWS and _may_fork():
        with contextlib.suppress(OSError, OverflowError):  # too large: np.empty raises numpy's MemoryError
            shared = mmap.mmap(-1, 8 * size + count)
    if shared is None:
        rows = np.empty(shape)
        for k in range(count):
            rows[k] = step(k, rng.spawn(1)[0])
        return rows
    # no np.empty of the rows before: freed here, it left the ensemble bench's peak RSS 1.1 MB higher
    rows = np.frombuffer(shared, count=size).reshape(shape)
    state = np.frombuffer(shared, np.uint8, offset=8 * size)  # per row: 0 free, 1 taken, 2 made
    seq = rng.bit_generator.seed_seq
    key = seq.n_children_spawned  # row k's child is number key + k

    def take(order):  # row k with the k-th child, made as SeedSequence.spawn makes it
        for k in order:
            if state[k]:
                return
            state[k] = 1
            spawned = type(seq)(seq.entropy, spawn_key=seq.spawn_key + (key + k,), pool_size=seq.pool_size)
            rows[k], state[k] = step(k, type(rng)(type(rng.bit_generator)(spawned))), 2

    pid = None  # if the fork fails, this process makes every row
    with warnings.catch_warnings(), contextlib.suppress(OSError):  # a thread started since _may_fork
        warnings.simplefilter("ignore", DeprecationWarning)  # must not cost the child's pid
        pid = os.fork()
    if pid == 0:
        try:
            take(range(count - 1, -1, -1))
        finally:
            os._exit(0)  # no traceback: the parent makes the row again and raises
    try:
        take(range(count))
    except BaseException:
        if pid:
            with contextlib.suppress(ProcessLookupError):  # SIGCHLD ignored: the child may be gone
                os.kill(pid, 9)  # SIGKILL; the signal module is not otherwise imported
        raise
    finally:
        if pid:
            with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: the child reaped itself
                os.waitpid(pid, 0)
    for _ in range(count):
        seq.spawn(1)  # counted as rng.spawn(count) counts them
    state[state == 1] = 0  # rows the child took and did not finish
    take(np.flatnonzero(state == 0).tolist())
    return rows
