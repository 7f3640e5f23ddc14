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
    """A float64 array whose slice k is step(k, g), g the k-th child of rng.spawn(shape[0]), which rng counts.

    The slices and a state byte for each are mapped shared. From _FORK_MIN_ROWS slices on, if _may_fork(), a
    child forked before the first slice (a draw made before would leave its OpenBLAS buffer pages resident)
    makes slices from the last down, this process from the first up, each stopping at a slice the other took.
    This process then makes, in index order, each slice the child did not finish, so errors are raised here.
    """
    count, size = shape[0], math.prod(shape)
    try:  # not np.empty: freed after a 500 x 2000 batch, it left the ensemble chain's peak RSS 1 MB higher
        shared = mmap.mmap(-1, 8 * size + count)
        rows = np.frombuffer(shared, count=size).reshape(shape)
        state = np.frombuffer(shared, np.uint8, offset=8 * size)  # per slice: 0 free, 1 taken, 2 made
    except (OSError, OverflowError):  # too large: np.empty raises numpy's MemoryError
        shared, rows, state = None, np.empty(shape), np.zeros(count, np.uint8)
    seq = rng.bit_generator.seed_seq
    key = seq.n_children_spawned  # slice k's child is number key + k

    def rebuilt(k):  # slice k's child, made as SeedSequence.spawn makes it but not counted
        spawned = type(seq)(seq.entropy, spawn_key=seq.spawn_key + (key + k,), pool_size=seq.pool_size)
        return type(rng)(type(rng.bit_generator)(spawned))

    def take(order, child):  # each slice in order, until one the other process took
        for k in order:
            if state[k]:
                return
            state[k] = 1
            rows[k], state[k] = step(k, child(k)), 2

    pid = None  # without a child, or if the fork fails, this process makes every slice
    if shared is not None and count >= _FORK_MIN_ROWS and _may_fork():
        with warnings.catch_warnings(), contextlib.suppress(OSError):  # a thread started since _may_fork
            warnings.simplefilter("ignore", DeprecationWarning)  # must not cost the child's pid
            pid = os.fork()
    if pid == 0:
        try:
            take(range(count - 1, -1, -1), rebuilt)
        finally:
            os._exit(0)  # no traceback: the parent makes the slice again and raises
    try:
        take(range(count), lambda k: rng.spawn(1)[0])  # slice k's child, counted as it is made
    except BaseException:
        if pid:
            with contextlib.suppress(ProcessLookupError):  # SIGCHLD ignored: the child may be gone
                os.kill(pid, 9)  # SIGKILL; the signal module is not otherwise imported
        raise
    finally:
        if pid:
            with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: the child reaped itself
                os.waitpid(pid, 0)
    for _ in range(key + count - seq.n_children_spawned):
        seq.spawn(1)  # the children of slices the child took, counted one at a time so that none is held
    state[state == 1] = 0  # slices the child took and did not finish
    take(np.flatnonzero(state == 0).tolist(), rebuilt)
    return rows
