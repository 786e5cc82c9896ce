"""Forked processes that share arrays with their parent (POSIX ``os.fork``).

Two parts of lansfrac fork a process of their own, both through ``fork``,
the one code that makes the pipes, forks, blocks SIGINT across the fork,
and ends and reaps the child; each keeps only its protocol on the pipes:

- ``operators.kernel_helper`` forks the kernel's helper (``helper``), which
  runs half of every phase of a stepping command's step: the kernel's
  passes, the step's arithmetic and the audit's per-mode pass;
- ``picard_fork.picard_worker`` forks the Picard worker of ``oracle-compare``.

A forked process shares with its parent only what lives in an anonymous
shared mapping (``shared_array``); every other page is its own copy from the
moment either process writes it. While two such processes compute, both hold
OpenBLAS at one thread (``one_blas_thread``): the thread pools of both would
contend for the same cores, and in-cache products gain nothing from a
second thread there.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import mmap
import os
import select
import signal
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from functools import lru_cache, partial

import numpy as np

from .errors import WorkerError

# Seconds a process polls its pipe before it sleeps in select: a sleeping
# vCPU can take milliseconds to wake on a shared VM.
SPIN_S = 0.002


def shared_array(shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """An array in an anonymous mapping that a forked process shares."""
    dtype = np.dtype(dtype)
    return np.ndarray(shape, dtype, mmap.mmap(-1, dtype.itemsize * math.prod(shape)))


@lru_cache(maxsize=1)
def openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of this process's OpenBLAS thread count, or None where there is none.

    The library is the mapped file named like openblas in /proc/self/maps
    (Linux), and the calls are its own ``*openblas_get/set_num_threads*``
    symbols, under the prefix and suffix of its build (scipy-openblas names
    them ``scipy_openblas_set_num_threads64_``), found with ctypes.
    """
    try:
        with open("/proc/self/maps") as maps:
            names = (line.split()[-1] for line in maps)
            paths = sorted({path for path in names if "openblas" in path.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_")):
            get, put = (f"{prefix}openblas_{verb}_num_threads{suffix}" for verb in ("get", "set"))
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold OpenBLAS at one thread while the with block runs, then restore its count.

    A process forked inside the block starts on one thread as well. Without
    an OpenBLAS whose thread count can be set it does nothing.
    """
    calls = openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


PARENT, CHILD, POLLED = 1, 2, 4  # who holds a pipe end after ``fork``; POLLED: it does not block


class Child:
    """The parent's handle on a process of ``fork``: the pid until reaped, and the parent's ends."""

    def __init__(self, name: str, pid: int, ends: tuple[int, ...]):
        self.name, self.pid, self.ends = name, pid, ends
        self.code = 0

    def reap(self) -> int:
        """Wait for the process to end unless it has been reaped; its exit code, -N for signal N."""
        if self.pid is not None:
            _, status = os.waitpid(self.pid, 0)
            self.pid, self.code = None, os.waitstatus_to_exitcode(status)
        return self.code

    def error(self, when: str) -> WorkerError:
        """Reap the process; the error that says how it ended, and when."""
        code = self.reap()
        how = f"by signal {-code}" if code < 0 else f"with status {code}"
        return WorkerError(f"{self.name} ended {how} {when}")

    def close(self) -> None:
        """Close the parent's pipe ends; kill the process unless it has been reaped, and reap it."""
        for fd in self.ends:
            os.close(fd)
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self.reap()


@contextmanager
def fork(name: str, pipes: Sequence[tuple[int, int]], body: Callable[..., None]) -> Iterator[Child]:
    """Fork one process that runs body while the with block runs; yield the parent's ``Child``.

    pipes gives the holders of each pipe's (read end, write end) after the
    fork, PARENT, CHILD or both; a read end marked POLLED does not block (an
    empty read raises BlockingIOError). The child calls body with its ends,
    pipe by pipe, and ``Child.ends`` holds the parent's in that order.
    The child ignores SIGINT, so a Ctrl-C reaches the parent alone, whose
    with block then ends the child. SIGINT stays blocked from before the
    fork until the parent's handle is inside the block's try, so no Ctrl-C
    leaves a process or a pipe end. The child exits with status 0 once body
    returns and with status 1 on any exception, silently. Leaving the block
    closes the parent's ends, kills the child unless it has been reaped, and
    reaps it. name starts the message of ``Child.error``.
    """
    held = [side for pipe in pipes for side in pipe]
    fds: list[int] = []
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for reader, _ in pipes:
            fds += os.pipe()
            os.set_blocking(fds[-2], not reader & POLLED)
        pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        raise
    ends = tuple(fd for fd, side in zip(fds, held) if side & (PARENT if pid else CHILD))
    if pid == 0:  # the child; it never returns
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
            for fd in set(fds) - set(ends):
                os.close(fd)
            body(*ends)
            status = 0
        finally:
            os._exit(status)
    child = Child(name, pid, ends)
    try:
        for fd in set(fds) - set(ends):
            os.close(fd)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        yield child
    finally:
        child.close()


class Helper:
    """The parent's handle on the process of ``helper``: one byte each way per phase."""

    def __init__(self, child: Child):
        self._child = child
        self._command, self._done = child.ends

    def start(self, phase: int) -> None:
        """Let the helper run its share of phase (0-255)."""
        try:
            os.write(self._command, bytes((phase,)))
        except BrokenPipeError:  # it has ended; its status says how
            raise self._child.error("during a step") from None

    def wait(self) -> None:
        """Return once the helper has run its share of the phase last started."""
        if not _read(self._done):
            raise self._child.error("during a step")


@contextmanager
def helper(task: Callable[[int], None]) -> Iterator[Helper]:
    """Fork one process (``fork``) that runs task(phase) for each phase the parent starts.

    The parent starts a phase with ``Helper.start``, which writes the phase as
    one byte on a command pipe, and ``Helper.wait`` reads the byte the helper
    writes back on a second pipe once task(phase) has returned; in lansfrac
    only ``operators._KernelWorkspace.split`` calls either. The helper
    runs until end-of-file on its command pipe, so it ends with the parent,
    killed or not; leaving the with block kills and reaps it. It runs task
    with numpy's floating-point errors ignored, as the march's steps do: its
    warnings would print from a second process, and the audit of the state
    checks what the step computed. A helper that has ended makes
    ``start`` or ``wait`` reap it and raise WorkerError.

    The helper runs on the highest CPU this process may use, and this
    process on the others until the block ends (``os.sched_setaffinity``,
    Linux; it needs two). A pipe write wakes its reader on the writer's
    CPU, so unpinned the two could share one CPU for a whole run: on a
    2-vCPU VM, one 3D N=48 run of 300 kernel calls took 8.8 ms a call that
    way, against 4.8 ms pinned. Each side polls its pipe for ``SPIN_S``
    before it sleeps (``_read``).
    """
    cpus = os.sched_getaffinity(0)
    pipes = ((CHILD | POLLED, PARENT), (PARENT | POLLED, CHILD))  # command, done (_read)
    with fork("the kernel's helper process", pipes, partial(_serve, task, max(cpus))) as child:
        os.sched_setaffinity(0, cpus - {max(cpus)})
        try:
            yield Helper(child)
        finally:
            os.sched_setaffinity(0, cpus)


def _serve(task: Callable[[int], None], cpu: int, command: int, done: int) -> None:
    """The helper process: run task for each phase byte until end-of-file on command."""
    os.sched_setaffinity(0, {cpu})
    with np.errstate(all="ignore"):
        while phase := _read(command):
            task(phase[0])
            os.write(done, phase)


def _read(fd: int) -> bytes:
    """One byte from the non-blocking fd, b"" at end-of-file: polled for up to
    ``SPIN_S`` seconds, then waited for in select."""
    deadline = time.perf_counter() + SPIN_S
    while True:
        try:
            return os.read(fd, 1)
        except BlockingIOError:
            pass  # a Ctrl-C raised in here would print this error's traceback too
        if time.perf_counter() > deadline:
            select.select([fd], [], [])
