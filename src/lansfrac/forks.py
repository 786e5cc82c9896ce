"""Forked processes that share arrays with their parent (POSIX ``os.fork``).

Two parts of lansfrac fork a process of their own, and both take their
plumbing from here:

- ``operators.kernel_helper`` forks the kernel's helper (``helper``), which
  runs half of every ``BandPlan.product`` call of a stepping command;
- ``mild.picard_worker`` forks the Picard worker of ``oracle-compare``.

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
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import WorkerError

# Seconds a process polls its pipe before it sleeps in select: a sleeping
# vCPU can take milliseconds to wake on a shared VM.
SPIN_S = 0.002


def shared_array(shape: tuple[int, ...]) -> np.ndarray:
    """A complex128 array in an anonymous mapping that a forked process shares."""
    return np.ndarray(shape, np.complex128, mmap.mmap(-1, 16 * math.prod(shape)))


def reap(pid: int) -> str:
    """Wait for the child pid to end; how it ended: 'by signal N' or 'with status N'."""
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    return f"by signal {-code}" if code < 0 else f"with status {code}"


@lru_cache(maxsize=1)
def openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the loaded OpenBLAS's thread count, or None where there is none.

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


class Helper:
    """The parent's handle on the process of ``helper``: one byte each way per phase."""

    def __init__(self, pid: int, command: int, done: int):
        self._pid, self._command, self._done = pid, command, done

    def start(self, phase: int) -> None:
        """Let the helper run its share of phase (0-255)."""
        try:
            os.write(self._command, bytes((phase,)))
        except BrokenPipeError:  # it has ended; its status says how
            raise self._ended() from None

    def wait(self) -> None:
        """Return once the helper has run its share of the phase last started."""
        if not _read(self._done):
            raise self._ended()

    def _ended(self) -> WorkerError:
        pid, self._pid = self._pid, None
        return WorkerError(f"the kernel's helper process ended {reap(pid)} during a kernel call")

    def close(self) -> None:
        """Close the parent's pipe ends, so that the helper ends, and reap it."""
        os.close(self._command)
        os.close(self._done)
        if self._pid is not None:
            reap(self._pid)
            self._pid = None


@contextmanager
def helper(task: Callable[[int], None]) -> Iterator[Helper]:
    """Fork one process that runs task(phase) for each phase the parent starts.

    The parent starts a phase with ``Helper.start``, which writes the phase as
    one byte on a command pipe, and ``Helper.wait`` reads the byte the helper
    writes back on a second pipe once task(phase) has returned. The helper
    ends with status 0 at end-of-file on its command pipe: when the with
    block ends, and when the parent dies, killed or not. It ignores SIGINT,
    so a Ctrl-C reaches the parent alone, whose with block then ends it. It
    runs task with numpy's floating-point errors ignored, as ``run`` steps
    do: its warnings would print from a second process, and the audit of
    the state checks what the kernel computed. Any exception ends it with
    status 1, silently. A helper that has ended makes ``start`` or ``wait``
    reap it and raise WorkerError. Leaving the with block closes both pipes
    and reaps the helper, so no process and no pipe end outlives it.

    The helper runs on the highest CPU this process may use, and this
    process on the others until the block ends (``os.sched_setaffinity``,
    Linux; it needs two). A pipe write wakes its reader on the writer's
    CPU, so unpinned the two could share one CPU for a whole run: on a
    2-vCPU VM, one 3D N=48 run of 300 kernel calls took 8.8 ms a call that
    way, against 4.8 ms pinned. Each side polls its pipe for ``SPIN_S``
    before it sleeps (``_read``).
    """
    cpus = os.sched_getaffinity(0)
    command_r, command_w = os.pipe()
    done_r, done_w = os.pipe()
    for fd in (command_r, done_r):  # polled first (_read)
        os.set_blocking(fd, False)
    # SIGINT waits until the child ignores it and the parent holds the handle.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
    except BaseException:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for fd in (command_r, command_w, done_r, done_w):
            os.close(fd)
        raise
    if pid == 0:
        _serve(task, command_r, done_w, (command_w, done_r), max(cpus))
    os.close(command_r)
    os.close(done_w)
    handle = Helper(pid, command_w, done_r)
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        os.sched_setaffinity(0, cpus - {max(cpus)})
        yield handle
    finally:
        handle.close()
        os.sched_setaffinity(0, cpus)


def _serve(
    task: Callable[[int], None], command: int, done: int, others: tuple[int, int], cpu: int
) -> None:
    """The helper process: run task for each phase byte until end-of-file. Never returns."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        os.sched_setaffinity(0, {cpu})
        for fd in others:
            os.close(fd)
        with np.errstate(all="ignore"):
            while phase := _read(command):
                task(phase[0])
                os.write(done, phase)
        status = 0
    finally:
        os._exit(status)


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
