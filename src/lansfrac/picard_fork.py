"""The Picard oracle of ``oracle-compare`` in a forked worker process.

``picard_worker`` runs one ``mild.picard_solve`` in a process forked by
``forks.fork``, which makes its pipes, ends and reaps it, so the oracle can
run while its caller steps the same problem. The caller seeds it with its
stepper's states as it makes them (``PicardWorker.seed``), and the worker
runs its sweeps behind them (``mild._Wavefront``). Within a sweep every
node's f reads only the previous iterate, so the f evaluations are
independent of each other; the accumulation runs in node order. The worker
keeps the accumulation, and once the caller waits for the result it
evaluates f at nodes too, so both processes work until the end. A token, a
report and a seed on the worker's pipes are one 4-byte node index; an
exception goes out where it is raised, in either process. While the worker
runs on a GEMM band plan (every 3D grid, and 2D grids up to
``spectral.GEMM_MAX_N``), both processes hold OpenBLAS at one thread
(``forks.one_blas_thread``).

Both processes call the solve and the kernel through ``mild``
(``mild.picard_solve``, ``mild.rhs_f_band``), so a name patched there is
what either process runs. The protocol lives apart from the solve, and
``oracle-compare`` alone imports it, because the package imports ``mild``
in every command: without a bytecode cache each process compiles it, and
with the protocol in it that compile raised the peak RSS of a 3D N=48
``simulate`` by about 0.3 MiB.
"""

from __future__ import annotations

import os
import pickle
import select
import struct
import warnings
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext

import numpy as np

from . import mild
from .errors import LansfracError
from .forks import CHILD, PARENT, POLLED, Child, fork, one_blas_thread, shared_array
from .integrator import Trajectory
from .spectral import Params, SpectralField

# f at the nodes of a forked solve passes through a ring of this many slots
# in shared memory, node i in slot i mod RING_SLOTS (see picard_worker).
RING_SLOTS = 4
# A token (a node whose f is wanted), a report (a node whose f is in its slot)
# or a seed (a seeded node, its one's complement when its f is not in the ring).
_NODE = struct.Struct("<i")


def _recorded(caught) -> list[tuple]:
    """What ``warnings.warn_explicit`` needs to issue each caught warning again."""
    return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _take(fd: int, size: int = _NODE.size) -> bytes | None:
    """Up to size bytes from the non-blocking fd: b"" at end-of-file, None when none waits."""
    try:
        return os.read(fd, size)
    except BlockingIOError:
        return None


class _RingNodes:
    """The worker's schedule (``picard_solve``'s feed) and its f_at: f of a node,
    evaluated by either process.

    While the parent steps and sends its states as seeds on the report pipe
    (``PicardWorker.seed``), this process copies each seeded block from the
    shared states into the stack and evaluates every f that no seed brings
    itself, into its own kernel workspace: the wavefront runs behind the
    stepper (``integrator.march``). After each update of level 0 it writes one byte on
    the note pipe, so the parent knows which ring slots level 0 has read; a
    note that does not fit the pipe is dropped, which only makes the parent
    send more seeds without f.
    Once the last seed is in, and from the start of an unseeded solve, the
    levels run one after the other, and each f goes through the ring (f_at,
    ``__call__``).

    Asked for f_i, it posts as tokens the nodes whose slots are free: the
    first RING_SLOTS nodes from i when a level's run starts, and then the
    node whose slot f_{i-1} freed, leaving out the nodes whose f a report
    has brought. Then, until f_i is in, it reads a report of a node the
    parent evaluated if one waits, else takes a token and evaluates that
    node itself, else waits for a report. Tokens leave the pipe in the order
    they were posted, so the parent holds node i whenever none is left. An
    empty read of the reports (non-blocking, as the tokens) means the parent
    is gone and raises LansfracError.
    """

    def __init__(self, grid, params, stack, ring, tokens: int, post: int, reports: int,
                 notes: int, states: np.ndarray):
        self._grid, self._params, self._stack, self._ring = grid, params, stack, ring
        self._tokens, self._post, self._reports, self._notes = tokens, post, reports, notes
        self._states = states
        self.seeds, self.f0 = len(states) - 1, None  # see picard_solve
        self._ready: set[int] = set()  # the nodes whose f is in their slot
        self._next = 0  # the node after the last one asked for

    def run(self, wave: mild._Wavefront) -> None:
        """Run wave to its end: behind the parent's seeds, then through the ring."""
        got = 0
        while got < self.seeds:
            report = self._report()
            if report is not None:
                if report >= 0:
                    self._ready.add(report)
                i = report if report >= 0 else ~report
                self._stack[i] = self._states[i // wave.m]
                wave.seed(i)
                got += 1
                continue
            level = wave.next()
            if level is None:  # level 0 waits for the next seed
                select.select([self._reports], [], [])
                continue
            i = level.node
            if level.index == 0 and i in self._ready:
                self._ready.remove(i)
                f = self._ring[i % len(self._ring)]
            else:
                f = mild.rhs_f_band(self._grid, self._stack[i], self._params)
            wave.advance(level, f)
            if level.index == 0:
                try:
                    os.write(self._notes, b"\0")
                except BlockingIOError:
                    pass
        while (level := wave.next()) is not None:
            wave.advance(level, self(level.node))

    def _report(self) -> int | None:
        """The node of a report or seed that waits, or None; LansfracError if the parent is gone."""
        report = _take(self._reports)
        if report == b"":
            raise LansfracError("the parent of the Picard process has gone")
        return None if report is None else _NODE.unpack(report)[0]

    def __call__(self, i: int) -> np.ndarray:
        k, last = len(self._ring), len(self._stack) - 1
        first = i - 1 + k if i == self._next else i
        self._next = i + 1
        free = [j for j in range(first, min(i + k, last + 1)) if j not in self._ready]
        if free:
            os.write(self._post, b"".join(_NODE.pack(j) for j in free))
        while i not in self._ready:
            report = self._report()
            if report is not None:
                self._ready.add(report)
            elif (token := _take(self._tokens)) is not None:
                j = _NODE.unpack(token)[0]
                mild.rhs_f_band(self._grid, self._stack[j], self._params, out=self._ring[j % k])
                self._ready.add(j)
            else:  # no report and no token: the parent holds node i
                select.select([self._reports], [], [])
        self._ready.remove(i)
        return self._ring[i % k]


class PicardWorker:
    """Both sides of ``picard_worker``'s protocol: ``solve`` runs in the forked
    process, the rest in the parent, through child (``forks.Child``)."""

    child: Child

    def __init__(self, u0: SpectralField, params: Params, T: float, mesh_size: int,
                 max_iter: int, seeds: int):
        self._u0, self._params, self._args = u0, params, (T, mesh_size, max_iter)
        self._m = mesh_size // seeds if seeds else 0
        self._passed = 0  # the nodes level 0 has updated, by the worker's notes
        shape = mild.picard_stack_shape(u0.grid, mesh_size)
        # the iterate stack, and the ring, of which the handle holds the parent's only view
        self._stack, self._ring = shared_array(shape), shared_array((RING_SLOTS,) + shape[1:])
        # the band blocks of the stepper's states 0..seeds, as seed wrote them
        self.states = shared_array((seeds + 1,) + shape[1:])

    def solve(self, reply: int, tokens: int, post: int, reports: int, notes: int) -> None:
        """The worker process, given its pipe ends: solve into the stack, then send the reply."""
        u0, params, stack = self._u0, self._params, self._stack
        os.set_blocking(notes, False)
        feed = _RingNodes(u0.grid, params, stack, self._ring, tokens, post, reports, notes,
                          self.states)
        with warnings.catch_warnings(record=True) as caught:
            try:
                traj, state = mild.picard_solve(u0, params, *self._args, out=stack, feed=feed)
                answer = (traj.times, state.increments_linf, state.converged)
            except BaseException as exc:  # raised again by the parent
                answer = exc
        with open(reply, "wb") as pipe:  # closed here, so the parent need not wait for the exit
            pipe.write(pickle.dumps((_recorded(caught), answer)))

    def seed(self, j: int, block: np.ndarray, f: np.ndarray) -> None:
        """Hold the stepper's state j, 0 <= j <= seeds, and send it to the worker
        without waiting.

        block, the state's band block, goes into states[j], which the caller
        reads back after ``result``; for j >= 1 the worker copies it into node
        i = j m of the stack as iterate 0. f, f(block) as the stepper
        evaluated it, goes into node i's ring slot when level 0 has read that
        slot's last f (node i - RING_SLOTS; the worker's notes say how far
        level 0 is). The seed is i on the report pipe, or ~i without f, which
        the worker then evaluates itself, with the same bits. State 0 is u0,
        whose block and f the worker has made itself, so it is only held. A
        worker that has ended is left to ``result`` to report. The parent
        writes no stack page here: it reads the nodes only once the worker
        is done, as a cold solve's parent does.
        """
        self.states[j] = block
        if not j:
            return
        _, _, reports, notes = self.child.ends
        while passed := _take(notes, 4096):
            self._passed += len(passed)
        i, k = j * self._m, len(self._ring)
        if i - k <= self._passed:
            self._ring[i % k] = f
        else:
            i = ~i
        try:
            os.write(reports, _NODE.pack(i))
        except BrokenPipeError:
            pass

    def result(self) -> tuple[Trajectory, mild.PicardState]:
        """Help the worker to its end and return what ``picard_solve`` returned in it.

        Until the worker's reply can be read, the parent takes tokens too: it
        evaluates f at each node it takes, on its own cached kernel workspace,
        into the node's ring slot and reports it. Then it drops its mapping
        of the ring. The warnings caught in both processes are issued here,
        the worker's first, then the exception the worker raised, if any, is
        raised here; one the parent raises while it helps goes out at once.
        A worker that ends without a whole reply raises WorkerError. The
        worker closes the reply's pipe once it has written it, so a whole
        reply is read while the worker still ends, and leaving the with
        block reaps it.
        """
        with warnings.catch_warnings(record=True) as helped:
            self._help()
        self._ring = None  # its last view in the parent: the mapping goes
        with open(self.child.ends[0], "rb", closefd=False) as pipe:
            reply = pipe.read()
        try:
            caught, answer = pickle.loads(reply)
        except (EOFError, pickle.UnpicklingError):  # the worker ended before it sent it all
            raise self.child.error("before it sent a result") from None
        for message, category, filename, lineno in caught + _recorded(helped):
            warnings.warn_explicit(message, category, filename, lineno)
        if isinstance(answer, BaseException):
            raise answer
        t_mesh, increments, converged = answer
        return mild._solution(self._u0, self._params, t_mesh, self._stack, increments, converged)

    def _help(self) -> None:
        """Evaluate the nodes of the tokens the parent takes until the reply is readable."""
        grid, (reply, tokens, reports, _) = self._u0.grid, self.child.ends
        while reply not in select.select([reply, tokens], [], [])[0]:
            token = _take(tokens)
            if token is None:  # the worker took it first
                continue
            if not token:  # the worker has ended
                return
            i = _NODE.unpack(token)[0]
            mild.rhs_f_band(grid, self._stack[i], self._params, out=self._ring[i % len(self._ring)])
            try:
                os.write(reports, token)  # the report; whole, as 4 < PIPE_BUF
            except BrokenPipeError:  # the worker has ended; its status says how
                return


@contextmanager
def picard_worker(
    u0: SpectralField,
    params: Params,
    T: float,
    mesh_size: int = 64,
    max_iter: int = 12,
    seeds: int = 0,
) -> Iterator[PicardWorker]:
    """Run ``picard_solve`` in a forked process (``forks.fork``) while the with block runs.

    The iterate stack lives in an anonymous shared mapping that the worker
    iterates in (``out=``), so the nodes reach the parent without a copy.
    Each node's f passes through a ring of ``RING_SLOTS`` slots in a second
    shared mapping, node i in slot i mod RING_SLOTS.

    seeds = n > 0 makes a warm solve (see ``picard_solve``): the parent then
    calls ``PicardWorker.seed`` with the states j = 0..n of its stepper, in
    order, as it makes them, and the worker runs its sweeps as a wavefront
    behind them (``mild._Wavefront``), evaluating every f that no seed
    brings itself. The states' band blocks go into a third shared mapping,
    ``PicardWorker.states``, which the parent keeps for its comparison in
    place of copies of its own. Node 0's f the worker evaluates itself, so
    nothing runs in the parent before its first step.

    Once the seeds are in (from the start of a cold solve), the worker posts
    the nodes whose slots are free as tokens on a pipe and accumulates each
    f in node order, so the nodes are the same bits whichever process
    evaluated an f. While the with block runs, the worker takes every token
    itself; ``PicardWorker.result`` takes them in the parent too, and
    reports each node it evaluated on a second pipe. A token and a report
    are the same 4-byte node index. The worker sends back only the mesh, the
    increments and the converged flag, or the exception it raised, with the
    warnings it caught, through a third pipe. Leaving the block without a
    result, also by an exception the parent meets while it helps or by a
    Ctrl-C, kills and reaps the worker; no pipe end stays open. Needs
    ``os.fork`` (POSIX).

    A T outside (0, 1] raises ValueError here, before the fork.

    On a GEMM band plan, so for every 3D oracle, the two processes hold
    OpenBLAS at one thread (``forks.one_blas_thread``) until the block
    ends. An FFT plan (2D grids above ``spectral.GEMM_MAX_N``) leaves the
    pool as it is. A worker that ends without a reply makes ``result``
    raise WorkerError. ``oracle-compare`` opens no kernel helper
    (``operators.kernel_helper``) beside it: the worker owns the second core.
    """
    mild._check_horizon(T)
    with one_blas_thread() if u0.grid.layout.gemm else nullcontext():
        worker = PicardWorker(u0, params, T, mesh_size, max_iter, seeds)
        # the reply; the tokens, which both take and must not wait for; the
        # reports and seeds; the notes of level 0's updates
        pipes = ((PARENT, CHILD), (PARENT | CHILD | POLLED, CHILD), (CHILD | POLLED, PARENT),
                 (PARENT | POLLED, CHILD))
        with fork("the Picard process", pipes, worker.solve) as worker.child:
            yield worker
