"""Independent mild-solution construction and weighted-Hoelder class checks.

The fixed-point iteration here rebuilds the solution from the Duhamel formula

    u(t) = e^{-t nu A^s} u0 + int_0^t e^{-(t-tau) nu A^s} f(u, u)(tau) dtau

by composite-trapezoid quadrature with the semigroup factor applied exactly at
every node. This Picard solve is the independent oracle of acceptance
criteria 05 and 08 and of the ``oracle-compare`` command. It shares no
stepping code with the integrator, so agreement between the two is a
genuine cross-check, also of faults of f too small for ``picard_solve``'s
check of its nodes. Increments are ``diagnostics.norm_DA``
of the band block. A sweep in one process reads each node's f where the
kernel writes it, in the kernel workspace's product block
(``operators.rhs_f_band``), so it holds no f buffer of its own. The
membership checks quantify the weighted amplitude/smoothing/Hoelder
conditions of the refined solution class over a sampled (t, h) lattice and
report minimal feasible constants instead of pass/fail against
unquantified theoretical ones.

``picard_worker`` runs one ``picard_solve`` in a process forked by
``forks.fork``, which makes its pipes, ends and reaps it, so the oracle can
run while its caller steps the same problem. Within a sweep every node's f
reads only the previous iterate, so the f evaluations are independent of
each other; the accumulation runs in node order. The worker keeps the
accumulation, and once the caller waits for the result it evaluates f at
nodes too, so both processes work until the end. A token and a report on
the worker's pipes are one 4-byte node index; an exception goes out where
it is raised, in either process. While the worker runs on a GEMM band plan
(every 3D grid, and 2D grids up to ``spectral.GEMM_MAX_N``), both processes
hold OpenBLAS at one thread (``forks.one_blas_thread``).
"""

from __future__ import annotations

import math
import os
import pickle
import select
import struct
import warnings
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import DivergedError, LansfracError, NoContractionError
from .forks import CHILD, PARENT, POLLED, Child, fork, one_blas_thread, shared_array
from .integrator import Trajectory
from .operators import band_plan, rhs_f, rhs_f_band  # noqa: F401  the tracer patches rhs_f
from .spectral import (
    BandPlan,
    GridSpec,
    Params,
    SpectralField,
    _stokes_table,
    frac_stokes_apply,
    norm_DAr,
    semigroup_apply,
)

_TINY = 1e-300


@dataclass(frozen=True)
class HolderClass:
    """Parameters (R, beta, T) of the weighted-Hoelder trajectory class."""

    R: float
    beta: float
    T: float

    def __post_init__(self) -> None:
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta must lie in (0, 1/2), got {self.beta}")
        if not 0.0 < self.T <= 1.0:
            raise ValueError(f"T must lie in (0, 1], got {self.T}")


@dataclass
class PicardState:
    """History of the fixed-point iteration.

    The sweeps stream through one band-block iterate stack, so only the last
    iterate exists: iterates holds it as a one-element list, the node
    sequence of the returned trajectory (see ``PicardNodes``).
    """

    iterates: list[Sequence[SpectralField]]
    increments_linf: list[float]   # sup_t ||u^(j) - u^(j-1)||_{D(A)}
    converged: bool
    n_iter: int


class _BandSolve:
    """u0, f at node 0 and the tables of one Picard solve, on the band block.

    f has no modes outside the band block (see ``BandPlan``), so there every
    Picard node is the free field u0 e^{-t nu A^s}, and only the block is
    iterated. Each table is gathered once per solve; node 0 is u0 in every
    iterate, so its f is taken once, from ``rhs_f_band`` on u0's block.
    """

    def __init__(self, u0: SpectralField, params: Params):
        grid = u0.grid
        self.grid, self.params = grid, params
        self.plan = plan = band_plan(grid, params.alpha)
        self.u0 = plan.gather(u0.coeffs)
        self.f0 = rhs_f_band(grid, self.u0, params, out=np.empty_like(self.u0))
        self.stokes = plan.gather(_stokes_table(grid, params.s))
        self.tables = diagnostics.audit_tables(grid, params.alpha, params.s)
        self.steps: dict[float, np.ndarray] = {}  # factor(h) of each mesh step h met

    def factor(self, t: float) -> np.ndarray:
        """``semigroup_factor`` on the block: exp(-nu t |k|^{2s})."""
        return np.exp(-self.params.nu * t * self.stokes)


def _duhamel_sweep(
    stack: np.ndarray,
    band: _BandSolve,
    t_mesh: np.ndarray,
    f_at: Callable[[int], np.ndarray] | None = None,
) -> float:
    """One Picard sweep, left to right through the band-block iterate stack, in place.

    At node i >= 1 the running Duhamel integral advances by the semigroup
    property, acc <- e^{-h nu A^s}(acc + h/2 f_{i-1}) + h/2 f_i (composite
    trapezoid with the exact factor at every node), where f_i = f(u_i, u_i)
    of the previous iterate (node i is not yet overwritten, so this is a
    Jacobi sweep), and node i becomes u0 e^{-t_i nu A^s} + acc. Node 0 is u0
    and is left as it is. Returns the sup over the nodes of the D(A)
    increment (``diagnostics.norm_DA`` of the block's change); a non-finite
    increment raises NoContractionError.

    f_at(i) returns f_i, and the sweep reads it until it asks for f_{i+1}.
    Without f_at the sweep evaluates every f itself with ``rhs_f_band`` and
    reads it in the kernel workspace's product block, which the next call
    overwrites, so the sweep allocates no f buffer.
    """
    if f_at is None:
        def f_at(i: int) -> np.ndarray:
            return rhs_f_band(band.grid, stack[i], band.params)

    acc = np.zeros_like(stack[0])
    work = np.empty_like(acc)
    diff = np.empty_like(acc)
    f = band.f0  # f at the previous node
    sup = 0.0
    for i in range(1, len(t_mesh)):
        t = float(t_mesh[i])
        h = float(t_mesh[i] - t_mesh[i - 1])
        np.add(acc, np.multiply(0.5 * h, f, out=work), out=acc)
        if h not in band.steps:  # the steps repeat: one factor per distinct h
            band.steps[h] = band.factor(h)
        np.multiply(band.steps[h], acc, out=acc)
        f = f_at(i)
        np.add(acc, np.multiply(0.5 * h, f, out=work), out=acc)
        nxt = np.multiply(band.u0, band.factor(t), out=work)
        np.add(nxt, acc, out=nxt)
        inc = diagnostics.norm_DA(np.subtract(nxt, stack[i], out=diff), band.tables)
        if not math.isfinite(inc):
            raise NoContractionError(f"Picard increment became non-finite at t = {t:g}")
        sup = max(sup, inc)
        stack[i] = nxt
    return sup


class PicardNodes(Sequence[SpectralField]):
    """The read-only nodes of a Picard solve, each built when it is accessed.

    Outside the band block every node is the free field u0 e^{-t_i nu A^s}
    (see ``_BandSolve``), which is non-zero only on u0's tail modes
    (``BandPlan.split`` of u0, found once). So node i is ``BandPlan.join``
    of its own ``split``: the iterate's block, and u0's tail times the
    semigroup factor at t_i. An int index, negative too, builds one field
    per access, so no full-spectrum node list is ever held. Each node's
    coefficients are a view of a read-only buffer of its own.
    """

    def __init__(
        self,
        u0: SpectralField,
        params: Params,
        times: np.ndarray,
        stack: np.ndarray,
        plan: BandPlan,
    ):
        grid = u0.grid
        self._grid, self._nu, self._times = grid, params.nu, times
        self._stack, self._plan = stack, plan
        _, self._modes, _ = plan.split(u0.coeffs)
        self._u0_tail = u0.coeffs.reshape(grid.dim, -1)[:, self._modes]
        self._stokes_tail = _stokes_table(grid, params.s).ravel()[self._modes]

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, i: int) -> SpectralField:
        coeffs = self._plan.join(*self.split(i))
        coeffs.setflags(write=False)
        return SpectralField.from_coeffs(self._grid, coeffs[...])

    def split(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``BandPlan.split`` of node i, building no full field: a read-only view
        of the stack's block, u0's tail modes, and the free field's values there,
        shape (dim, n) with n = 0 when u0 has no tail."""
        decay = np.exp(-self._nu * float(self._times[i]) * self._stokes_tail)
        return self._stack[i], self._modes, self._u0_tail * decay


def _check_horizon(T: float) -> None:
    if not 0.0 < T <= 1.0:
        raise ValueError(f"T must lie in (0, 1], got {T}")


def picard_solve(
    u0: SpectralField,
    params: Params,
    T: float,
    mesh_size: int = 64,
    max_iter: int = 12,
    tol: float = 1e-12,
    out: np.ndarray | None = None,
    f_at: Callable[[int], np.ndarray] | None = None,
) -> tuple[Trajectory, PicardState]:
    """Fixed-point iteration u^(j+1) = e^{-t nu A^s} u0 + Duhamel(f(u^(j), u^(j))).

    The mesh runs over [0, T], 0 < T <= 1; any other T raises ValueError.
    Starts from the free trajectory e^{-t nu A^s} u0 and runs each sweep
    through one (mesh_size + 1, dim) + block_shape iterate stack that holds
    the band block of every node (see _duhamel_sweep). Stops once the
    sup-in-time D(A) increment drops below tol * ||u0||_{D(A)} (absolute
    fallback for u0 = 0) or after max_iter sweeps. Raises NoContractionError
    if an increment is non-finite or fails to decrease three times in a row,
    which is the observable signature of data too large for the contraction.
    The kernel checks nothing, so a last iterate's node that fails the audit's
    ``diagnostics.state_flags``, each residual held against the node's own
    largest coefficient, raises DivergedError with the node's t.
    The returned trajectory carries no diagnostics records; its snapshots are
    a ``PicardNodes`` sequence, which builds each full node on access.

    out, when given, is the complex128 iterate stack to iterate in, of shape
    ``picard_stack_shape(u0.grid, params, mesh_size)``; the solve writes every
    element of it and leaves it read-only. f_at, when given, returns f at
    node i of the iterate in out (see ``_duhamel_sweep``); ``picard_worker``
    passes one that shares the evaluations with its parent. Without it the
    solve evaluates every node itself.
    """
    _check_horizon(T)
    t_mesh = np.linspace(0.0, T, mesh_size + 1)
    band = _BandSolve(u0, params)
    shape = picard_stack_shape(u0.grid, params, mesh_size)
    if out is None:
        stack = np.empty(shape, dtype=np.complex128)
    elif out.shape != shape or out.dtype != np.complex128:
        raise ValueError(f"out must be a complex128 array of shape {shape}, got {out.dtype} {out.shape}")
    else:
        stack = out
    for i, t in enumerate(t_mesh):
        np.multiply(band.u0, band.factor(float(t)), out=stack[i])

    scale = norm_DAr(u0, 1.0)
    stop = tol * max(scale, 1e-30)
    increments: list[float] = []
    converged = False
    bad_streak = 0

    for _ in range(max_iter):
        inc_linf = _duhamel_sweep(stack, band, t_mesh, f_at)
        if increments and inc_linf >= increments[-1]:
            bad_streak += 1
            if bad_streak >= 3:
                raise NoContractionError(
                    "Picard increments failed to decrease for 3 consecutive sweeps"
                )
        else:
            bad_streak = 0
        increments.append(inc_linf)
        if inc_linf < stop:
            converged = True
            break

    for node, t in zip(stack, t_mesh):
        if not all(diagnostics.state_flags(node, band.tables)):
            raise DivergedError(f"Picard node invariant broken at t = {t:g}", t=float(t))
    return _solution(u0, params, t_mesh, stack, increments, converged)


def picard_stack_shape(grid: GridSpec, params: Params, mesh_size: int) -> tuple[int, ...]:
    """Shape of the iterate stack of ``picard_solve``: (mesh_size + 1, dim) + band block."""
    return (mesh_size + 1, grid.dim) + band_plan(grid, params.alpha).block_shape


def _solution(
    u0: SpectralField,
    params: Params,
    t_mesh: np.ndarray,
    stack: np.ndarray,
    increments: list[float],
    converged: bool,
) -> tuple[Trajectory, PicardState]:
    """The trajectory and state of a finished solve, read-only nodes over its stack."""
    stack.setflags(write=False)
    nodes = PicardNodes(u0, params, t_mesh, stack, band_plan(u0.grid, params.alpha))
    state = PicardState(
        iterates=[nodes],
        increments_linf=increments,
        converged=converged,
        n_iter=len(increments),
    )
    return Trajectory(times=t_mesh, snapshots=nodes, diag=[]), state


# f at the nodes of a forked solve passes through a ring of this many slots
# in shared memory, node i in slot i mod RING_SLOTS (see picard_worker).
RING_SLOTS = 4
_NODE = struct.Struct("<i")  # a token (a node whose f is wanted) or a report (a node evaluated)


def _recorded(caught) -> list[tuple]:
    """What ``warnings.warn_explicit`` needs to issue each caught warning again."""
    return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _take(fd: int) -> bytes | None:
    """A token or a report from the non-blocking fd: b"" at end-of-file, None when none waits."""
    try:
        return os.read(fd, _NODE.size)
    except BlockingIOError:
        return None


class _RingNodes:
    """The worker's f_at (see ``_duhamel_sweep``): f of a node, evaluated by either process.

    Asked for f_i, it posts as a token the node whose slot f_{i-1} freed
    (nodes 1..RING_SLOTS when a sweep starts). Then, until f_i is in, it
    reads a report of a node the parent evaluated if one waits, else takes a
    token and evaluates that node itself, else waits for a report. Tokens
    leave the pipe in the order they were posted, so the parent holds node i
    whenever none is left. An empty read of the reports (non-blocking, as the
    tokens) means the parent is gone and raises LansfracError.
    """

    def __init__(self, grid, params, stack, ring, tokens: int, post: int, reports: int):
        self._grid, self._params, self._stack, self._ring = grid, params, stack, ring
        self._tokens, self._post, self._reports = tokens, post, reports
        self._ready: set[int] = set()

    def __call__(self, i: int) -> np.ndarray:
        k, last = len(self._ring), len(self._stack) - 1
        free = range(1, min(k, last) + 1) if i == 1 else range(i - 1 + k, min(i + k, last + 1))
        if free:
            os.write(self._post, b"".join(_NODE.pack(j) for j in free))
        while i not in self._ready:
            report = _take(self._reports)
            if report == b"":
                raise LansfracError("the parent of the Picard process has gone")
            if report is not None:
                self._ready.add(_NODE.unpack(report)[0])
            elif (token := _take(self._tokens)) is not None:
                j = _NODE.unpack(token)[0]
                rhs_f_band(self._grid, self._stack[j], self._params, out=self._ring[j % k])
                self._ready.add(j)
            else:  # no report and no token: the parent holds node i
                select.select([self._reports], [], [])
        self._ready.remove(i)
        return self._ring[i % k]


class PicardWorker:
    """Both sides of ``picard_worker``'s protocol: ``solve`` runs in the forked
    process, the rest in the parent, through child (``forks.Child``)."""

    child: Child

    def __init__(self, u0: SpectralField, params: Params, T: float, mesh_size: int, max_iter: int):
        self._u0, self._params, self._args = u0, params, (T, mesh_size, max_iter)
        shape = picard_stack_shape(u0.grid, params, mesh_size)
        # the iterate stack, and the ring, of which the handle holds the parent's only view
        self._stack, self._ring = shared_array(shape), shared_array((RING_SLOTS,) + shape[1:])

    def solve(self, reply: int, tokens: int, post: int, reports: int) -> None:
        """The worker process, given its pipe ends: solve into the stack, then send the reply."""
        u0, params, stack = self._u0, self._params, self._stack
        f_at = _RingNodes(u0.grid, params, stack, self._ring, tokens, post, reports)
        with warnings.catch_warnings(record=True) as caught:
            try:
                traj, state = picard_solve(u0, params, *self._args, out=stack, f_at=f_at)
                answer = (traj.times, state.increments_linf, state.converged)
            except BaseException as exc:  # raised again by the parent
                answer = exc
        with open(reply, "wb", closefd=False) as pipe:
            pipe.write(pickle.dumps((_recorded(caught), answer)))

    def result(self) -> tuple[Trajectory, PicardState]:
        """Help the worker to its end and return what ``picard_solve`` returned in it.

        Until the worker's reply can be read, the parent takes tokens too: it
        evaluates f at each node it takes, on its own cached kernel workspace,
        into the node's ring slot and reports it. Then it drops its mapping
        of the ring. The warnings caught in both processes are issued here,
        the worker's first, then the exception the worker raised, if any, is
        raised here; one the parent raises while it helps goes out at once.
        A worker that ends without a whole reply raises WorkerError.
        """
        with warnings.catch_warnings(record=True) as helped:
            self._help()
        self._ring = None  # its last view in the parent: the mapping goes
        with open(self.child.ends[0], "rb", closefd=False) as pipe:
            reply = pipe.read()
        if self.child.reap():  # the worker exits 0 only after it has sent its reply
            raise self.child.error("before it sent a result")
        caught, answer = pickle.loads(reply)
        for message, category, filename, lineno in caught + _recorded(helped):
            warnings.warn_explicit(message, category, filename, lineno)
        if isinstance(answer, BaseException):
            raise answer
        t_mesh, increments, converged = answer
        return _solution(self._u0, self._params, t_mesh, self._stack, increments, converged)

    def _help(self) -> None:
        """Evaluate the nodes of the tokens the parent takes until the reply is readable."""
        grid, (reply, tokens, reports) = self._u0.grid, self.child.ends
        while reply not in select.select([reply, tokens], [], [])[0]:
            token = _take(tokens)
            if token is None:  # the worker took it first
                continue
            if not token:  # the worker has ended
                return
            i = _NODE.unpack(token)[0]
            rhs_f_band(grid, self._stack[i], self._params, out=self._ring[i % len(self._ring)])
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
) -> Iterator[PicardWorker]:
    """Run ``picard_solve`` in a forked process (``forks.fork``) while the with block runs.

    The iterate stack lives in an anonymous shared mapping that the worker
    iterates in (``out=``), so the nodes reach the parent without a copy.
    Each node's f passes through a ring of ``RING_SLOTS`` slots in a second
    shared mapping. The worker posts the nodes whose slots are free as
    tokens on a pipe and accumulates each f in node order, as the in-process
    sweep does, so the nodes are the same bits whichever process evaluated
    an f. While the with block runs, the worker takes every token itself;
    ``PicardWorker.result`` takes them in the parent too, and reports each
    node it evaluated on a second pipe. A token and a report are the same
    4-byte node index. The worker sends back only the mesh, the increments
    and the converged flag, or the exception it raised, with the warnings it
    caught, through a third pipe. Leaving the block without a result, also
    by an exception the parent meets while it helps or by a Ctrl-C, kills
    and reaps the worker; no pipe end stays open. Needs ``os.fork`` (POSIX).

    A T outside (0, 1] raises ValueError here, before the fork.

    On a GEMM band plan, so for every 3D oracle, the two processes hold
    OpenBLAS at one thread (``forks.one_blas_thread``) until the block
    ends. An FFT plan (2D grids above ``spectral.GEMM_MAX_N``) leaves the
    pool as it is. A worker that ends without a reply makes ``result``
    raise WorkerError. ``oracle-compare`` opens no kernel helper
    (``operators.kernel_helper``) beside it: the worker owns the second core.
    """
    _check_horizon(T)
    with one_blas_thread() if band_plan(u0.grid, params.alpha).gemm else nullcontext():
        worker = PicardWorker(u0, params, T, mesh_size, max_iter)
        # the reply; the tokens, which both take and must not wait for; the reports
        pipes = ((PARENT, CHILD), (PARENT | CHILD | POLLED, CHILD), (CHILD | POLLED, PARENT))
        with fork("the Picard process", pipes, worker.solve) as worker.child:
            yield worker


@dataclass(frozen=True)
class ClassReport:
    """Sampled weighted quotients of the four class conditions, normalized by R.

    minimal_R is the smallest amplitude constant that would make every sampled
    quotient <= 1; member reports whether the declared R is such a constant.
    """

    sup_amplitude: float        # ||w(t)||_{D(A)} / R
    sup_smoothing: float        # t^{1/2} ||A^{s/2} w(t)||_{D(A)} / R
    sup_holder_da: float        # h^{-beta} t^{beta} ||w(t+h) - w(t)||_{D(A)} / R
    sup_holder_smooth: float    # h^{-beta} t^{beta+1/2} ||A^{s/2}(w(t+h)-w(t))||_{D(A)} / R
    minimal_R: float
    member: bool


def _holder_lattice(times: np.ndarray, T: float, n_t: int) -> list[int]:
    """Indices of a log-spaced t lattice snapped to available positive nodes."""
    pos = np.where(times > 0)[0]
    if len(pos) == 0:
        return []
    t_lo = times[pos[0]]
    t_hi = 0.6 * T
    if t_hi <= t_lo:
        t_hi = times[pos[-1]]
    targets = np.geomspace(t_lo, t_hi, n_t)
    idx = sorted({int(pos[np.argmin(np.abs(times[pos] - tt))]) for tt in targets})
    return idx


def _quotients_from_samples(
    times: np.ndarray,
    fields: list[SpectralField],
    holder: HolderClass,
    s: float,
    n_t: int,
) -> ClassReport:
    beta, T = holder.beta, holder.T
    r_scale = max(holder.R, _TINY)
    sp = s / 2.0

    def amp(i: int) -> float:
        return norm_DAr(fields[i], 1.0)

    def smooth(i: int) -> float:
        return norm_DAr(frac_stokes_apply(fields[i], sp), 1.0)

    t_idx = _holder_lattice(times, T, n_t)
    q1 = max((amp(i) for i in range(len(fields))), default=0.0) / r_scale
    q2 = max((times[i] ** 0.5 * smooth(i) for i in t_idx), default=0.0) / r_scale

    q3 = 0.0
    q4 = 0.0
    for i in t_idx:
        t = times[i]
        hs = [t / 16.0, t / 8.0, t / 4.0, t / 2.0]
        h_big = 2.0 * t
        while h_big <= T - t:
            hs.append(h_big)
            h_big *= 2.0
        for h in hs:
            j = int(np.argmin(np.abs(times - (t + h))))
            if j <= i or times[j] > T + 1e-12:
                continue
            h_eff = times[j] - t
            if h_eff <= 0:
                continue
            dw = fields[j] - fields[i]
            q3 = max(q3, h_eff ** (-beta) * t**beta * norm_DAr(dw, 1.0) / r_scale)
            q4 = max(
                q4,
                h_eff ** (-beta)
                * t ** (beta + 0.5)
                * norm_DAr(frac_stokes_apply(dw, sp), 1.0)
                / r_scale,
            )

    sups = (q1, q2, q3, q4)
    minimal = holder.R * max(sups)
    return ClassReport(
        sup_amplitude=q1,
        sup_smoothing=q2,
        sup_holder_da=q3,
        sup_holder_smooth=q4,
        minimal_R=minimal,
        member=all(q <= 1.0 for q in sups),
    )


def semigroup_class_check(
    u0: SpectralField,
    params: Params,
    holder: HolderClass,
    n_t: int = 16,
) -> ClassReport:
    """Verify the homogeneous semigroup trajectory sits in the class.

    The semigroup is evaluated exactly on a log lattice (no trajectory mesh
    needed), so this is the reference behaviour the membership check of
    sampled trajectories is compared against.
    """
    T = holder.T
    lattice = np.concatenate(([0.0], np.geomspace(T / 1000.0, T, 4 * n_t)))
    fields = [semigroup_apply(u0, float(t), params) for t in lattice]
    return _quotients_from_samples(lattice, fields, holder, params.s, n_t)


def holder_membership(traj: Trajectory, holder: HolderClass, s: float, n_t: int = 16) -> ClassReport:
    """Sampled membership check of a trajectory in the weighted-Hoelder class."""
    times = np.asarray(traj.times, dtype=float)
    return _quotients_from_samples(times, traj.snapshots, holder, s, n_t)
