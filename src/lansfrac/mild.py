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

The sweeps run as the levels of a wavefront (``_Wavefront``): one stack
holds every node's latest iterate, each sweep keeps its own running
integral, and sweep j + 1 updates a node only after sweep j has, and only
once sweep j's increment has reached the stop threshold, so every update
has the bits of sweep-major order. A solve starts cold, from the free
trajectory, or warm, from seeds: a stepper's states and their f, which
``oracle-compare`` passes. The stop rule bounds the last iterate's distance
from the fixed point whatever the start (see ``picard_solve``), so a warm
start changes how many sweeps the solve takes, not its verdict.

``picard_fork.picard_worker`` runs a solve in a forked process beside the
stepper of ``oracle-compare``, seeded with the stepper's states, and shares
the f evaluations with it; its feed (``picard_fork._RingNodes``) takes the
place of the one-process schedule (``_Here``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import DivergedError, NoContractionError
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
    """u0, f at node 0, the mesh and the tables of one Picard solve, on the band block.

    f has no modes outside the band block (see ``BandPlan``), so there every
    Picard node is the free field u0 e^{-t nu A^s}, and only the block is
    iterated. Each table is gathered once per solve; node 0 is u0 in every
    iterate, so its f is taken once: a copy of f0 when given (a seed's, see
    ``picard_solve``), else from ``rhs_f_band`` on u0's block. work and
    diff are the scratch blocks of ``_duhamel_sweep``.
    """

    def __init__(self, u0: SpectralField, params: Params, t_mesh: np.ndarray,
                 f0: np.ndarray | None = None):
        grid = u0.grid
        self.grid, self.params, self.t_mesh = grid, params, t_mesh
        self.plan = plan = band_plan(grid, params.alpha)
        self.u0 = plan.gather(u0.coeffs)
        if f0 is None:
            self.f0 = rhs_f_band(grid, self.u0, params, out=np.empty_like(self.u0))
        else:  # every level's first half step reads it, long after its seed was taken
            self.f0 = np.array(f0, dtype=np.complex128)
        self.stokes = plan.gather(_stokes_table(grid, params.s))
        self.tables = diagnostics.audit_tables(grid, params.alpha, params.s)
        self.steps: dict[float, np.ndarray] = {}  # factor(h) of each mesh step h met
        self.work, self.diff = np.empty_like(self.u0), np.empty_like(self.u0)

    def factor(self, t: float) -> np.ndarray:
        """``semigroup_factor`` on the block: exp(-nu t |k|^{2s})."""
        return np.exp(-self.params.nu * t * self.stokes)

    def step(self, i: int) -> float:
        """The length of mesh step i, from node i - 1 to node i."""
        return float(self.t_mesh[i] - self.t_mesh[i - 1])


class _Level:
    """One Picard sweep of a ``_Wavefront``: the next node it updates, the sup of
    its increments so far, and its running Duhamel integral, which already
    holds the first half step h/2 f_{node-1} of its next node.

    Level j is sweep j + 1: it turns iterate j into iterate j + 1. error is
    the NoContractionError of a non-finite increment, held until every
    level below has ended (see ``_Wavefront``).
    """

    def __init__(self, index: int, band: _BandSolve):
        self.index, self.node, self.sup = index, 1, 0.0
        self.error: NoContractionError | None = None
        self.acc = np.zeros_like(band.u0)
        np.add(self.acc, np.multiply(0.5 * band.step(1), band.f0, out=band.work), out=self.acc)


def _duhamel_sweep(band: _BandSolve, stack: np.ndarray, level: _Level, f: np.ndarray) -> float:
    """One node of a Picard sweep: level's update of its next node i >= 1, given f_i.

    The running Duhamel integral advances by the semigroup property,
    acc <- e^{-h nu A^s}(acc + h/2 f_{i-1}) + h/2 f_i (composite trapezoid
    with the exact factor at every node), where f_i = f(u_i, u_i) of the
    level's previous iterate (node i is not yet overwritten, so this is a
    Jacobi sweep), and node i becomes u0 e^{-t_i nu A^s} + acc. The half
    step h/2 f_{i-1} is already in acc, added when node i - 1 was updated
    (``_Level``); this call adds node i + 1's, so the level reads f_i only
    here and keeps no f of its own. Each array operation is the one an
    in-order left-to-right sweep makes, in the same order, so the bits are
    too. Returns the D(A) increment (``diagnostics.norm_DA`` of the block's
    change); a non-finite one leaves node i and acc as they were.
    """
    i, acc, work = level.node, level.acc, band.work
    t, h = float(band.t_mesh[i]), band.step(i)
    if h not in band.steps:  # the steps repeat: one factor per distinct h
        band.steps[h] = band.factor(h)
    np.multiply(band.steps[h], acc, out=acc)
    np.add(acc, np.multiply(0.5 * h, f, out=work), out=acc)
    nxt = np.multiply(band.u0, band.factor(t), out=work)
    np.add(nxt, acc, out=nxt)
    inc = diagnostics.norm_DA(np.subtract(nxt, stack[i], out=band.diff), band.tables)
    if math.isfinite(inc):
        stack[i] = nxt
        if i + 1 < len(stack):
            np.add(acc, np.multiply(0.5 * band.step(i + 1), f, out=work), out=acc)
    return inc


class _Wavefront:
    """The Jacobi sweeps of one Picard solve, run node-major as levels.

    One stack holds the latest iterate of every node, so level j (sweep
    j + 1) may update node i only after level j - 1 has, and each level
    keeps its own running integral (``_Level``). Level 0 may update the
    nodes below ``present``, those whose iterate 0 is in the stack. Level
    j + 1 may update node i only when level j has updated it and level j's
    sup so far is >= stop: level j's own sup can only grow, so sweep-major
    order runs level j + 1 as well. Under this rule every update reads the
    same node, the same f and the same running integral as in sweep-major
    order, so the nodes, the increments and every verdict are the same bits
    whatever the order of the updates the rule allows (``next`` takes the
    lowest level that may run).

    A level ends at the last node, and its sup is the sweep's increment:
    three increments in a row that do not decrease raise NoContractionError,
    one below stop converges the solve, and max_iter levels end it. A level
    whose increment is non-finite stops with a NoContractionError, which is
    raised as soon as no level below it runs any more (at once if there is
    none); the levels above it go. So each error is the one sweep-major
    order raises first. On data the contraction fails for, level j + 1 may
    have begun when level j's end raises NoContractionError; the error is
    the same.
    """

    def __init__(self, stack: np.ndarray, band: _BandSolve, stop: float, max_iter: int, m: int):
        self.stack, self.band, self.stop, self.max_iter = stack, band, stop, max_iter
        self.m = m  # the stride of the seeded nodes, 0 without seeds
        self.present = m or len(stack)
        self.levels: list[_Level] = []  # the running levels, lowest first
        self.increments: list[float] = []
        self.converged = self.done = False
        self._streak = 0  # increments in a row that did not decrease

    def seed(self, i: int) -> None:
        """The seeded node i's iterate 0 is in the stack: level 0 may run to the next one."""
        self.present = min(i + self.m, len(self.stack))

    def next(self) -> _Level | None:
        """The lowest level that may update its next node now, or None when none
        may; it raises the held error of the lowest running level."""
        limit = len(self.stack) if self.increments else self.present
        leads = not self.done
        for level in self.levels:
            if level.error is not None:
                if level is self.levels[0]:
                    raise level.error
                return None
            if level.node < limit:
                return level
            limit, leads = level.node, level.sup >= self.stop
            if not leads:
                return None
        if leads and limit > 1 and len(self.increments) + len(self.levels) < self.max_iter:
            self.levels.append(_Level(len(self.increments) + len(self.levels), self.band))
            return self.levels[-1]
        return None

    def advance(self, level: _Level, f: np.ndarray) -> None:
        """Run level's update of its next node with f there (``_duhamel_sweep``)."""
        inc = _duhamel_sweep(self.band, self.stack, level, f)
        if not math.isfinite(inc):
            t = float(self.band.t_mesh[level.node])
            level.error = NoContractionError(f"Picard increment became non-finite at t = {t:g}")
            del self.levels[self.levels.index(level) + 1:]
            if level is self.levels[0]:
                raise level.error
            return
        level.sup = max(level.sup, inc)
        level.node += 1
        if level.node == len(self.stack):
            self._end(self.levels.pop(0))  # a level ends only after the one below it

    def _end(self, level: _Level) -> None:
        inc = level.sup
        if self.increments and inc >= self.increments[-1]:
            self._streak += 1
            if self._streak >= 3:
                raise NoContractionError(
                    "Picard increments failed to decrease for 3 consecutive sweeps"
                )
        else:
            self._streak = 0
        self.increments.append(inc)
        if inc < self.stop:
            self.converged = self.done = True
        elif len(self.increments) == self.max_iter:
            self.done = True


class _Here:
    """``picard_solve``'s schedule in one process: every f not taken from a seed
    is evaluated here, with ``rhs_f_band``, and read where the kernel writes
    it, in the workspace's product block.

    The seeds are released one at a time, each once no update the earlier
    ones allow is left, as the stepper's states reach the worker. So level 0
    reads seed j's f before seed j + 1 is read, and the levels run as the
    worker's wavefront. Without seeds the order is sweep-major.
    """

    def __init__(self, seeds: Sequence[tuple[np.ndarray, np.ndarray]] | None):
        self._seeds, self.seeds = seeds, 0 if seeds is None else len(seeds) - 1
        self._u0, self.f0 = (None, None) if seeds is None else seeds[0]

    def run(self, wave: _Wavefront) -> None:
        grid, params, stack, m = wave.band.grid, wave.band.params, wave.stack, wave.m
        if self._u0 is not None and not np.array_equal(self._u0, wave.band.u0):
            raise ValueError("seed 0 must hold u0's band block")
        seeded = (0, None)  # the node of the last seed and its f, until level 0 reads it
        for j in range(self.seeds + 1):
            if j:
                block, f = self._seeds[j]
                stack[j * m] = block
                seeded = (j * m, f)
                wave.seed(j * m)
            while (level := wave.next()) is not None:
                i = level.node
                if level.index == 0 and i == seeded[0]:
                    f, seeded = seeded[1], (0, None)
                else:
                    f = rhs_f_band(grid, stack[i], params)
                wave.advance(level, f)


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
    seeds: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
    feed: _Here | None = None,
) -> tuple[Trajectory, PicardState]:
    """Fixed-point iteration u^(j+1) = e^{-t nu A^s} u0 + Duhamel(f(u^(j), u^(j))).

    The mesh runs over [0, T], 0 < T <= 1; any other T raises ValueError.
    Each sweep runs through one (mesh_size + 1, dim) + block_shape iterate
    stack that holds the band block of every node (see ``_duhamel_sweep``),
    as the levels of a ``_Wavefront``. Stops once the sup-in-time D(A)
    increment drops below tol * ||u0||_{D(A)} (absolute fallback for
    u0 = 0) or after max_iter sweeps. Raises NoContractionError if an
    increment is non-finite or fails to decrease three times in a row,
    which is the observable signature of data too large for the contraction.
    The kernel checks nothing, so a last iterate's node that fails the audit's
    ``diagnostics.state_flags``, each residual held against the node's own
    largest coefficient, raises DivergedError with the node's t.
    The returned trajectory carries no diagnostics records; its snapshots are
    a ``PicardNodes`` sequence, which builds each full node on access.

    Without seeds the solve starts from the free trajectory e^{-t nu A^s} u0
    (a cold start). seeds, when given, are the (band block, f of it) pairs of
    n + 1 states at t = 0, T/n, ..., T, n dividing mesh_size into m intervals
    each, such as a stepper's (a warm start): iterate 0 at node j m is block
    j, and sweep 1 takes its f there from the seed, so it evaluates f only at
    the m - 1 free-field nodes between two seeds (none when m = 1). Node 0 is
    u0 in every iterate, so block 0 must be u0's band block, and f0 is taken
    from seed 0. Any seed gives the same fixed point: for a contraction of
    factor q, ||u^(J) - u*|| <= q/(1 - q) inc_J, so the stop rule bounds the
    final iterate's distance from it whatever iterate 0 was; a start close
    to u* only takes fewer sweeps there.

    out, when given, is the complex128 iterate stack to iterate in, of shape
    ``picard_stack_shape(u0.grid, params, mesh_size)``; the solve writes every
    element of it and leaves it read-only. feed, when given, runs the
    schedule in place of the one-process one (``_Here``), with its seeds,
    f0 and run: ``picard_fork.picard_worker``'s ``_RingNodes`` takes its
    seeds from the parent and shares the f evaluations with it.
    """
    _check_horizon(T)
    if mesh_size < 1:
        raise ValueError(f"mesh_size must be >= 1, got {mesh_size}")
    if feed is None:
        feed = _Here(seeds)
    n = feed.seeds
    if n and mesh_size % n:
        raise ValueError(f"{n} seed intervals do not divide mesh_size = {mesh_size}")
    m = mesh_size // n if n else 0
    t_mesh = np.linspace(0.0, T, mesh_size + 1)
    band = _BandSolve(u0, params, t_mesh, feed.f0)
    shape = picard_stack_shape(u0.grid, params, mesh_size)
    if out is None:
        stack = np.empty(shape, dtype=np.complex128)
    elif out.shape != shape or out.dtype != np.complex128:
        raise ValueError(f"out must be a complex128 array of shape {shape}, got {out.dtype} {out.shape}")
    else:
        stack = out
    for i, t in enumerate(t_mesh):
        if i == 0 or not m or i % m:  # a seeded node's iterate 0 comes with its seed
            np.multiply(band.u0, band.factor(float(t)), out=stack[i])

    stop = tol * max(norm_DAr(u0, 1.0), 1e-30)
    wave = _Wavefront(stack, band, stop, max_iter, m)
    feed.run(wave)

    for node, t in zip(stack, t_mesh):
        if not all(diagnostics.state_flags(node, band.tables)):
            raise DivergedError(f"Picard node invariant broken at t = {t:g}", t=float(t))
    return _solution(u0, params, t_mesh, stack, wave.increments, wave.converged)


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
