"""Independent mild-solution construction and weighted-Hoelder class checks.

The fixed-point iteration here rebuilds the solution from the Duhamel formula

    u(t) = e^{-t nu A^s} u0 + int_0^t e^{-(t-tau) nu A^s} f(u, u)(tau) dtau

by composite-trapezoid quadrature with the semigroup factor applied exactly at
every node. It shares no stepping code with the integrator, so agreement
between the two is a genuine cross-check. The membership checks quantify the
weighted amplitude/smoothing/Hoelder conditions of the refined solution class
over a sampled (t, h) lattice and report minimal feasible constants instead of
pass/fail against unquantified theoretical ones.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NoContractionError
from .integrator import Trajectory
from .operators import band_plan, rhs_f, rhs_f_band
from .spectral import (
    BandPlan,
    Params,
    SpectralField,
    _stokes_table,
    frac_stokes_apply,
    mode_dot,
    norm_DAr,
    semigroup_apply,
    semigroup_factor,
)

_TINY = 1e-300


@dataclass(frozen=True)
class HolderClass:
    """Parameters (R, beta, T) of the weighted-Hoelder trajectory class.

    tol is a relative slack multiplier (>= 1) applied when deciding
    membership from sampled quotients.
    """

    R: float
    beta: float
    T: float
    tol: float = 1.0

    def __post_init__(self) -> None:
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta must lie in (0, 1/2), got {self.beta}")
        if not 0.0 < self.T <= 1.0:
            raise ValueError(f"T must lie in (0, 1], got {self.T}")
        if self.tol < 1.0:
            raise ValueError("tol is a slack multiplier and must be >= 1")


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
    """u0, f at node 0 and the multipliers of one Picard solve, on the band block.

    f has no modes outside the band block (see ``BandPlan``), so there every
    Picard node is the free field u0 e^{-t nu A^s}, and only the block is
    iterated. Each table is gathered once per solve; node 0 is u0 in every
    iterate, so its f is taken once, from ``rhs_f``.
    """

    def __init__(self, u0: SpectralField, params: Params):
        grid = u0.grid
        self.grid, self.params = grid, params
        self.plan = plan = band_plan(grid, params.alpha)
        self.u0 = plan.gather(u0.coeffs)
        self.f0 = plan.gather(rhs_f(u0, u0, params).coeffs)
        self.stokes = plan.gather(_stokes_table(grid, params.s))
        self.da = plan.gather(_stokes_table(grid, 2.0))
        self.weight = plan.gather(grid.weight).ravel()

    def factor(self, t: float) -> np.ndarray:
        """``semigroup_factor`` on the block: exp(-nu t |k|^{2s})."""
        return np.exp(-self.params.nu * t * self.stokes)

    def norm_DA(self, block: np.ndarray) -> float:
        """``norm_DAr(field, 1.0)`` of the field that is block on the band, zero elsewhere."""
        w = mode_dot(block, block)
        m = self.grid.measure
        a_part = m * float(np.einsum("i,i->", self.weight, (self.da * w).ravel()))
        return float(np.sqrt(a_part + m * float(np.einsum("i,i->", self.weight, w.ravel()))))


def _duhamel_sweep(stack: np.ndarray, band: _BandSolve, t_mesh: np.ndarray) -> float:
    """One Picard sweep, left to right through the band-block iterate stack, in place.

    At node i >= 1 the running Duhamel integral advances by the semigroup
    property, acc <- e^{-h nu A^s}(acc + h/2 f_{i-1}) + h/2 f_i (composite
    trapezoid with the exact factor at every node), where f_i = f(u_i, u_i)
    of the previous iterate (node i is not yet overwritten, so this is a
    Jacobi sweep), and node i becomes u0 e^{-t_i nu A^s} + acc. Node 0 is u0
    and is left as it is. Returns the sup over the nodes of the D(A)
    increment; a non-finite increment raises NoContractionError.
    """
    grid, params = band.grid, band.params
    acc = np.zeros_like(stack[0])
    work = np.empty_like(acc)
    diff = np.empty_like(acc)
    f = band.f0.copy()  # f at the previous node
    sup = 0.0
    for i in range(1, len(t_mesh)):
        t = float(t_mesh[i])
        h = float(t_mesh[i] - t_mesh[i - 1])
        np.add(acc, np.multiply(0.5 * h, f, out=work), out=acc)
        np.multiply(band.factor(h), acc, out=acc)
        f = rhs_f_band(grid, stack[i], params, out=f)
        np.add(acc, np.multiply(0.5 * h, f, out=work), out=acc)
        nxt = np.multiply(band.u0, band.factor(t), out=work)
        np.add(nxt, acc, out=nxt)
        inc = band.norm_DA(np.subtract(nxt, stack[i], out=diff))
        if not math.isfinite(inc):
            raise NoContractionError(f"Picard increment became non-finite at t = {t:g}")
        sup = max(sup, inc)
        stack[i] = nxt
    return sup


class PicardNodes(Sequence[SpectralField]):
    """The read-only nodes of a Picard solve, each built when it is accessed.

    Node i is the free field u0 e^{-t_i nu A^s} with the band block of the
    iterate written into its band modes. Indexing and iteration build one
    field per access, and a slice is another such sequence, so no full-spectrum
    node list is ever held. Each node's coefficients are a view of a read-only
    buffer of its own.
    """

    def __init__(
        self,
        u0: SpectralField,
        params: Params,
        times: np.ndarray,
        stack: np.ndarray,
        plan: BandPlan,
        index: range | None = None,
    ):
        self._u0, self._params, self._times = u0, params, times
        self._stack, self._plan = stack, plan
        self._index = range(len(times)) if index is None else index

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, key):
        if isinstance(key, slice):
            args = (self._u0, self._params, self._times, self._stack, self._plan)
            return PicardNodes(*args, index=self._index[key])
        i = self._index[key]
        grid = self._u0.grid
        coeffs = self._u0.coeffs * semigroup_factor(grid, float(self._times[i]), self._params)
        self._plan.scatter(self._stack[i], coeffs)
        coeffs.setflags(write=False)
        return SpectralField.from_coeffs(grid, coeffs[...])


def picard_solve(
    u0: SpectralField,
    params: Params,
    holder: HolderClass,
    mesh_size: int = 64,
    max_iter: int = 12,
    tol: float = 1e-12,
) -> tuple[Trajectory, PicardState]:
    """Fixed-point iteration u^(j+1) = e^{-t nu A^s} u0 + Duhamel(f(u^(j), u^(j))).

    Starts from the free trajectory e^{-t nu A^s} u0 and runs each sweep
    through one (mesh_size + 1, dim) + block_shape iterate stack that holds
    the band block of every node (see _duhamel_sweep). Stops once the
    sup-in-time D(A) increment drops below tol * ||u0||_{D(A)} (absolute
    fallback for u0 = 0) or after max_iter sweeps. Raises NoContractionError
    if an increment is non-finite or fails to decrease three times in a row,
    which is the observable signature of data too large for the contraction.
    The returned trajectory carries no diagnostics records; its snapshots are
    a ``PicardNodes`` sequence, which builds each full node on access.
    """
    grid = u0.grid
    t_mesh = np.linspace(0.0, holder.T, mesh_size + 1)
    band = _BandSolve(u0, params)
    stack = np.empty((len(t_mesh), grid.dim) + band.plan.block_shape, dtype=np.complex128)
    for i, t in enumerate(t_mesh):
        np.multiply(band.u0, band.factor(float(t)), out=stack[i])

    scale = norm_DAr(u0, 1.0)
    stop = tol * max(scale, 1e-30)
    increments: list[float] = []
    converged = False
    bad_streak = 0

    for _ in range(max_iter):
        inc_linf = _duhamel_sweep(stack, band, t_mesh)
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

    stack.setflags(write=False)
    nodes = PicardNodes(u0, params, t_mesh, stack, band.plan)
    state = PicardState(
        iterates=[nodes],
        increments_linf=increments,
        converged=converged,
        n_iter=len(increments),
    )
    return Trajectory(times=t_mesh, snapshots=nodes, diag=[], form="u"), state


@dataclass(frozen=True)
class ClassReport:
    """Sampled weighted quotients of the four class conditions, normalized by R.

    minimal_R is the smallest amplitude constant that would make every sampled
    quotient <= 1; member reports whether the declared (R, tol) pair holds.
    """

    sup_amplitude: float        # ||w(t)||_{D(A)} / R
    sup_smoothing: float        # t^{1/2} ||A^{s/2} w(t)||_{D(A)} / R
    sup_holder_da: float        # h^{-beta} t^{beta} ||w(t+h) - w(t)||_{D(A)} / R
    sup_holder_smooth: float    # h^{-beta} t^{beta+1/2} ||A^{s/2}(w(t+h)-w(t))||_{D(A)} / R
    minimal_R: float
    member: bool
    n_t: int
    n_pairs: int


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
    n_pairs = 0
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
            n_pairs += 1
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
        member=all(q <= holder.tol for q in sups),
        n_t=len(t_idx),
        n_pairs=n_pairs,
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
