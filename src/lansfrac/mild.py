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
from dataclasses import dataclass

import numpy as np

from .errors import NoContractionError
from .integrator import Trajectory
from .operators import rhs_f
from .spectral import (
    Params,
    SpectralField,
    frac_stokes_apply,
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

    The sweeps stream through one iterate stack, so only the last iterate
    exists: iterates holds it as a one-element list, the node fields of the
    returned trajectory, which are read-only views of that stack.
    """

    iterates: list[list[SpectralField]]
    increments_linf: list[float]   # sup_t ||u^(j) - u^(j-1)||_{D(A)}
    converged: bool
    n_iter: int


def _duhamel_sweep(
    stack: np.ndarray, u0: SpectralField, t_mesh: np.ndarray, params: Params
) -> float:
    """One Picard sweep, left to right through the iterate stack, in place.

    At node i: f_i = f(u_i, u_i) of the previous iterate (node i is not yet
    overwritten, so this is a Jacobi sweep), the running Duhamel integral
    advances by the semigroup property, acc <- e^{-h nu A^s}(acc + h/2 f_{i-1})
    + h/2 f_i (composite trapezoid with the exact factor at every node), and
    node i becomes e^{-t_i nu A^s} u0 + acc. Returns the sup over the nodes of
    the D(A) increment; a non-finite increment raises NoContractionError.
    """
    grid = u0.grid
    acc = np.zeros_like(stack[0])
    work = np.empty_like(acc)
    f_prev = None
    sup = 0.0
    for i, t in enumerate(t_mesh):
        node = SpectralField.from_coeffs(grid, stack[i])  # read only before node i is written
        f_i = rhs_f(node, node, params).coeffs
        if i > 0:
            h = float(t - t_mesh[i - 1])
            np.add(acc, np.multiply(0.5 * h, f_prev, out=work), out=acc)
            np.multiply(semigroup_factor(grid, h, params), acc, out=acc)
            np.add(acc, np.multiply(0.5 * h, f_i, out=work), out=acc)
        nxt = np.multiply(u0.coeffs, semigroup_factor(grid, float(t), params), out=work)
        np.add(nxt, acc, out=nxt)
        inc = norm_DAr(SpectralField.from_coeffs(grid, nxt - stack[i]), 1.0)
        if not math.isfinite(inc):
            raise NoContractionError(f"Picard increment became non-finite at t = {t:g}")
        sup = max(sup, inc)
        stack[i] = nxt
        f_prev = f_i
    return sup


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
    through one (mesh_size + 1, dim) + spectral_shape iterate stack (see
    _duhamel_sweep). Stops once the sup-in-time D(A) increment drops below
    tol * ||u0||_{D(A)} (absolute fallback for u0 = 0) or after max_iter
    sweeps. Raises NoContractionError if an increment is non-finite or fails
    to decrease three times in a row, which is the observable signature of
    data too large for the contraction. The returned trajectory carries no
    diagnostics records; its node fields are read-only views of the stack.
    """
    grid = u0.grid
    t_mesh = np.linspace(0.0, holder.T, mesh_size + 1)
    stack = np.empty((len(t_mesh), grid.dim) + grid.spectral_shape, dtype=np.complex128)
    for i, t in enumerate(t_mesh):
        np.multiply(u0.coeffs, semigroup_factor(grid, float(t), params), out=stack[i])

    scale = norm_DAr(u0, 1.0)
    stop = tol * max(scale, 1e-30)
    increments: list[float] = []
    converged = False
    bad_streak = 0

    for _ in range(max_iter):
        inc_linf = _duhamel_sweep(stack, u0, t_mesh, params)
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

    # Views only now: a SpectralField caches its flags, so none may see the
    # stack while a sweep still writes it.
    stack.setflags(write=False)
    nodes = [SpectralField.from_coeffs(grid, node) for node in stack]
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
