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

from dataclasses import dataclass

import numpy as np

from . import diagnostics
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

    iterates holds only the current sweep (the node fields of the returned
    trajectory), as a one-element list; earlier sweeps are not kept.
    """

    iterates: list[list[SpectralField]]
    increments_linf: list[float]   # sup_t ||u^(j) - u^(j-1)||_{D(A)}
    converged: bool
    n_iter: int


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    w = np.zeros_like(t)
    d = np.diff(t)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def duhamel_integral(
    f_samples: list[SpectralField],
    t_mesh: np.ndarray,
    t_eval: float,
    params: Params,
) -> SpectralField:
    """Trapezoid quadrature of int_0^{t_eval} e^{-(t-tau) nu A^s} f(tau) dtau.

    t_eval must be a mesh node; the semigroup factor is exact per node, so the
    error is the O(mesh^2) quadrature error of the smooth integrand alone.
    """
    t_mesh = np.asarray(t_mesh, dtype=float)
    if len(t_mesh) == 0:
        raise ValueError("empty quadrature mesh")
    if len(f_samples) != len(t_mesh):
        raise ValueError("f_samples and t_mesh lengths differ")
    idx = int(np.argmin(np.abs(t_mesh - t_eval)))
    if abs(t_mesh[idx] - t_eval) > 1e-12 * max(1.0, abs(t_eval)):
        raise ValueError(f"t_eval = {t_eval} is not a mesh node")
    grid = f_samples[0].grid
    if idx == 0:
        return SpectralField.from_coeffs(
            grid, np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
        )
    sub = t_mesh[: idx + 1]
    w = _trapezoid_weights(sub)
    acc = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    for j in range(idx + 1):
        fac = semigroup_factor(grid, float(t_eval - sub[j]), params)
        acc += w[j] * fac * f_samples[j].coeffs
    return SpectralField.from_coeffs(grid, acc)


def _duhamel_sweep(
    f_coeffs: list[np.ndarray], t_mesh: np.ndarray, params: Params, grid
) -> list[np.ndarray]:
    """All node values of the Duhamel integral in one left-to-right pass.

    Uses the semigroup property to update the running integral; identical to
    calling duhamel_integral at every node, at O(mesh) instead of O(mesh^2).
    """
    out = [np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)]
    for i in range(1, len(t_mesh)):
        h = float(t_mesh[i] - t_mesh[i - 1])
        e = semigroup_factor(grid, h, params)
        out.append(e * (out[-1] + 0.5 * h * f_coeffs[i - 1]) + 0.5 * h * f_coeffs[i])
    return out


def picard_solve(
    u0: SpectralField,
    params: Params,
    holder: HolderClass,
    mesh_size: int = 64,
    max_iter: int = 12,
    tol: float = 1e-12,
) -> tuple[Trajectory, PicardState]:
    """Fixed-point iteration u^(j+1) = e^{-t nu A^s} u0 + Duhamel(f(u^(j), u^(j))).

    Stops once the sup-in-time D(A) increment drops below tol * ||u0||_{D(A)}
    (absolute fallback for u0 = 0) or after max_iter sweeps. Raises
    NoContractionError if the increment fails to decrease three times in a
    row, which is the observable signature of data too large for the
    contraction.
    """
    grid = u0.grid
    t_mesh = np.linspace(0.0, holder.T, mesh_size + 1)
    free = [semigroup_apply(u0, float(t), params).coeffs for t in t_mesh]
    cur = [SpectralField.from_coeffs(grid, c) for c in free]

    scale = norm_DAr(u0, 1.0)
    stop = tol * max(scale, 1e-30)
    state = PicardState(iterates=[cur], increments_linf=[], converged=False, n_iter=0)
    bad_streak = 0

    for _ in range(max_iter):
        f_coeffs = [rhs_f(w, w, params).coeffs for w in cur]
        duh = _duhamel_sweep(f_coeffs, t_mesh, params, grid)
        nxt = [
            SpectralField.from_coeffs(grid, free[i] + duh[i])
            for i in range(len(t_mesh))
        ]
        inc_linf = max(norm_DAr(nxt[i] - cur[i], 1.0) for i in range(len(t_mesh)))

        if state.increments_linf and not np.isfinite(inc_linf):
            raise NoContractionError("Picard increment became non-finite")
        if state.increments_linf and inc_linf >= state.increments_linf[-1]:
            bad_streak += 1
            if bad_streak >= 3:
                raise NoContractionError(
                    "Picard increments failed to decrease for 3 consecutive sweeps"
                )
        else:
            bad_streak = 0

        state.increments_linf.append(inc_linf)
        state.iterates = [nxt]
        state.n_iter += 1
        cur = nxt
        if inc_linf < stop:
            state.converged = True
            break

    diag = [
        diagnostics.record(cur[i], params, float(t_mesh[i]))
        for i in range(len(t_mesh))
    ]
    traj = Trajectory(times=t_mesh, snapshots=cur, diag=diag, form="u")
    return traj, state


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
