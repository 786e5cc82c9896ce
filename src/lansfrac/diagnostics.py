"""Measured quantities: energies, balance residuals, rate fits.

Everything here is a pure reader of fields, records or norms. Report-style
functions never raise on "bad physics"; they return numbers and let the caller
(or the acceptance harness) compare against thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import _kernel_workspace, phase, rhs_f
from .spectral import (
    GridSpec,
    Params,
    SpectralField,
    invariant_flags,
    invariant_residuals,
    mode_dot,
    stokes_multiplier,
)

_TINY = 1e-300


@dataclass(frozen=True)
class DiagRecord:
    """Per-instant energy/dissipation numbers.

    E0: ||u||_{L^2}^2. E1: E0 + alpha^2 ||A^{1/2} u||^2 (the conserved-modulo-
    dissipation energy). D: ||A^{s/2} u||^2 + alpha^2 ||A^{(1+s)/2} u||^2 (its
    dissipation rate / (2 nu)). nDA: ||u||_{D(A)}. n1ps2: ||A^{1+s/2} u||.
    cancel: normalized residual of the nonlinear energy pairing.
    """

    t: float
    E0: float
    E1: float
    D: float
    nDA: float
    n1ps2: float
    cancel: float


def _record_rows(
    k2: np.ndarray, weight: np.ndarray, measure: float, alpha: float, s: float
) -> np.ndarray:
    """(5, modes) weights of E0, E1, D, ||u||_{D(A)}^2 and ||A^{1+s/2} u||^2.

    Each is sum_k w(k) |uhat(k)|^2 for a solenoidal u, with w(k) the mode's
    Stokes multipliers times its multiplicity and the L^2 measure.
    """
    a2 = alpha**2
    rows = np.stack(
        [
            np.ones_like(k2),
            1.0 + a2 * k2,
            stokes_multiplier(k2, s) + a2 * stokes_multiplier(k2, 1.0 + s),
            stokes_multiplier(k2, 2.0) + 1.0,
            stokes_multiplier(k2, 2.0 + s),
        ]
    )
    return (measure * weight * rows).reshape(5, -1)


@dataclass(frozen=True, eq=False)
class AuditTables:
    """The per-mode tables ``audit`` reads on the band block (``GridSpec.layout``).

    rows holds the record's five weights per mode (its E0 row is the measure
    times the multiplicity) and k the wavevectors, the kernel workspace's
    complex k (``_KernelWorkspace``), which the checks of a block read.
    """

    rows: np.ndarray
    k: np.ndarray


def audit_tables(grid: GridSpec, alpha: float, s: float) -> AuditTables:
    """The audit's tables on the band block of ``grid.layout``, built on each
    call, so that their k is the cached kernel workspace's own."""
    ws = _kernel_workspace(grid, alpha)
    rows = _record_rows(ws.k2, grid.layout.gather(grid.weight), grid.measure, alpha, s)
    rows.setflags(write=False)
    return AuditTables(rows=rows, k=ws.k)


def tail_rows(grid: GridSpec, alpha: float, s: float, modes: np.ndarray) -> np.ndarray:
    """The record's five weights, (5, n), of the half-spectrum modes at flat indices modes."""
    k2, weight = grid.k2.ravel()[modes], grid.weight.ravel()[modes]
    return _record_rows(k2, weight, grid.measure, alpha, s)


def audit(
    u: np.ndarray,
    f: np.ndarray,
    tables: AuditTables,
    t: float,
    tail: tuple[np.ndarray, np.ndarray],
    per_mode: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[tuple[bool, ...], DiagRecord]:
    """One pass over a state and its f: the invariant flags of both and the record.

    This is the run's one check of a state and its f. u and f = f(u, u) are
    band blocks. tail holds the ``tail_rows`` and the (dim, n) values of the
    state's modes outside the block (``BandLayout.split``), where f is zero:
    their energies are added to the block's (none when n = 0), and the
    pairing is the block's.

    It runs in two passes. The per-mode pass (``_per_mode``) forms |uhat|^2,
    Re conj(uhat) fhat and the maxima the flags compare. per_mode, when
    given, is that pass already made: the products and the maxima of one
    row per part, which ``np.max`` combines, keeping a nan. The march makes it
    as a phase of the kernel workspace (``PER_MODE``), so a helper process
    takes half of the k_0 rows. Without per_mode the pass runs
    here on temporaries. Then this process sums, in one order whoever ran
    the per-mode pass, so the record has the same bits either way. |uhat|^2
    gives all five energies. The energy pairing <(1 + alpha^2 A) u, f> is
    the E1 row's sum over Re conj(uhat) fhat. The sums run in
    ``np.einsum``'s own loops, not through BLAS. The flags are
    ``spectral.invariant_flags`` of u's maxima, then its (solenoidal,
    zero_mean) of f's: each residual held against max |u| or max |f|, and
    no energy. A non-finite f passes: the next state carries it, and the
    march reports one at its last state.
    """
    if per_mode is None:
        products, maxima = np.empty((2,) + u.shape[1:]), np.empty((1, _MAXIMA))
        _per_mode(u, f, tables.k, slice(None), products, maxima[0])
    else:
        products, maxima = per_mode
    u_max, herm, sol, mean, f_max, f_div = map(float, np.max(maxima, axis=0))
    energies = np.einsum("ij,j->i", tables.rows, products[0].ravel())
    rows, values = tail
    if values.size:
        energies += np.einsum("ij,j->i", rows, mode_dot(values, values))
    e0, e1, diss, nda_sq, n1ps2_sq = map(float, energies)
    nda, n1ps2 = math.sqrt(nda_sq), math.sqrt(n1ps2_sq)
    pairing = float(np.einsum("i,i->", tables.rows[1], products[1].ravel()))
    # numpy's power gives inf where Python's raises OverflowError
    cancel = abs(pairing) / float(np.float64(nda) ** 3 + _TINY)
    rec = DiagRecord(t=t, E0=e0, E1=e1, D=diss, nDA=nda, n1ps2=n1ps2, cancel=cancel)
    f_mean = float(np.max(np.abs(f[(slice(None),) + (0,) * (f.ndim - 1)])))
    f_ok = invariant_flags(f_max, 0.0, f_div, f_mean)[1:] if math.isfinite(f_max) else (True, True)
    return invariant_flags(u_max, herm, sol, mean) + f_ok, rec


# max |u|, the three invariant_residuals of u, max |f| and max |k . f|
_MAXIMA = 6


def _per_mode(u: np.ndarray, f: np.ndarray, k: np.ndarray, rows: slice, products: np.ndarray,
              maxima: np.ndarray) -> None:
    """The audit's per-mode pass over the k_0 rows rows of the blocks u and f
    and of their k: mode_dot(u, u) and mode_dot(u, f) into those rows of
    products, and the ``_MAXIMA`` maxima over them into maxima. Each mode's
    terms are formed alone, so the rows a call covers change no bit."""
    u_rows, f_rows = u[:, rows], f[:, rows]
    products[0, rows] = mode_dot(u_rows, u_rows)
    products[1, rows] = mode_dot(u_rows, f_rows)
    maxima[:] = (np.max(np.abs(u_rows)), *invariant_residuals(u, k, rows),
                 np.max(np.abs(f_rows)), np.max(np.abs(np.sum(k[:, rows] * f_rows, axis=0))))


def _per_mode_phase(ws, part: int | None) -> None:
    """``_per_mode`` of the kernel workspace's state and f(state) on part's rows;
    the whole pass writes both rows of the maxima."""
    _per_mode(ws.state, ws.f_state, ws.k, ws.rows[part], ws.per_mode, ws.maxima[part or 0])
    if part is None:
        ws.maxima[1] = ws.maxima[0]


# the audit's per-mode pass on the workspace, a phase of _KernelWorkspace.split
PER_MODE = phase(_per_mode_phase)


def norm_DA(
    u: np.ndarray, tables: AuditTables, tail: tuple[np.ndarray, np.ndarray] | None = None
) -> float:
    """||u||_{D(A)} of the band block u and its tail (as in ``audit``): the record's D(A) row."""
    sq = float(np.einsum("i,i->", tables.rows[3], mode_dot(u, u).ravel()))
    if tail is not None:
        rows, values = tail
        sq += float(np.einsum("i,i->", rows[3], mode_dot(values, values)))
    return math.sqrt(sq)


def record(
    u: SpectralField, params: Params, t: float, f: SpectralField | None = None
) -> DiagRecord:
    """Diagnostics for one state; pass f = f(u, u) if already evaluated.

    This is ``audit`` of u's band block and tail, as the march audits a state,
    without its flags. f is read on the band block, the only modes f(u, u)
    reaches. u is read as solenoidal, as every field the solver makes is.
    """
    grid, alpha, s = u.grid, params.alpha, params.s
    block, modes, values = grid.layout.split(u.coeffs)
    f_block = grid.layout.gather((rhs_f(u, params) if f is None else f).coeffs)
    tail = (tail_rows(grid, alpha, s, modes), values)
    return audit(block, f_block, audit_tables(grid, alpha, s), t, tail)[1]


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def energy_balance_residual(recs, params: Params) -> np.ndarray:
    """|E1(t) + 2 nu int_0^t D - E1(0)| / E1(0) along a run's ``DiagRecord`` sequence;
    nu int D is doubled last (exactly), so at any nu the t = 0 row is 0, an overflow inf."""
    if len(recs) < 2:
        raise ValueError("energy balance needs at least two diagnostic records")
    t = np.array([r.t for r in recs])
    e1 = np.array([r.E1 for r in recs])
    d = np.array([r.D for r in recs])
    with np.errstate(over="ignore"):
        dissipated = 2.0 * (params.nu * _cumtrapz(d, t))
    return np.abs(e1 + dissipated - e1[0]) / e1[0]


@dataclass(frozen=True)
class RateFit:
    """Log-log envelope fit of ||u(t)||_{D(A^{1+r})} near t = 0+."""

    window: tuple[float, float]
    slope: float
    r: float
    expected: float  # -r/s
    residual: float  # RMS of the fit


def smoothing_rate(times, norms, r: float, s: float, window: tuple[float, float]) -> RateFit:
    """Least-squares slope of log ||u(t)||_{D(A^{1+r})} vs log t over the window.

    norms[i] is ||u(times[i])||_{D(A^{1+r})} (``norm_DAr``); the fit reads
    only those in the window. Times are subsampled log-uniformly (32
    targets) inside the window so the fit is not biased toward late times by
    a linear recording cadence.
    """
    times = np.asarray(times, dtype=float)
    lo, hi = window
    sel = [i for i, t in enumerate(times) if lo <= t <= hi and t > 0]
    if len(sel) < 2:
        raise ValueError(f"smoothing-rate window {window} contains <2 samples")
    in_window = np.array(sel)
    targets = np.geomspace(max(lo, times[in_window[0]]), times[in_window[-1]], 32)
    picked = sorted({int(in_window[np.argmin(np.abs(times[in_window] - tt))]) for tt in targets})
    logt = np.log([times[i] for i in picked])
    logn = np.log([norms[i] + _TINY for i in picked])
    slope, intercept = np.polyfit(logt, logn, 1)
    resid = float(np.sqrt(np.mean((logn - (slope * logt + intercept)) ** 2)))
    return RateFit(window=(lo, hi), slope=float(slope), r=r, expected=-r / s, residual=resid)
