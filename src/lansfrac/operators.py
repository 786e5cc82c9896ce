"""Nonlinear terms of the averaged model.

The momentum equation is stepped in the form du/dt = -nu A^s u + f(u, u) with

    f(u1, u2) = -P_alpha[ u1.grad(u2) + U_alpha(u1, u2) ],

where U_alpha is the averaged-fluctuation stress and P_alpha the regularized
Stokes projector, which on the torus coincides with the Leray projection
because (1 - alpha^2 Laplacian) is a scalar multiplier. All quadratic products
are formed pointwise in physical space with 2/3-dealiased inputs and outputs,
so the discrete nonlinearity annihilates the H^1_alpha energy pairing to
rounding for band-limited fields.

Two implementations of the nonlinearity live here:

- ``rhs_f``, the production kernel, evaluates the diagonal f(u, u) only, in
  rotational filtered-momentum form, -(1 + alpha^2 A)^{-1} P[(curl v) x u]
  with v = (1 + alpha^2 A) u. Its arithmetic is ``rhs_f_band``, which maps
  band blocks to band blocks; the Picard oracle calls that kernel directly.
  It filters and projects in one curl-curl pass, so the divergence of f
  rounds relative to f itself. The kernel checks nothing: the time loop,
  ``integrator.march``, checks f(u) with the state u it is read with, in
  ``diagnostics.audit``.
- ``v_nonlinearity`` is the transport + stretch form of the v-equation that
  ``march(form="v")`` steps: the independent oracle of acceptance criterion
  09, the u/v equivalence.

The paper's gradient-stress form of the bilinear f(u1, u2), the reference
the kernel is tested against, lives with the tests (``stress_form_f`` in
``tests/conftest.py``).

The kernel, the march's stage and update and the audit's per-mode pass are
phases (``phase``) of the kernel workspace on the band block, and
``_KernelWorkspace.split`` is the one place any of them runs, with or
without a helper; the step's state is the kernel's input block, which no
phase writes. Inside ``kernel_helper`` a forked process runs half of each,
and ``split`` is the one code that starts it and waits for it; everything
else a run does stays in this process.

Index conventions: (grad u)_{ij} = d_j u_i, matrix products contract adjacent
indices, and the tensor divergence is row-wise, (div T)_i = d_j T_{ij}.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import lru_cache, partial

import numpy as np

from . import forks
from .spectral import (
    BandPlan,
    GridSpec,
    Params,
    SpectralField,
    _check_same_grid,
    coeffs_to_phys,
    inner,
    leray_project,
    phys_to_coeffs,
)


def _dealiased(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    return coeffs * grid.dealias_mask


def _product_coeffs(phys: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Transform a pointwise product back to (dealiased) coefficients."""
    return _dealiased(phys_to_coeffs(phys, grid.dim), grid)


def _vel_grad_phys(u: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """Physical samples of the dealiased field and its gradient, one transform."""
    grid = u.grid
    dim = grid.dim
    dc = _dealiased(u.coeffs, grid)
    gc = 1j * grid.k[np.newaxis, :] * dc[:, np.newaxis]
    stacked = np.concatenate([dc, gc.reshape((dim * dim,) + grid.spectral_shape)])
    phys = coeffs_to_phys(stacked, dim)
    return phys[:dim], phys[dim:].reshape((dim, dim) + grid.shape)


class _KernelWorkspace:
    """Multipliers and buffers of the rotational kernel for one (grid, alpha),
    and of the time step that ``integrator.march`` makes on it.

    Everything lives on the band block (see ``BandLayout``): the dealiased
    band is the whole block, so dealiasing is the gather itself. Every call of
    ``rhs_f_band`` on this (grid, alpha) reuses the same buffers, so the workspace
    is not re-entrant. lansfrac starts no threads of its own, and forks two
    kinds of process, both through ``forks.fork``. The helper
    (``kernel_helper``: ``simulate``, ``verify-energy``, ``smoothing``)
    shares the arrays ``allocate`` names with this process while it runs,
    and runs part 1 of every phase that ``split`` runs (``helper_share``);
    ``split`` is the one code that starts it and waits for it.
    The Picard worker (``picard_fork.picard_worker``, ``oracle-compare``)
    has a copy of its own; the parent's workspace serves its stepper and
    then, once the stepper has ended, the Picard nodes that the parent
    evaluates for the worker (``picard_fork.PicardWorker.result``). Outside
    a helper, OpenBLAS may split the band transforms' matrix products over
    its pool (``BandPlan``).

    It holds the band blocks of the stack (u, which is the march's state, and curl
    v), of the product and of the projection's k x a; the samples and the
    product's samples live in the plan (``BandPlan.share``). The march keeps f(state)
    and its step's weights E, w1 and w2 here, and ``diagnostics.audit`` its k and
    the per-mode products and maxima of its pass (``phase``). A buffer that
    nothing writes costs no memory: its pages are never touched.
    """

    def __init__(self, grid: GridSpec, alpha: float):
        dim = grid.dim
        n_curl = 1 if dim == 2 else 3
        self.plan = BandPlan(grid, inverse_fields=dim + n_curl, forward_fields=dim)
        k, self.k2 = grid.layout.gather(grid.k), grid.layout.gather(grid.k2)
        helm = 1.0 + alpha**2 * self.k2
        self.ikv = 1j * k * helm  # curl of v read off u
        # the output filter over the |k|^2 of the projection, mean pinned to zero
        filter_ = -1.0 / (helm * np.where(self.k2 > 0, self.k2, 1.0))
        filter_[(0,) * dim] = 0.0
        # k and the filter as complex numbers: numpy would cast them so in
        # every product with a complex block, at a cost, to the same values
        self.k, self.filter = k.astype(np.complex128), filter_.astype(np.complex128)
        for table in (self.ikv, self.filter, self.k, self.k2):
            table.setflags(write=False)

        block = grid.layout.block_shape
        self.k_cross = np.empty((n_curl,) + block, np.complex128)  # k x a in the projection
        self.dot = np.empty(block, np.complex128)
        self.allocate(np.empty)
        self.helper: forks.Helper | None = None  # see kernel_helper
        # the k_0 rows of a phase's parts: all (None), this process's (0), the helper's (1)
        self.rows = {None: slice(None), 0: slice(0, block[0] // 2),
                     1: slice(block[0] // 2, block[0])}
        self._on_rows = {part: (self.k[:, rows], self.filter[rows], self.k_cross[:, rows],
                                self.dot[rows]) for part, rows in self.rows.items()}

    def allocate(self, alloc) -> None:
        """New buffers, alloc(shape, dtype), for the arrays a helper's process
        shares: the stack (whose u is the state), the product block, f(state),
        the weights, the audit's outputs and the plan's (``BandPlan.allocate``)."""
        dim, block = self.plan.grid.dim, self.plan.layout.block_shape
        vector, cplx = (dim,) + block, np.complex128
        self.stack = alloc((dim + len(self.k_cross),) + block, cplx)  # dealiased u, curl v
        self.state = self.stack[:dim]  # the kernel's u: the march's state, the stage in place
        self.product = alloc(vector, cplx)  # the cross product's block, f in place
        self.f_state = alloc(vector, cplx)  # f(state)
        self.weights = alloc((3,) + block, np.float64)  # E, w1, w2 of the step
        self.per_mode = alloc((2,) + block, np.float64)  # the audit's |u|^2 and Re conj(u) f
        self.maxima = alloc((2, 6), np.float64)  # the audit's diagnostics._MAXIMA, a row per part
        self.plan.allocate(partial(alloc, dtype=cplx))

    def split(self, phase: int) -> None:
        """Run a phase (``phase``) over the whole block: without a helper its
        whole range here; with one, start the helper's part 1, run part 0
        here and wait for the helper, one round trip of one byte each way.
        The one place every phase runs in this process, and the only code
        that starts or waits for the helper."""
        task = _PHASES[phase]
        if self.helper is None:
            task(self, None)
            return
        self.helper.start(phase)
        task(self, 0)
        self.helper.wait()

    def helper_share(self, phase: int) -> None:
        """The helper process's part of a phase: part 1 (``split``)."""
        _PHASES[phase](self, 1)

    def project(self, a: np.ndarray, out: np.ndarray, part: int | None = None) -> np.ndarray:
        """out = (filter (k x a)) x k = -(1 + alpha^2 A)^{-1} P a; out may be a.

        With part 0 or 1 only on that part's k_0 rows (``rows``). This is P
        in curl-curl form: -k x (k x a) / |k|^2 in 3D, and
        k_perp (k_perp . a) / |k|^2 in 2D, where k x a is the scalar
        k_0 a_1 - k_1 a_0. It ends in a cross product with the integer k, so
        k . out rounds relative to out, however much of a P removes. Every
        step is a real times a complex number or a difference, each rounded
        once, so the rows a call covers change no bit.
        """
        k, filter_, k_cross, dot = self._on_rows[part]
        rows = self.rows[part]
        kxa = _cross(k, a[:, rows], k_cross, dot)
        np.multiply(filter_, kxa, out=kxa)
        _cross(kxa, k, out[:, rows], dot)
        return out


@lru_cache(maxsize=8)
def _kernel_workspace(grid: GridSpec, alpha: float) -> _KernelWorkspace:
    return _KernelWorkspace(grid, alpha)


# (i, j) of each component a_i b_j - a_j b_i of a x b, by the components of a
_CROSS_PAIRS = {2: ((0, 1),), 3: ((1, 2), (2, 0), (0, 1))}


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The pointwise a x b into the rows of out.

    tmp is one component of scratch. a with one component is the scalar (2D)
    curl a e_z, and (a e_z) x b = (-a b_1, a b_0); two 2D vectors give the
    scalar a_0 b_1 - a_1 b_0 as component 0.
    """
    for o, row in enumerate(out):
        if a.shape[0] == 1:
            np.multiply(a[0], b[1 - o], out=row)
            if o == 0:
                np.negative(row, out=row)
        else:
            i, j = _CROSS_PAIRS[a.shape[0]][o]
            np.multiply(a[i], b[j], out=row)
            np.subtract(row, np.multiply(a[j], b[i], out=tmp), out=row)
    return out


def _curl_v_cross_u(phys: np.ndarray, rows: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """(curl v) x u into rows, from samples of u stacked over curl v: the
    kernel's pointwise step in ``BandPlan.share``."""
    dim = phys.ndim - 1
    return _cross(phys[dim:], phys[:dim], rows, tmp)


# The phases of _KernelWorkspace.split, by number: task(workspace, part), part
# None, 0 or 1.
_PHASES: list[Callable[[_KernelWorkspace, int | None], None]] = []


def phase(task: Callable[[_KernelWorkspace, int | None], None]) -> int:
    """Register task(workspace, part) as a phase of ``_KernelWorkspace.split``;
    its number, the byte the helper reads.

    task(ws, None) runs the whole phase, and part 0 and then part 1 the
    same operations on disjoint rows, fields, planes or columns of the
    workspace's arrays, which either part reads only where earlier phases
    wrote. A helper runs the task it had at its fork, so every module
    registers its phases when it is imported. Ten are registered: the
    kernel call's six (the curl, the plan's four, and one of two
    projections, as f goes to f(state) or not), the stage, the update and
    the audit's per-mode pass. Every kernel call runs its six on either band
    plan (an FFT plan's product is its phase 0). Work that runs once per run
    or per step length, or only with an option no workload sets, stays in
    one process: a phase pays only where a step makes it on most of the block.
    """
    _PHASES.append(task)
    return len(_PHASES) - 1


def _product_phase(ws: _KernelWorkspace, part: int | None, p: int) -> None:
    """Phase p of the kernel's product, on the stack into the product block:
    the only caller of ``BandPlan.share``."""
    ws.plan.share(ws.stack, ws.product, _curl_v_cross_u, p, part)


# the kernel's product, phase by phase (rhs_f_band)
_PRODUCT = tuple(phase(partial(_product_phase, p=p)) for p in range(BandPlan.PHASES))


def _curl(ws: _KernelWorkspace, part: int | None) -> None:
    """curl v of the kernel's u (the state) on part's rows, into the stack."""
    rows, dim = ws.rows[part], ws.plan.grid.dim
    _cross(ws.ikv[:, rows], ws.state[:, rows], ws.stack[dim:, rows], ws.dot[rows])


_CURL = phase(_curl)
_PROJECT = phase(lambda ws, part: ws.project(ws.product, ws.product, part))  # in place
_PROJECT_F = phase(lambda ws, part: ws.project(ws.product, ws.f_state, part))  # into f(state)


def rhs_f(u: SpectralField, params: Params) -> SpectralField:
    """f(u, u) = -(1 + alpha^2 A)^{-1} P[(curl v) x u], v = (1 + alpha^2 A) u.

    This is the production nonlinearity, in rotational filtered-momentum form:
    u.grad(v) + (grad u)^T v = (curl v) x u + grad(u.v), and the gradient is
    removed by the projection. It gathers u's band block into the workspace's
    state, runs ``rhs_f_band`` on it and joins the result (``BandLayout.join``),
    so it allocates only the f it returns. f is +0.0 outside the band block.
    """
    grid = u.grid
    ws = _kernel_workspace(grid, params.alpha)
    grid.layout.gather(u.coeffs, out=ws.state)
    return SpectralField.from_coeffs(grid, grid.layout.join(rhs_f_band(grid, ws.state, params)))


@contextmanager
def kernel_helper(grid: GridSpec, alpha: float) -> Iterator[None]:
    """Run half of every phase of the march's steps on (grid, alpha) in a forked
    helper process while the with block runs (``forks.helper``; Linux).

    A helper starts only for a GEMM plan with more than one slab of samples
    (``BandPlan.S`` < ``M``: every 3D grid from N=26 up) and a process
    allowed at least two CPUs; otherwise the block runs in this process
    alone. For the helper's lifetime the workspace's arrays that
    ``_KernelWorkspace.allocate`` names (the stack with the step's state,
    the product block, f(state) and weights, the audit's outputs) and the
    plan's ``_mid`` live in anonymous shared mappings, both processes hold
    OpenBLAS at one thread (``forks.one_blas_thread``), and each runs on
    CPUs of its own (``forks.helper``). Every kernel phase runs through
    ``_KernelWorkspace.split`` (an FFT plan's product is one phase), which
    then runs part 0 here and part 1 in the helper, one round trip of one
    byte each way per phase. A kernel call is six phases: curl v by k_0
    rows, the plan's four (``BandPlan.share``: the complex inverse passes
    by fields, the slabs by planes, and the two complex forward passes by
    n_0 rows and by columns), and the projection by k_0 rows. The march adds
    the stage, the update and the audit's per-mode pass, each by k_0 rows:
    15 round trips per ETD2RK step. This process alone
    computes each step length's weights (``integrator._weights``), the
    Galerkin cut, the audit's sums and checks, the tail and the snapshots,
    while the helper waits.
    Each part makes the operations the whole phase makes on its rows,
    fields, planes or columns, so every output is the same bits. Leaving the
    block ends the helper, then gives the workspace and the plan private
    buffers again, so that a process forked later
    (``picard_fork.picard_worker``) shares none of them.
    """
    ws = _kernel_workspace(grid, alpha)
    if not grid.layout.gemm or ws.plan.S >= ws.plan.M or len(os.sched_getaffinity(0)) < 2:
        yield
        return
    ws.allocate(forks.shared_array)
    try:
        with forks.one_blas_thread(), forks.helper(ws.helper_share) as ws.helper:
            yield
    finally:
        ws.helper = None
        ws.allocate(np.empty)


def rhs_f_band(
    grid: GridSpec,
    u: np.ndarray,
    params: Params,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The kernel of ``rhs_f``: f(u, u) from and to band blocks.

    u is the band block (see ``BandLayout``) of the field. One call makes one
    stacked inverse transform of the dealiased u and of curl v, and forward
    transforms of the cross product: 3 + 2 fields in 2D (the curl is a
    scalar), 6 + 3 in 3D, in the plan's four phases (``BandPlan.share``),
    which on a GEMM plan (every 3D grid) hold the cross product's samples
    one slab at a time. Every per-mode step runs on the band block in the
    buffers of a cached per-(grid, alpha) workspace, where the output
    filter and the projection are one curl-curl pass. f is written into
    out, or without it into the workspace's product block, which the next
    call on this (grid, alpha) overwrites.

    The kernel checks nothing: non-finite values pass through.
    ``diagnostics.audit`` checks the f(u) of every state that the march makes,
    and ``mild.picard_solve`` the nodes of its last iterate. Every call runs
    as six phases of ``_KernelWorkspace.split``, with or without a helper,
    on either band plan. Inside ``kernel_helper`` a forked process runs half
    of each; the call raises WorkerError if that process has ended, and f is
    the same bits with or without it. The phases read and write only the
    workspace's arrays: u in its ``state``, which no phase writes (any other
    u is copied there whole first, over a run's state), and f by rows into
    out that is ``f_state``, or else into the product block, copied into any other out.
    """
    ws = _kernel_workspace(grid, params.alpha)
    if u is not ws.state:
        np.copyto(ws.state, u)
    ws.split(_CURL)
    for product_phase in _PRODUCT:
        ws.split(product_phase)
    ws.split(_PROJECT_F if out is ws.f_state else _PROJECT)
    if out is None:
        return ws.product
    if out is not ws.f_state:
        np.copyto(out, ws.product)
    return out


def h1_alpha_pairing(u: SpectralField, f: SpectralField, alpha: float) -> float:
    """Energy pairing <(1 + alpha^2 A) u, f>; vanishes when f = f(u, u)."""
    return inner(v_from_u(u, alpha), f)


def v_from_u(u: SpectralField, alpha: float) -> SpectralField:
    """Filtered momentum v = (1 + alpha^2 A) u."""
    return u.copy_with(u.coeffs * (1.0 + alpha**2 * u.grid.k2))


def u_from_v(v: SpectralField, alpha: float) -> SpectralField:
    """Inverse of v_from_u."""
    return v.copy_with(v.coeffs / (1.0 + alpha**2 * v.grid.k2))


def v_nonlinearity(u: SpectralField, v: SpectralField) -> SpectralField:
    """Nonlinear part of the v-form: -P[u.grad(v) + (grad u)^T v].

    Oracle: ``run(form="v")`` steps it, and acceptance criterion 09 holds
    that run against the u-form kernel ``rhs_f``.
    """
    _check_same_grid(u, v)
    grid = u.grid
    uphys, gu = _vel_grad_phys(u)
    vphys, gv = _vel_grad_phys(v)
    transport = np.einsum("j...,ij...->i...", uphys, gv)
    stretch = np.einsum("ji...,j...->i...", gu, vphys)
    hat = _product_coeffs(transport + stretch, grid)
    # Two passes, kept as the oracle's own form independent of the kernel's:
    # the second is a no-op analytically but keeps the divergence residual
    # eps-relative to the result even when the projection cancels almost all of it.
    out = -1.0 * leray_project(leray_project(SpectralField.from_coeffs(grid, hat)))
    coeffs = np.array(out.coeffs)
    coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    return SpectralField.from_coeffs(grid, coeffs)

