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
  rounds relative to f itself. The kernel checks nothing: ``integrator.run``
  checks f(u) with the state u it is read with, in ``diagnostics.audit``.
- ``v_nonlinearity`` is the transport + stretch form of the v-equation that
  ``run(form="v")`` steps: the independent oracle of acceptance criterion
  09, the u/v equivalence.

The paper's gradient-stress form of the bilinear f(u1, u2), the reference
the kernel is tested against, lives with the tests (``stress_form_f`` in
``tests/conftest.py``).

Index conventions: (grad u)_{ij} = d_j u_i, matrix products contract adjacent
indices, and the tensor divergence is row-wise, (div T)_i = d_j T_{ij}.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
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
    """Multipliers and buffers of the rotational kernel for one (grid, alpha).

    Everything lives on the band block (see ``BandPlan``): the dealiased band
    is the whole block, so dealiasing is the gather itself. Every call of
    ``rhs_f_band`` on this (grid, alpha) reuses the same buffers, so the workspace
    is not re-entrant. lansfrac starts no threads of its own, and forks two
    kinds of process, both through ``forks.fork``. The kernel's helper
    (``kernel_helper``: ``simulate``, ``verify-energy``, ``smoothing``)
    shares the stack, the product block and the plan's ``_mid`` with this
    process while it runs, and runs part of every call: ``helper_share``.
    The Picard worker (``mild.picard_worker``, ``oracle-compare``) has a
    copy of its own; the parent's workspace serves its stepper and then,
    once the stepper has ended, the Picard nodes that the parent evaluates
    for the worker (``PicardWorker.result``). Outside a helper, OpenBLAS may
    split the band transforms' matrix products over its pool (``BandPlan``).

    It holds the band blocks of the stack (u and curl v), of the product and
    of the projection's k x a; the samples and the product's samples live
    in the plan (``BandPlan.product``). At 3D N=48 workspace and plan hold
    3.3 fields' bytes (8.7 MiB).
    """

    def __init__(self, grid: GridSpec, alpha: float):
        dim = grid.dim
        n_curl = 1 if dim == 2 else 3
        self.plan = plan = BandPlan(grid, inverse_fields=dim + n_curl, forward_fields=dim)
        self.k, k2 = plan.gather(grid.k), plan.gather(grid.k2)
        helm = 1.0 + alpha**2 * k2
        self.ikv = 1j * self.k * helm  # curl of v read off u
        # the output filter over the |k|^2 of the projection, mean pinned to zero
        self.filter = -1.0 / (helm * np.where(k2 > 0, k2, 1.0))
        self.filter[(0,) * dim] = 0.0
        for table in (self.ikv, self.filter, self.k):
            table.setflags(write=False)

        cplx, block = np.complex128, plan.block_shape
        self.stack = np.empty((dim + n_curl,) + block, cplx)  # dealiased u, curl v
        self.u_in = self.stack[:dim]  # the kernel's u, gathered or copied in place
        self.product = np.empty((dim,) + block, cplx)  # the cross product's block, f in place
        self.k_cross = np.empty((n_curl,) + block, cplx)  # k x a in the projection
        self.dot = np.empty(block, cplx)
        self.helper: forks.Helper | None = None  # see kernel_helper
        # the projection's tables and scratch on all rows (None), and on the
        # rows of this process (0) and of the helper (1)
        self._rows = (slice(0, block[0] // 2), slice(block[0] // 2, block[0]))
        self._on_rows = {None: (self.k, self.filter, self.k_cross, self.dot)}
        for half, rows in enumerate(self._rows):
            self._on_rows[half] = (self.k[:, rows], self.filter[rows], self.k_cross[:, rows],
                                   self.dot[rows])

    def allocate(self, alloc) -> None:
        """New buffers, alloc(shape), for the arrays a helper's process shares:
        the stack, the product's block and the plan's (``BandPlan.allocate``)."""
        self.stack = alloc(self.stack.shape)
        self.u_in = self.stack[: self.plan.grid.dim]
        self.product = alloc(self.product.shape)
        self.plan.allocate(alloc)

    def helper_share(self, phase: int) -> None:
        """The helper process's part of one phase of a kernel call: of the
        product's (``BandPlan.share``), or the projection's second half of rows."""
        if phase == _PROJECT:
            self.project(self.product, self.product, 1)
        else:
            self.plan.share(self.stack, self.product, _curl_v_cross_u, phase, 1)

    def project(self, a: np.ndarray, out: np.ndarray, half: int | None = None) -> np.ndarray:
        """out = (filter (k x a)) x k = -(1 + alpha^2 A)^{-1} P a; out may be a.

        With half 0 or 1 only on that half of the rows (``_rows``, the first
        block axis). This is P in curl-curl form: -k x (k x a) / |k|^2 in
        3D, and k_perp (k_perp . a) / |k|^2 in 2D, where k x a is the scalar
        k_0 a_1 - k_1 a_0. It ends in a cross product with the integer k, so
        k . out rounds relative to out, however much of a P removes. Every
        step is a real times a complex number or a difference, each rounded
        once, so the rows a call covers change no bit.
        """
        k, filter_, k_cross, dot = self._on_rows[half]
        rows_out = out
        if half is not None:
            a, rows_out = a[:, self._rows[half]], out[:, self._rows[half]]
        kxa = _cross(k, a, k_cross, dot)
        np.multiply(filter_, kxa, out=kxa)
        _cross(kxa, k, rows_out, dot)
        return out


@lru_cache(maxsize=8)
def _kernel_workspace(grid: GridSpec, alpha: float) -> _KernelWorkspace:
    return _KernelWorkspace(grid, alpha)


# The helper's phase of the projection, after BandPlan.product's three phases
_PROJECT = 3

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
    kernel's pointwise step in ``BandPlan.product``."""
    dim = phys.ndim - 1
    return _cross(phys[dim:], phys[:dim], rows, tmp)


def rhs_f(u: SpectralField, params: Params) -> SpectralField:
    """f(u, u) = -(1 + alpha^2 A)^{-1} P[(curl v) x u], v = (1 + alpha^2 A) u.

    This is the production nonlinearity, in rotational filtered-momentum form:
    u.grad(v) + (grad u)^T v = (curl v) x u + grad(u.v), and the gradient is
    removed by the projection. It gathers the band block of u, runs
    ``rhs_f_band`` on it and joins the result (``BandPlan.join``), so it
    allocates only the f it returns. f is +0.0 outside the band block.
    """
    grid = u.grid
    ws = _kernel_workspace(grid, params.alpha)
    u_band = ws.plan.gather(u.coeffs, out=ws.u_in)
    return SpectralField.from_coeffs(grid, ws.plan.join(rhs_f_band(grid, u_band, params)))


@contextmanager
def kernel_helper(grid: GridSpec, alpha: float) -> Iterator[None]:
    """Run half of every ``rhs_f_band`` call on (grid, alpha) in a forked helper
    process while the with block runs (``forks.helper``; Linux).

    A helper starts only for a GEMM plan with more than one slab of samples
    (``BandPlan.S`` < ``M``: every 3D grid from N=26 up) and a process
    allowed at least two CPUs; otherwise the block runs in this process
    alone. For the helper's lifetime the workspace's stack and product
    block and the plan's ``_mid`` live in anonymous shared mappings
    (``allocate``), both processes hold OpenBLAS at one thread
    (``forks.one_blas_thread``), and each runs on CPUs of its own
    (``forks.helper``). Each call then runs in four phases, one
    round trip of one byte each way apiece: the helper runs the complex
    inverse passes of curl v, the slabs past the middle plane and the
    complex forward passes of f's components 1 and 2 (part 1 of each
    ``BandPlan.share``), then the projection's second half of rows in place
    in the shared product block. This process runs the rest, and the curl
    and the copy into out alone. Every operation is one a lone process
    makes, so f is the same bits. Leaving the block ends the helper, then
    gives the workspace and the plan private buffers again, so that a
    process forked later (``mild.picard_worker``) shares none of them.
    """
    ws = _kernel_workspace(grid, alpha)
    if not ws.plan.gemm or ws.plan.S >= ws.plan.M or len(os.sched_getaffinity(0)) < 2:
        yield
        return
    ws.allocate(forks.shared_array)
    try:
        with forks.one_blas_thread(), forks.helper(ws.helper_share) as ws.helper:
            yield
    finally:
        ws.helper = None
        ws.allocate(partial(np.empty, dtype=np.complex128))


def band_plan(grid: GridSpec, alpha: float) -> BandPlan:
    """The plan ``rhs_f_band`` runs on; its gather, split and join fix the block layout."""
    return _kernel_workspace(grid, alpha).plan


def rhs_f_band(
    grid: GridSpec,
    u: np.ndarray,
    params: Params,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The kernel of ``rhs_f``: f(u, u) from and to band blocks.

    u is the band block (see ``BandPlan``) of the field. One call makes one
    stacked inverse transform of the dealiased u and of curl v, and forward
    transforms of the cross product: 3 + 2 fields in 2D (the curl is a
    scalar), 6 + 3 in 3D, all in one ``BandPlan.product``, which on a GEMM
    plan (every 3D grid) holds the cross product's samples one slab at a
    time. Every per-mode step runs on the band
    block in the buffers of a cached per-(grid, alpha) workspace, where the
    output filter and the projection are one curl-curl pass. f is written
    into out, or without it into a workspace buffer that the next call on
    this (grid, alpha) overwrites.

    The kernel checks nothing: non-finite values pass through.
    ``diagnostics.audit`` checks the f(u) of every state that ``run`` makes,
    and ``mild.picard_solve`` the nodes of its last iterate. Inside
    ``kernel_helper`` a forked process runs half of the call (its phases:
    ``kernel_helper``), and the call raises WorkerError if that process
    has ended; f is the same bits with or without it.
    """
    dim = grid.dim
    ws = _kernel_workspace(grid, params.alpha)
    if u is not ws.u_in:
        np.copyto(ws.u_in, u)
    _cross(ws.ikv, ws.u_in, ws.stack[dim:], ws.dot)
    product = ws.plan.product(ws.stack, ws.product, _curl_v_cross_u, ws.helper)
    if ws.helper is None:
        return ws.project(product, product if out is None else out)
    ws.helper.start(_PROJECT)  # the rows of each process, in place in the shared product
    ws.project(product, product, 0)
    ws.helper.wait()
    if out is None:
        return product
    np.copyto(out, product)
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

