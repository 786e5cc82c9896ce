"""Nonlinear terms of the averaged model.

The momentum equation is stepped in the form du/dt = -nu A^s u + f(u, u) with

    f(u1, u2) = -P_alpha[ u1.grad(u2) + U_alpha(u1, u2) ],

where U_alpha is the averaged-fluctuation stress and P_alpha the regularized
Stokes projector, which on the torus coincides with the Leray projection
because (1 - alpha^2 Laplacian) is a scalar multiplier. All quadratic products
are formed pointwise in physical space with 2/3-dealiased inputs and outputs,
so the discrete nonlinearity annihilates the H^1_alpha energy pairing to
rounding for band-limited fields.

Three implementations of the nonlinearity live here:

- ``rhs_f``, the production kernel, evaluates f(u, u) in rotational
  filtered-momentum form, -(1 + alpha^2 A)^{-1} P[(curl v) x u] with
  v = (1 + alpha^2 A) u. Its arithmetic is ``rhs_f_band``, which maps band
  blocks to band blocks; the Picard oracle calls that kernel directly.
- ``stress_form_f`` is the paper's gradient-stress definition of the
  bilinear f; it is the reference the kernel is tested against.
- ``v_nonlinearity`` is the transport + stretch form of the v-equation that
  ``run(form="v")`` steps, the independent side of the u/v equivalence.

Index conventions: (grad u)_{ij} = d_j u_i, matrix products contract adjacent
indices, and the tensor divergence is row-wise, (div T)_i = d_j T_{ij}.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivergedError, InconsistentPairError
from .spectral import (
    MEAN_TOL,
    SOLENOIDAL_TOL,
    BandPlan,
    GridSpec,
    Params,
    SpectralField,
    _check_same_grid,
    coeffs_to_phys,
    frac_stokes_apply,
    inner,
    leray_project,
    mode_dot,
    phys_to_coeffs,
)

# f counts as annihilated by the projection, and so exempt from the
# solenoidal check, when ||f|| <= ESCAPE_TOL ||filtered product||.
ESCAPE_TOL = 1e-12


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
    is not re-entrant; lansfrac starts no threads.
    """

    def __init__(self, grid: GridSpec, alpha: float):
        dim = grid.dim
        n_curl = 1 if dim == 2 else 3
        self.plan = plan = BandPlan(grid, inverse_fields=dim + n_curl, forward_fields=dim)
        k, k2 = plan.gather(grid.k), plan.gather(grid.k2)
        helm = 1.0 + alpha**2 * k2
        kabs = np.sqrt(k2)
        self.ikv = 1j * k * helm  # curl of v read off u
        self.khat = k / np.where(kabs > 0, kabs, 1.0)  # the Leray projection
        self.out = -1.0 / helm  # the output filter, with the mean pinned to zero
        self.out[(0,) * dim] = 0.0
        self.k, self.weight = k, plan.gather(grid.weight)  # the post-condition of f
        for table in (self.ikv, self.khat, self.out, self.k, self.weight):
            table.setflags(write=False)

        cplx, block = np.complex128, plan.block_shape
        self.stack = np.empty((dim + n_curl,) + block, cplx)  # dealiased u1, curl v2
        self.u_in = self.stack[:dim]  # the kernel's u1, gathered or copied in place
        self.u2 = np.empty((dim,) + block, cplx)
        self.filtered = np.empty((dim,) + block, cplx)
        self.projected = np.empty((dim,) + block, cplx)
        self.terms = np.empty((dim,) + block, cplx)
        self.dot = np.empty(block, cplx)
        self.cross = np.empty((dim,) + grid.shape)
        self.cross_tmp = np.empty(grid.shape)

    def project(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = a - khat (khat . a): one pass of the Leray projection; out may be a."""
        np.multiply(self.khat, a, out=self.terms)
        np.sum(self.terms, axis=0, out=self.dot)
        np.multiply(self.khat, self.dot, out=self.terms)
        return np.subtract(a, self.terms, out=out)

    def _sq_norm(self, a: np.ndarray) -> float:
        """sum_k w(k) |a(k)|^2 over a band block: ||field||^2 / measure."""
        return float(np.einsum("i,i->", self.weight.ravel(), mode_dot(a, a).ravel()))

    def violation(self, f: np.ndarray, filtered: np.ndarray) -> str | None:
        """Which post-condition the band block f of f(u, u) breaks, or None.

        The field that is f on the band and zero elsewhere must have the
        zero_mean and solenoidal flags of ``measure_flags``, with the same
        tolerances. It is exempt from the solenoidal one when
        ||f|| <= ESCAPE_TOL ||filtered||: then the projection annihilated the
        product and f is rounding dust with no certifiable direction.
        Non-finite values pass; they are left to the divergence detector.
        """
        scale = float(np.max(np.abs(f)))
        if scale == 0.0 or not math.isfinite(scale):
            return None
        if float(np.max(np.abs(f[(slice(None),) + (0,) * (f.ndim - 1)]))) > MEAN_TOL * scale:
            return "carries a mean"
        np.multiply(self.k, f, out=self.terms)
        kdot = np.sum(self.terms, axis=0, out=self.dot)
        norm = math.sqrt(self._sq_norm(f))
        if float(np.max(np.abs(kdot))) <= SOLENOIDAL_TOL * norm:
            return None
        if norm <= ESCAPE_TOL * math.sqrt(self._sq_norm(filtered)):
            return None
        return "is not solenoidal"


@lru_cache(maxsize=8)
def _kernel_workspace(grid: GridSpec, alpha: float) -> _KernelWorkspace:
    return _KernelWorkspace(grid, alpha)


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Pointwise a x b into out, with tmp one component of scratch.

    a with one component is the scalar (2D) curl a e_z; two 2D vectors give
    the scalar a_0 b_1 - a_1 b_0 in out[0].
    """
    if a.shape[0] == 1:
        np.negative(np.multiply(a[0], b[1], out=out[0]), out=out[0])
        np.multiply(a[0], b[0], out=out[1])
        return out
    pairs = ((0, 1),) if a.shape[0] == 2 else ((1, 2), (2, 0), (0, 1))
    for o, (i, j) in zip(out, pairs):
        np.multiply(a[i], b[j], out=o)
        np.subtract(o, np.multiply(a[j], b[i], out=tmp), out=o)
    return out


def rhs_f(u1: SpectralField, u2: SpectralField, params: Params) -> SpectralField:
    """f(u, u) = -(1 + alpha^2 A)^{-1} P[(curl v) x u], v = (1 + alpha^2 A) u.

    This is the production nonlinearity, in rotational filtered-momentum form:
    u.grad(v) + (grad u)^T v = (curl v) x u + grad(u.v), and the gradient is
    removed by the projection. It gathers the band blocks of u1 and u2, runs
    ``rhs_f_band`` on them and scatters the result, so it allocates only the
    f it returns. f is zero outside the band block.

    It equals the paper's f(u1, u2) = -P[u1.grad(u2) + U_alpha(u1, u2)]
    exactly only on the diagonal u1 = u2, which is every call the solver
    makes. Off the diagonal it is the rotational polarization
    -(1 + alpha^2 A)^{-1} P[u1.grad(v2) + (grad u1)^T v2], with u1 as the
    velocity and v2 = (1 + alpha^2 A) u2; ``stress_form_f`` computes the
    paper's bilinear form.
    """
    _check_same_grid(u1, u2)
    grid = u1.grid
    ws = _kernel_workspace(grid, params.alpha)
    u_band = ws.plan.gather(u1.coeffs, out=ws.u_in)
    c_band = None if u2 is u1 else ws.plan.gather(u2.coeffs, out=ws.u2)
    return _band_field(grid, ws.plan, rhs_f_band(grid, u_band, params, c_band))


def band_plan(grid: GridSpec, alpha: float) -> BandPlan:
    """The plan ``rhs_f_band`` runs on; its gather and scatter fix the block layout."""
    return _kernel_workspace(grid, alpha).plan


def rhs_f_band(
    grid: GridSpec,
    u1: np.ndarray,
    params: Params,
    u2: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The kernel of ``rhs_f``: f(u1, u2) from and to band blocks.

    u1 and u2 are the band blocks (see ``BandPlan``) of the two arguments;
    u2 = None is the diagonal u2 = u1. One call makes one stacked inverse
    transform of the dealiased u and of curl v, and one forward transform of
    the cross product: 3 + 2 fields in 2D (the curl is a scalar), 6 + 3 in
    3D. Both are band-pruned transforms, and every per-mode step runs on the
    band block in the buffers of a cached per-(grid, alpha) workspace. f is
    written into out, or without it into a workspace buffer that the next
    call on this (grid, alpha) overwrites.

    f is certified on the band block before it is returned: mean-free and
    solenoidal (see ``_KernelWorkspace.violation``). f is zero outside the
    block, so the check decides what ``measure_flags`` of f would. It is an
    explicit test, kept under ``python -O``; a broken f raises DivergedError.
    """
    dim = grid.dim
    ws = _kernel_workspace(grid, params.alpha)
    plan, stack = ws.plan, ws.stack
    if u1 is not ws.u_in:
        np.copyto(ws.u_in, u1)
    _cross(ws.ikv, ws.u_in if u2 is None else u2, stack[dim:], ws.dot)
    phys = coeffs_to_phys(stack, dim, band=plan)
    prod = phys_to_coeffs(_cross(phys[dim:], phys[:dim], ws.cross, ws.cross_tmp), dim, band=plan)

    filtered = np.multiply(ws.out, prod, out=ws.filtered)
    # A second pass is a no-op analytically but keeps the divergence residual
    # eps-relative to f itself when the projection removes almost all of the
    # product, as it does near an oblique shear.
    out = ws.projected if out is None else out
    projected = ws.project(ws.project(filtered, ws.projected), out)
    problem = ws.violation(projected, filtered)
    if problem is not None:
        raise DivergedError(f"the nonlinearity f(u, u) {problem}")
    return projected


def _band_field(grid: GridSpec, plan: BandPlan, block: np.ndarray) -> SpectralField:
    """The field whose band modes are a band block and whose other modes are zero."""
    coeffs = np.zeros((grid.dim,) + grid.spectral_shape, np.complex128)
    return SpectralField.from_coeffs(grid, plan.scatter(block, coeffs))


def stress_form_f(u1: SpectralField, u2: SpectralField, params: Params) -> SpectralField:
    """Oracle: the paper's f(u1, u2) = -P[u1.grad(u2) + U_alpha(u1, u2)].

    U_alpha(u1, u2) = alpha^2 (1 - alpha^2 Lap)^{-1} div[G1 G2^T + G1 G2 - G1^T G2]
    with Gi = grad(ui), and P_alpha reduces to the Leray projection P on the
    torus. This gradient-stress form is the paper's definition of the
    bilinear f, off the diagonal too; it transforms 12 + 12 fields in 3D and
    is kept as the independent reference for ``rhs_f``.
    """
    _check_same_grid(u1, u2)
    grid = u1.grid
    dim = grid.dim
    vel1, g1 = _vel_grad_phys(u1)
    g2 = g1 if u2 is u1 else _vel_grad_phys(u2)[1]
    adv = np.einsum("j...,ij...->i...", vel1, g2)
    tens = (
        np.einsum("ik...,jk...->ij...", g1, g2)
        + np.einsum("ik...,kj...->ij...", g1, g2)
        - np.einsum("ki...,kj...->ij...", g1, g2)
    )
    stacked = phys_to_coeffs(
        np.concatenate([adv, tens.reshape((dim * dim,) + grid.shape)]), dim
    )
    div = np.einsum(
        "j...,ij...->i...",
        1j * grid.k,
        stacked[dim:].reshape((dim, dim) + grid.spectral_shape),
    )
    alpha2 = params.alpha**2
    hat = _dealiased(stacked[:dim] + div * (alpha2 / (1.0 + alpha2 * grid.k2)), grid)
    # Projecting twice is a no-op analytically but keeps the divergence
    # residual eps-relative to f itself even when the projection cancels
    # almost all of the nonlinearity (shear-like flows).
    out = -(leray_project(leray_project(SpectralField.from_coeffs(grid, hat))))
    # The mean is annihilated analytically (divergence structure); pin it.
    coeffs = np.array(out.coeffs)
    coeffs[(slice(None),) + (0,) * dim] = 0.0
    return SpectralField.from_coeffs(grid, coeffs)


def h1_alpha_pairing(u: SpectralField, f: SpectralField, alpha: float) -> float:
    """Energy pairing <(1 + alpha^2 A) u, f>; vanishes when f = f(u, u)."""
    w = u.copy_with(u.coeffs * (1.0 + alpha**2 * u.grid.k2))
    return inner(w, f)


def v_from_u(u: SpectralField, alpha: float) -> SpectralField:
    """Filtered momentum v = (1 + alpha^2 A) u."""
    return u.copy_with(u.coeffs * (1.0 + alpha**2 * u.grid.k2))


def u_from_v(v: SpectralField, alpha: float) -> SpectralField:
    """Inverse of v_from_u."""
    return v.copy_with(v.coeffs / (1.0 + alpha**2 * v.grid.k2))


PAIR_TOL = 1e-8


def v_nonlinearity(u: SpectralField, v: SpectralField) -> SpectralField:
    """Nonlinear part of the v-form: -P[u.grad(v) + (grad u)^T v]."""
    _check_same_grid(u, v)
    grid = u.grid
    uphys, gu = _vel_grad_phys(u)
    vphys, gv = _vel_grad_phys(v)
    transport = np.einsum("j...,ij...->i...", uphys, gv)
    stretch = np.einsum("ji...,j...->i...", gu, vphys)
    hat = _product_coeffs(transport + stretch, grid)
    out = -1.0 * leray_project(leray_project(SpectralField.from_coeffs(grid, hat)))
    coeffs = np.array(out.coeffs)
    coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    return SpectralField.from_coeffs(grid, coeffs)


def rhs_v(u: SpectralField, v: SpectralField, params: Params) -> SpectralField:
    """Right-hand side of the v-form: -nu A^s v - P[u.grad(v) + (grad u)^T v]."""
    _check_same_grid(u, v)
    expected = v_from_u(u, params.alpha)
    scale = float(np.max(np.abs(v.coeffs))) or 1.0
    if float(np.max(np.abs(expected.coeffs - v.coeffs))) > PAIR_TOL * scale:
        raise InconsistentPairError("v does not match (1 + alpha^2 A) u")
    return v_nonlinearity(u, v) - params.nu * frac_stokes_apply(v, params.s)
