"""Nonlinear-term tests: hand-computed flows, FD oracles, cancellation.

rhs_f is the production kernel (rotational filtered-momentum form); it
evaluates f on the diagonal only, f(u, u).
stress_form_f is the paper's bilinear f in gradient-stress form: the
transport u1.grad(u2) and the averaged stress U_alpha(u1, u2) built from the
gradients of both arguments. The analytic and finite-difference checks of the
gradient, the advection and U_alpha run through it.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lansfrac import (
    InitialData,
    Params,
    dealias,
    make_grid,
    make_initial,
    norm_DAr,
    rhs_f,
    u_from_v,
)
from lansfrac.diagnostics import audit, audit_tables
from lansfrac.errors import GridError
from lansfrac.operators import (
    _cross,
    _curl_v_cross_u,
    _kernel_workspace,
    h1_alpha_pairing,
    kernel_helper,
    rhs_f_band,
    v_from_u,
    v_nonlinearity,
)
from lansfrac.spectral import (
    SOLENOIDAL_TOL,
    BandPlan,
    SpectralField,
    coeffs_to_phys,
    frac_stokes_apply,
    l2_norm,
    leray_project,
    measure_flags,
    phys_to_coeffs,
    to_physical,
    to_spectral,
)

from conftest import (
    embed_band_coeffs,
    no_tail,
    random_band_block,
    random_field,
    rel_err,
    stress_form_f,
    whole_field_flags,
    zero_field,
)


def shear(grid, amplitude=1.0):
    return make_initial(InitialData(kind="shear", amplitude=amplitude), grid)


def taylor_green(grid, amplitude=1.0):
    return make_initial(InitialData(kind="taylor-green", amplitude=amplitude), grid)


def cross_wave(grid):
    """(0, sin x): paired with the shear (sin y, 0) it gives f in closed form."""
    x = grid.x[0]
    return to_spectral(np.stack([np.zeros_like(x), np.sin(x)]), grid)


def tg_profile(grid):
    x, y = grid.x
    return np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])


def stress_coefficient(alpha):
    """U_alpha of a |k| = 1 gradient pair carries alpha^2 / (1 + 2 alpha^2)."""
    return alpha**2 / (1 + 2 * alpha**2)


def _fd_gradient(phys, dx):
    """Centered second-order finite differences on the periodic grid."""
    dim = phys.shape[0]
    out = np.empty((dim, dim) + phys.shape[1:])
    for i in range(dim):
        for j in range(dim):
            out[i, j] = (np.roll(phys[i], -1, axis=j) - np.roll(phys[i], 1, axis=j)) / (2 * dx)
    return out


def _fd_stress_form_f(u1, u2, alpha):
    """f(u1, u2) with every derivative taken by centered differences.

    The gradients and the stress divergence are second-order differences;
    the Helmholtz inverse and the Leray projection are the exact multipliers.
    """
    g = u1.grid
    p1, p2 = to_physical(u1), to_physical(u2)
    g1, g2 = _fd_gradient(p1, g.dx), _fd_gradient(p2, g.dx)
    adv = np.einsum("j...,ij...->i...", p1, g2)
    tens = (
        np.einsum("ik...,jk...->ij...", g1, g2)
        + np.einsum("ik...,kj...->ij...", g1, g2)
        - np.einsum("ki...,kj...->ij...", g1, g2)
    )
    div = np.empty_like(p1)
    for i in range(g.dim):
        div[i] = sum(
            (np.roll(tens[i, j], -1, axis=j) - np.roll(tens[i, j], 1, axis=j)) / (2 * g.dx)
            for j in range(g.dim)
        )
    stress = alpha**2 * u_from_v(to_spectral(div, g), alpha)
    return -leray_project(to_spectral(adv, g) + stress)


def _fd_error_ratio(alpha, seeds):
    """FD-oracle error of stress_form_f at N = 32 over N = 64; 4 at order two."""
    p = Params(alpha=alpha, nu=1.0, s=0.5)
    errs = []
    for n in (32, 64):
        g = make_grid(2, n)
        u1, u2 = (embed_band_coeffs(random_band_block(2, 3, seed=sd), g) for sd in seeds)
        diff = to_physical(stress_form_f(u1, u2, p)) - to_physical(_fd_stress_form_f(u1, u2, alpha))
        errs.append(np.max(np.abs(diff)))
    return errs[0] / errs[1]


# ---------------------------------------------------------------- gradient

def test_gradient_shear(grid2):
    # grad(shear) has the single entry d_y u_1 = cos y; it enters the
    # transport and the stress, and f comes out as a multiple of Taylor-Green
    u, w = shear(grid2), cross_wave(grid2)
    for alpha in (0.0, 0.5, 1.0):
        p = Params(alpha=alpha, nu=1.0, s=0.5)
        expect = 0.5 * (1 + stress_coefficient(alpha)) * tg_profile(grid2)
        assert np.max(np.abs(to_physical(stress_form_f(u, w, p)) - expect)) < 1e-13
        assert np.max(np.abs(to_physical(stress_form_f(w, u, p)) + expect)) < 1e-13


def test_gradient_constant_is_zero(grid2, params):
    coeffs = np.zeros((2,) + grid2.spectral_shape, dtype=np.complex128)
    coeffs[:, 0, 0] = (1.0, 2.0)
    const = SpectralField.from_coeffs(grid2, coeffs)
    u = random_field(grid2, seed=6)
    assert np.max(np.abs(stress_form_f(u, const, params).coeffs)) == 0.0
    assert np.max(np.abs(rhs_f(const, params).coeffs)) == 0.0


def test_gradient_matches_fd_at_order_two():
    # off the diagonal, so the gradients of both arguments are exercised
    ratio = _fd_error_ratio(0.5, seeds=(5, 6))
    assert 3.3 < ratio < 4.7  # h^2 convergence under one halving


# ----------------------------------------------------------------- advect
# At alpha = 0 the stress vanishes and f(u1, u2) = -P[u1.grad(u2)].

NO_ALPHA = Params(alpha=0.0, nu=1.0, s=0.5)


def test_advect_shear_vanishes(grid2):
    u = shear(grid2)
    assert l2_norm(stress_form_f(u, u, NO_ALPHA)) < 1e-14
    assert l2_norm(rhs_f(u, NO_ALPHA)) < 1e-14


def test_advect_taylor_green_analytic(grid2):
    # TG . grad(shear) = (-cos x sin y cos y, 0), projected onto its
    # divergence-free part
    f = to_physical(stress_form_f(taylor_green(grid2), shear(grid2), NO_ALPHA))
    x, y = grid2.x
    assert np.max(np.abs(f[0] - 0.4 * np.cos(x) * np.sin(2 * y))) < 1e-13
    assert np.max(np.abs(f[1] + 0.2 * np.sin(x) * np.cos(2 * y))) < 1e-13


def test_advect_taylor_green_is_pure_gradient(grid2):
    # 2D TG transport is grad(-(cos 2x + cos 2y)/4): the projection removes it
    u = taylor_green(grid2)
    assert l2_norm(stress_form_f(u, u, NO_ALPHA)) < 1e-12
    assert l2_norm(rhs_f(u, NO_ALPHA)) < 1e-12


def test_advect_matches_fd_at_order_two():
    ratio = _fd_error_ratio(0.0, seeds=(9, 9))
    assert 3.3 < ratio < 4.7


def test_advect_grid_mismatch(grid2, params):
    w = random_field(make_grid(2, 16), seed=1)
    with pytest.raises(GridError):
        stress_form_f(shear(grid2), w, params)


# ---------------------------------------------------------------- u_alpha
# U_alpha is the alpha-dependent part of stress_form_f: f(alpha) - f(0) = -P U_alpha.

@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_u_alpha_shear_analytic(grid2, alpha):
    u, w = shear(grid2), cross_wave(grid2)
    p = Params(alpha=alpha, nu=1.0, s=0.5)
    stress = stress_form_f(u, w, p) - stress_form_f(u, w, NO_ALPHA)
    expect = 0.5 * stress_coefficient(alpha) * tg_profile(grid2)
    assert np.max(np.abs(to_physical(stress) - expect)) < 1e-13


def test_u_alpha_zero_alpha(grid2):
    # at alpha = 0 only the transport is left: compare with the dealiased
    # pseudo-spectral product built here from physical samples
    u1 = dealias(random_field(grid2, seed=13))
    u2 = dealias(random_field(grid2, seed=14))
    vel = to_physical(u1)
    grad = [to_physical(u2.copy_with(1j * grid2.k[j] * u2.coeffs)) for j in range(2)]
    adv = dealias(to_spectral(sum(vel[j] * grad[j] for j in range(2)), grid2))
    expect = -leray_project(adv)
    assert rel_err(stress_form_f(u1, u2, NO_ALPHA).coeffs, expect.coeffs) < 1e-13


def test_u_alpha_bilinear_scaling(grid2):
    u1 = random_field(grid2, seed=15)
    u2 = random_field(grid2, seed=16)
    u3 = random_field(grid2, seed=17)
    p = Params(alpha=0.6, nu=1.0, s=0.5)
    a = 3.7
    right = stress_form_f(u1, u2, p)
    assert rel_err(stress_form_f(a * u1, u2, p).coeffs, a * right.coeffs) < 1e-12
    assert rel_err(stress_form_f(u1, a * u2, p).coeffs, a * right.coeffs) < 1e-12
    split = right + stress_form_f(u1, u3, p)
    assert rel_err(stress_form_f(u1, u2 + u3, p).coeffs, split.coeffs) < 1e-12


def test_u_alpha_matches_fd_at_order_two():
    ratio = _fd_error_ratio(0.5, seeds=(17, 17))
    assert 3.3 < ratio < 4.7


# --------------------------------------------------------- Stokes projector
# On the torus P_alpha is the Leray projection: (1 - alpha^2 Lap) is a scalar
# multiplier and commutes with it.

def test_stokes_projector_kills_compressive(grid2):
    from conftest import single_mode_field

    f = single_mode_field(grid2, (0, 2), (0, 1.0))
    assert l2_norm(leray_project(f)) < 1e-14


def test_stokes_projector_fixes_solenoidal(grid2):
    u = random_field(grid2, seed=23)
    assert rel_err(leray_project(u).coeffs, u.coeffs) < 1e-14


def test_stokes_projector_defining_relation(grid2):
    # (1 - a^2 Lap)(P_alpha w - w) must be k-parallel mode by mode, i.e. its
    # Leray projection vanishes, and P_alpha w must be divergence-free
    from conftest import random_hermitian_field

    w = random_hermitian_field(grid2, seed=24)
    alpha = 0.8
    pw = leray_project(w)
    assert pw.solenoidal
    residual = v_from_u(pw - w, alpha)
    perp = leray_project(residual)
    # remove the k=0 part (projection leaves it, but the relation is modulo gradients)
    scale = np.max(np.abs(residual.coeffs))
    assert np.max(np.abs(perp.coeffs[:, 1:, :])) < 1e-12 * scale


# ------------------------------------------------------------------- rhs_f

def test_rhs_f_shear_vanishes(grid2, params):
    u = shear(grid2)
    assert l2_norm(rhs_f(u, params)) < 1e-13


def test_rhs_f_zero_field(grid2, params):
    z = zero_field(grid2)
    assert l2_norm(rhs_f(z, params)) == 0.0


def test_rhs_f_flags_and_parts(grid2, params):
    # the parts of the paper's f (transport and averaged stress, recombined
    # and projected by the oracle) give the rotational kernel's value
    u = dealias(random_field(grid2, seed=31))
    f = rhs_f(u, params)
    assert f.solenoidal and f.zero_mean and f.hermitian
    assert rel_err(stress_form_f(u, u, params).coeffs, f.coeffs) < 1e-13


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("dim,n", [(2, 64), (3, 32)])
def test_rhs_f_matches_both_oracles_on_the_diagonal(dim, n, alpha):
    grid = make_grid(dim, n)
    p = Params(alpha=alpha, nu=1.0, s=0.75)
    for seed in (500, 501):
        u = dealias(random_field(grid, seed=seed))
        f = rhs_f(u, p)
        assert f.hermitian and f.solenoidal and f.zero_mean
        assert rel_err(f.coeffs, stress_form_f(u, u, p).coeffs) <= 1e-13
        v_form = u_from_v(v_nonlinearity(u, v_from_u(u, alpha)), alpha)
        assert rel_err(f.coeffs, v_form.coeffs) <= 1e-13


def _block_norm(ws, block) -> float:
    """||field|| / sqrt(measure) of the field that is a band block on the band."""
    grid = ws.plan.grid
    weight = grid.layout.gather(grid.weight)
    return math.sqrt(np.sum(weight * np.sum(np.abs(block) ** 2, axis=0)))


@pytest.mark.parametrize("dim,n", [(2, 64), (3, 16), (3, 32)])
def test_rhs_f_near_oblique_shear_stays_solenoidal(dim, n):
    # the projection removes almost all of (curl v) x u here, and all of it
    # on the pure shear (noise 0); f must still be divergence-free relative
    # to its own size, with no exemption for an f that is rounding dust
    grid = make_grid(dim, n)
    x = grid.x
    phys = np.zeros((dim,) + grid.shape)
    phys[0], phys[1] = np.sin(x[0] + 2 * x[1]), -0.5 * np.sin(x[0] + 2 * x[1])
    base = to_spectral(phys, grid)
    p = Params(alpha=0.5, nu=1.0, s=0.75)
    ws = _kernel_workspace(grid, p.alpha)
    for eps in (1e-3, 1e-5, 1e-7, 1e-9, 0.0):
        u = base + eps * dealias(random_field(grid, seed=3))
        f = rhs_f(u, p)
        assert f.solenoidal and f.zero_mean
        block = rhs_f_band(grid, grid.layout.gather(u.coeffs), p)
        norm = _block_norm(ws, block)
        if norm > 0.0:
            assert np.max(np.abs(np.sum(ws.k * block, axis=0))) <= SOLENOIDAL_TOL * norm


def _unpruned_rotational_f(u: SpectralField, alpha: float) -> np.ndarray:
    """The rotational kernel on full half spectra with unpruned transforms."""
    grid = u.grid
    dim, k, mask = grid.dim, grid.k, grid.dealias_mask
    helm = 1.0 + alpha**2 * grid.k2
    ikv = 1j * k * (helm * mask)
    c = u.coeffs
    if dim == 2:
        curl = (ikv[0] * c[1] - ikv[1] * c[0])[np.newaxis]
    else:
        curl = np.stack([ikv[1] * c[2] - ikv[2] * c[1], ikv[2] * c[0] - ikv[0] * c[2],
                         ikv[0] * c[1] - ikv[1] * c[0]])
    axes = tuple(range(-dim, 0))
    phys = np.fft.irfftn(np.concatenate([c * mask, curl]), s=grid.shape, axes=axes,
                         norm="forward")
    w, vel = phys[dim:], phys[:dim]
    if dim == 2:
        prod = np.stack([-w[0] * vel[1], w[0] * vel[0]])
    else:
        prod = np.stack([w[1] * vel[2] - w[2] * vel[1], w[2] * vel[0] - w[0] * vel[2],
                         w[0] * vel[1] - w[1] * vel[0]])
    out = np.where(mask, -1.0 / helm, 0.0)
    out[(0,) * dim] = 0.0
    filtered = out * np.fft.rfftn(prod, axes=axes, norm="forward")
    kabs = np.sqrt(grid.k2)
    khat = k / np.where(kabs > 0, kabs, 1.0)
    once = filtered - khat * np.sum(khat * filtered, axis=0)
    return once - khat * np.sum(khat * once, axis=0)


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 128), (3, 16), (3, 48)])
def test_rhs_f_matches_the_unpruned_kernel(dim, n):
    # the band block, the pruned transforms and the in-place passes change
    # no more than rounding against the same kernel on full arrays
    grid = make_grid(dim, n)
    for alpha, seed in ((0.0, 0), (0.5, 1), (1.0, 2)):
        u = make_initial(InitialData(kind="random-spectrum", seed=seed), grid)
        f = rhs_f(u, Params(alpha=alpha, nu=1.0, s=0.75))
        assert rel_err(f.coeffs, _unpruned_rotational_f(u, alpha)) <= 1e-14


def _whole_stack_rhs_f_band(grid, u, params):
    """Reference: rhs_f_band with the whole cross product formed before one
    forward transform of all its components, in arrays of its own: through
    an FFT plan's own passes, and on a GEMM plan through irfftn and rfftn on
    the N grid."""
    dim = grid.dim
    ws = _kernel_workspace(grid, params.alpha)
    plan, layout = ws.plan, grid.layout
    stack = np.empty((dim + (1 if dim == 2 else 3),) + layout.block_shape, np.complex128)
    stack[:dim] = u
    _cross(ws.ikv, u, stack[dim:], np.empty(layout.block_shape, np.complex128))
    if plan.layout.gemm:
        spectra = layout.scatter(stack, np.zeros((len(stack),) + grid.spectral_shape, complex))
        phys = coeffs_to_phys(spectra, dim)
    else:
        phys = np.array(plan._inverse(stack))
    prod = _cross(phys[dim:], phys[:dim], np.empty((dim,) + grid.shape), np.empty(grid.shape))
    if plan.layout.gemm:
        product = layout.gather(phys_to_coeffs(prod, dim))
    else:
        product = plan._forward(prod, np.empty_like(u))
    return ws.project(product, np.empty_like(product))


# 2D N=128 runs FFT passes; every 3D grid runs the fused GEMM pass.
_STREAMED_CASES = [(2, 128), (3, 48), (3, 40)]


def _kernel_and_whole_stack(grid, alpha, seed):
    """The workspace, f from rhs_f_band into its buffer and into out, and the reference."""
    p = Params(alpha=alpha, nu=1.0, s=0.75)
    ws = _kernel_workspace(grid, alpha)
    u0 = make_initial(InitialData(kind="random-spectrum", seed=seed), grid)
    u = grid.layout.gather(u0.coeffs)
    ref = _whole_stack_rhs_f_band(grid, u, p)
    calls = [np.array(rhs_f_band(grid, u, p)), rhs_f_band(grid, u, p, out=np.empty_like(u))]
    return ws, calls, ref


@pytest.mark.parametrize("dim,n", _STREAMED_CASES)
def test_streamed_cross_product_equals_the_whole_stack(dim, n):
    # On FFT passes the product gives the bytes of the whole stack formed
    # before one forward transform; the GEMM plan's fused slab pass matches
    # the whole stack on the N grid to rounding.
    grid = make_grid(dim, n)
    for alpha, seed in ((0.0, 3), (0.5, 4)):
        ws, calls, ref = _kernel_and_whole_stack(grid, alpha, seed)
        assert ws.plan.layout.gemm == (dim == 3)
        if ws.plan.layout.gemm:
            assert all(rel_err(f, ref) <= 1e-14 for f in calls)
        else:
            assert all(f.tobytes() == ref.tobytes() for f in calls)


# Grids on the GEMM plan, with their M = 3b + 1: odd at N=32, and 3D N=98
# as a grid above N=96
_GEMM_CASES = [
    (2, 32, 31), (2, 64, 64), (3, 16, 16), (3, 32, 31), (3, 40, 40), (3, 48, 46), (3, 98, 97),
]


@pytest.mark.parametrize("dim,n,m", _GEMM_CASES)
def test_the_fused_product_matches_the_whole_grid(dim, n, m):
    # The fused slab pass against irfftn -> cross product -> rfftn -> gather on
    # the N grid, over two calls with different inputs, so that a buffer that
    # carried anything from one call to the next would show
    grid = make_grid(dim, n)
    ws = _kernel_workspace(grid, 0.5)
    plan, n_curl = ws.plan, 1 if dim == 2 else 3
    assert plan.layout.gemm and plan.M == m
    rng = np.random.default_rng(n + dim)

    def fused(block):
        out = np.empty((dim,) + grid.layout.block_shape, np.complex128)
        for phase in range(BandPlan.PHASES):
            plan.share(block, out, _curl_v_cross_u, phase)
        return out

    blocks, firsts = [], []
    for _ in range(2):
        samples = rng.standard_normal((dim + n_curl,) + grid.shape)
        spectra = phys_to_coeffs(samples, dim) * grid.dealias_mask
        full = coeffs_to_phys(spectra, dim)
        product = _cross(full[dim:], full[:dim], np.empty((dim,) + grid.shape), np.empty(grid.shape))
        blocks.append(grid.layout.gather(spectra))
        firsts.append(fused(blocks[-1]))
        assert rel_err(firsts[-1], grid.layout.gather(phys_to_coeffs(product, dim))) <= 1e-14
    assert fused(blocks[0]).tobytes() == firsts[0].tobytes()  # again, after the second call


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 128), (3, 32)])  # GEMM plan, FFT plan, helper
def test_the_kernel_reads_the_state_in_place_and_never_writes_it(dim, n):
    # One copy of the stepped block: the state is the stack's u, which no
    # phase writes, and the audit reads the workspace's own k.
    grid, p = make_grid(dim, n), Params(alpha=0.5, nu=0.1, s=0.75)
    ws = _kernel_workspace(grid, p.alpha)
    u = random_field(grid, seed=3, amplitude=0.1)
    helped = dim == 3 and len(os.sched_getaffinity(0)) > 1  # the helper pins this process
    with kernel_helper(grid, p.alpha):
        assert (ws.helper is not None) == helped
        assert np.shares_memory(ws.state, ws.stack)
        grid.layout.gather(u.coeffs, out=ws.state)
        before = ws.state.copy()
        f = rhs_f_band(grid, ws.state, p).copy()
        assert ws.state.tobytes() == before.tobytes()
        copied_in = rhs_f_band(grid, before, p, out=np.empty_like(before))
        assert copied_in.tobytes() == f.tobytes()
    assert np.shares_memory(ws.state, ws.stack)
    assert audit_tables(grid, p.alpha, p.s).k is ws.k


def _live_bytes(*owners) -> int:
    """Bytes of the distinct arrays (views counted once) the owners' attributes hold."""
    bases = {}
    for owner in owners:
        for value in vars(owner).values():
            for arr in value if isinstance(value, list) else [value]:
                if isinstance(arr, np.ndarray):
                    while isinstance(arr.base, np.ndarray):
                        arr = arr.base
                    bases[id(arr)] = arr.nbytes
    return sum(bases.values())


def test_kernel_workspace_holds_a_few_fields():
    # At 3D N=48 the plan runs the fused GEMM pass on the 46-point grid: it
    # holds its DFT matrices, the complex passes of the six fields in _mid,
    # one field's transposition and one slab of samples, no FFT buffers and
    # no whole-stack samples; the band blocks of the workspace make up the
    # rest: 4.0 fields' bytes.
    grid = make_grid(3, 48)
    ws = _kernel_workspace(grid, 0.5)
    field = 16 * grid.dim * np.prod(grid.spectral_shape)
    assert ws.plan.layout.gemm and ws.plan.M == 46
    assert not hasattr(ws.plan, "_phys") and not hasattr(ws.plan, "_rows")
    assert _live_bytes(ws, ws.plan) <= 5 * field


_KERNEL_DIGEST = """\
import hashlib
from lansfrac import InitialData, Params, make_grid, make_initial
from lansfrac.operators import rhs_f_band
for n in (16, 48):
    grid, p = make_grid(3, n), Params(alpha=0.5, nu=1.0, s=0.75)
    u = make_initial(InitialData(kind="random-spectrum", seed=7), grid)
    f = rhs_f_band(grid, grid.layout.gather(u.coeffs), p)
    print(n, hashlib.sha256(f.tobytes()).hexdigest())
"""


def test_the_kernel_gives_the_same_bytes_on_one_blas_thread():
    # The matrix-product transforms run in OpenBLAS, which may split a
    # product over its own threads; a split never reorders a sum, so one
    # thread and the default pool give the same bits.
    import lansfrac

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(lansfrac.__file__).parents[1])
    digests = [
        subprocess.run(
            [sys.executable, "-c", _KERNEL_DIGEST], env=env | extra,
            capture_output=True, text=True, check=True,
        ).stdout
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})
    ]
    assert len(digests[0].splitlines()) == 2
    assert digests[0] == digests[1]


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_rhs_f_workspace_carries_no_state_between_calls(dim, n):
    grid = make_grid(dim, n)
    p = Params(alpha=0.5, nu=1.0, s=0.75)
    a, b = random_field(grid, seed=40), random_field(grid, seed=41)
    coeffs = np.array(a.coeffs)
    coeffs[0][(slice(1, 3),) * dim] = np.nan
    coeffs[1][(slice(1, 3),) * dim] = np.inf
    bad = SpectralField.from_coeffs(grid, coeffs)
    _kernel_workspace.cache_clear()
    fresh = rhs_f(b, p).coeffs.tobytes()
    first = _kernel_workspace(grid, p.alpha)
    earlier_calls = [
        lambda: rhs_f(a, p),
        lambda: rhs_f(bad, p),
        # more (grid, alpha) keys than the cache holds evict b's workspace
        lambda: [rhs_f(a, Params(alpha=0.05 + 0.1 * i, nu=1.0, s=0.75)) for i in range(9)],
    ]
    for call in earlier_calls:
        with np.errstate(all="ignore"):
            call()
        assert rhs_f(b, p).coeffs.tobytes() == fresh
    assert _kernel_workspace(grid, p.alpha) is not first  # it was evicted and rebuilt


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from([(2, 16), (2, 32), (3, 8), (3, 16)]),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["solenoidal", "divergent", "mean", "zero"]),
    exponent=st.integers(-30, 30),
)
def test_band_block_check_agrees_with_measure_flags(case, seed, kind, exponent):
    # the check the audit makes of the kernel's band block f decides as the
    # flags of the full-spectrum field that is the block on the band and zero
    # elsewhere do: mean-free and solenoidal, with no exemption
    dim, n = case
    grid = make_grid(dim, n)
    ws = _kernel_workspace(grid, 0.5)
    tables = audit_tables(grid, 0.5, 0.75)
    rng = np.random.default_rng(seed)
    shape = (dim,) + grid.layout.block_shape
    product = 10.0**exponent * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    block = ws.project(product, np.empty_like(product))
    if kind == "divergent":
        block = product.copy()
    elif kind == "zero":
        block[...] = 0.0
    mean = (slice(None),) + (0,) * dim
    block[mean] = product[mean] if kind == "mean" else 0.0

    joined = grid.layout.join(block)
    _herm, sol, mean_free = whole_field_flags(grid, joined)
    assert _f_flags(grid, block, tables) == (sol, mean_free) == measure_flags(grid, joined)[1:]
    assert (sol and mean_free) == (kind in ("solenoidal", "zero"))


def _f_flags(grid, f, tables) -> tuple[bool, bool]:
    """The audit's (solenoidal, zero_mean) flags of the band block f, beside a zero state."""
    return audit(np.zeros_like(f), f, tables, 0.0, no_tail(grid))[0][3:]


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from([(2, 32), (2, 64), (3, 16)]),
    seed=st.integers(0, 2**32 - 1),
    modes=st.sampled_from([1, 2, 4, 0]),
    planted=st.floats(-16.0, -10.0),
    share=st.floats(0.001, 1.0),
)
@example(case=(2, 32), seed=0, modes=0, planted=-13.0, share=1.0)
def test_the_f_flag_holds_max_k_dot_f_against_max_f(case, seed, modes, planted, share):
    # the audit holds max |k . f| against SOLENOIDAL_TOL max |f|, the reference
    # of its mean flag, never against ||f||, which no multiplicity keeps below
    # max |f|. f is projected from a block on a few modes (0: on every mode,
    # where ||f|| is far above max |f|), and a divergence of 10^planted
    # max |f| is planted on a share of the modes.
    dim, n = case
    grid = make_grid(dim, n)
    ws = _kernel_workspace(grid, 0.5)
    tables = audit_tables(grid, 0.5, 0.75)
    rng = np.random.default_rng(seed)
    shape = (dim,) + grid.layout.block_shape
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if modes:  # keep a few modes, never the mean
        kept = np.zeros(a[0].size, bool)
        kept[rng.choice(np.arange(1, a[0].size), modes)] = True
        a *= kept.reshape(shape[1:])
    f = ws.project(a, np.empty_like(a))
    scale = float(np.max(np.abs(f)))
    where = rng.random(shape[1:]) < share
    f += where * 10.0**planted * scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    f[(slice(None),) + (0,) * dim] = 0.0
    div = float(np.max(np.abs(np.sum(ws.k * f, axis=0))))
    passes = div <= SOLENOIDAL_TOL * float(np.max(np.abs(f)))
    assert _f_flags(grid, f, tables) == (passes, True)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([(2, 16), (2, 32), (3, 8), (3, 16)]),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-30.0, 30.0),
)
def test_the_single_projection_pass(case, alpha, seed, exponent):
    # the kernel's one curl-curl pass on an arbitrary complex block: mean-free
    # exactly, divergence-free relative to its output (also when it removes
    # almost all of the input), blind to gradients, and the output filter
    # times two passes of the paper's Leray projection
    dim, n = case
    grid = make_grid(dim, n)
    ws = _kernel_workspace(grid, alpha)
    layout, mean = grid.layout, (slice(None),) + (0,) * dim
    rng = np.random.default_rng(seed)
    shape = (dim,) + layout.block_shape
    a = 10.0**exponent * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    norm = lambda block: _block_norm(ws, block)

    f = ws.project(a, np.empty_like(a))
    assert np.all(f[mean] == 0.0)
    assert np.max(np.abs(np.sum(ws.k * f, axis=0))) <= 1e-15 * norm(f)

    grad = ws.k * (a[0] + a[-1])  # k phi
    assert norm(ws.project(grad, np.empty_like(grad))) <= 1e-15 * norm(grad)
    # what the projection keeps of a near-gradient is solenoidal relative to itself
    near = ws.project(grad + 1e-9 * a, np.empty_like(a))
    assert np.max(np.abs(np.sum(ws.k * near, axis=0))) <= 1e-15 * norm(near)

    twice = leray_project(leray_project(SpectralField.from_coeffs(grid, layout.join(a))))
    expect = -layout.gather(twice.coeffs) / (1.0 + alpha**2 * layout.gather(grid.k2))
    expect[mean] = 0.0
    assert rel_err(f, expect) <= 1e-14


FNORM_BOUND = 0.15  # measured max 0.014 over this fixed ensemble; 10x headroom


def test_rhs_f_unified_spatial_bound(grid2):
    # ||f(u1,u2)||_{D(A^{1-s/2})} <= C ||u1||_{D(A)} ||A^{1/2} u2||_{D(A^{(2-s)/2})}
    # for the paper's bilinear f, which off the diagonal is stress_form_f
    s = 0.6
    p = Params(alpha=0.5, nu=1.0, s=s)
    ratios = []
    for seed in range(10):
        u1 = dealias(random_field(grid2, seed=100 + seed))
        u2 = dealias(random_field(grid2, seed=200 + seed))
        f = stress_form_f(u1, u2, p)
        num = norm_DAr(f, 1.0 - s / 2.0)
        den = norm_DAr(u1, 1.0) * norm_DAr(frac_stokes_apply(u2, 0.5), (2.0 - s) / 2.0)
        ratios.append(num / den)
    assert np.all(np.isfinite(ratios))
    assert max(ratios) < FNORM_BOUND


# ----------------------------------------------------- nonlinear cancellation

@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_cancellation_2d(grid2_64, alpha):
    p = Params(alpha=alpha, nu=1.0, s=0.5)
    for seed in range(5):
        u = dealias(random_field(grid2_64, seed=300 + seed))
        f = rhs_f(u, p)
        resid = abs(h1_alpha_pairing(u, f, alpha)) / norm_DAr(u, 1.0) ** 3
        assert resid < 1e-10


def test_cancellation_3d(grid3):
    p = Params(alpha=0.5, nu=1.0, s=0.75)
    for seed in range(3):
        u = dealias(random_field(grid3, seed=400 + seed))
        f = rhs_f(u, p)
        resid = abs(h1_alpha_pairing(u, f, p.alpha)) / norm_DAr(u, 1.0) ** 3
        assert resid < 1e-10


# ------------------------------------------------------------------ v-form

def test_v_from_u_shear(grid2):
    u = shear(grid2)
    for alpha in (0.0, 0.5, 2.0):
        v = v_from_u(u, alpha)
        assert rel_err(v.coeffs, (1 + alpha**2) * u.coeffs) < 1e-14


def test_uv_inverse_pair(grid2):
    u = random_field(grid2, seed=41)
    back = u_from_v(v_from_u(u, 0.8), 0.8)
    assert rel_err(back.coeffs, u.coeffs) < 1e-13
    assert np.array_equal(v_from_u(u, 0.0).coeffs, u.coeffs)


def v_form_rhs(u, v, p):
    """The v-form right-hand side -nu A^s v - P[u.grad(v) + (grad u)^T v]."""
    return v_nonlinearity(u, v) - p.nu * frac_stokes_apply(v, p.s)


def test_v_nonlinearity_shear_pure_decay(grid2):
    p = Params(alpha=0.5, nu=0.7, s=0.5)
    u = shear(grid2)
    v = v_from_u(u, p.alpha)
    out = v_form_rhs(u, v, p)
    assert rel_err(out.coeffs, -p.nu * v.coeffs) < 1e-13  # |k| = 1


def test_v_nonlinearity_zero(grid2, params):
    z = zero_field(grid2)
    assert l2_norm(v_nonlinearity(z, z)) == 0.0


@pytest.mark.parametrize("seed", [43, 44])
def test_uv_form_consistency(grid2, seed):
    # (1 + a^2 A)(u-form rhs) = v-form rhs at v = (1 + a^2 A) u for
    # band-limited fields
    p = Params(alpha=0.6, nu=0.9, s=0.7)
    u = dealias(random_field(grid2, seed=seed))
    v = v_from_u(u, p.alpha)
    lhs = v_from_u(rhs_f(u, p) - p.nu * frac_stokes_apply(u, p.s), p.alpha)
    rhs = v_form_rhs(u, v, p)
    assert rel_err(lhs.coeffs, rhs.coeffs) < 1e-8
