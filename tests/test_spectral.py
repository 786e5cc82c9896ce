"""Grid, transform, and multiplier-operator unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lansfrac import Params, dealias, make_grid, norm_DAr, semigroup_apply
from lansfrac.errors import GridError, MeanModeError
from lansfrac.io import config_echo, parse_config
from lansfrac.operators import u_from_v
from lansfrac.spectral import (
    BandPlan,
    GridSpec,
    Regime,
    SpectralField,
    _mirror,
    coeffs_to_phys,
    frac_stokes_apply,
    infer_regime,
    invariant_flags,
    invariant_residuals,
    inner,
    l2_norm,
    leray_project,
    measure_flags,
    phys_to_coeffs,
    stokes_multiplier,
    to_physical,
    to_spectral,
)

from conftest import (
    full_spectrum,
    random_field,
    random_hermitian_field,
    rel_err,
    roll_flip,
    single_mode_field,
    whole_field_flags,
    zero_field,
)


# ---------------------------------------------------------------- grids

def test_make_grid_basic():
    g = make_grid(2, 8)
    assert g.shape == (8, 8)
    assert g.spectral_shape == (8, 5)
    assert g.k.shape == (2, 8, 5)
    # components run over [-N/2, N/2) on the first axis, 0..N/2 on the last
    assert g.k[0].min() == -4 and g.k[0].max() == 3
    assert g.k[1].min() == 0 and g.k[1].max() == 4
    g3 = make_grid(3, 16)
    assert g3.k2.shape == (16, 16, 9)
    assert g3.k2.size == 2304
    assert g3.x.shape == (3, 16, 16, 16)


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_wavevectors_are_exact_integers(dim):
    # fftfreq(N) * N read 7.000000000000001 at N=26 and 13.999999999999998
    # at N=48; a sharp cutoff compares these values with integers
    for N in range(8, 131, 2):
        g = GridSpec(dim, N)
        assert np.array_equal(g.k, np.round(g.k)) and np.array_equal(g.k2, np.round(g.k2))
        assert np.array_equal(g.k[0].reshape(N, -1)[:, 0], (np.arange(N) + N // 2) % N - N // 2)


@pytest.mark.parametrize("dim,N", [(2, 8), (2, 32), (3, 16)])
def test_grid_weight_counts_every_full_mode_once(dim, N):
    g = make_grid(dim, N)
    assert g.weight.shape == g.spectral_shape
    assert np.sum(g.weight) == N**dim
    k_last = g.k[-1]
    assert np.all(g.weight[(k_last == 0) | (k_last == N // 2)] == 1.0)
    assert np.all(g.weight[(k_last > 0) & (k_last < N // 2)] == 2.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_full_spectrum_matches_fftn(dim):
    from lansfrac.spectral import half_spectrum

    g = make_grid(dim, 10)
    phys = np.random.default_rng(dim).standard_normal((dim,) + g.shape)
    full = np.fft.fftn(phys, axes=tuple(range(1, dim + 1))) / g.N**dim
    half = to_spectral(phys, g).coeffs
    assert rel_err(half, half_spectrum(full)) < 1e-14
    assert rel_err(full_spectrum(half, dim), full) < 1e-14


@pytest.mark.parametrize("dim,N", [(2, 7), (2, 9), (3, 15)])
def test_make_grid_rejects_odd(dim, N):
    with pytest.raises(GridError):
        make_grid(dim, N)


def test_make_grid_rejects_tiny_and_bad_dim():
    with pytest.raises(GridError):
        make_grid(2, 6)
    with pytest.raises(GridError):
        make_grid(4, 16)
    with pytest.raises(GridError):
        make_grid(1, 16)


def test_make_grid_builds_one_grid_per_shape():
    assert make_grid(3, 16) is make_grid(3, 16)
    assert make_grid(2, 16) is not make_grid(3, 16)


@pytest.mark.parametrize("dim,N", [(2, 8), (3, 16)])
def test_grid_x_holds_the_sample_points_read_only(dim, N):
    x = make_grid(dim, N).x
    x1 = np.arange(N) * (2.0 * np.pi / N)
    for axis in range(dim):
        shape = [1] * dim
        shape[axis] = N
        assert np.array_equal(x[axis], np.broadcast_to(x1.reshape(shape), (N,) * dim))
    assert make_grid(dim, N).x is x
    with pytest.raises(ValueError):
        x[0, 0] = 1.0


# ------------------------------------------------------------ transforms

def test_single_mode_synthesis(grid2):
    # uhat_1 at (0,1) = -i/2 synthesizes u_1 = sin y: its mirror (0,-1) = +i/2
    # is implied by the half spectrum
    coeffs = np.zeros((2,) + grid2.spectral_shape, dtype=np.complex128)
    coeffs[0, 0, 1] = -0.5j
    f = SpectralField.from_coeffs(grid2, coeffs)
    phys = to_physical(f)
    y = grid2.x[1]
    assert np.max(np.abs(phys[0] - np.sin(y))) < 1e-14
    assert np.max(np.abs(phys[1])) < 1e-14


def test_round_trip(grid2):
    f = random_hermitian_field(grid2, seed=1)
    back = to_spectral(to_physical(f), grid2)
    assert rel_err(back.coeffs, f.coeffs) < 1e-12


def test_round_trip_3d(grid3):
    f = random_hermitian_field(grid3, seed=2)
    back = to_spectral(to_physical(f), grid3)
    assert rel_err(back.coeffs, f.coeffs) < 1e-12


def test_parseval_shear(grid2):
    u = single_mode_field(grid2, (0, 1), (-1j, 0))  # hermitized: sin y
    # oracle: integral of sin^2 y over [0,2pi]^2 is 2 pi^2, norm = pi sqrt(2)
    assert abs(l2_norm(u) - np.pi * np.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("seed", [0, 3])
def test_parseval_random(grid2, seed):
    f = random_hermitian_field(grid2, seed=seed)
    phys = to_physical(f)
    phys_norm = np.sqrt(np.sum(phys**2) * grid2.dx**2)
    assert abs(phys_norm - l2_norm(f)) <= 1e-12 * l2_norm(f)


def test_to_physical_requires_hermitian(grid2):
    # only the k_last = 0 plane can hold a mode without its conjugate partner
    coeffs = np.zeros((2,) + grid2.spectral_shape, dtype=np.complex128)
    coeffs[0, 1, 0] = 1.0  # (1, 0) set, its mirror (-1, 0) left empty
    f = SpectralField.from_coeffs(grid2, coeffs)
    assert not f.hermitian
    with pytest.raises(ValueError):
        to_physical(f)


@pytest.mark.parametrize("dim", [2, 3])
def test_hermitian_flag_checks_both_self_mirrored_planes(dim):
    g = make_grid(dim, 16)
    u = random_hermitian_field(g, seed=dim)
    assert u.hermitian
    for col in (0, g.N // 2):
        coeffs = np.array(u.coeffs)
        coeffs[(0, 3) + (0,) * (dim - 2) + (col,)] += 1j  # one mode, not its mirror
        assert not SpectralField.from_coeffs(g, coeffs).hermitian
    # an interior mode has its mirror implied, so any value there is real
    coeffs = np.array(u.coeffs)
    coeffs[(0, 3) + (0,) * (dim - 2) + (2,)] += 1j
    assert SpectralField.from_coeffs(g, coeffs).hermitian


@pytest.mark.parametrize("dim,n,on_block", [(2, 16, False), (2, 32, True), (3, 16, False), (3, 48, True)])
def test_the_mirror_index_gives_the_roll_flip_flags(dim, n, on_block):
    # the hermitian flag reads the k_last = 0 plane's mirrors through one
    # cached index; it takes the values that flip and roll give, and so
    # decides as the whole-field reference does, on band blocks (the audit's
    # residuals) and on full half spectra (measure_flags, the k_last = 0 and
    # N/2 planes), random and with a defect planted near the tolerance
    grid = make_grid(dim, n)
    layout = grid.layout
    planes = (0,) if on_block else (0, -1)
    k = layout.gather(grid.k)
    rng = np.random.default_rng(n + dim)
    for trial in range(12):
        coeffs = np.array(random_hermitian_field(grid, seed=trial).coeffs)
        u = layout.gather(coeffs) if on_block else coeffs
        scale = float(np.max(np.abs(u)))
        if trial:
            mode = tuple(int(rng.integers(m)) for m in u.shape[1:-1]) + (planes[trial % len(planes)],)
            u[(int(rng.integers(dim)),) + mode] += 10.0 ** rng.uniform(-13.5, -10.5) * scale * 1j
        herm = whole_field_flags(grid, layout.join(u) if on_block else u)[0]
        if on_block:
            plane = u[..., 0]
            mirrored = plane.reshape(dim, -1)[:, _mirror(plane.shape[1:])].reshape(plane.shape)
            assert np.array_equal(mirrored, roll_flip(u[..., :1])[..., 0])
            assert invariant_flags(scale, *invariant_residuals(u, k))[0] == herm
        else:
            assert measure_flags(grid, u)[0] == herm


def test_to_spectral_shape_mismatch(grid2):
    with pytest.raises(GridError):
        to_spectral(np.zeros((2, 8, 8)), grid2)


# The grids whose plans run matrix products (every 3D grid, 2D N <= GEMM_MAX_N).
# They sample on M = 3b + 1 points per axis (N - 2 at N=48, N - 1 at N=32, N
# at N=16 and 2D N=64) and match irfftn/rfftn on that grid to rounding. The
# others (2D N=128, 240) run FFT passes on the N grid, which match irfftn bit
# for bit.
_GEMM_GRIDS = {(2, 32): 31, (2, 64): 64, (3, 16): 16, (3, 32): 31, (3, 48): 46}


def _band_index(dim: int, b: int, m: int) -> tuple:
    """Index of the band block's modes in half-spectrum arrays on the m-point grid."""
    along = np.r_[0 : b + 1, m - b : m]
    return (Ellipsis,) + np.ix_(*[along] * (dim - 1), np.arange(b + 1))


def _product_passes(plan, block, samples):
    """One product, plan.share's phases in order, whose pointwise step reads
    block's samples and writes samples as the rows of the product: the
    inverse's samples (irfftn's axis order) and the band block of samples,
    which has that order too."""
    swap = plan.layout.gemm and plan.grid.dim == 3  # the fused pass holds (n_1, n_0, n_2)
    seen = np.empty((len(block),) + plan.shape)
    read, write = (seen.swapaxes(1, 2), samples.swapaxes(1, 2)) if swap else (seen, samples)
    slab = [0, 0]  # first plane and number of planes of the current slab

    def pointwise(phys, rows, scratch):
        slab[:] = sum(slab), len(phys[0])  # each call is the next slab
        planes = slice(slab[0], sum(slab))
        read[:, planes] = phys
        rows[...] = write[:, planes]

    out = np.empty((len(samples),) + plan.layout.block_shape, np.complex128)
    for phase in range(BandPlan.PHASES):
        plan.share(block, out, pointwise, phase)
    return seen, out


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (2, 128), (2, 240), (3, 16), (3, 32), (3, 48)])
def test_band_plan_matches_full_transforms(dim, n):
    # Stacks of 2 dim fields in and dim out, as in the 3D kernel, through
    # the product with a pointwise step that only copies samples.
    grid = make_grid(dim, n)
    fields = 2 * dim
    plan = BandPlan(grid, inverse_fields=fields, forward_fields=dim)
    single = BandPlan(grid, inverse_fields=1, forward_fields=1)
    gemm = (dim, n) in _GEMM_GRIDS
    assert plan.layout.gemm == gemm
    m = _GEMM_GRIDS.get((dim, n), n)
    assert plan.M == m and plan.shape == (m,) * dim
    if gemm:
        assert m == 3 * grid.band_limit + 1
    rng = np.random.default_rng(n + dim)
    axes, band_modes = tuple(range(-dim, 0)), _band_index(dim, grid.band_limit, m)
    for _ in range(2):  # the second round reads buffers the first one wrote
        spectra = phys_to_coeffs(rng.standard_normal((fields,) + grid.shape), dim)
        spectra *= grid.dealias_mask  # random dealiased hermitian half spectra
        block = grid.layout.gather(spectra)
        assert np.array_equal(grid.layout.scatter(block, np.zeros_like(spectra)), spectra)
        samples = rng.standard_normal((dim,) + plan.shape)
        pruned, band = _product_passes(plan, block, samples)
        if gemm:
            # the same field on the plan's grid
            on_grid = np.zeros((fields,) + (m,) * (dim - 1) + (m // 2 + 1,), np.complex128)
            on_grid[band_modes] = block
            full = np.fft.irfftn(on_grid, s=plan.shape, axes=axes, norm="forward")
            assert rel_err(pruned, full) <= 1e-14
        else:
            # bit for bit, also after a forward call has filled the buffer
            # whose zero tail the inverse's last pass reads
            assert np.array_equal(pruned, coeffs_to_phys(spectra, dim))
        full = np.fft.rfftn(samples, axes=axes, norm="forward")
        assert rel_err(band, full[band_modes]) <= 1e-14
        if gemm:  # its passes write into reshaped rows of out, never a copy
            strided = np.empty((2 * dim,) + grid.layout.block_shape, np.complex128)[::2]
            for phase in range(BandPlan.PHASES):
                with pytest.raises(ValueError, match="C-contiguous"):
                    plan.share(block, strided, lambda *args: None, phase)
        # The stack size does not change a bit: each field alone gives the same.
        for i in range(fields):
            j = i % dim
            alone = _product_passes(single, block[i : i + 1], samples[j : j + 1])
            assert np.array_equal(alone[0][0], pruned[i])
            assert np.array_equal(alone[1][0], band[j])


_JOIN_GRIDS = {case: make_grid(*case) for case in ((2, 32), (2, 96), (3, 16))}


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(_JOIN_GRIDS)),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.floats(0.0, 1.0),
    nan_share=st.sampled_from([0.0, 1e-3, 0.05]),
)
def test_join_inverts_split(case, seed, zero_share, nan_share):
    # Arrays with +-0.0 and nan inside and outside the band come back byte for
    # byte, apart from the modes outside the band that are zero by value: those
    # are not in the tail, so they come back +0.0. A band-limited array's tail
    # has no modes, shape (dim, 0).
    grid = _JOIN_GRIDS[case]
    layout = grid.layout
    rng = np.random.default_rng(seed)
    shape = (2, grid.dim) + grid.spectral_shape  # real and imaginary parts
    parts = rng.standard_normal(shape)
    zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    draw = rng.random(shape)
    parts = np.where(draw < zero_share, zeros, parts)
    parts = np.where(draw > 1.0 - nan_share, np.nan, parts)
    whole = rng.random(grid.spectral_shape) < zero_share  # modes of signed zeros only
    parts = np.where(whole, zeros, parts)
    a = np.empty(shape[1:], complex)
    a.real, a.imag = parts

    block, modes, tail = layout.split(a)
    zero_outside = ~grid.dealias_mask & ~np.any(a != 0, axis=0)
    expect = a.copy()
    expect[:, zero_outside] = 0.0
    assert layout.join(block, modes, tail).tobytes() == expect.tobytes()
    assert tail.shape == (grid.dim, modes.size) and np.all(np.diff(modes) > 0)


@pytest.mark.parametrize("dim,n,gemm", [
    (2, 64, True), (2, 66, False), (3, 96, True), (3, 98, True), (3, 128, True),
])
def test_the_gemm_crossover_depends_on_the_dimension(dim, n, gemm):
    # 2D grids run the products up to N=64 and FFT passes above; every 3D
    # grid runs the products, which beat FFT passes up to N=192 (BandPlan
    # gives the timings)
    assert make_grid(dim, n).layout.gemm == gemm


# ---------------------------------------------------------- Leray projection

def test_leray_kills_gradient_modes(grid2):
    # uhat(k) = k g(k) for a few modes -> projected to zero
    rng = np.random.default_rng(5)
    coeffs = np.zeros((2,) + grid2.spectral_shape, dtype=np.complex128)
    for k in [(1, 2), (-3, 1), (-2, 4)]:
        g = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[:, k[0] % 32, k[1] % 32] = np.array(k) * g
    f = SpectralField.from_coeffs(grid2, coeffs)
    assert l2_norm(leray_project(f)) < 1e-13 * np.max(np.abs(coeffs))


def test_leray_fixes_solenoidal(grid2):
    u = random_field(grid2, seed=7)
    assert u.solenoidal
    assert rel_err(leray_project(u).coeffs, u.coeffs) < 1e-14


def test_leray_compressive_mode(grid2):
    # mode k = (0, 2) with uhat = (0, 1): parallel to k, killed entirely
    f = single_mode_field(grid2, (0, 2), (0, 1))
    assert l2_norm(leray_project(f)) < 1e-14


def test_leray_idempotent_and_self_adjoint(grid2):
    f = random_hermitian_field(grid2, seed=11)
    g = random_hermitian_field(grid2, seed=12)
    pf = leray_project(f)
    assert rel_err(leray_project(pf).coeffs, pf.coeffs) < 1e-12
    assert abs(inner(pf, g) - inner(f, leray_project(g))) < 1e-12 * l2_norm(f) * l2_norm(g)


def test_leray_mode_zero_untouched(grid2):
    rng = np.random.default_rng(13)
    coeffs = np.zeros((2,) + grid2.spectral_shape, dtype=np.complex128)
    coeffs[:, 0, 0] = rng.standard_normal(2)
    f = SpectralField.from_coeffs(grid2, coeffs)
    assert np.array_equal(leray_project(f).coeffs[:, 0, 0], coeffs[:, 0, 0])


@pytest.mark.parametrize("dim", [2, 3])
def test_leray_keeps_real_fields_real(dim):
    # seeded standard-normal samples have content on the Nyquist modes, where
    # the k table is not odd; the projection must still give a real field
    grid = make_grid(dim, 16)
    x = np.random.default_rng(0).standard_normal((dim,) + grid.shape)
    p = leray_project(to_spectral(x, grid))
    assert p.hermitian and p.solenoidal


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_leray_of_dealiased_fields_is_unchanged(dim, n):
    # the Nyquist treatment touches no mode a dealiased field can hold
    grid = make_grid(dim, n)
    f = dealias(random_hermitian_field(grid, seed=21))
    kdot = np.einsum("i...,i...->...", grid.k, f.coeffs)
    expect = f.coeffs - grid.k * (kdot / np.where(grid.k2 > 0, grid.k2, 1.0))
    expect[(slice(None),) + (0,) * dim] = f.coeffs[(slice(None),) + (0,) * dim]
    assert np.array_equal(leray_project(f).coeffs, expect)


# --------------------------------------------------- fractional Stokes powers

def test_frac_stokes_unit_eigenvalue(grid2):
    u = single_mode_field(grid2, (0, 1), (-1j, 0))  # |k|^2 = 1
    for s in (0.25, 0.5, 0.9):
        assert rel_err(frac_stokes_apply(u, s).coeffs, u.coeffs) < 1e-14


def test_frac_stokes_multiplier_arithmetic(grid2):
    u = single_mode_field(grid2, (0, 2), (1, 0))  # |k|^2 = 4, solenoidal
    out = frac_stokes_apply(u, 0.5)
    assert rel_err(out.coeffs, 2.0 * u.coeffs) < 1e-14


def test_frac_stokes_composition(grid2):
    u = random_field(grid2, seed=21)
    for r1, r2 in [(0.3, 0.45), (1.0, -0.5), (0.6, 0.6)]:
        two = frac_stokes_apply(frac_stokes_apply(u, r1), r2)
        one = frac_stokes_apply(u, r1 + r2)
        assert rel_err(two.coeffs, one.coeffs) < 1e-12


def test_frac_stokes_negative_power_needs_zero_mean(grid2):
    f = random_hermitian_field(grid2, seed=22)
    assert not f.zero_mean
    with pytest.raises(MeanModeError):
        frac_stokes_apply(f, -0.5)


def test_frac_stokes_projects_nonsolenoidal(grid2):
    # A^s = P |k|^{2s} P: applying to a gradient field yields zero; the
    # mirror mode (-2, -1) carries the conjugate (2, 1), also parallel to k
    coeffs = np.zeros((2,) + grid2.spectral_shape, dtype=np.complex128)
    coeffs[:, 2, 1] = (2.0, 1.0)
    f = SpectralField.from_coeffs(grid2, coeffs)
    assert l2_norm(frac_stokes_apply(f, 0.5)) < 1e-13


# ------------------------------------------------------------- Helmholtz
# (1 - alpha^2 Lap)^{-1} is u_from_v, the inverse of the filtered momentum map.

def test_helmholtz_single_mode(grid2):
    f = single_mode_field(grid2, (0, 2), (1, 0))  # sin/cos 2y content
    for alpha in (0.3, 1.0):
        out = u_from_v(f, alpha)
        assert rel_err(out.coeffs, f.coeffs / (1 + 4 * alpha**2)) < 1e-14


def test_helmholtz_alpha_zero_identity(grid2):
    f = random_hermitian_field(grid2, seed=31)
    assert np.array_equal(u_from_v(f, 0.0).coeffs, f.coeffs)


def test_helmholtz_inverse_pair(grid2):
    f = random_hermitian_field(grid2, seed=32)
    alpha = 0.7
    forward = f.copy_with(f.coeffs * (1.0 + alpha**2 * grid2.k2))
    assert rel_err(u_from_v(forward, alpha).coeffs, f.coeffs) < 1e-12


# -------------------------------------------------------------- semigroup

def test_semigroup_t0_identity(grid2, params):
    f = random_hermitian_field(grid2, seed=41)
    assert np.array_equal(semigroup_apply(f, 0.0, params).coeffs, f.coeffs)


def test_semigroup_shear_decay(grid2):
    u = single_mode_field(grid2, (0, 1), (-1j, 0))
    for s in (0.3, 0.5, 0.75):
        p = Params(alpha=0.5, nu=2.0, s=s)
        out = semigroup_apply(u, 0.25, p)
        assert rel_err(out.coeffs, np.exp(-0.5) * u.coeffs) < 1e-13


def test_semigroup_two_path(grid2, params):
    f = random_hermitian_field(grid2, seed=42)
    ab = semigroup_apply(semigroup_apply(f, 0.3, params), 0.7, params)
    direct = semigroup_apply(f, 1.0, params)
    assert rel_err(ab.coeffs, direct.coeffs) < 1e-13


def test_semigroup_negative_time_rejected(grid2, params):
    f = random_hermitian_field(grid2, seed=43)
    with pytest.raises(ValueError):
        semigroup_apply(f, -0.1, params)


def test_semigroup_l2_contraction(grid2, params):
    f = random_hermitian_field(grid2, seed=44)
    for t in (1e-3, 0.1, 2.0):
        assert l2_norm(semigroup_apply(f, t, params)) <= l2_norm(f) * (1 + 1e-14)


@pytest.mark.parametrize(
    "sigma,s",
    [(0.5, 0.5), (0.375, 0.75), (0.25, 0.5), (0.5, 0.75), (0.25, 0.75)],
)  # (0.25, 0.75) is the (2s-1)/2 bootstrap factor at s = 3/4
def test_semigroup_smoothing_constant(grid2, sigma, s):
    # sup_k |k|^{2 sigma} e^{-nu t |k|^{2s}} <= (sigma/(e s))^{sigma/s} (nu t)^{-sigma/s}
    nu = 0.7
    bound = (sigma / (np.e * s)) ** (sigma / s)
    for t in (1e-3, 1e-2, 0.1):
        lhs = np.max(
            stokes_multiplier(grid2.k2, sigma) * np.exp(-nu * t * stokes_multiplier(grid2.k2, s))
        )
        assert lhs * (nu * t) ** (sigma / s) <= bound * (1 + 1e-12)


# ------------------------------------------- properties on random fields
#
# Each example draws a grid, a band width and a seed, and builds a real
# field on that band from seeded normal samples: not solenoidal, with a mean.

_GRIDS = {case: make_grid(*case) for case in ((2, 16), (2, 32), (3, 8), (3, 16))}


@st.composite
def band_limited_fields(draw):
    grid = _GRIDS[draw(st.sampled_from(sorted(_GRIDS)))]
    band = draw(st.integers(1, grid.band_limit))
    f = random_hermitian_field(grid, seed=draw(st.integers(0, 2**32 - 1)))
    return f.copy_with(f.coeffs * (np.max(np.abs(grid.k), axis=0) <= band))


_PARAMS = st.builds(
    Params,
    alpha=st.floats(0.0, 2.0),
    nu=st.floats(1e-3, 2.0),
    s=st.floats(0.05, 0.95),
)


@settings(max_examples=60, deadline=None)
@given(f=band_limited_fields())
def test_leray_idempotent_on_random_fields(f):
    pf = leray_project(f)
    assert pf.hermitian and pf.solenoidal
    assert rel_err(leray_project(pf).coeffs, pf.coeffs) < 1e-12
    zero = (slice(None),) + (0,) * f.grid.dim
    assert np.array_equal(pf.coeffs[zero], f.coeffs[zero])


@settings(max_examples=60, deadline=None)
@given(f=band_limited_fields(), p=_PARAMS, t1=st.floats(0.0, 2.0), t2=st.floats(0.0, 2.0))
def test_semigroup_composes_on_random_fields(f, p, t1, t2):
    two = semigroup_apply(semigroup_apply(f, t1, p), t2, p)
    assert rel_err(two.coeffs, semigroup_apply(f, t1 + t2, p).coeffs) < 1e-13


@settings(max_examples=60, deadline=None)
@given(f=band_limited_fields(), r1=st.floats(-0.5, 1.0), r2=st.floats(-0.5, 1.0))
def test_stokes_powers_compose_on_random_fields(f, r1, r2):
    coeffs = np.array(f.coeffs)
    coeffs[(slice(None),) + (0,) * f.grid.dim] = 0.0  # negative powers need zero mean
    u = f.copy_with(coeffs)
    two = frac_stokes_apply(frac_stokes_apply(u, r1), r2)
    one = frac_stokes_apply(u, r1 + r2)
    assert rel_err(two.coeffs, one.coeffs) < 1e-12


# ------------------------------------------------------------------ norms

def test_norm_dar_shear(grid2):
    u = single_mode_field(grid2, (0, 1), (-1j, 0))
    # |k|=1 so A u = u: norm = sqrt(2) ||u|| = sqrt(2) pi sqrt(2) = 2 pi
    assert abs(norm_DAr(u, 1.0) - 2 * np.pi) < 1e-12


def test_norm_dar_zero_field(grid2):
    assert norm_DAr(zero_field(grid2), 1.0) == 0.0


def test_norm_dar_r0_is_l2(grid2):
    f = random_hermitian_field(grid2, seed=51)
    assert norm_DAr(f, 0.0) == l2_norm(f)


def test_norm_dar_monotonicity(grid2):
    # brute-force oracle: every mode has |k|^2 >= 1, so the per-mode weight
    # |k|^{4r} is nondecreasing in r and so is the norm
    u = random_field(grid2, seed=52)
    rs = np.linspace(0.0, 2.0, 9)
    norms = [norm_DAr(u, float(r)) for r in rs]
    brute = [
        np.sqrt(
            grid2.measure
            * np.sum(
                grid2.weight
                * (np.maximum(grid2.k2, 0.0) ** (2 * r) + (1.0 if r > 0 else 0.0))
                * np.abs(u.coeffs) ** 2
            )
        )
        if r > 0
        else l2_norm(u)
        for r in rs
    ]
    for n, b in zip(norms, brute):
        assert abs(n - b) < 1e-10 * max(b, 1.0)
    assert all(norms[i + 1] >= norms[i] - 1e-12 for i in range(len(norms) - 1))


def test_norm_dar_negative_order_is_the_stokes_part(grid2):
    # r < 0 drops the L^2 part: ||f||_{D(A^r)} = ||A^r f|| on zero-mean fields
    u = random_field(grid2, seed=83)
    for r in (-0.5, -0.25):
        expect = l2_norm(frac_stokes_apply(u, r))
        assert abs(norm_DAr(u, r) - expect) <= 1e-13 * expect


# ---------------------------------------------------------------- dealias

def test_dealias_rule_boundary():
    g = make_grid(2, 12)  # N/3 = 4: |k| = 4 zeroed, |k| = 3 kept
    f = single_mode_field(g, (4, 0), (0, 1.0))
    assert l2_norm(dealias(f)) == 0.0
    f3 = single_mode_field(g, (3, 0), (0, 1.0))
    assert rel_err(dealias(f3).coeffs, f3.coeffs) < 1e-15


def test_dealias_band_limited_unchanged(grid2):
    u = random_field(grid2, seed=61, band=grid2.band_limit)
    assert np.array_equal(dealias(u).coeffs, u.coeffs)


def test_dealias_idempotent(grid2):
    f = random_hermitian_field(grid2, seed=62)
    once = dealias(f)
    assert np.array_equal(dealias(once).coeffs, once.coeffs)


# ----------------------------------------------- multiplier commutation

def test_leray_commutes_with_multipliers(grid2, params):
    f = random_hermitian_field(grid2, seed=71)
    pairs = [
        (lambda w: frac_stokes_apply(w, 0.6), "stokes"),
        (lambda w: u_from_v(w, 0.8), "helmholtz"),
        (lambda w: semigroup_apply(w, 0.2, params), "semigroup"),
    ]
    for op, _name in pairs:
        a = op(leray_project(f))
        b = leray_project(op(f))
        assert rel_err(a.coeffs, b.coeffs) < 1e-13


# ----------------------------------------------------------- params/regime

def test_params_validation():
    with pytest.raises(ValueError):
        Params(alpha=-1.0, nu=1.0, s=0.5)
    with pytest.raises(ValueError, match="alpha\\^2"):
        Params(alpha=2.0**512, nu=1.0, s=0.5)  # finite, but alpha^2 overflows
    with pytest.raises(ValueError):
        Params(alpha=0.5, nu=0.0, s=0.5)
    with pytest.raises(ValueError):
        Params(alpha=0.5, nu=1.0, s=1.0)
    Params(alpha=0.0, nu=1.0, s=0.5)  # alpha = 0 allowed for operator tests


def test_infer_regime():
    assert infer_regime(2, 0.5) is Regime.GLOBAL_RANGE  # endpoint s = dim/4
    assert infer_regime(2, 0.4) is Regime.UNRESTRICTED
    assert infer_regime(3, 0.6) is Regime.LOCAL_RANGE
    assert infer_regime(3, 0.75) is Regime.GLOBAL_RANGE
    assert infer_regime(3, 0.2) is Regime.UNRESTRICTED


def test_check_regime(tmp_path):
    # s = 0.6 is in the global range for dim 2 and only in the local one for
    # dim 3; a config's manifest echo carries the regime infer_regime finds
    for dim, regime in ((2, Regime.GLOBAL_RANGE), (3, Regime.LOCAL_RANGE)):
        assert infer_regime(dim, 0.6) is regime
        cfg = tmp_path / f"d{dim}.cfg"
        cfg.write_text(
            f"dim = {dim}\nN = 8\nalpha = 0.5\nnu = 1\ns = 0.6\n"
            "dt = 1e-3\nt_end = 0\ninit = shear\n"
        )
        assert config_echo(parse_config(cfg))["regime"] == regime.value


# ------------------------------------------------------- field arithmetic

def test_field_arithmetic_and_flags(grid2):
    u = random_field(grid2, seed=81)
    w = random_field(grid2, seed=82)
    s = u + w
    assert s.hermitian and s.solenoidal and s.zero_mean
    d = (2.0 * u) - u
    assert rel_err(d.coeffs, u.coeffs) < 1e-14
    from lansfrac.errors import GridError as GE

    other = random_field(make_grid(2, 16), seed=1)
    with pytest.raises(GE):
        _ = u + other
