"""Energy records, balance residuals, monitors, rate fits, spectra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lansfrac import (
    HolderClass,
    InitialData,
    Params,
    SchemeKind,
    SimConfig,
    StepScheme,
    dealias,
    energy_balance_residual,
    holder_membership,
    make_grid,
    make_initial,
    norm_DAr,
    run,
    semigroup_apply,
    smoothing_rate,
)
from lansfrac.cli import main
from lansfrac.diagnostics import audit_tables, norm_DA, record, tail_rows
from lansfrac.integrator import Trajectory
from lansfrac.mild import semigroup_class_check
from lansfrac.operators import h1_alpha_pairing, rhs_f, v_from_u
from lansfrac.spectral import band_flags, frac_stokes_apply, l2_norm, measure_flags, to_physical

from conftest import random_field, whole_field_flags, zero_field


def config(grid, p, dt=1e-3, t_end=1.0, init=None, **kw):
    return SimConfig(
        grid=grid,
        params=p,
        scheme=StepScheme(kind=SchemeKind.ETD2RK, dt=dt),
        t_end=t_end,
        initial=init or InitialData(kind="shear"),
        **kw,
    )


# ------------------------------------------------------------------ record

def test_record_shear_values(grid2):
    p = Params(alpha=0.5, nu=1.0, s=0.5)
    u = make_initial(InitialData(kind="shear"), grid2)
    rec = record(u, p, 0.3)
    two_pi_sq = 2 * np.pi**2
    assert abs(rec.E0 - two_pi_sq) < 1e-10
    assert abs(rec.E1 - (1 + 0.25) * two_pi_sq) < 1e-10
    assert abs(rec.D - (1 + 0.25) * two_pi_sq) < 1e-10
    assert abs(rec.nDA - 2 * np.pi) < 1e-12
    assert abs(rec.n1ps2 - np.pi * np.sqrt(2)) < 1e-12
    assert rec.t == 0.3
    assert rec.E1 >= rec.E0


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_record_matches_the_multiplier_definitions(dim, n):
    # the one-pass table against one Stokes power and one norm per quantity
    g = make_grid(dim, n)
    p = Params(alpha=0.7, nu=1.0, s=0.6)
    a2 = p.alpha**2
    for seed in (27, 28):
        u = random_field(g, seed=seed, decay=1.5)
        rec = record(u, p, 0.0)

        def sq(r):
            return l2_norm(frac_stokes_apply(u, r)) ** 2

        expect = {
            "E0": l2_norm(u) ** 2,
            "E1": l2_norm(u) ** 2 + a2 * sq(0.5),
            "D": sq(p.s / 2.0) + a2 * sq((1.0 + p.s) / 2.0),
            "nDA": norm_DAr(u, 1.0),
            "n1ps2": l2_norm(frac_stokes_apply(u, 1.0 + p.s / 2.0)),
        }
        for name, value in expect.items():
            assert abs(getattr(rec, name) - value) <= 1e-13 * value, name
        # and E0 against the quadrature of the physical samples
        quad = float(np.sum(to_physical(u) ** 2) * g.dx**dim)
        assert abs(rec.E0 - quad) <= 1e-13 * quad


@pytest.mark.parametrize("dim,n,band", [(2, 32, None), (2, 32, 15), (3, 16, 7)])
def test_norm_DA_of_a_block_and_its_tail_is_the_whole_fields_norm(dim, n, band):
    # the D(A) row of the audit's tables on the band block, and of tail_rows
    # on the modes outside it, against norm_DAr of the whole field
    g = make_grid(dim, n)
    p = Params(alpha=0.7, nu=1.0, s=0.6)
    u = random_field(g, seed=29, decay=1.5, band=band)
    block, modes, values = g.layout.split(u.coeffs)
    assert (values.size == 0) == (band is None)
    tail = (tail_rows(g, p.alpha, p.s, modes), values)
    ref = norm_DAr(u, 1.0)
    assert abs(norm_DA(block, audit_tables(g, p.alpha, p.s), tail) - ref) <= 1e-14 * ref


def test_record_zero_field(grid2, params):
    rec = record(zero_field(grid2), params, 0.0)
    assert rec.E0 == rec.E1 == rec.D == rec.nDA == rec.n1ps2 == rec.cancel == 0.0


def test_record_cancellation_residual(grid2_64):
    p = Params(alpha=0.5, nu=1.0, s=0.5)
    for seed in (1, 2, 3):
        u = dealias(random_field(grid2_64, seed=seed))
        assert record(u, p, 0.0).cancel < 1e-10


_GRIDS = {case: make_grid(*case) for case in ((2, 16), (2, 32), (3, 8), (3, 16))}


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(_GRIDS)),
    seed=st.integers(0, 2**31),
    band_frac=st.floats(0.0, 1.0),
    amplitude=st.floats(1e-3, 1e3),
    alpha=st.floats(0.0, 2.0),
)
def test_record_cancel_is_the_h1_alpha_pairing(case, seed, band_frac, amplitude, alpha):
    # record's cancel is |<(1 + alpha^2 A) u, f>| / ||u||_{D(A)}^3 for any f,
    # and for f = f(u, u) on a random band-limited u it cancels to rounding
    grid = _GRIDS[case]
    band = 1 + round(band_frac * (grid.band_limit - 1))
    p = Params(alpha=alpha, nu=1.0, s=0.75)
    u = random_field(grid, seed=seed, amplitude=amplitude, band=band)
    g = random_field(grid, seed=seed + 1, amplitude=amplitude, band=band)
    nda3 = norm_DAr(u, 1.0) ** 3
    for f in (g, rhs_f(u, p)):
        scale = l2_norm(v_from_u(u, alpha)) * l2_norm(f) / nda3
        expect = abs(h1_alpha_pairing(u, f, alpha)) / nda3
        assert abs(record(u, p, 0.0, f=f).cancel - expect) <= 1e-13 * scale
    assert record(u, p, 0.0).cancel < 1e-10


# ------------------------------------------------------- energy balance

def test_energy_balance_shear_trapezoid_limited(grid2):
    # exact solution: the only residual is the trapezoid error of int D dt
    p = Params(alpha=0.5, nu=0.1, s=0.5)
    traj = run(config(grid2, p, dt=1e-3, t_end=1.0))
    res = energy_balance_residual(traj.diag, p)
    assert np.max(res) < 1e-8


def test_energy_balance_needs_two_records(grid2, params):
    traj = run(config(grid2, params, t_end=0.0))
    with pytest.raises(ValueError):
        energy_balance_residual(traj.diag, params)


def test_energy_balance_order_two_convergence(grid2):
    # random data (TG is f-free in 2D): residual should shrink ~4x per halving
    p = Params(alpha=0.5, nu=0.1, s=0.5)
    u0 = dealias(random_field(grid2, seed=21, amplitude=1.0, decay=2.0, band=8))
    res = []
    for dt in (2e-3, 1e-3):
        traj = run(config(grid2, p, dt=dt, t_end=0.5), initial_field=u0)
        res.append(np.max(energy_balance_residual(traj.diag, p)))
    ratio = res[0] / res[1]
    assert 3.0 <= ratio <= 5.0


def test_energy_monotone_decay(grid2):
    p = Params(alpha=0.5, nu=0.2, s=0.5)
    u0 = dealias(random_field(grid2, seed=22, amplitude=1.0))
    traj = run(config(grid2, p, dt=2e-3, t_end=0.3), initial_field=u0)
    e1 = [r.E1 for r in traj.diag]
    for a, b in zip(e1, e1[1:]):
        assert b <= a * (1 + 1e-8)


# ------------------------------------------------------- a priori bound
# The sup ratio sup_t ||u||_{D(A)} / ||u_0||_{D(A)} is read from the run's
# diagnostics, as criterion 06 reads it.

def _sup_ratio(traj):
    return max(r.nDA for r in traj.diag) / traj.diag[0].nDA


def test_apriori_shear_constant_one(grid2):
    p = Params(alpha=0.5, nu=1.0, s=0.5)
    traj = run(config(grid2, p, dt=2e-3, t_end=0.5))
    assert abs(_sup_ratio(traj) - 1.0) < 1e-12  # pure decay peaks at t = 0


def test_apriori_small_data_stable_under_refinement():
    p = Params(alpha=0.5, nu=0.2, s=0.5)
    sups = []
    for n in (32, 64):
        g = make_grid(2, n)
        init = InitialData(kind="random-spectrum", amplitude=0.05, seed=23, band=10)
        traj = run(config(g, p, dt=2e-3, t_end=0.25, init=init))
        sups.append(_sup_ratio(traj))
    assert abs(sups[1] - sups[0]) <= 0.10 * sups[0]


# --------------------------------------------------------- smoothing rate

def _fit(traj, r, s, window):
    """``smoothing_rate`` of the D(A^{1+r}) norms of traj's snapshots."""
    return smoothing_rate(traj.times, [norm_DAr(u, 1.0 + r) for u in traj.snapshots], r, s, window)


def test_smoothing_smooth_data_flat(grid2):
    p = Params(alpha=0.5, nu=0.1, s=0.75)
    init = InitialData(kind="taylor-green", amplitude=0.5)
    traj = run(config(grid2, p, dt=1e-3, t_end=0.12, init=init))
    fit = _fit(traj, r=p.s / 2, s=p.s, window=(2e-3, 0.1))
    assert abs(fit.slope) < 0.05  # band-limited data has nothing to smooth


def test_smoothing_r0_flat_rough_data(grid2_64):
    p = Params(alpha=0.5, nu=0.1, s=0.75)
    init = InitialData(kind="random-spectrum", amplitude=0.5, seed=24, decay_exponent=3.01)
    traj = run(config(grid2_64, p, dt=1e-3, t_end=0.12, init=init))
    fit0 = _fit(traj, r=0.0, s=p.s, window=(2e-3, 0.1))
    assert -0.05 <= fit0.slope <= 0.05
    # one-sided envelope for the positive order
    fit = _fit(traj, r=p.s / 2, s=p.s, window=(2e-3, 0.1))
    assert fit.slope >= fit.expected - 0.15
    assert fit.expected == -0.5


def test_smoothing_empty_window(grid2, params):
    traj = run(config(grid2, params, dt=1e-2, t_end=0.1))
    with pytest.raises(ValueError):
        _fit(traj, 0.5, params.s, window=(0.5, 0.6))


# -------------------------------------------------------- holder quotients
# The weighted-Hoelder quotients of a trajectory come from holder_membership
# with R = ||u(0)||_{D(A)} and T the last sample time, as the holder command
# forms them; that command also gates the critical case (dim, s) = (2, 1/2).

def _quotients(traj, beta, s):
    r0 = max(norm_DAr(traj.snapshots[0], 1.0), 1e-300)
    return holder_membership(traj, HolderClass(R=r0, beta=beta, T=float(traj.times[-1])), s)


def test_holder_quotients_zero_data(grid2):
    times = np.linspace(0, 1, 17)
    snaps = [zero_field(grid2) for _ in times]
    traj = Trajectory(times=times, snapshots=snaps, diag=[])
    rep = _quotients(traj, beta=0.25, s=0.5)
    assert rep.minimal_R == 0.0


def test_holder_quotients_semigroup_matches_class_check(grid2):
    p = Params(alpha=0.5, nu=0.5, s=0.5)
    u0 = dealias(random_field(grid2, seed=25, amplitude=1e-2))
    times = np.concatenate(([0.0], np.geomspace(1e-3, 1.0, 64)))
    snaps = [semigroup_apply(u0, float(t), p) for t in times]
    traj = Trajectory(times=times, snapshots=snaps, diag=[])
    rep = _quotients(traj, beta=0.25, s=0.5)
    ref = semigroup_class_check(
        u0, p, HolderClass(R=norm_DAr(u0, 1.0), beta=0.25, T=1.0)
    )
    assert abs(rep.minimal_R - ref.minimal_R) <= 0.15 * ref.minimal_R


def test_holder_quotients_wrong_regime(tmp_path, capsys):
    for dim, s in ((2, 0.75), (3, 0.5)):
        cfg = tmp_path / f"d{dim}.cfg"
        cfg.write_text(
            f"dim = {dim}\nN = 8\nalpha = 0.5\nnu = 0.5\ns = {s}\n"
            "dt = 1e-2\nt_end = 0.1\ninit = shear\n"
        )
        assert main(["holder", str(cfg), "--beta", "0.25", "--out-dir", str(tmp_path)]) == 2
        assert "critical case dim=2, s=1/2" in capsys.readouterr().err


_FLAG_GRIDS = {case: make_grid(*case) for case in ((2, 16), (2, 32), (3, 8), (3, 16))}
_FLAG_FAULTS = ("none", "k_last = 0 mirror", "Nyquist mirror", "divergent tail mode", "mean",
                "nan in the tail", "inf in the tail", "divergent block mode", "block mirror")


def _plant_flag_fault(u: np.ndarray, grid, fault: str, rng, size: float) -> None:
    """Plant fault in the half spectrum u (wide-band data) at size times max |u|."""
    c = size * float(np.max(np.abs(u)))
    b, half = grid.band_limit, grid.N // 2
    outside = np.flatnonzero(~grid.dealias_mask)
    index = np.unravel_index(outside, grid.spectral_shape)
    on_zero, on_nyquist = outside[index[-1] == 0], outside[index[-1] == half]
    flat = u.reshape(grid.dim, -1)
    component = int(rng.integers(grid.dim))
    if fault == "k_last = 0 mirror":  # its mirror -k keeps its value
        flat[component, rng.choice(on_zero)] += 1j * c
    elif fault == "Nyquist mirror":
        flat[component, rng.choice(on_nyquist)] += 1j * c
    elif fault == "divergent tail mode":  # u(k) += c k breaks k . u = 0
        mode = rng.choice(outside)
        flat[:, mode] += c * grid.k.reshape(grid.dim, -1)[:, mode]
    elif fault == "mean":
        u[(component,) + (0,) * grid.dim] += c
    elif fault in ("nan in the tail", "inf in the tail"):
        flat[component, rng.choice(outside)] = np.nan if fault[0] == "n" else -np.inf
    elif fault == "divergent block mode":
        k = (1, 1, 1)[: grid.dim]
        u[(slice(None),) + k] += c * np.array(k)
    elif fault == "block mirror":
        u[(component, int(rng.integers(1, b + 1))) + (0,) * (grid.dim - 1)] += 1j * c


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(_FLAG_GRIDS)),
    seed=st.integers(0, 2**16),
    fault=st.sampled_from(_FLAG_FAULTS),
    size=st.sampled_from([1e-15, 1e-13, 1e-11, 1e-9, 1e-3, 1.0]),
    tail_scale=st.sampled_from([1e-8, 1.0, 1e3]),
)
def test_band_flags_are_measure_flags_of_the_joined_field(case, seed, fault, size, tail_scale):
    # The band check (band_flags, run by the snapshot reader, by the march at
    # step 0 and by measure_flags) reads block and tail, and decides as the
    # whole-field reference of their join, faults planted inside the block or
    # on the tail included:
    # a broken mirror on the k_last = 0 or the Nyquist plane, k . u != 0 on a
    # tail mode, a mean, a nan or inf in the tail. The scale is max |u| over
    # both, so a tail larger than the block sets it.
    grid = _FLAG_GRIDS[case]
    layout = grid.layout
    u = np.array(random_field(grid, seed=seed, band=grid.N // 2 - 1).coeffs)
    u[:, ~grid.dealias_mask] *= tail_scale
    _plant_flag_fault(u, grid, fault, np.random.default_rng(seed), size)
    block, modes, tail = layout.split(u)
    joined = layout.join(block, modes, tail)
    flags = band_flags(grid, block, modes, tail)
    assert flags == whole_field_flags(grid, joined) == measure_flags(grid, joined)
    if fault != "none" and size == 1.0:
        assert not all(flags)  # the check is not vacuous
