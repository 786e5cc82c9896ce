"""Stepper and run-loop tests: exactness, convergence order, invariants."""

import tracemalloc

import numpy as np
import pytest

from lansfrac import (
    InitialData,
    Params,
    SchemeKind,
    SimConfig,
    StepScheme,
    dealias,
    make_initial,
    norm_DAr,
    rhs_f,
    run,
    semigroup_apply,
)
from lansfrac.diagnostics import _cumtrapz
from lansfrac.errors import DivergedError
from lansfrac.integrator import (
    _Propagator,
    _advance,
    _step_count,
    _step_time,
    galerkin_truncate,
    phi_functions,
)
from lansfrac.spectral import stokes_multiplier, to_physical, to_spectral

from conftest import random_field, rel_err


def config(grid, p, dt=1e-3, t_end=1.0, init=None, **kw):
    return SimConfig(
        grid=grid,
        params=p,
        scheme=StepScheme(kind=kw.pop("kind", SchemeKind.ETD2RK), dt=dt),
        t_end=t_end,
        initial=init or InitialData(kind="shear"),
        **kw,
    )


# ----------------------------------------------------------- phi functions

def test_phi_at_zero():
    p1, p2 = phi_functions(0.0)
    assert p1 == 1.0 and p2 == 0.5


def test_phi_at_minus_one():
    p1, p2 = phi_functions(-1.0)
    assert abs(p1 - (1 - np.exp(-1))) < 1e-15
    assert abs(p2 - np.exp(-1)) < 1e-15  # (e^-1 - 1 + 1)/1


def test_phi_branch_continuity():
    # compare the two branches straddling the switch at |z| = 1e-4
    for sign in (+1.0, -1.0):
        lo = sign * 1e-4 * (1 - 1e-9)   # series branch
        hi = sign * 1e-4 * (1 + 1e-9)   # closed-form branch
        p1l, p2l = phi_functions(lo)
        p1h, p2h = phi_functions(hi)
        assert abs(p1l - p1h) < 1e-12
        assert abs(p2l - p2h) < 1e-12


def test_phi_array_input():
    z = np.array([-2.0, -1e-5, 0.0])
    p1, p2 = phi_functions(z)
    assert p1.shape == z.shape
    assert abs(p1[0] - (1 - np.exp(-2)) / 2) < 1e-14


# ------------------------------------------------------- galerkin truncation

def test_galerkin_identity_above_nyquist(grid2):
    u = random_field(grid2, seed=1, band=grid2.N // 2 - 1)
    out = galerkin_truncate(u, grid2.N // 2)
    assert np.array_equal(out.coeffs, u.coeffs)


def test_galerkin_taylor_green_unchanged(grid2):
    tg = make_initial(InitialData(kind="taylor-green"), grid2)
    out = galerkin_truncate(tg, 1)
    assert rel_err(out.coeffs, tg.coeffs) < 1e-15


def test_galerkin_commutes_with_semigroup(grid2, params):
    u = random_field(grid2, seed=2)
    a = galerkin_truncate(semigroup_apply(u, 0.4, params), 5)
    b = semigroup_apply(galerkin_truncate(u, 5), 0.4, params)
    assert rel_err(a.coeffs, b.coeffs) < 1e-14


def test_galerkin_rejects_bad_cut(grid2):
    u = random_field(grid2, seed=3)
    with pytest.raises(ValueError):
        galerkin_truncate(u, 0)


def test_galerkin_projection_order_irrelevant_for_band_limited(grid2, params):
    # open question: truncating after the full rhs equals projecting the
    # nonlinearity before the Stokes projector, since the cutoff commutes
    # with every multiplier; band-limited data makes both sides exact. The
    # unprojected nonlinearity is (1 + a^2 A)^{-1} of the dealiased product
    # (curl v) x u, formed here from physical samples.
    from lansfrac.operators import rhs_f, u_from_v, v_from_u
    from lansfrac.spectral import coeffs_to_phys, leray_project

    u = dealias(random_field(grid2, seed=4, band=5))
    cut = 7
    after = galerkin_truncate(rhs_f(u, params), cut)
    v = v_from_u(u, params.alpha).coeffs
    w = coeffs_to_phys(1j * (grid2.k[0] * v[1] - grid2.k[1] * v[0]), 2)
    vel = to_physical(u)
    product = dealias(to_spectral(np.stack([-w * vel[1], w * vel[0]]), grid2))
    before = -(leray_project(galerkin_truncate(u_from_v(product, params.alpha), cut)))
    assert rel_err(after.coeffs, before.coeffs) < 1e-13


# ------------------------------------------------------------------- step

def _step(u, params, dt, kind=SchemeKind.ETD2RK):
    """One step of the u-form equation, as run takes it."""
    f_eval = lambda w: rhs_f(w, params)
    return _advance(u, _Propagator(u.grid, params, dt), kind, f_eval, f_eval(u))


def test_step_shear_exact_any_dt(grid2):
    p = Params(alpha=0.5, nu=1.3, s=0.75)
    u = make_initial(InitialData(kind="shear"), grid2)
    for dt in (0.3, 0.05):
        out = _step(u, p, dt)
        assert rel_err(out.coeffs, np.exp(-p.nu * dt) * u.coeffs) < 1e-13


def test_step_dt_zero_identity(grid2, params):
    # a zero-length step (E = 1, zero weights) leaves every coefficient as it was
    u = random_field(grid2, seed=5)
    for kind in SchemeKind:
        assert np.array_equal(_step(u, params, 0.0, kind).coeffs, u.coeffs)


def _self_convergence_order(grid, kind):
    # Richardson: order = log2(|u_dt - u_dt/2| / |u_dt/2 - u_dt/4|). Data must
    # have an active nonlinearity: 2D Taylor-Green is f-free (see the exactness
    # test below), so a band-limited random field is used instead.
    p = Params(alpha=0.5, nu=0.05, s=0.75)
    u0 = dealias(random_field(grid, seed=20, amplitude=2.0, decay=2.0, band=8))
    finals = []
    for dt in (2e-2, 1e-2, 5e-3):
        traj = run(config(grid, p, dt=dt, t_end=0.4, kind=kind), initial_field=u0)
        finals.append(traj.snapshots[-1])
    e1 = norm_DAr(finals[0] - finals[1], 1.0)
    e2 = norm_DAr(finals[1] - finals[2], 1.0)
    return np.log2(e1 / e2)


def test_etd2rk_self_convergence_order(grid2):
    order = _self_convergence_order(grid2, SchemeKind.ETD2RK)
    assert 1.7 < order < 2.3


def test_exp_euler_self_convergence_order(grid2):
    order = _self_convergence_order(grid2, SchemeKind.EXP_EULER)
    assert 0.7 < order < 1.3


def test_etd2rk_convergence_order_3d_taylor_green(grid3):
    # in 3D the Taylor-Green nonlinearity survives the projection
    p = Params(alpha=0.5, nu=0.05, s=0.75)
    finals = []
    for dt in (2e-2, 1e-2, 5e-3):
        traj = run(config(grid3, p, dt=dt, t_end=0.2, init=InitialData(kind="taylor-green")))
        finals.append(traj.snapshots[-1])
    order = np.log2(
        norm_DAr(finals[0] - finals[1], 1.0) / norm_DAr(finals[1] - finals[2], 1.0)
    )
    assert 1.7 < order < 2.3


def test_run_taylor_green_2d_exact_solution(grid2):
    # advection and averaged stress of 2D TG are both pure gradients, so TG
    # decays exactly by the semigroup on the |k|^2 = 2 shell
    p = Params(alpha=0.5, nu=0.4, s=0.75)
    tg = make_initial(InitialData(kind="taylor-green"), grid2)
    traj = run(config(grid2, p, dt=5e-3, t_end=0.5, init=InitialData(kind="taylor-green")))
    expect = np.exp(-p.nu * 0.5 * 2.0**p.s)
    err = norm_DAr(traj.snapshots[-1] - expect * tg, 1.0) / norm_DAr(tg, 1.0)
    assert err < 1e-10


# ------------------------------------------------------------ initial data

def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialData(kind="vortex")
    with pytest.raises(ValueError):
        InitialData(kind="snapshot")


def test_taylor_green_flags(grid2, grid3):
    for g in (grid2, grid3):
        tg = make_initial(InitialData(kind="taylor-green"), g)
        assert tg.hermitian and tg.solenoidal and tg.zero_mean


def test_random_spectrum_properties(grid2_64):
    init = InitialData(kind="random-spectrum", amplitude=0.3, seed=9, decay_exponent=3.0, band=12)
    u = make_initial(init, grid2_64)
    assert u.hermitian and u.solenoidal and u.zero_mean
    assert abs(norm_DAr(u, 1.0) - 0.3) < 1e-12
    # per-mode vector modulus follows |k|^{-p} inside the band, zero outside
    mod = np.sqrt(np.sum(np.abs(u.coeffs) ** 2, axis=0))
    kmax = np.max(np.abs(grid2_64.k), axis=0)
    inside = (kmax <= 12) & (grid2_64.k2 > 0)
    expect = stokes_multiplier(grid2_64.k2, -1.5)
    scale = mod[1, 0] / expect[1, 0]
    assert np.max(np.abs(mod[inside] - scale * expect[inside])) < 1e-12 * scale
    assert np.max(mod[~inside]) == 0.0


def test_random_spectrum_seeded_determinism(grid2):
    a = make_initial(InitialData(kind="random-spectrum", seed=4), grid2)
    b = make_initial(InitialData(kind="random-spectrum", seed=4), grid2)
    c = make_initial(InitialData(kind="random-spectrum", seed=5), grid2)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)


# -------------------------------------------------------------------- run

def test_run_shear_exact_decay(grid2):
    p = Params(alpha=0.5, nu=1.0, s=0.5)
    traj = run(config(grid2, p, dt=1e-3, t_end=1.0))
    u0, uT = traj.snapshots[0], traj.snapshots[-1]
    err = norm_DAr(uT - np.exp(-1.0) * u0, 1.0) / norm_DAr(u0, 1.0)
    assert err < 1e-10
    assert traj.times[-1] == 1.0


def test_run_t_end_zero(grid2, params):
    traj = run(config(grid2, params, t_end=0.0))
    assert len(traj.snapshots) == 1 and len(traj.diag) == 1


def test_run_linear_exactness_per_mode(grid2):
    # with the nonlinearity disabled every mode decays by exp(-nu t |k|^{2s})
    # regardless of the dt partition
    p = Params(alpha=0.5, nu=0.8, s=0.6)
    u0 = random_field(grid2, seed=11)
    for dt in (0.7, 0.13, 0.01):
        traj = run(config(grid2, p, dt=dt, t_end=1.0, linear_only=True), initial_field=u0)
        expect = u0.coeffs * np.exp(-p.nu * 1.0 * stokes_multiplier(grid2.k2, p.s))
        assert rel_err(traj.snapshots[-1].coeffs, expect) < 1e-12


def test_run_taylor_green_bounded(grid2):
    p = Params(alpha=0.5, nu=0.5, s=0.5)
    traj = run(config(grid2, p, dt=2e-3, t_end=0.5, init=InitialData(kind="taylor-green")))
    ndas = [r.nDA for r in traj.diag]
    assert max(ndas) <= ndas[0] * (1 + 1e-8)  # decaying flow
    # hermitian/solenoidal/zero-mean preserved (flags measured on access)
    last = traj.snapshots[-1]
    assert last.hermitian and last.solenoidal and last.zero_mean


def test_run_snapshot_cadence(grid2, params):
    traj = run(config(grid2, params, dt=0.1, t_end=1.0, snapshot_every=3))
    assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert len(traj.snapshots) == 5
    assert len(traj.diag) == 11


def test_run_streams_snapshots_to_the_sink(grid2, params):
    cfg = config(grid2, params, dt=0.1, t_end=1.0, snapshot_every=3)
    seen = []
    traj = run(cfg, on_snapshot=lambda w, t: seen.append((t, w)))
    assert np.allclose([t for t, _ in seen], [0.0, 0.3, 0.6, 0.9, 1.0])
    assert len(traj.times) == 0 and traj.snapshots == []  # the sink had them
    assert len(traj.diag) == 11
    held = run(cfg)
    assert np.array_equal(held.times, [t for t, _ in seen])
    for kept, (_, streamed) in zip(held.snapshots, seen):
        assert np.array_equal(kept.coeffs, streamed.coeffs)


def test_run_with_a_sink_holds_no_fields(grid3):
    # A snapshot every step, streamed to a sink that keeps nothing: the
    # traced peak of the run does not grow with the number of steps.
    p = Params(alpha=0.5, nu=0.1, s=0.75)
    init = InitialData(kind="random-spectrum", amplitude=0.5, seed=3)

    def traced_peak(steps: int) -> int:
        cfg = config(grid3, p, dt=1e-3, t_end=steps * 1e-3, init=init)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(cfg, on_snapshot=lambda w, t: None)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    traced_peak(2)  # builds the cached kernel workspace and tables
    field = 16 * grid3.dim * np.prod(grid3.spectral_shape)
    assert traced_peak(40) - traced_peak(10) < field


def test_run_frees_its_initial_field(grid3):
    # After the first step the run holds no reference to its initial field,
    # and _advance drops w1 f(u) before the stage's f: the traced peak of a
    # 10-step run stays under 7 fields (7.6 when both were held).
    p = Params(alpha=0.5, nu=0.1, s=0.75)
    init = InitialData(kind="random-spectrum", amplitude=0.5, seed=3)

    def traced_peak(steps: int) -> int:
        cfg = config(grid3, p, dt=1e-3, t_end=steps * 1e-3, init=init)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(cfg, on_snapshot=lambda w, t: None)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    traced_peak(2)  # builds the cached kernel workspace and tables
    field = 16 * grid3.dim * np.prod(grid3.spectral_shape)
    peak = traced_peak(10)
    assert peak < 7 * field, peak / field


def test_run_galerkin_consistency_band_limited(grid2):
    # data supported inside the dealias cutoff: truncating at the band is a
    # no-op because products are dealiased below it anyway
    p = Params(alpha=0.5, nu=0.5, s=0.5)
    u0 = dealias(random_field(grid2, seed=12, band=grid2.band_limit))
    plain = run(config(grid2, p, dt=5e-3, t_end=0.1), initial_field=u0)
    cut = run(
        config(grid2, p, dt=5e-3, t_end=0.1, galerkin_N=grid2.band_limit),
        initial_field=u0,
    )
    assert rel_err(cut.snapshots[-1].coeffs, plain.snapshots[-1].coeffs) < 1e-12


def test_run_divergence_detection(grid2):
    p = Params(alpha=0.1, nu=1e-6, s=0.5)
    init = InitialData(kind="random-spectrum", amplitude=1e5, seed=13)
    with pytest.raises(DivergedError):
        run(config(grid2, p, dt=0.5, t_end=50.0, init=init))


def _step_times(t_end, dt):
    n = _step_count(t_end, dt)
    return [0.0] + [_step_time(i, n, t_end, dt) for i in range(1, n + 1)]


def test_times_for_partial_final_step():
    t = _step_times(1.0, 0.3)
    assert np.allclose(t, [0.0, 0.3, 0.6, 0.9, 1.0])
    t2 = _step_times(1.0, 1e-3)
    assert len(t2) == 1001 and t2[-1] == 1.0
    assert t2[500] == 500 * 1e-3  # uniform steps are dt * i, not a running sum
    assert _step_times(0.0, 1e-3) == [0.0]
    # a step count float64 still indexes costs no memory to count
    assert _step_count(2.0**52, 1.0) == 2**52


def test_sim_config_rejects_step_counts_float64_cannot_index(grid2, params):
    with pytest.raises(ValueError, match="2\\*\\*53"):
        config(grid2, params, dt=1e-3, t_end=1e300)
    with pytest.raises(ValueError):
        config(grid2, params, dt=1e-300, t_end=1e300)  # t_end / dt overflows to inf
    config(grid2, params, dt=1.0, t_end=2.0**53)


# ------------------------------------------------------------- v-form runs

def test_run_v_form_matches_u_form(grid2):
    from lansfrac import u_from_v

    p = Params(alpha=0.5, nu=0.2, s=0.75)
    init = InitialData(kind="random-spectrum", amplitude=0.05, seed=14)
    ut = run(config(grid2, p, dt=5e-3, t_end=0.5, init=init))
    vt = run(config(grid2, p, dt=5e-3, t_end=0.5, init=init), form="v")
    mapped = u_from_v(vt.snapshots[-1], p.alpha)
    err = norm_DAr(mapped - ut.snapshots[-1], 1.0) / norm_DAr(ut.snapshots[-1], 1.0)
    assert err < 1e-6


# ------------------------------------------------------------- uniqueness

def _separation_growth(cfg, perturbation_scale, perturbation_seed=777):
    """Reference: two runs whose initial data differ by a small random field.

    Returns the separation growth ||w(t)||_{D(A)} / ||w(0)||_{D(A)} at the
    snapshot times, the dissipation int_0^t ||A^{1+s/2} u||^2 dtau / nu of the
    unperturbed run there, and the least-squares constant c of the Gronwall
    envelope log(growth) <= c * dissipation.
    """
    base = run(cfg)
    u0 = base.snapshots[0]
    delta = make_initial(
        InitialData(
            kind="random-spectrum",
            amplitude=perturbation_scale * norm_DAr(u0, 1.0),
            seed=perturbation_seed,
        ),
        cfg.grid,
    )
    pert = run(cfg, initial_field=u0 + delta)
    w0 = norm_DAr(pert.snapshots[0] - u0, 1.0)
    growth = np.array(
        [norm_DAr(a - b, 1.0) / w0 for a, b in zip(pert.snapshots, base.snapshots)]
    )
    t = np.array([r.t for r in base.diag])
    n1sq = np.array([r.n1ps2**2 for r in base.diag])
    dissipation = np.interp(base.times, t, _cumtrapz(n1sq, t) / cfg.params.nu)
    logg = np.log(np.maximum(growth, 1e-300))
    c_fit = float(np.sum(dissipation * logg) / np.sum(dissipation**2))
    return growth, dissipation, c_fit


def test_uniqueness_zero_perturbation_identical(grid2, params):
    cfg = config(grid2, params, dt=0.05, t_end=0.2)
    first, second = run(cfg), run(cfg)
    assert len(first.snapshots) == len(second.snapshots) == 5
    for a, b in zip(first.snapshots, second.snapshots):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()


def test_uniqueness_shear_perturbation_decays(grid2):
    p = Params(alpha=0.5, nu=1.0, s=0.5)
    growth, _, c_fit = _separation_growth(config(grid2, p, dt=2e-3, t_end=0.3), 1e-8)
    assert np.max(growth) <= 1.0 + 1e-6
    assert np.isfinite(c_fit)


def test_uniqueness_growth_stable_under_dt_halving(grid2):
    p = Params(alpha=0.5, nu=0.3, s=0.5)
    init = InitialData(kind="taylor-green", amplitude=0.5)
    g1 = _separation_growth(config(grid2, p, dt=4e-3, t_end=0.3, init=init), 1e-6)[0][-1]
    g2 = _separation_growth(config(grid2, p, dt=2e-3, t_end=0.3, init=init), 1e-6)[0][-1]
    assert abs(g1 - g2) <= 0.05 * max(g1, g2)


def test_step_overflow_raises_diverged(grid2, params):
    # the step itself checks nothing; run's flag check of the new state
    # catches the non-finite coefficients and names the step and its time
    huge = 1e200 * random_field(grid2, seed=99)
    with np.errstate(all="ignore"), pytest.raises(DivergedError) as info:
        run(config(grid2, params, dt=1.0, t_end=3.0), initial_field=huge)
    assert (info.value.step, info.value.t) == (1, 1.0)


def test_run_blowup_guard_names_step_and_time(grid2, params, monkeypatch):
    # the guard reads ||u||_{D(A)} from the step's diagnostics record; with a
    # factor below one, the first step already counts as a blow-up
    import lansfrac.integrator as integrator

    monkeypatch.setattr(integrator, "BLOWUP_FACTOR", 0.5)
    cfg = config(grid2, params, dt=1e-2, t_end=0.05, init=InitialData(kind="taylor-green"))
    with pytest.raises(DivergedError, match=r"D\(A\) norm blew up at step 1") as info:
        run(cfg)
    assert (info.value.step, info.value.t) == (1, 1e-2)
