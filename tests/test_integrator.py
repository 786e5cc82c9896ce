"""Stepper and run-loop tests: exactness, convergence order, invariants."""

import math
import tracemalloc
import warnings

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
    make_grid,
    make_initial,
    norm_DAr,
    picard_solve,
    rhs_f,
    run,
    semigroup_apply,
)
from lansfrac import integrator, operators
from lansfrac.diagnostics import DiagRecord, _cumtrapz, audit, audit_tables
from lansfrac.errors import DivergedError
from lansfrac.integrator import (
    _advance,
    _step_time,
    _steps,
    _weights,
    phi_functions,
)
from lansfrac.operators import rhs_f_band, u_from_v, v_from_u, v_nonlinearity
from lansfrac.spectral import (
    GridSpec,
    SpectralField,
    measure_flags,
    mode_dot,
    stokes_multiplier,
    to_physical,
    to_spectral,
)

from conftest import (
    SCALE_FAULTS,
    galerkin_truncate,
    no_tail,
    random_field,
    rel_err,
    scaled_plant,
    whole_field_flags,
    with_tail,
)


def config(grid, p, dt=1e-3, t_end=1.0, init=None, **kw):
    return SimConfig(
        grid=grid,
        params=p,
        scheme=StepScheme(kind=kw.pop("kind", SchemeKind.ETD2RK), dt=dt),
        t_end=t_end,
        initial=init or InitialData(kind="shear"),
        **kw,
    )


def drain(cfg, diag=None, initial_field=None, form="u"):
    """March cfg to its end and keep no state: the records, in diag if given."""
    diag = [] if diag is None else diag
    start = None if initial_field is None else integrator.start_field(cfg, initial_field, form)
    for _ in integrator.march(cfg, diag, start, form):
        pass
    return diag


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


def test_phi_is_finite_and_quiet_far_below_the_switch():
    # the series' powers of z overflow there, and at z = -inf, where
    # nu dt |k|^{2s} has overflowed, the closed form's phi2 reads inf / inf
    z = np.array([-np.inf, -1e300, -1e20])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p1, p2 = phi_functions(z)
    assert np.isfinite(p1).all() and np.isfinite(p2).all()
    assert p1[0] == p2[0] == 0.0 and p1[1] == p2[1] == 1e-300


# ------------------------------------------------------- galerkin truncation

@pytest.mark.parametrize("dim,n", [(2, 26), (2, 32), (2, 128), (3, 16), (3, 26), (3, 48)])
@pytest.mark.parametrize("s", [0.5, 0.75])
def test_weights_once_per_k2_are_the_per_mode_bits(dim, n, s):
    # one _weights table over |k|^2 = 0 .. max, indexed by k2, gives the
    # per-mode formula's bits on the band block, and E's on the tail (every
    # mode outside the block), at dt and at a shorter last step
    grid, nu, dt, t_end = make_grid(dim, n), 0.1, 1e-3, 0.0125
    layout = grid.layout
    _, modes, _ = layout.split(np.ones((1,) + grid.spectral_shape))
    k2_block, k2_tail = layout.gather(grid.k2), grid.k2.ravel()[modes]
    _, last = _steps(t_end, dt)
    assert last < dt and len(modes) > 0
    for h in (dt, last):
        table = _weights(int(grid.k2.max()) + 1, nu, s, h)
        z = -nu * h * stokes_multiplier(k2_block, s)
        phi1, phi2 = phi_functions(z)
        per_mode = np.stack([np.exp(z), h * phi1, h * phi2])
        assert table[:, k2_block.astype(np.intp)].tobytes() == per_mode.tobytes()
        e_tail = np.exp(-nu * h * stokes_multiplier(k2_tail, s))
        assert table[0, k2_tail.astype(np.intp)].tobytes() == e_tail.tobytes()


def _max_abs_k(grid):
    """max |k_i| per mode, from integer index arithmetic alone."""
    axes = [(np.arange(grid.N) + grid.N // 2) % grid.N - grid.N // 2] * (grid.dim - 1)
    k = np.meshgrid(*axes, np.arange(grid.N // 2 + 1), indexing="ij")
    return np.max(np.abs(k), axis=0)


def test_galerkin_keeps_every_mode_at_the_cut_on_a_grid_of_26():
    # the cut compares max |k_i| with an integer: a wavenumber 7 that reads
    # 7.000000000000001 (fftfreq(26) * 26) would lose 16 of these 119 modes
    grid = make_grid(2, 26)
    u = random_field(grid, seed=3, band=grid.N // 2 - 1)
    inside = _max_abs_k(grid) <= 7
    kept = galerkin_truncate(u, 7).coeffs
    assert np.count_nonzero(np.any(u.coeffs != 0, axis=0) & inside) == 119
    assert np.array_equal(kept[:, inside], u.coeffs[:, inside])
    assert not kept[:, ~inside].any()


def test_random_data_fill_their_band_on_a_grid_of_26():
    # the band test compares max |k_i| with an integer: with fftfreq(26) * 26
    # wavenumbers, band = 7 kept 13 of the 29 modes with max |k_i| = 7
    grid = make_grid(2, 26)
    u = random_field(grid, seed=3, band=7)
    nonzero, reach = np.any(u.coeffs != 0, axis=0), _max_abs_k(grid)
    assert np.count_nonzero(nonzero & (reach == 7)) == 29
    assert not (nonzero & (reach > 7)).any()


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
    """One step of the u-form equation on the whole half spectrum, as ``run``
    makes it: the band block in the kernel workspace, the tail by E alone."""
    grid = u.grid
    ws, layout = operators._kernel_workspace(grid, params.alpha), grid.layout
    block, modes, tail = layout.split(u.coeffs)
    np.copyto(ws.state, block)
    rhs_f_band(grid, ws.state, params, out=ws.f_state)
    table = _weights(int(grid.k2.max()) + 1, params.nu, params.s, dt)
    np.copyto(ws.weights, table[:, layout.gather(grid.k2).astype(np.intp)])
    _advance(ws, kind, lambda w: rhs_f_band(grid, w, params))
    tail = tail * table[0, grid.k2.ravel()[modes].astype(np.intp)]
    return u.copy_with(layout.join(ws.state, modes, tail))


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


def _sampled_profile(kind: str, grid: GridSpec, amp: float) -> np.ndarray:
    """Reference: the analytic profile's samples on the grid's points."""
    x = grid.x
    phys = np.zeros((grid.dim,) + grid.shape)
    if kind == "shear":
        phys[0] = amp * np.sin(x[1])
    else:
        z = np.cos(x[2]) if grid.dim == 3 else 1.0
        phys[0] = amp * np.sin(x[0]) * np.cos(x[1]) * z
        phys[1] = -amp * np.cos(x[0]) * np.sin(x[1]) * z
    return phys


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    half=st.integers(4, 32),
    kind=st.sampled_from(["shear", "taylor-green"]),
    amp=st.floats(1e-3, 1e3),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_analytic_data_are_their_exact_fourier_coefficients(dim, half, kind, amp, sign):
    # shear and taylor-green are a few Fourier modes each: make_initial writes
    # them, within 1e-15 |amp| of the transform of the sampled profile, and
    # every other coefficient, the mean included, is exactly +0.0; so the
    # field has no tail
    amp *= sign
    grid = make_grid(dim, 2 * half)
    u = make_initial(InitialData(kind=kind, amplitude=amp), grid).coeffs
    ref = to_spectral(_sampled_profile(kind, grid, amp), grid).coeffs
    assert np.max(np.abs(u - ref)) <= 1e-15 * abs(amp)
    k = grid.k
    if kind == "shear":
        support = np.zeros(u.shape, bool)
        support[0] = (k[0] == 0) & (np.abs(k[1]) == 1) & np.all(k[2:] == 0, axis=0)
    else:
        support = np.broadcast_to(np.all(np.abs(k) == 1, axis=0), u.shape).copy()
        support[2:] = False
    plus_zero = lambda a: not np.ascontiguousarray(a).view(np.uint64).any()  # both parts +0.0
    assert np.all(u[support] != 0)
    assert plus_zero(u[~support]) and plus_zero(u[(slice(None),) + (0,) * dim])
    _, modes, tail = grid.layout.split(u)
    assert modes.size == 0 and tail.shape == (dim, 0)


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


@pytest.mark.parametrize(
    "init",
    [InitialData(kind="random-spectrum", amplitude=0.5, seed=21),
     InitialData(kind="random-spectrum", amplitude=0.5, seed=21, band=15)],
    ids=["band", "whole"],
)
def test_the_march_cadenced_fields_are_the_run_snapshots(grid2, params, init):
    # the cadence takes step 0 (the start), every third step and the last;
    # each field has the bytes of run's snapshot, t = 0 included
    cfg = config(grid2, params, dt=0.1, t_end=1.0, init=init, snapshot_every=3)
    diag, seen = [], []
    for state in integrator.march(cfg, diag):
        assert state.step == len(diag) - 1
        if state.snapshot:
            seen.append((state.t, state.field().coeffs.tobytes()))
    assert [t for t, _ in seen] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-15)
    held = run(cfg)
    assert list(held.times) == [t for t, _ in seen]
    assert [u.coeffs.tobytes() for u in held.snapshots] == [b for _, b in seen]
    assert held.diag == diag and len(diag) == 11


def test_a_drained_march_holds_no_fields(grid3):
    # A march that is read to its end and keeps nothing: the traced peak does
    # not grow with the number of steps.
    p = Params(alpha=0.5, nu=0.1, s=0.75)
    init = InitialData(kind="random-spectrum", amplitude=0.5, seed=3)

    def traced_peak(steps: int) -> int:
        cfg = config(grid3, p, dt=1e-3, t_end=steps * 1e-3, init=init)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            drain(cfg)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    traced_peak(2)  # builds the cached kernel workspace and tables
    field = 16 * grid3.dim * np.prod(grid3.spectral_shape)
    assert traced_peak(40) - traced_peak(10) < field


def test_run_frees_its_initial_field(grid3):
    # After the first step the march holds no reference to its initial field,
    # and _advance drops w1 f(u) before the stage's f: the traced peak of a
    # 10-step march stays under 7 fields (7.6 when both were held).
    p = Params(alpha=0.5, nu=0.1, s=0.75)
    init = InitialData(kind="random-spectrum", amplitude=0.5, seed=3)

    def traced_peak(steps: int) -> int:
        cfg = config(grid3, p, dt=1e-3, t_end=steps * 1e-3, init=init)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            drain(cfg)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    traced_peak(2)  # builds the cached kernel workspace and tables
    field = 16 * grid3.dim * np.prod(grid3.spectral_shape)
    peak = traced_peak(10)
    assert peak < 7 * field, peak / field


@pytest.mark.parametrize("t_end,lengths", [(10.0, 1), (0.0105, 2)], ids=["long", "short-last"])
def test_a_run_evaluates_weights_once_per_step_length(monkeypatch, t_end, lengths):
    # every step is dt long but a shorter last one, so a step length taken
    # as dt (i + 1) - dt i, which drifts off dt on a long run, must not be
    seen, weights = [], integrator._weights
    monkeypatch.setattr(integrator, "_weights",
                        lambda size, nu, s, h: seen.append(h) or weights(size, nu, s, h))
    cfg = config(make_grid(2, 8), Params(alpha=0.5, nu=0.1, s=0.5), dt=1e-3, t_end=t_end,
                 init=InitialData(kind="random-spectrum", seed=1), linear_only=True)
    drain(cfg)
    assert len(seen) == lengths and seen[0] == 1e-3
    assert lengths == 1 or seen[1] == pytest.approx(5e-4)


def test_an_etd2rk_step_makes_fifteen_phases(monkeypatch):
    # the stage, two kernel calls of six phases, the update and the audit's
    # per-mode pass, of the ten phases registered
    grid, p = make_grid(2, 8), Params(alpha=0.5, nu=0.1, s=0.5)
    ws_type = type(operators._kernel_workspace(grid, p.alpha))
    split, phases = ws_type.split, []
    monkeypatch.setattr(ws_type, "split", lambda ws, phase: phases.append(phase) or split(ws, phase))
    made = []
    for steps in (1, 3):
        phases.clear()
        drain(config(grid, p, dt=1e-3, t_end=steps * 1e-3))
        made.append(len(phases))
    assert made[1] - made[0] == 2 * 15 and len(operators._PHASES) == 10


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


@pytest.mark.parametrize("kind", list(SchemeKind))
@pytest.mark.parametrize("form", ["u", "v"])
@pytest.mark.parametrize("dim", [2, 3])
def test_galerkin_cut_modes_are_plus_zero_in_every_snapshot(dim, form, kind):
    # a cut mode is +0.0, all bits clear, whatever the sign of the part that
    # was cut or of f there; snapshots are written as they are stored
    grid = make_grid(dim, 16 if dim == 2 else 8)
    init = InitialData(kind="random-spectrum", amplitude=0.5, seed=26, band=grid.N // 2 - 1)
    cfg = config(grid, Params(alpha=0.5, nu=0.2, s=0.75), dt=1e-2, t_end=0.03, init=init,
                 kind=kind, snapshot_every=1, galerkin_N=grid.band_limit - 1)
    cut = np.max(np.abs(grid.k), axis=0) > cfg.galerkin_N
    cut_parts = make_initial(init, grid).coeffs[:, cut]
    assert np.signbit(np.stack([cut_parts.real, cut_parts.imag])).any()  # -0.0 by a mask product
    traj = run(cfg, form=form)
    assert len(traj.snapshots) == 4
    for snap in traj.snapshots:
        assert np.count_nonzero(np.ascontiguousarray(snap.coeffs[:, cut]).view(np.uint64)) == 0
        assert np.count_nonzero(snap.coeffs[:, ~cut]) > 0


def test_run_divergence_detection(grid2):
    p = Params(alpha=0.1, nu=1e-6, s=0.5)
    init = InitialData(kind="random-spectrum", amplitude=1e5, seed=13)
    with pytest.raises(DivergedError):
        run(config(grid2, p, dt=0.5, t_end=50.0, init=init))


def _step_times(t_end, dt):
    n, _ = _steps(t_end, dt)
    return [0.0] + [_step_time(i, n, t_end, dt) for i in range(1, n + 1)]


def test_times_for_partial_final_step():
    t = _step_times(1.0, 0.3)
    assert np.allclose(t, [0.0, 0.3, 0.6, 0.9, 1.0])
    t2 = _step_times(1.0, 1e-3)
    assert len(t2) == 1001 and t2[-1] == 1.0
    assert t2[500] == 500 * 1e-3  # uniform steps are dt * i, not a running sum
    assert _step_times(0.0, 1e-3) == [0.0]
    # the last step's length is dt unless it is off dt by more than the tolerance
    assert _steps(1.0, 0.3) == (4, 1.0 - 0.3 * 3)
    assert _steps(1.0, 1e-3) == (1000, 1e-3) and _steps(10.0, 1e-3) == (10000, 1e-3)
    assert _steps(0.0105, 1e-3) == (11, 0.0105 - 1e-3 * 10)
    assert _steps(1e-3 * (1000 - 5e-7), 1e-3) == (1000, 1e-3)  # 5e-10 off: a step of dt
    # a step count float64 still indexes costs no memory to count
    assert _steps(2.0**52, 1.0) == (2**52, 1.0)


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


# ------------------------------------- run against the whole-spectrum loop

def _reference_record(u, f, params, t):
    """The diagnostics record as the whole-spectrum loop formed it."""
    grid = u.grid
    k2, a2 = grid.k2, params.alpha**2
    rows = np.stack(
        [
            np.ones_like(k2),
            1.0 + a2 * k2,
            stokes_multiplier(k2, params.s) + a2 * stokes_multiplier(k2, 1.0 + params.s),
            stokes_multiplier(k2, 2.0) + 1.0,
            stokes_multiplier(k2, 2.0 + params.s),
        ]
    )
    table = (grid.measure * grid.weight * rows).reshape(5, -1)
    energies = np.einsum("ij,j->i", table, mode_dot(u.coeffs, u.coeffs).ravel())
    e0, e1, diss, nda_sq, n1ps2_sq = map(float, energies)
    nda, n1ps2 = math.sqrt(nda_sq), math.sqrt(n1ps2_sq)
    pairing = float(np.einsum("i,i->", table[1], mode_dot(u.coeffs, f.coeffs).ravel()))
    cancel = abs(pairing) / (nda**3 + 1e-300)
    return DiagRecord(t=t, E0=e0, E1=e1, D=diss, nDA=nda, n1ps2=n1ps2, cancel=cancel)


def _full_spectrum_run(cfg, start, form="u"):
    """Reference: the run loop that stepped the whole half spectrum of every state.

    Each step is formed on SpectralFields over the half spectrum, the
    Galerkin cutoff is ``galerkin_truncate``, every new state's flags are the
    field's ``whole_field_flags``, and the record is ``_reference_record``.
    Returns the snapshot times, the snapshots and the records.
    """
    grid, params, kind = cfg.grid, cfg.params, cfg.scheme.kind
    alpha = params.alpha
    if cfg.galerkin_N is not None:
        start = galerkin_truncate(start, cfg.galerkin_N)
    if form == "v":
        start = v_from_u(start, alpha)
    zero = SpectralField.from_coeffs(grid, np.zeros((grid.dim,) + grid.spectral_shape, complex))
    if cfg.linear_only:
        f_eval = lambda w: zero
    elif form == "v":
        f_eval = lambda w: v_nonlinearity(u_from_v(w, alpha), w)
    else:
        f_eval = lambda w: rhs_f(w, params)

    weights = {}  # per step length: dt, and a shorter last step's

    def advance(u, h, f_u):
        if h not in weights:
            z = -params.nu * h * stokes_multiplier(grid.k2, params.s)
            phi1, phi2 = phi_functions(z)
            weights[h] = np.exp(z), h * phi1, h * phi2
        E, w1, w2 = weights[h]
        stage_c = np.multiply(E, u.coeffs)
        stage = u.copy_with(np.add(stage_c, np.multiply(w1, f_u.coeffs), out=stage_c))
        if kind is SchemeKind.EXP_EULER:
            return stage
        work = np.subtract(f_eval(stage).coeffs, f_u.coeffs)
        np.multiply(w2, work, out=work)
        return stage.copy_with(np.add(stage.coeffs, work, out=work))

    def record(w, f_w, t):
        if form == "v":
            w, f_w = u_from_v(w, alpha), u_from_v(f_w, alpha)
        return _reference_record(w, zero if cfg.linear_only else f_w, params, t)

    state, f_cur = start, f_eval(start)
    diag = [record(state, f_cur, 0.0)]
    times, snaps = [0.0], [state]
    dt = cfg.scheme.dt
    n, _ = _steps(cfg.t_end, dt)
    last = cfg.t_end - dt * (n - 1)  # dt long unless off dt by more than the step tolerance
    last = last if abs(last - dt) > 1e-9 * max(dt, cfg.t_end) else dt
    for i in range(n):
        state = advance(state, last if i == n - 1 else dt, f_cur)
        if cfg.galerkin_N is not None:
            state = galerkin_truncate(state, cfg.galerkin_N)
        t = _step_time(i + 1, n, cfg.t_end, dt)
        if not all(whole_field_flags(grid, state.coeffs)):
            raise DivergedError(f"field invariant broken at step {i + 1}", step=i + 1, t=t)
        f_cur = f_eval(state)
        diag.append(record(state, f_cur, t))
        if (i + 1) % cfg.snapshot_every == 0 or i + 1 == n:
            times.append(t)
            snaps.append(state)
    return times, snaps, diag


_RECORD_FIELDS = ("E0", "E1", "D", "nDA", "n1ps2")


def _check_against_reference(cfg, u0, form="u", tail=False):
    """run matches ``_full_spectrum_run``: the same snapshot bytes, t = 0 included,
    where run's start is the reference start split and joined (+0.0 off the
    block and the tail, where the reference may hold -0.0).

    The records sum over the band block and the tail, in another order than
    the whole half spectrum's sums, so the five energies agree to 1e-13
    relative, and the normalized pairing, a rounding residual on both sides,
    to 1e-13 absolute. tail says whether u0 has non-zero modes outside the
    band.
    """
    layout = cfg.grid.layout
    assert bool(np.count_nonzero(u0.coeffs) != np.count_nonzero(layout.gather(u0.coeffs))) == tail
    times, snaps, diag = _full_spectrum_run(cfg, u0, form)
    snaps[0] = snaps[0].copy_with(layout.join(*layout.split(snaps[0].coeffs)))
    traj = run(cfg, initial_field=u0, form=form)
    assert list(traj.times) == times
    assert [w.coeffs.tobytes() for w in traj.snapshots] == [w.coeffs.tobytes() for w in snaps]
    assert len(traj.diag) == len(diag)
    for got, want in zip(traj.diag, diag):
        assert got.t == want.t
        for name in _RECORD_FIELDS:
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13 * getattr(want, name)
        assert abs(got.cancel - want.cancel) <= 1e-13


_P = Params(alpha=0.5, nu=0.2, s=0.75)
_RANDOM = InitialData(kind="random-spectrum", amplitude=0.5, seed=21)


@pytest.mark.parametrize("kind", list(SchemeKind))
@pytest.mark.parametrize(
    "options",
    [{}, {"galerkin_N": 6}, {"linear_only": True}, {"form": "v"}],
    ids=["plain", "galerkin", "linear", "v-form"],
)
def test_band_run_matches_the_whole_spectrum_loop(grid2, kind, options):
    options = dict(options)
    form = options.pop("form", "u")
    cfg = config(grid2, _P, dt=7e-3, t_end=0.1, init=_RANDOM, kind=kind, snapshot_every=4,
                 **options)
    _check_against_reference(cfg, make_initial(_RANDOM, grid2), form)


@pytest.mark.parametrize("form", ["u", "v"])
def test_band_run_of_dealiased_data_matches_the_whole_spectrum_loop(grid2, form):
    # dealias leaves -0.0 on modes outside the band; they count as zero: the
    # start's join holds +0.0 there, and the first step turns them into +0.0
    # on both sides
    u0 = dealias(random_field(grid2, seed=22, band=grid2.N // 2 - 1))
    assert np.signbit(u0.coeffs[~np.broadcast_to(grid2.dealias_mask, u0.coeffs.shape)].real).any()
    cfg = config(grid2, _P, dt=5e-3, t_end=0.04, snapshot_every=1)
    _check_against_reference(cfg, u0, form)


def test_band_run_3d_matches_the_whole_spectrum_loop(grid3):
    init = InitialData(kind="random-spectrum", amplitude=1.0, seed=23)
    cfg = config(grid3, _P, dt=1e-2, t_end=0.05, init=init, snapshot_every=2)
    _check_against_reference(cfg, make_initial(init, grid3))


@pytest.mark.parametrize(
    "init",
    [
        InitialData(kind="taylor-green"),
        InitialData(kind="shear"),
        InitialData(kind="random-spectrum", amplitude=0.5, seed=24, band=15),
    ],
    ids=["taylor-green", "shear", "wide-band"],
)
def test_whole_spectrum_run_matches_the_old_loop(grid2, init):
    # the analytic profiles are band-limited, so they get a planted tail
    cfg = config(grid2, _P, dt=7e-3, t_end=0.05, init=init, snapshot_every=3)
    u0 = make_initial(init, grid2)
    if init.kind != "random-spectrum":
        u0 = with_tail(u0, seed=24)
    _check_against_reference(cfg, u0, tail=True)


def test_whole_spectrum_run_3d_matches_the_old_loop(grid3):
    init = InitialData(kind="taylor-green", amplitude=2.0)
    cfg = config(grid3, _P, dt=1e-2, t_end=0.04, init=init)
    _check_against_reference(cfg, with_tail(make_initial(init, grid3), seed=25), tail=True)


_TAIL_SIZES = [1.0, 1e-8, 1e-300, 5e-324]  # down to the smallest subnormal


@settings(max_examples=24, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**16),
    size=st.sampled_from(_TAIL_SIZES),
    kind=st.sampled_from(list(SchemeKind)),
    galerkin=st.booleans(),
    form=st.sampled_from(["u", "v"]),
)
def test_tail_run_matches_the_whole_spectrum_loop(dim, seed, size, kind, galerkin, form):
    # a random band-limited field plus a random solenoidal hermitian tail
    # outside the band, scaled down as far as subnormal
    grid = make_grid(dim, 16 if dim == 2 else 8)
    b = grid.band_limit
    u0 = with_tail(random_field(grid, seed=seed, band=b), seed=seed + 1, size=size)
    options = {"galerkin_N": b + 1} if galerkin else {}
    cfg = config(grid, _P, dt=1e-2, t_end=0.03, kind=kind, snapshot_every=1, **options)
    times, snaps, _ = _full_spectrum_run(cfg, u0, form)
    traj = run(cfg, initial_field=u0, form=form)
    assert list(traj.times) == times
    for got, want in zip(traj.snapshots, snaps):
        if form == "u":
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
        else:
            # f of the v-form is +-0.0 off the band, so a zero there may
            # differ in sign on a tail mode that underflows; no value may differ
            assert np.array_equal(got.coeffs, want.coeffs)


# ------------------------------------------------------------ the run's tail

def test_tail_holds_the_start_modes_outside_the_band_that_are_non_zero(grid2):
    layout = grid2.layout
    outside = ~np.broadcast_to(grid2.dealias_mask, (grid2.dim,) + grid2.spectral_shape)
    u0 = make_initial(_RANDOM, grid2)
    block, modes, tail = layout.split(u0.coeffs)
    assert np.array_equal(block, layout.gather(u0.coeffs))
    assert tail.shape == (grid2.dim, 0) and modes.size == 0
    assert layout.join(block, modes, tail).tobytes() == u0.coeffs.tobytes()
    # -0.0 outside the band counts as zero
    dealiased = dealias(random_field(grid2, seed=25, band=15))
    assert np.signbit(dealiased.coeffs[outside].real).any()
    assert layout.split(dealiased.coeffs)[2].shape == (grid2.dim, 0)
    # taylor-green data have no tail; a planted one is the tail, and the
    # field is the block and the tail written into zeros
    tg = make_initial(InitialData(kind="taylor-green"), grid2)
    assert layout.split(tg.coeffs)[1].size == 0
    tg = with_tail(tg, seed=26)
    block, modes, tail = layout.split(tg.coeffs)
    planted = np.flatnonzero(np.any((tg.coeffs != 0) & outside, axis=0))
    assert planted.size > 0 and np.array_equal(modes, planted)
    assert np.array_equal(tail, tg.coeffs.reshape(2, -1)[:, planted])
    assert layout.join(block, modes, tail).tobytes() == tg.coeffs.tobytes()
    # a nan outside the band lands in the tail, and the run raises at step 0
    coeffs = np.array(u0.coeffs)
    coeffs[0, 1, grid2.N // 2] = np.nan
    nan_start = SpectralField.from_coeffs(grid2, coeffs)
    _, modes, tail = layout.split(nan_start.coeffs)
    assert modes.size == 1 and np.isnan(tail[0, 0])
    with pytest.raises(DivergedError, match="field invariant broken at step 0") as info:
        run(config(grid2, _P, dt=1e-2, t_end=0.05), initial_field=nan_start)
    assert (info.value.step, info.value.t) == (0, 0.0)


def test_a_restart_starts_from_the_tail_modes_that_are_non_zero(tmp_path):
    # A state's tail keeps every mode of its start, also one whose value has
    # decayed to 0, and its snapshot stores them; a restart starts from the
    # others, the tail of the file's field split, as a start from a field does
    from lansfrac.io import SnapshotMeta, read_snapshot, write_snapshot

    grid = make_grid(2, 16)
    block, modes, tail = grid.layout.split(random_field(grid, seed=5, band=7).coeffs)
    decayed = grid.k2.ravel()[modes] > 60  # a set of whole |k| shells, so still real
    tail[:, decayed] = 0.0
    path = tmp_path / "decayed.flns"
    meta = SnapshotMeta(alpha=_P.alpha, nu=_P.nu, s=_P.s, t=0.5)
    write_snapshot(integrator.State(0, 0.5, block, None, modes, tail, True, grid), meta, path)
    cfg = config(grid, _P, init=InitialData(kind="snapshot", path=str(path)))
    start = integrator.start_field(cfg)
    want = grid.layout.split(read_snapshot(path)[0].coeffs)
    assert [a.tobytes() for a in start] == [a.tobytes() for a in want]
    assert 0 < start[1].size == np.count_nonzero(~decayed) < modes.size


def test_a_band_limited_restart_builds_no_full_field(tmp_path):
    # start_field reads a restart as its file's block and tail, so at 3D N=48
    # its traced peak stays below one full half spectrum (2.64 MiB): the
    # file's bytes and the block times the amplitude. Reading the file as a
    # field and splitting it took two (5.27 MiB).
    from lansfrac.io import SnapshotMeta, write_snapshot

    grid, p = make_grid(3, 48), Params(alpha=0.5, nu=0.1, s=0.75)
    path = tmp_path / "u0.flns"
    u0 = make_initial(InitialData(kind="random-spectrum", seed=0), grid)
    write_snapshot(u0, SnapshotMeta(alpha=p.alpha, nu=p.nu, s=p.s, t=0.0), path)
    cfg = config(grid, p, init=InitialData(kind="snapshot", path=str(path)))
    field = 16 * grid.dim * np.prod(grid.spectral_shape)
    tracemalloc.start()
    try:
        block, modes, tail = integrator.start_field(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.tobytes() == grid.layout.gather(u0.coeffs).tobytes() and modes.size == 0
    assert peak < field, peak / field


@pytest.mark.parametrize(
    "init", [_RANDOM, InitialData(kind="random-spectrum", amplitude=0.5, seed=21, band=15)],
    ids=["band", "whole"],
)
def test_run_calls_advance_once_per_step_through_the_module_name(grid2, monkeypatch, init):
    # the benchmark takes its set-up/solve boundary at the first call of
    # integrator._advance, patched at that module-global name
    calls = []
    real = integrator._advance

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(integrator, "_advance", counted)
    cfg = config(grid2, _P, dt=7e-3, t_end=0.1, init=init)
    drain(cfg)
    assert len(calls) == _steps(0.1, 7e-3)[0] == 15


def _plant(fault, grid):
    """A function that plants one fault in the coefficients of a state.

    Mode k with 0 <= k_i <= b has the index k in the band block and in the
    half spectrum; the Nyquist plane exists only in the half spectrum.
    """
    dim, n_half = grid.dim, grid.N // 2

    def planted(u):
        u = np.array(u)
        c = 1e-3 * float(np.max(np.abs(u)))
        if fault == "nan":
            u[(0,) + (1, 2, 1)[:dim]] = np.nan
        elif fault == "inf":
            u[(1,) + (2, 1, 1)[:dim]] = np.inf
        elif fault == "mean":
            u[(0,) + (0,) * dim] += c
        elif fault == "divergent mode":  # u(k) += c k breaks k . u = 0
            k = (1, 2, 1)[:dim]
            u[(slice(None),) + k] += c * np.array(k)
        elif fault == "k_last = 0 plane":  # a solenoidal mode that is not its mirror's conjugate
            u[(1, 1) + (0,) * (dim - 1)] += 1j * c
        elif fault == "Nyquist plane":  # ditto at k = (1, ..., N/2), perpendicular to k
            k = (1,) * (dim - 1) + (n_half,)
            u[(0,) + k] += 1j * c * n_half
            u[(dim - 1,) + k] -= 1j * c
        return u

    return planted


_FAULTS = ["nan", "inf", "mean", "divergent mode", "k_last = 0 plane"]
# data of band N/2 - 1 on the N = 16 grids below: a start with a tail
_WIDE = InitialData(kind="random-spectrum", amplitude=0.5, seed=21, band=7)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "init,fault",
    [(_RANDOM, f) for f in _FAULTS] + [(_WIDE, f) for f in _FAULTS],
    ids=[f"band-{f}" for f in _FAULTS] + [f"whole-{f}" for f in _FAULTS],
)
def test_planted_fault_raises_at_its_step(monkeypatch, dim, init, fault):
    # a fault planted in the state of step 2 fails that state's audit, which
    # names step 2 and its end time, as the flag check of the old loop did
    grid = make_grid(dim, 16)
    plant, real, calls = _plant(fault, grid), integrator._advance, []

    def faulty(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        if len(calls) == 2:
            np.copyto(out, plant(out))  # the state is stepped in place
        return out

    monkeypatch.setattr(integrator, "_advance", faulty)
    cfg = config(grid, _P, dt=1e-2, t_end=0.05, init=init)
    diag = []
    with pytest.raises(DivergedError, match="field invariant broken at step 2") as info:
        drain(cfg, diag)
    assert (info.value.step, info.value.t) == (2, 2e-2)
    assert [rec.t for rec in diag] == [0.0, 1e-2, 2e-2]  # through the failing state


def _identity_projection(self, a, out, part=None):
    """A broken ``_KernelWorkspace.project``: f keeps the whole product, gradient included."""
    np.copyto(out, a)
    return out


@pytest.mark.parametrize("plant", ["state", "f(u)", "f(stage)"])
def test_every_divergence_carries_its_step_and_records(monkeypatch, plant):
    # a fault in step 2 fails the audit of step 2's state: a fault in that
    # state, in its f (the fifth kernel call: ETD2RK evaluates f once per
    # state and once per stage) or in f of its stage (the fourth call), which
    # reaches the state. The error names the step and its end time, and the
    # caller's list holds the records through the failing state.
    grid = make_grid(2, 16)
    calls = []
    if plant == "state":
        real, broken = integrator._advance, _plant("divergent mode", grid)

        def advance(*args, **kwargs):
            calls.append(None)
            out = real(*args, **kwargs)
            if len(calls) == 2:
                np.copyto(out, broken(out))  # the state is stepped in place
            return out

        monkeypatch.setattr(integrator, "_advance", advance)
    else:
        ws_type = type(operators._kernel_workspace(grid, _P.alpha))
        real, call = ws_type.project, 5 if plant == "f(u)" else 4

        def project(self, a, out, part=None):
            calls.append(None)
            return (_identity_projection if len(calls) == call else real)(self, a, out, part)

        monkeypatch.setattr(ws_type, "project", project)
    cfg = config(grid, _P, dt=1e-2, t_end=0.05, init=_RANDOM)
    what = "field invariant broken"
    if plant == "f(u)":
        what = r"the nonlinearity f\(u, u\) is not solenoidal"
    diag = []
    with pytest.raises(DivergedError, match=f"{what} at step 2") as info:
        drain(cfg, diag)
    assert (info.value.step, info.value.t) == (2, 2e-2)
    assert [rec.t for rec in diag] == [0.0, 1e-2, 2e-2]


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16), (3, 40)])
def test_a_broken_projection_fails_run_and_picard(monkeypatch, dim, n):
    # the kernel checks nothing; the audit fails the start's f(u), and
    # picard_solve's check fails its first node after t = 0, whose Duhamel
    # integral holds the gradient part. Both are explicit checks relative to
    # the field, so they fail at full size and scaled down.
    grid = make_grid(dim, n)
    monkeypatch.setattr(type(operators._kernel_workspace(grid, _P.alpha)), "project",
                        _identity_projection)
    for amplitude in (1.0, 1e-6):
        init = InitialData(kind="random-spectrum", amplitude=amplitude, seed=45)
        diag = []
        with pytest.raises(DivergedError, match="nonlinearity f.* at step 0") as info:
            drain(config(grid, _P, dt=1e-2, t_end=0.05, init=init), diag)
        assert (info.value.step, info.value.t, len(diag)) == (0, 0.0, 1)
        with pytest.raises(DivergedError, match="Picard node invariant broken") as info:
            picard_solve(make_initial(init, grid), _P, 0.01, mesh_size=4, max_iter=3)
        assert (info.value.step, info.value.t) == (None, 0.0025)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize(
    "init,fault",
    [(i, f) for i in (_RANDOM, _WIDE) for f in _FAULTS + ["Nyquist plane"]],
    ids=[f"{i}-{f}" for i in ("band", "whole") for f in _FAULTS + ["Nyquist plane"]],
)
def test_planted_start_fault_raises_at_step_0(dim, init, fault):
    # a start state that breaks an invariant, in its band block or in its
    # tail, raises before its first step and before any snapshot
    grid = make_grid(dim, 16)
    u0 = make_initial(init, grid)
    bad = SpectralField.from_coeffs(grid, _plant(fault, grid)(u0.coeffs))
    states = []
    cfg = config(grid, _P, dt=1e-2, t_end=0.05, init=init)
    with pytest.raises(DivergedError, match="field invariant broken at step 0") as info:
        states.extend(integrator.march(cfg, [], integrator.start_field(cfg, bad)))
    assert (info.value.step, info.value.t, states) == (0, 0.0, [])


_SIZES = (0.0, 1e-15, 1e-9, 1e-3)  # planted faults well below or above the 1e-12 tolerances


def _planted_f(ws, rng, fault, size, modes, exponent):
    """A band block f for the audit: f(u, u)-like, or with one fault planted.

    f is the projection of a random block 10^exponent in size, kept on a few
    modes (0: on every mode, never the mean). "divergence" plants a
    divergence of 10^p max |f| on a share of the modes, near the 1e-12
    tolerance: p and the share are drawn uniformly from [-14, -11] and
    [0.001, 1] (hypothesis would favour the ends). "unprojected" is the
    block itself.
    """
    shape = (ws.k.shape[0],) + ws.plan.layout.block_shape
    noise = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = 10.0**exponent * noise()
    if modes:
        kept = np.zeros(a[0].size, bool)
        kept[rng.choice(np.arange(1, a[0].size), modes)] = True
        a *= kept.reshape(shape[1:])
    f = ws.project(a, np.empty_like(a))
    scale = float(np.max(np.abs(f)))
    mean = (slice(None),) + (0,) * (len(shape) - 1)
    if fault == "divergence":
        share, planted = rng.uniform(0.001, 1.0), rng.uniform(-14.0, -11.0)
        f += (rng.random(shape[1:]) < share) * 10.0**planted * scale * noise()
        f[mean] = 0.0
    elif fault == "unprojected":
        a[mean] = 0.0
        f = a
    elif fault == "mean":
        f[mean] += size * scale
    elif fault == "zero":
        f[...] = 0.0
    elif fault == "nan":
        f[(0,) + (1,) * (len(shape) - 1)] = np.nan
    return f


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from([(2, 16), (2, 32), (3, 16)]),
    seed=st.integers(0, 2**16),
    fault=st.sampled_from(["none", "nan", "inf", "mean", "divergent mode", "k_last = 0 plane",
                           "zero"]),
    size=st.sampled_from(_SIZES),
    mode=st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 5)),
    # half the examples plant a divergence near the tolerance
    f_fault=st.one_of(st.just("divergence"),
                      st.sampled_from(["none", "unprojected", "mean", "zero", "nan"])),
    f_modes=st.sampled_from([1, 2, 4, 0]),
    exponent=st.integers(-30, 30),
)
def test_audit_flags_equal_measure_flags(case, seed, fault, size, mode, f_fault, f_modes,
                                         exponent):
    # the audit's flags of u and of f decide as the whole-field reference and
    # measure_flags of the fields that are the blocks on the band and zero
    # elsewhere: (hermitian, solenoidal, zero_mean) of u, then (solenoidal,
    # zero_mean) of f, whose non-finite values pass (the next state carries them)
    dim, n = case
    grid = make_grid(dim, n)
    layout = grid.layout
    u = np.array(random_field(grid, seed=seed).coeffs)
    c = size * float(np.max(np.abs(u)))
    k = mode[-dim:]
    idx = tuple(ki % grid.N for ki in k)
    if fault == "nan" and size:
        u[(0,) + idx] = np.nan
    elif fault == "inf" and size:
        u[(dim - 1,) + idx] = -np.inf
    elif fault == "mean":
        u[(1,) + (0,) * dim] += c
    elif fault == "divergent mode":
        u[(slice(None),) + idx] += c * np.array(k)
    elif fault == "k_last = 0 plane":
        u[(0,) + idx[:-1] + (0,)] += 1j * c  # its mirror stays as it was
    elif fault == "zero":
        u[...] = 0.0
    ws = operators._kernel_workspace(grid, _P.alpha)
    f = _planted_f(ws, np.random.default_rng(seed), f_fault, size, f_modes, exponent)
    block = layout.gather(u)
    flags, _ = audit(block, f, audit_tables(grid, _P.alpha, _P.s), 0.0, no_tail(grid))
    u_joined, f_joined = layout.join(block), layout.join(f)
    assert flags[:3] == whole_field_flags(grid, u_joined) == measure_flags(grid, u_joined)
    if f_fault != "nan":
        assert flags[3:] == whole_field_flags(grid, f_joined)[1:] == measure_flags(grid, f_joined)[1:]
    else:
        assert flags[3:] == (True, True)
    if f_fault == "unprojected":
        assert not flags[3]  # the check is not vacuous


def _every_check(grid, u, f):
    """The flags every check gives the band blocks u and f: the audit's, then
    ``measure_flags`` and the whole-field reference of the fields that are
    the blocks on the band (f's solenoidal and zero_mean)."""
    layout, tables = grid.layout, audit_tables(grid, _P.alpha, _P.s)
    with np.errstate(over="ignore", invalid="ignore"):  # the record's energies may overflow
        flags, _ = audit(u, f, tables, 0.0, no_tail(grid))
    u, f = layout.join(u), layout.join(f)
    return (flags, measure_flags(grid, u) + measure_flags(grid, f)[1:],
            whole_field_flags(grid, u) + whole_field_flags(grid, f)[1:])


def _state_and_f(grid, seed):
    """A valid band block state and a projected band block f, of size about 1."""
    ws = operators._kernel_workspace(grid, _P.alpha)
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.layout.block_shape
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    u = grid.layout.gather(random_field(grid, seed=seed).coeffs)
    return u, ws.project(a, np.empty_like(a)), ws.k


def _power_to(block, top: int) -> int:
    """The power of two that takes max |block| into [2^top, 2^(top + 1))."""
    return top + 1 - math.frexp(float(np.max(np.abs(block))))[1]


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from([(2, 16), (2, 32), (3, 16)]),
    seed=st.integers(0, 2**16),
    fault=st.sampled_from(SCALE_FAULTS),
    f_fault=st.sampled_from(("none", "divergence", "mean")),
    top=st.integers(-982, 1000),
)
def test_every_check_gives_a_state_times_a_power_of_two_its_flags(case, seed, fault, f_fault, top):
    # each flag holds its residual against the largest coefficient of its
    # own block, so u and f times a power of two keep their flags while
    # 1e-12 of that coefficient is a normal float (it is at least 2^-982),
    # and a fault of 1e-9 of it fails its own flag alone at every such scale
    grid = make_grid(*case)
    u, f, k = _state_and_f(grid, seed)
    flags = (fault != "mirror", fault != "divergence", fault != "mean",
             f_fault != "divergence", f_fault != "mean")
    assert _every_check(grid, scaled_plant(u, k, 0, fault), scaled_plant(f, k, 0, f_fault)) == (flags,) * 3
    scaled = (scaled_plant(u, k, _power_to(u, top), fault), scaled_plant(f, k, _power_to(f, top), f_fault))
    assert _every_check(grid, *scaled) == (flags,) * 3


@pytest.mark.parametrize("case", [(2, 32), (3, 16)])
@pytest.mark.parametrize("fault", SCALE_FAULTS)
@pytest.mark.parametrize("top", [-1023, -1040, -1060])
def test_a_state_with_no_normal_coefficient_passes_as_zero(case, fault, top):
    # below 2^-1022 each coefficient is rounded to the 2^-1074 quantum on its
    # own, so no relative invariant of a state or an f can be resolved there:
    # each is checked as the zero state it has decayed to, with any fault
    grid = make_grid(*case)
    u, f, k = _state_and_f(grid, 7)
    u, f = scaled_plant(u, k, _power_to(u, top), fault), scaled_plant(f, k, _power_to(f, top), fault)
    assert 0.0 < float(np.max(np.abs(u))) < np.finfo(float).tiny
    assert _every_check(grid, u, f) == ((True,) * 5,) * 3


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
@pytest.mark.parametrize("top", [0, -1060])
def test_a_non_finite_state_fails_all_three_flags(value, top):
    # a nan or inf coefficient makes max |u| nan or inf, also beside
    # coefficients that are subnormal; the audit passes a non-finite f, as the
    # state it makes carries the fault, and the whole-field checks fail it
    grid = make_grid(2, 32)
    u, f, k = _state_and_f(grid, 3)
    u = scaled_plant(u, k, _power_to(u, top))
    u[0, 1, 2] = value
    f[1, 2, 1] = value
    audited, measured, reference = _every_check(grid, u, f)
    assert audited == (False,) * 3 + (True,) * 2
    assert measured == reference == (False,) * 5


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    size=st.sampled_from(_SIZES),
    row=st.integers(0, 15),
    component=st.integers(0, 1),
)
def test_start_check_equals_measure_flags_on_the_nyquist_plane(seed, size, row, component):
    # only the tail reaches the Nyquist plane; run checks a start with a
    # tail whole, so it raises at step 0 exactly when the whole-field
    # reference and measure_flags fail
    grid = make_grid(2, 16)
    u = np.array(make_initial(InitialData(kind="random-spectrum", seed=seed, band=7), grid).coeffs)
    u[component, row, -1] += 1j * size * float(np.max(np.abs(u)))
    try:
        run(config(grid, _P, dt=1e-2, t_end=0.0), initial_field=SpectralField.from_coeffs(grid, u))
        broken = False
    except DivergedError as exc:
        broken = (exc.step, exc.t) == (0, 0.0)
    assert broken == (not all(whole_field_flags(grid, u))) == (not all(measure_flags(grid, u)))


def test_band_run_holds_only_blocks_while_it_steps(grid3, monkeypatch):
    # On the band block a 3D run holds its state and f as blocks, and builds
    # one full field for its last snapshot; the stage's f lands in the
    # kernel's own buffer. A loop-owned block for the stage's f took both
    # measures to 4.0 blocks; the whole half spectrum held two full fields at
    # every step and peaked at 5.6.
    p = Params(alpha=0.5, nu=0.1, s=0.75)
    init = InitialData(kind="random-spectrum", amplitude=0.5, seed=3)
    u0 = make_initial(init, grid3)
    layout = grid3.layout
    field = 16 * grid3.dim * np.prod(grid3.spectral_shape)
    block = 16 * grid3.dim * np.prod(layout.block_shape)
    real, held = integrator._advance, []

    def traced(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    def traced_run(steps: int) -> tuple[int, int]:
        cfg = config(grid3, p, dt=1e-3, t_end=steps * 1e-3, init=init, snapshot_every=100)
        held.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            drain(cfg, initial_field=u0)
            return max(held) - base, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(integrator, "_advance", traced)
    traced_run(2)  # builds the cached kernel workspace and tables
    most_held, peak = traced_run(10)
    assert most_held < 3.5 * block, most_held / block
    assert peak < field + 3.5 * block, (peak - field) / block


@pytest.mark.parametrize("kind", ["snapshot", "random-spectrum", "taylor-green", "shear"])
def test_no_initial_data_builds_the_sample_points(tmp_path, kind):
    # grid.x (2.5 MiB at 3D N=48) is built on first use; the analytic
    # profiles are written as coefficients, so no initial data read it
    from lansfrac.io import SnapshotMeta, write_snapshot

    grid = GridSpec(3, 16)  # not the cached make_grid(3, 16), whose x other tests build
    path = tmp_path / "u0.flns"
    u0 = make_initial(InitialData(kind="random-spectrum", seed=2), make_grid(3, 16))
    write_snapshot(u0, SnapshotMeta(alpha=0.5, nu=0.1, s=0.75, t=0.0), path)
    make_initial(InitialData(kind=kind, path=str(path)), grid)
    assert "x" not in vars(grid)
