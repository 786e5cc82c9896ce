"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import numpy as np

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
    picard_solve,
    rhs_f,
    run,
    semigroup_apply,
    smoothing_rate,
    u_from_v,
)
from lansfrac.integrator import Trajectory, march
from lansfrac.operators import h1_alpha_pairing
from lansfrac.spectral import SpectralField, stokes_multiplier

from conftest import random_field


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def cfg(grid, p, dt, t_end, init=None, **kw):
    return SimConfig(
        grid=grid,
        params=p,
        scheme=StepScheme(kind=SchemeKind.ETD2RK, dt=dt),
        t_end=t_end,
        initial=init or InitialData(kind="shear"),
        **kw,
    )


def embed_to(u: SpectralField, fine) -> SpectralField:
    """Zero-pad a coarse-grid field onto a finer grid (same continuum field).

    Both are half spectra: the last axis keeps k_last = 0..b only.
    """
    coarse = u.grid
    b = coarse.N // 2 - 1
    out = np.zeros((fine.dim,) + fine.spectral_shape, dtype=np.complex128)
    rng = list(range(0, b + 1)) + list(range(-b, 0))
    last = range(0, b + 1)
    if coarse.dim == 2:
        for i in rng:
            for j in last:
                out[:, i % fine.N, j] = u.coeffs[:, i % coarse.N, j]
    else:
        for i in rng:
            for j in rng:
                for k in last:
                    out[:, i % fine.N, j % fine.N, k] = u.coeffs[
                        :, i % coarse.N, j % coarse.N, k
                    ]
    return SpectralField.from_coeffs(fine, out)


def test_criterion_01_exact_shear_reproduction():
    grid = make_grid(2, 32)
    u0 = make_initial(InitialData(kind="shear"), grid)
    worst = 0.0
    for s in (0.5, 0.75):
        for alpha in (0.0, 0.5, 1.0):
            p = Params(alpha=alpha, nu=1.0, s=s)
            traj = run(cfg(grid, p, dt=1e-3, t_end=1.0), initial_field=u0)
            err = norm_DAr(traj.snapshots[-1] - np.exp(-1.0) * u0, 1.0) / norm_DAr(u0, 1.0)
            worst = max(worst, err)
    verdict(1, worst <= 1e-10, f"max relative D(A) error {worst:.3e} (tol 1e-10)")


def test_criterion_02_nonlinear_cancellation():
    p = Params(alpha=0.5, nu=1.0, s=0.5)
    worst = 0.0
    g2 = make_grid(2, 64)
    for seed in range(50):
        u = dealias(random_field(g2, seed=1000 + seed))
        f = rhs_f(u, p)
        worst = max(worst, abs(h1_alpha_pairing(u, f, p.alpha)) / norm_DAr(u, 1.0) ** 3)
    g3 = make_grid(3, 32)
    for seed in range(50):
        u = dealias(random_field(g3, seed=2000 + seed))
        f = rhs_f(u, p)
        worst = max(worst, abs(h1_alpha_pairing(u, f, p.alpha)) / norm_DAr(u, 1.0) ** 3)
    verdict(2, worst <= 1e-10, f"max normalized pairing residual {worst:.3e} over 100 fields")


def test_criterion_03_energy_identity():
    grid = make_grid(2, 64)
    p = Params(alpha=0.5, nu=0.1, s=0.5)
    init = InitialData(kind="taylor-green")
    res = []
    for dt in (5e-4, 2.5e-4):
        # the residual reads only the records, so the march is drained
        diag = []
        for _ in march(cfg(grid, p, dt=dt, t_end=1.0, init=init), diag):
            pass
        res.append(float(np.max(energy_balance_residual(diag, p))))
    ratio = res[0] / res[1]
    ok = res[0] <= 1e-6 and 3.0 <= ratio <= 5.0
    verdict(3, ok, f"residual {res[0]:.3e} (tol 1e-6), halving ratio {ratio:.2f} (in [3,5])")


def test_criterion_04_linear_exactness():
    grid = make_grid(2, 32)
    p = Params(alpha=0.5, nu=0.8, s=0.6)
    u0 = random_field(grid, seed=3000)
    decay = np.exp(-p.nu * 1.0 * stokes_multiplier(grid.k2, p.s))
    worst = 0.0
    for dt in (0.3, 0.05, 1e-3):
        traj = run(cfg(grid, p, dt=dt, t_end=1.0, linear_only=True), initial_field=u0)
        err = np.max(np.abs(traj.snapshots[-1].coeffs - decay * u0.coeffs))
        worst = max(worst, err / np.max(np.abs(u0.coeffs)))
    verdict(4, worst <= 1e-12, f"max per-mode decay error {worst:.3e} over dt in {{0.3, 0.05, 1e-3}}")


def test_criterion_05_oracle_equivalence():
    grid = make_grid(2, 32)
    p = Params(alpha=0.5, nu=0.5, s=0.5)
    u0 = dealias(random_field(grid, seed=42, amplitude=1e-2))
    T = 0.1
    stepper = run(
        cfg(grid, p, dt=1e-3, t_end=T, snapshot_every=2), initial_field=u0
    )
    mild_traj, state = picard_solve(u0, p, T, mesh_size=50, tol=1e-12)
    sup = 0.0
    for t, w in zip(mild_traj.times, mild_traj.snapshots):
        j = int(np.argmin(np.abs(stepper.times - t)))
        assert abs(stepper.times[j] - t) < 1e-12
        sup = max(sup, norm_DAr(stepper.snapshots[j] - w, 1.0))
    sup /= norm_DAr(u0, 1.0)
    incs = state.increments_linf
    ratios = [incs[i + 1] / incs[i] for i in range(1, len(incs) - 1)]
    monotone = all(incs[i + 1] < incs[i] for i in range(1, len(incs) - 1))
    ok = sup <= 1e-5 and len(incs) >= 3 and monotone and all(r < 0.5 for r in ratios)
    verdict(
        5,
        ok,
        f"sup rel diff {sup:.3e} (tol 1e-5); increment ratios "
        + ", ".join(f"{r:.1e}" for r in ratios),
    )


def test_criterion_06_apriori_bound():
    results = []
    for dim, s, n_coarse in ((2, 0.5, 32), (3, 0.75, 16)):
        p = Params(alpha=0.5, nu=0.2, s=s)
        coarse = make_grid(dim, n_coarse)
        fine = make_grid(dim, 2 * n_coarse)
        band = coarse.band_limit
        for seed in range(5):
            u_c = dealias(
                random_field(coarse, seed=4000 + seed, amplitude=0.05, band=band)
            )
            u_f = embed_to(u_c, fine)
            sups = []
            for g, u in ((coarse, u_c), (fine, u_f)):
                traj = run(cfg(g, p, dt=2.5e-3, t_end=0.25), initial_field=u)
                ndas = [r.nDA for r in traj.diag]
                sups.append(max(ndas) / ndas[0])
            results.append((dim, seed, sups[0], sups[1]))
    ok = all(a <= 2.0 and b <= 2.0 and abs(a - b) <= 0.10 * a for _, _, a, b in results)
    worst = max(max(a, b) for _, _, a, b in results)
    drift = max(abs(a - b) / a for _, _, a, b in results)
    verdict(6, ok, f"max sup-ratio {worst:.4f} (<= 2), max N-doubling drift {100*drift:.2f}% (<= 10%)")


def test_criterion_07_smoothing_rate():
    grid = make_grid(2, 128)
    p = Params(alpha=0.5, nu=0.05, s=0.75)
    init = InitialData(
        kind="random-spectrum", amplitude=0.5, seed=7, decay_exponent=3.01
    )
    dt = 5e-4
    traj = run(cfg(grid, p, dt=dt, t_end=0.12, init=init))
    norms = lambda r: [norm_DAr(u, 1.0 + r) for u in traj.snapshots]
    fit = smoothing_rate(traj.times, norms(p.s / 2), r=p.s / 2, s=p.s, window=(2 * dt, 0.1))
    fit0 = smoothing_rate(traj.times, norms(0.0), r=0.0, s=p.s, window=(2 * dt, 0.1))
    ok = fit.slope >= -0.65 and -0.05 <= fit0.slope <= 0.05
    verdict(
        7,
        ok,
        f"envelope exponent {fit.slope:.3f} (>= -0.65), r=0 slope {fit0.slope:.3f} (in [-0.05, 0.05])",
    )


def test_criterion_08_critical_holder_class():
    grid = make_grid(2, 32)
    p = Params(alpha=0.5, nu=0.5, s=0.5)
    # borderline-D(A) spectrum: the weighted quotients genuinely sample the
    # t^{-1/2} and Hoelder weights instead of being dwarfed by the amplitude
    u0 = dealias(random_field(grid, seed=8, amplitude=1e-2, decay=3.01))
    r0 = norm_DAr(u0, 1.0)
    holder = HolderClass(R=r0, beta=0.25, T=1.0)

    def quotients_of(rep):
        return np.array(
            [rep.sup_amplitude, rep.sup_smoothing, rep.sup_holder_da, rep.sup_holder_smooth]
        )

    picard_q = []
    for mesh in (64, 128):
        traj, state = picard_solve(u0, p, holder.T, mesh_size=mesh, tol=1e-12)
        rep = holder_membership(traj, holder, p.s)
        assert state.converged and np.all(np.isfinite(quotients_of(rep)))
        picard_q.append(np.append(quotients_of(rep), rep.minimal_R / r0))

    semi_q = []
    for mesh in (64, 128):
        times = np.linspace(0.0, 1.0, mesh + 1)
        snaps = [semigroup_apply(u0, float(t), p) for t in times]
        rep = holder_membership(
            Trajectory(times=times, snapshots=snaps, diag=[]), holder, p.s
        )
        assert np.all(np.isfinite(quotients_of(rep))) and rep.minimal_R > 0
        semi_q.append(np.append(quotients_of(rep), rep.minimal_R / r0))

    def max_drift(a, b):
        floor = 1e-6
        return float(np.max(np.abs(b - a) / np.maximum(a, floor)))

    drift = max_drift(picard_q[0], picard_q[1])
    semi_drift = max_drift(semi_q[0], semi_q[1])
    ok = drift <= 0.15 and semi_drift <= 0.15
    verdict(
        8,
        ok,
        f"minimal R/||u0|| = {picard_q[1][4]:.3f}, quotients "
        + "/".join(f"{q:.2f}" for q in picard_q[1][:4])
        + f", worst drift {100*drift:.1f}% (picard), {100*semi_drift:.1f}% (semigroup), limit 15%",
    )


def test_criterion_09_uv_form_equivalence():
    grid = make_grid(2, 32)
    p = Params(alpha=0.5, nu=0.2, s=0.75)
    init = InitialData(kind="random-spectrum", amplitude=1e-2, seed=9)
    u_run = run(cfg(grid, p, dt=1e-3, t_end=1.0, init=init))
    v_run = run(cfg(grid, p, dt=1e-3, t_end=1.0, init=init), form="v")
    mapped = u_from_v(v_run.snapshots[-1], p.alpha)
    err = norm_DAr(mapped - u_run.snapshots[-1], 1.0) / norm_DAr(u_run.snapshots[-1], 1.0)
    verdict(9, err <= 1e-6, f"u/v relative D(A) difference at t=1: {err:.3e} (tol 1e-6)")


def test_criterion_10_spectral_convergence():
    p = Params(alpha=0.5, nu=0.05, s=0.75)

    def smooth_mix(g):
        tg = make_initial(InitialData(kind="taylor-green"), g)
        sh = make_initial(InitialData(kind="shear", amplitude=0.5), g)
        return tg + sh

    finals = {}
    for n in (16, 32, 64):
        g = make_grid(2, n)
        traj = run(cfg(g, p, dt=1e-3, t_end=0.5), initial_field=smooth_mix(g))
        finals[n] = traj.snapshots[-1]
    e16 = norm_DAr(embed_to(finals[16], make_grid(2, 32)) - finals[32], 1.0)
    e32 = norm_DAr(embed_to(finals[32], make_grid(2, 64)) - finals[64], 1.0)
    ratio = e16 / e32
    verdict(10, ratio >= 10.0, f"error drop per N doubling: {ratio:.1f}x (>= 10x)")
