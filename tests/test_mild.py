"""Mild-solution (Duhamel/Picard) oracle and class-membership tests."""

import tracemalloc

import numpy as np
import pytest

from lansfrac import (
    HolderClass,
    InitialData,
    Params,
    Regime,
    SchemeKind,
    SimConfig,
    SpectralField,
    StepScheme,
    dealias,
    holder_membership,
    l2_norm,
    make_grid,
    make_initial,
    norm_DAr,
    picard_solve,
    rhs_f,
    run,
    semigroup_apply,
    semigroup_class_check,
)
from lansfrac.errors import NoContractionError
from lansfrac.mild import PicardNodes, _BandSolve, _duhamel_sweep
from lansfrac.operators import band_plan, stress_form_f
from lansfrac.spectral import semigroup_factor, zero_field

from conftest import nan_at_last_picard_node, random_field, rel_err, single_mode_field


# --------------------------------------------------------- Duhamel integral

def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    w = np.zeros_like(t)
    d = np.diff(t)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def duhamel_integral(
    f_samples: list[SpectralField],
    t_mesh: np.ndarray,
    t_eval: float,
    params: Params,
) -> SpectralField:
    """Reference: trapezoid quadrature of int_0^t_eval e^{-(t-tau) nu A^s} f(tau) dtau.

    Sums every node directly, O(mesh^2) over a whole mesh, against which the
    running integral of ``_duhamel_sweep`` is checked. t_eval must be a mesh
    node; the semigroup factor is exact per node, so the error is the
    O(mesh^2) quadrature error of the smooth integrand alone.
    """
    t_mesh = np.asarray(t_mesh, dtype=float)
    if len(t_mesh) == 0:
        raise ValueError("empty quadrature mesh")
    if len(f_samples) != len(t_mesh):
        raise ValueError("f_samples and t_mesh lengths differ")
    idx = int(np.argmin(np.abs(t_mesh - t_eval)))
    if abs(t_mesh[idx] - t_eval) > 1e-12 * max(1.0, abs(t_eval)):
        raise ValueError(f"t_eval = {t_eval} is not a mesh node")
    grid = f_samples[0].grid
    acc = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    sub = t_mesh[: idx + 1]
    w = _trapezoid_weights(sub)
    for j in range(idx + 1):
        fac = semigroup_factor(grid, float(t_eval - sub[j]), params)
        acc += w[j] * fac * f_samples[j].coeffs
    return SpectralField.from_coeffs(grid, acc)


def test_duhamel_zero_f(grid2, params):
    mesh = np.linspace(0.0, 0.5, 9)
    fs = [zero_field(grid2)] * 9
    out = duhamel_integral(fs, mesh, 0.5, params)
    assert l2_norm(out) == 0.0


def test_duhamel_empty_mesh(grid2, params):
    with pytest.raises(ValueError):
        duhamel_integral([], np.array([]), 0.0, params)


def test_duhamel_requires_mesh_node(grid2, params):
    mesh = np.linspace(0.0, 0.5, 9)
    fs = [zero_field(grid2)] * 9
    with pytest.raises(ValueError):
        duhamel_integral(fs, mesh, 0.33, params)


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_duhamel_constant_f_closed_form(grid2, s):
    # f constant in time on the |k|^2 = 1 shell:
    # int_0^t e^{-nu (t-tau)} f dtau = (1 - e^{-nu t})/nu * f
    nu = 1.3
    p = Params(alpha=0.5, nu=nu, s=s)
    f = single_mode_field(grid2, (0, 1), (-1j, 0))
    t = 0.75
    errs = []
    for m in (16, 32):
        mesh = np.linspace(0.0, t, m + 1)
        out = duhamel_integral([f] * (m + 1), mesh, t, p)
        expect = (1 - np.exp(-nu * t)) / nu * f.coeffs
        errs.append(np.max(np.abs(out.coeffs - expect)))
    assert errs[0] < 1e-3
    ratio = errs[0] / errs[1]
    assert 3.3 < ratio < 4.7  # second-order quadrature


def test_duhamel_linearity(grid2, params):
    mesh = np.linspace(0.0, 0.4, 17)
    fa = [random_field(grid2, seed=50 + i) for i in range(17)]
    fb = [random_field(grid2, seed=90 + i) for i in range(17)]
    both = [a + b for a, b in zip(fa, fb)]
    out = duhamel_integral(both, mesh, 0.4, params)
    split = duhamel_integral(fa, mesh, 0.4, params) + duhamel_integral(fb, mesh, 0.4, params)
    assert rel_err(out.coeffs, split.coeffs) < 1e-13


def test_duhamel_sweep_matches_direct(grid2, params):
    # one sweep from the free trajectory: node i becomes free_i plus the
    # Duhamel integral of f along the free trajectory, summed directly
    u0 = dealias(random_field(grid2, seed=70, amplitude=2.0))
    mesh = np.linspace(0.0, 0.3, 13)
    band = _BandSolve(u0, params)
    free = [semigroup_apply(u0, float(t), params) for t in mesh]
    stack = np.stack([band.plan.gather(w.coeffs) for w in free])
    _duhamel_sweep(stack, band, mesh)
    fs = [rhs_f(w, w, params) for w in free]
    assert max(l2_norm(f) for f in fs) > 0.01 * l2_norm(u0)
    for i, t in enumerate(mesh):
        direct = free[i].coeffs + duhamel_integral(fs, mesh, float(t), params).coeffs
        assert rel_err(stack[i], band.plan.gather(direct)) < 1e-12


def full_spectrum_sweep(
    stack: np.ndarray, u0: SpectralField, t_mesh: np.ndarray, params: Params
) -> float:
    """Reference: one Picard sweep with every node on the whole half spectrum.

    This is the sweep ``_duhamel_sweep`` replaced, which iterates the band
    block alone; the arithmetic per mode is the same, so the nodes must agree
    bit for bit.
    """
    grid = u0.grid
    acc = np.zeros_like(stack[0])
    work = np.empty_like(acc)
    f_prev = None
    sup = 0.0
    for i, t in enumerate(t_mesh):
        node = SpectralField.from_coeffs(grid, stack[i])
        f_i = rhs_f(node, node, params).coeffs
        if i > 0:
            h = float(t - t_mesh[i - 1])
            np.add(acc, np.multiply(0.5 * h, f_prev, out=work), out=acc)
            np.multiply(semigroup_factor(grid, h, params), acc, out=acc)
            np.add(acc, np.multiply(0.5 * h, f_i, out=work), out=acc)
        nxt = np.multiply(u0.coeffs, semigroup_factor(grid, float(t), params), out=work)
        np.add(nxt, acc, out=nxt)
        sup = max(sup, norm_DAr(SpectralField.from_coeffs(grid, nxt - stack[i]), 1.0))
        stack[i] = nxt
        f_prev = f_i
    return sup


def full_spectrum_picard(u0, params, T, mesh_size, tol=1e-12, max_iter=12):
    """Reference: ``picard_solve``'s iteration on full-spectrum nodes.

    Returns the node stack and the sup increment of every sweep.
    """
    grid = u0.grid
    t_mesh = np.linspace(0.0, T, mesh_size + 1)
    stack = np.stack([u0.coeffs * semigroup_factor(grid, float(t), params) for t in t_mesh])
    stop = tol * max(norm_DAr(u0, 1.0), 1e-30)
    increments = []
    for _ in range(max_iter):
        increments.append(full_spectrum_sweep(stack, u0, t_mesh, params))
        if increments[-1] < stop:
            break
    return stack, increments


@pytest.mark.parametrize(
    "dim,n,s,band",
    [(2, 32, 0.5, 15), (2, 128, 0.5, None), (3, 16, 0.75, None)],
)
def test_picard_band_nodes_equal_the_full_spectrum_sweep(dim, n, s, band):
    # band 15 puts modes of u0 outside the band block, where every node is
    # the free field
    grid = make_grid(dim, n)
    p = Params(alpha=0.5, nu=0.5, s=s, regime=Regime.GLOBAL_RANGE)
    u0 = random_field(grid, seed=31, amplitude=0.05, band=band)
    mesh = 8 if dim == 3 else 12
    ref_stack, ref_incs = full_spectrum_picard(u0, p, 0.1, mesh)
    traj, state = picard_solve(u0, p, holder_for(u0, T=0.1), mesh_size=mesh)
    assert state.n_iter == len(ref_incs) > 2
    assert np.allclose(state.increments_linf, ref_incs, rtol=1e-12, atol=0.0)
    assert len(traj.snapshots) == mesh + 1
    for node, ref in zip(traj.snapshots, ref_stack, strict=True):
        assert np.array_equal(node.coeffs, ref)


# ------------------------------------------------------------ Picard solve

def holder_for(u0, beta=0.25, T=1.0, tol=2.0):
    return HolderClass(R=max(norm_DAr(u0, 1.0), 1e-30), beta=beta, T=T, tol=tol)


def test_picard_zero_data(grid2, params):
    z = zero_field(grid2)
    traj, state = picard_solve(z, params, holder_for(z), mesh_size=16)
    assert state.converged and state.n_iter == 1
    assert all(l2_norm(w) == 0.0 for w in traj.snapshots)


def test_picard_shear_converges_fast(grid2):
    # f vanishes along the shear path, so the first sweep reproduces the
    # semigroup solution up to quadrature-level noise
    p = Params(alpha=0.5, nu=1.0, s=0.5, regime=Regime.GLOBAL_RANGE)
    u0 = make_initial(InitialData(kind="shear", amplitude=1e-2), grid2)
    traj, state = picard_solve(u0, p, holder_for(u0, T=0.5), mesh_size=32)
    assert state.converged and state.n_iter <= 3
    for t, w in zip(traj.times, traj.snapshots):
        expect = np.exp(-p.nu * t) * u0.coeffs
        assert np.max(np.abs(w.coeffs - expect)) < 1e-12


def test_picard_small_data_geometric_increments(grid2):
    p = Params(alpha=0.5, nu=0.5, s=0.5, regime=Regime.GLOBAL_RANGE)
    u0 = dealias(random_field(grid2, seed=5, amplitude=0.05))
    traj, state = picard_solve(u0, p, holder_for(u0, T=1.0), mesh_size=32, tol=1e-14)
    incs = state.increments_linf
    assert state.converged
    ratios = [incs[i + 1] / incs[i] for i in range(len(incs) - 1) if incs[i] > 0]
    assert all(r < 0.5 for r in ratios)


def test_picard_no_contraction_for_large_data(grid2):
    p = Params(alpha=0.2, nu=0.05, s=0.5, regime=Regime.GLOBAL_RANGE)
    u0 = dealias(random_field(grid2, seed=6, amplitude=300.0))
    with pytest.raises(NoContractionError):
        picard_solve(u0, p, holder_for(u0, T=1.0), mesh_size=16, max_iter=12)


def test_picard_non_finite_node_is_no_contraction(grid2, monkeypatch):
    # node 0's increment is 0.0, so a sup that starts there must not let a
    # later nan through as convergence
    p = Params(alpha=0.5, nu=0.5, s=0.5, regime=Regime.GLOBAL_RANGE)
    u0 = dealias(random_field(grid2, seed=7, amplitude=1e-2))
    nan_at_last_picard_node(monkeypatch, nodes=17)
    with pytest.raises(NoContractionError, match="non-finite"):
        picard_solve(u0, p, holder_for(u0, T=0.1), mesh_size=16)


def test_picard_holds_one_iterate_stack(grid2):
    # the sweeps stream through one (mesh + 1)-node stack of band blocks; the
    # traced peak (stack, running integral, f and per-node temporaries on the
    # block) must stay near it, where a full-spectrum stack alone costs 2.3
    # band stacks at N = 32 and whole-mesh lists of f several more
    p = Params(alpha=0.5, nu=0.5, s=0.5, regime=Regime.GLOBAL_RANGE)
    u0 = dealias(random_field(grid2, seed=7, amplitude=1e-2))
    holder = holder_for(u0, T=0.1)
    picard_solve(u0, p, holder, mesh_size=4)  # warm the kernel workspace and tables
    mesh = 32
    block = band_plan(grid2, p.alpha).block_shape
    stack_bytes = (mesh + 1) * grid2.dim * int(np.prod(block)) * 16
    tracemalloc.start()
    try:
        traj, state = picard_solve(u0, p, holder, mesh_size=mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.converged and len(traj.snapshots) == mesh + 1
    assert peak <= 1.5 * stack_bytes, peak / stack_bytes


def test_picard_nodes_are_read_only(grid2, params):
    u0 = dealias(random_field(grid2, seed=7, amplitude=1e-2))
    traj, state = picard_solve(u0, params, holder_for(u0, T=0.1), mesh_size=8)
    assert state.iterates == [traj.snapshots] and traj.diag == []
    for w in (traj.snapshots[0], traj.snapshots[-1]):
        with pytest.raises(ValueError):
            w.coeffs[0, 1, 1] = 1.0
        with pytest.raises(ValueError):
            w.coeffs.setflags(write=True)


def test_picard_node_slices_are_lazy_sequences(grid2, params):
    u0 = random_field(grid2, seed=7, amplitude=1e-2)
    traj, _ = picard_solve(u0, params, holder_for(u0, T=0.1), mesh_size=8)
    nodes = traj.snapshots
    every = nodes[1::3]
    assert isinstance(every, PicardNodes) and len(every) == 3
    assert isinstance(every[::-1], PicardNodes) and len(nodes[20:]) == 0
    for got, i in zip(every, range(1, 9, 3), strict=True):
        assert np.array_equal(got.coeffs, nodes[i].coeffs)
    assert np.array_equal(every[-1].coeffs, nodes[7].coeffs)
    assert np.array_equal(nodes[-9].coeffs, u0.coeffs)
    with pytest.raises(IndexError):
        nodes[9]


def test_picard_matches_stepper_small_data(grid2):
    # oracle equivalence on a short horizon: completely different numerics
    p = Params(alpha=0.5, nu=0.5, s=0.5, regime=Regime.GLOBAL_RANGE)
    u0 = dealias(random_field(grid2, seed=7, amplitude=1e-2))
    T = 0.1
    cfg = SimConfig(
        grid=grid2,
        params=p,
        scheme=StepScheme(kind=SchemeKind.ETD2RK, dt=1e-3),
        t_end=T,
        initial=InitialData(kind="shear"),
        snapshot_every=2,
    )
    traj = run(cfg, initial_field=u0)
    mild_traj, state = picard_solve(u0, p, holder_for(u0, T=T), mesh_size=50)
    assert state.converged
    sup = 0.0
    for t, w in zip(mild_traj.times, mild_traj.snapshots):
        j = int(np.argmin(np.abs(traj.times - t)))
        assert abs(traj.times[j] - t) < 1e-12
        sup = max(sup, norm_DAr(traj.snapshots[j] - w, 1.0))
    assert sup / norm_DAr(u0, 1.0) < 1e-5


# --------------------------------------------------- semigroup class checks

def test_semigroup_class_zero_data(grid2, params):
    z = zero_field(grid2)
    rep = semigroup_class_check(z, params, HolderClass(R=1.0, beta=0.25, T=1.0))
    assert rep.minimal_R == 0.0 and rep.member


def test_semigroup_class_single_mode_smoothing_constant(grid2):
    # |k|^2 = 1: quotient(t) = sqrt(t) e^{-nu t}, maximized at t = 1/(2 nu)
    nu = 1.0
    p = Params(alpha=0.5, nu=nu, s=0.5)
    u0 = single_mode_field(grid2, (0, 1), (-1j, 0))
    holder = holder_for(u0, beta=0.25, T=1.0)
    rep = semigroup_class_check(u0, p, holder)
    t_star = min(1.0, 1.0 / (2 * nu))
    closed = np.sqrt(t_star) * np.exp(-nu * t_star)
    assert rep.sup_smoothing <= closed * (1 + 1e-9)
    assert rep.sup_smoothing > 0.92 * closed  # lattice approaches the continuum sup
    assert abs(rep.sup_amplitude - 1.0) < 1e-12  # decay peaks at t = 0


def test_semigroup_class_rough_data_stable(grid2_64):
    p = Params(alpha=0.5, nu=0.5, s=0.5, regime=Regime.GLOBAL_RANGE)
    u0 = random_field(grid2_64, seed=8, amplitude=1.0, decay=3.01)
    holder = holder_for(u0)
    coarse = semigroup_class_check(u0, p, holder, n_t=16)
    fine = semigroup_class_check(u0, p, holder, n_t=32)
    assert np.isfinite(coarse.minimal_R) and coarse.minimal_R > 0
    assert abs(fine.minimal_R - coarse.minimal_R) <= 0.10 * coarse.minimal_R


def test_holder_membership_zero_trajectory(grid2, params):
    from lansfrac.integrator import Trajectory

    times = np.linspace(0.0, 1.0, 33)
    snaps = [zero_field(grid2) for _ in times]
    traj = Trajectory(times=times, snapshots=snaps, diag=[])
    rep = holder_membership(traj, HolderClass(R=1.0, beta=0.25, T=1.0), 0.5)
    assert rep.minimal_R == 0.0 and rep.member


def test_holder_membership_semigroup_consistency(grid2):
    # a sampled semigroup trajectory must reproduce the exact-sampler report
    p = Params(alpha=0.5, nu=0.5, s=0.5, regime=Regime.GLOBAL_RANGE)
    u0 = dealias(random_field(grid2, seed=9, amplitude=1.0, decay=3.01))
    holder = holder_for(u0)
    from lansfrac.integrator import Trajectory

    times = np.concatenate(([0.0], np.geomspace(1e-3, 1.0, 64)))
    snaps = [semigroup_apply(u0, float(t), p) for t in times]
    traj = Trajectory(times=times, snapshots=snaps, diag=[])
    sampled = holder_membership(traj, holder, p.s)
    exact = semigroup_class_check(u0, p, holder)
    assert abs(sampled.minimal_R - exact.minimal_R) <= 0.15 * exact.minimal_R


def test_holder_membership_picard_critical_case(grid2):
    # full nonlinear small-data trajectory at (dim, s) = (2, 1/2)
    p = Params(alpha=0.5, nu=0.5, s=0.5, regime=Regime.GLOBAL_RANGE)
    u0 = dealias(random_field(grid2, seed=10, amplitude=1e-2))
    holder = holder_for(u0, beta=0.25, T=1.0)
    traj, state = picard_solve(u0, p, holder, mesh_size=64)
    assert state.converged
    rep = holder_membership(traj, holder, p.s)
    assert np.isfinite(rep.minimal_R) and rep.minimal_R > 0
    c_measured = rep.minimal_R / norm_DAr(u0, 1.0)
    assert c_measured < 50.0  # finite class constant at this amplitude


# ----------------------------------------------- semigroup difference bound

def test_semigroup_difference_operator_norm_bound(grid2):
    # per-mode check of ||A^{-beta' s}(e^{-h nu A^s} - Id)|| <= C (nu h)^{beta'}
    # oracle: C(beta') = sup_{y>0} y^{-beta'} (1 - e^{-y}) by dense sampling
    s, nu, beta_p = 0.5, 0.8, 0.375
    y = np.geomspace(1e-8, 1e4, 200001)
    c_oracle = np.max(y ** (-beta_p) * (1 - np.exp(-y)))
    from lansfrac.spectral import stokes_multiplier

    lam = stokes_multiplier(grid2.k2, s)[grid2.k2 > 0]
    for h in (1e-3, 1e-2, 0.1, 1.0):
        lhs = np.max((1 - np.exp(-h * nu * lam)) * lam ** (-beta_p))
        assert lhs <= c_oracle * (nu * h) ** beta_p * (1 + 1e-10)
    # the bound is approached once the maximizing mode sits inside the grid
    h_star = 1.2 / (nu * np.max(lam))
    lhs = np.max((1 - np.exp(-h_star * nu * lam)) * lam ** (-beta_p))
    assert lhs > 0.5 * c_oracle * (nu * h_star) ** beta_p


# ------------------------------------------------------- bilinear f bound

def test_critical_bilinear_f_bound(grid2):
    # t^{1/2} ||f(w1,w2)(t)||_{D(A^{1-s/2})} / (R1 R2) stays bounded for
    # semigroup class members; the bound is on the paper's bilinear f, which
    # off the diagonal is the stress-form oracle
    p = Params(alpha=0.5, nu=0.5, s=0.5, regime=Regime.GLOBAL_RANGE)
    u1 = dealias(random_field(grid2, seed=11, amplitude=1.0, decay=3.01))
    u2 = dealias(random_field(grid2, seed=12, amplitude=1.0, decay=3.01))
    r1 = semigroup_class_check(u1, p, holder_for(u1)).minimal_R
    r2 = semigroup_class_check(u2, p, holder_for(u2)).minimal_R
    sups = []
    for t in np.geomspace(1e-3, 1.0, 24):
        w1 = semigroup_apply(u1, float(t), p)
        w2 = semigroup_apply(u2, float(t), p)
        f = stress_form_f(w1, w2, p)
        sups.append(np.sqrt(t) * norm_DAr(f, 1.0 - p.s / 2.0) / (r1 * r2))
    assert np.all(np.isfinite(sups))
    assert max(sups) < 1.0  # measured ~0.0x for this ensemble; loose cap
