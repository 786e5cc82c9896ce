"""Mild-solution (Duhamel/Picard) oracle and class-membership tests."""

import os
import select
import signal
import struct
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from lansfrac import (
    HolderClass,
    InitialData,
    Params,
    SchemeKind,
    SimConfig,
    StepScheme,
    dealias,
    holder_membership,
    make_grid,
    make_initial,
    norm_DAr,
    picard_solve,
    rhs_f,
    run,
    semigroup_apply,
)
from lansfrac import diagnostics, forks
from lansfrac.errors import LansfracError, NoContractionError
from lansfrac.mild import (
    PicardNodes,
    picard_stack_shape,
    semigroup_class_check,
)
from lansfrac.operators import kernel_helper, rhs_f_band
from lansfrac.picard_fork import RING_SLOTS, _RingNodes, picard_worker
from lansfrac.spectral import SpectralField, l2_norm, semigroup_factor

from conftest import (
    nan_at_last_picard_node,
    random_field,
    rel_err,
    single_mode_field,
    stress_form_f,
    zero_field,
)


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


def stepper_seeds(u0, params, T, n):
    """The (band block, f) pairs of a stepper's n + 1 states over [0, T], as
    ``oracle-compare`` seeds its Picard worker with them."""
    from lansfrac.integrator import march, start_field

    cfg = SimConfig(grid=u0.grid, params=params, scheme=StepScheme(dt=T / n), t_end=T,
                    initial=InitialData(kind="shear"))
    start = start_field(cfg, u0)
    seeds = [(state.block.copy(), state.f.copy()) for state in march(cfg, [], start)]
    assert len(seeds) == n + 1
    return seeds


def free_seeds(u0, params, mesh):
    """The free trajectory as seeds: each node's block and f there."""
    layout = u0.grid.layout
    blocks = [layout.gather(semigroup_apply(u0, float(t), params).coeffs) for t in mesh]
    return [(b, rhs_f_band(u0.grid, b, params).copy()) for b in blocks]


def test_duhamel_sweep_matches_direct(grid2, params):
    # one sweep, seeded with the free trajectory: node i becomes free_i plus
    # the Duhamel integral of f along the free trajectory, summed directly,
    # the bits of the cold start's first sweep
    u0 = dealias(random_field(grid2, seed=70, amplitude=2.0))
    mesh = np.linspace(0.0, 0.3, 13)
    layout = grid2.layout
    traj, state = picard_solve(u0, params, 0.3, mesh_size=12, max_iter=1,
                               seeds=free_seeds(u0, params, mesh))
    cold, cold_state = picard_solve(u0, params, 0.3, mesh_size=12, max_iter=1)
    assert state.increments_linf == cold_state.increments_linf and state.n_iter == 1
    free = [semigroup_apply(u0, float(t), params) for t in mesh]
    fs = [rhs_f(w, params) for w in free]
    assert max(l2_norm(f) for f in fs) > 0.01 * l2_norm(u0)
    for i, t in enumerate(mesh):
        node = traj.snapshots.split(i)[0]
        assert node.tobytes() == cold.snapshots.split(i)[0].tobytes()
        direct = free[i].coeffs + duhamel_integral(fs, mesh, float(t), params).coeffs
        assert rel_err(node, layout.gather(direct)) < 1e-12


class RingedSeeds:
    """Seeds that hand each f in a ring of two slots and poison the other
    slot, seed j - 1's, as seed j is taken; asked lists the seeds taken."""

    def __init__(self, seeds):
        self._seeds, self.asked = seeds, []
        self._ring = np.empty((2,) + seeds[0][1].shape, complex)

    def __len__(self):
        return len(self._seeds)

    def __getitem__(self, j):
        self.asked.append(j)
        self._ring[(j - 1) % 2] = np.nan
        block, f = self._seeds[j]
        self._ring[j % 2] = f
        return block, self._ring[j % 2]


def test_duhamel_sweep_reads_each_f_until_it_asks_for_the_next(grid2, params):
    # The seeded solve takes the seeds in order and reads seed j's f only
    # until it takes seed j + 1, as the worker reads a ring slot: a ring of
    # two slots, with the free one poisoned, gives the bits of plain seeds,
    # with a seed at every node (m = 1) and at every third (m = 3).
    u0 = dealias(random_field(grid2, seed=70, amplitude=0.5))
    for n in (12, 4):
        seeds = stepper_seeds(u0, params, 0.3, n)
        ringed = RingedSeeds(seeds)
        traj, state = picard_solve(u0, params, 0.3, mesh_size=12, seeds=seeds)
        traj_r, state_r = picard_solve(u0, params, 0.3, mesh_size=12, seeds=ringed)
        assert ringed.asked == list(range(n + 1))
        assert state_r.increments_linf == state.increments_linf and state.n_iter > 2
        for mine, theirs in zip(traj_r.snapshots, traj.snapshots, strict=True):
            assert mine.coeffs.tobytes() == theirs.coeffs.tobytes()


def sweep_major_picard(u0, params, T, mesh_size, seeds=None, tol=1e-12, max_iter=10):
    """Reference: ``picard_solve``'s sweeps in sweep-major order, from the same seed.

    Each sweep runs left to right over the whole band-block stack, as
    ``picard_solve`` ran before its sweeps became the levels of a wavefront:
    iterate 0 is the free trajectory, or seed j's block at node j m, and
    sweep 1 takes its f at node j m from seed j. Returns the stack and the
    increments.
    """
    grid = u0.grid
    layout = grid.layout
    tables = diagnostics.audit_tables(grid, params.alpha, params.s)
    t_mesh = np.linspace(0.0, T, mesh_size + 1)
    free = [layout.gather(u0.coeffs * semigroup_factor(grid, float(t), params)) for t in t_mesh]
    stack, seeded = np.stack(free), {}
    f0 = rhs_f_band(grid, free[0], params).copy()
    if seeds is not None:
        m = mesh_size // (len(seeds) - 1)
        f0 = seeds[0][1]
        for j, (block, f) in enumerate(seeds[1:], start=1):
            stack[j * m], seeded[j * m] = block, f
    stop = tol * max(norm_DAr(u0, 1.0), 1e-30)
    increments = []
    for sweep in range(max_iter):
        acc, work = np.zeros_like(stack[0]), np.empty_like(stack[0])
        f_prev, sup = f0, 0.0
        for i in range(1, mesh_size + 1):
            t, h = float(t_mesh[i]), float(t_mesh[i] - t_mesh[i - 1])
            if sweep == 0 and i in seeded:
                f_i = seeded[i]
            else:
                f_i = rhs_f_band(grid, stack[i], params).copy()
            np.add(acc, np.multiply(0.5 * h, f_prev, out=work), out=acc)
            np.multiply(layout.gather(semigroup_factor(grid, h, params)), acc, out=acc)
            np.add(acc, np.multiply(0.5 * h, f_i, out=work), out=acc)
            nxt = free[i] + acc
            sup = max(sup, diagnostics.norm_DA(nxt - stack[i], tables))
            stack[i], f_prev = nxt, f_i
        increments.append(sup)
        if sup < stop:
            break
    return stack, increments


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
        f_i = rhs_f(node, params).coeffs
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
    p = Params(alpha=0.5, nu=0.5, s=s)
    u0 = random_field(grid, seed=31, amplitude=0.05, band=band)
    mesh = 8 if dim == 3 else 12
    ref_stack, ref_incs = full_spectrum_picard(u0, p, 0.1, mesh)
    traj, state = picard_solve(u0, p, 0.1, mesh_size=mesh)
    assert state.n_iter == len(ref_incs) > 2
    assert np.allclose(state.increments_linf, ref_incs, rtol=1e-12, atol=0.0)
    assert len(traj.snapshots) == mesh + 1
    for node, ref in zip(traj.snapshots, ref_stack, strict=True):
        assert np.array_equal(node.coeffs, ref)


# ------------------------------------------------------------ Picard solve

def holder_for(u0, beta=0.25, T=1.0):
    return HolderClass(R=max(norm_DAr(u0, 1.0), 1e-30), beta=beta, T=T)


def test_picard_zero_data(grid2, params):
    z = zero_field(grid2)
    traj, state = picard_solve(z, params, 1.0, mesh_size=16)
    assert state.converged and state.n_iter == 1
    assert all(l2_norm(w) == 0.0 for w in traj.snapshots)


def test_picard_shear_converges_fast(grid2):
    # f vanishes along the shear path, so the first sweep reproduces the
    # semigroup solution up to quadrature-level noise
    p = Params(alpha=0.5, nu=1.0, s=0.5)
    u0 = make_initial(InitialData(kind="shear", amplitude=1e-2), grid2)
    traj, state = picard_solve(u0, p, 0.5, mesh_size=32)
    assert state.converged and state.n_iter <= 3
    for t, w in zip(traj.times, traj.snapshots):
        expect = np.exp(-p.nu * t) * u0.coeffs
        assert np.max(np.abs(w.coeffs - expect)) < 1e-12


def test_picard_small_data_geometric_increments(grid2):
    p = Params(alpha=0.5, nu=0.5, s=0.5)
    u0 = dealias(random_field(grid2, seed=5, amplitude=0.05))
    traj, state = picard_solve(u0, p, 1.0, mesh_size=32, tol=1e-14)
    incs = state.increments_linf
    assert state.converged
    ratios = [incs[i + 1] / incs[i] for i in range(len(incs) - 1) if incs[i] > 0]
    assert all(r < 0.5 for r in ratios)


def test_picard_no_contraction_for_large_data(grid2):
    p = Params(alpha=0.2, nu=0.05, s=0.5)
    u0 = dealias(random_field(grid2, seed=6, amplitude=300.0))
    with pytest.raises(NoContractionError):
        picard_solve(u0, p, 1.0, mesh_size=16, max_iter=12)


def test_picard_non_finite_node_is_no_contraction(grid2, monkeypatch):
    # node 0's increment is 0.0, so a sup that starts there must not let a
    # later nan through as convergence
    p = Params(alpha=0.5, nu=0.5, s=0.5)
    u0 = dealias(random_field(grid2, seed=7, amplitude=1e-2))
    nan_at_last_picard_node(monkeypatch)
    with pytest.raises(NoContractionError, match="non-finite"):
        picard_solve(u0, p, 0.1, mesh_size=16)


def test_picard_holds_one_iterate_stack(grid2):
    # the sweeps stream through one (mesh + 1)-node stack of band blocks; the
    # traced peak (stack, running integral, f and per-node temporaries on the
    # block) must stay near it, where a full-spectrum stack alone costs 2.3
    # band stacks at N = 32 and whole-mesh lists of f several more
    p = Params(alpha=0.5, nu=0.5, s=0.5)
    u0 = dealias(random_field(grid2, seed=7, amplitude=1e-2))
    picard_solve(u0, p, 0.1, mesh_size=4)  # warm the kernel workspace and tables
    mesh = 32
    block = grid2.layout.block_shape
    stack_bytes = (mesh + 1) * grid2.dim * int(np.prod(block)) * 16
    tracemalloc.start()
    try:
        traj, state = picard_solve(u0, p, 0.1, mesh_size=mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.converged and len(traj.snapshots) == mesh + 1
    assert peak <= 1.5 * stack_bytes, peak / stack_bytes


def test_picard_nodes_are_read_only(grid2, params):
    u0 = dealias(random_field(grid2, seed=7, amplitude=1e-2))
    traj, state = picard_solve(u0, params, 0.1, mesh_size=8)
    assert state.iterates == [traj.snapshots] and traj.diag == []
    for w in (traj.snapshots[0], traj.snapshots[-1]):
        with pytest.raises(ValueError):
            w.coeffs[0, 1, 1] = 1.0
        with pytest.raises(ValueError):
            w.coeffs.setflags(write=True)


def test_picard_nodes_index_like_a_sequence(grid2, params):
    # node i is the join of its own split: the iterate's block, and u0's
    # tail modes under the semigroup; its values are those of the whole free
    # field u0 e^{-t nu A^s} with the block written into its band
    u0 = random_field(grid2, seed=7, amplitude=1e-2, band=grid2.N // 2 - 1)
    traj, _ = picard_solve(u0, params, 0.1, mesh_size=8)
    nodes, layout = traj.snapshots, grid2.layout
    _, u0_modes, _ = layout.split(u0.coeffs)
    assert len(nodes) == 9 and u0_modes.size > 0
    for i, t in enumerate(traj.times):
        block, modes, tail = nodes.split(i)
        assert np.array_equal(modes, u0_modes) and not block.flags.writeable
        assert nodes[i].coeffs.tobytes() == layout.join(block, modes, tail).tobytes()
        free = u0.coeffs * semigroup_factor(grid2, float(t), params)
        assert np.array_equal(nodes[i].coeffs, layout.scatter(block, free))
    assert np.array_equal(nodes[-1].coeffs, nodes[8].coeffs)
    assert np.array_equal(nodes[-9].coeffs, u0.coeffs)
    assert len(list(nodes)) == 9
    with pytest.raises(IndexError):
        nodes[9]
    with pytest.raises(IndexError):
        nodes[-10]


def test_picard_solve_into_a_callers_buffer_is_bit_identical(grid2, params):
    u0 = random_field(grid2, seed=7, amplitude=1e-2)
    traj, state = picard_solve(u0, params, 0.1, mesh_size=8)
    out = np.full(picard_stack_shape(grid2, 8), np.nan, complex)
    _, state_out = picard_solve(u0, params, 0.1, mesh_size=8, out=out)
    layout = grid2.layout
    own = np.stack([layout.gather(w.coeffs) for w in traj.snapshots])
    assert out.tobytes() == own.tobytes() and not out.flags.writeable
    assert state_out.increments_linf == state.increments_linf
    nodes = PicardNodes(u0, params, traj.times, out)
    for mine, theirs in zip(nodes, traj.snapshots, strict=True):
        assert mine.coeffs.tobytes() == theirs.coeffs.tobytes()
    with pytest.raises(ValueError, match="shape"):
        picard_solve(u0, params, 0.1, mesh_size=8, out=np.empty_like(out[1:]))


@pytest.mark.parametrize("T", [0.0, -0.1, 1.5, float("nan")])
def test_picard_refuses_a_horizon_outside_zero_to_one(grid2, params, T):
    # picard_solve and picard_worker check their horizon themselves; the
    # worker raises before it forks, so no process is started
    u0 = random_field(grid2, seed=7, amplitude=1e-2)
    with pytest.raises(ValueError, match=r"T must lie in \(0, 1\], got"):
        picard_solve(u0, params, T, mesh_size=8)
    with pytest.raises(ValueError, match=r"T must lie in \(0, 1\], got"):
        with picard_worker(u0, params, T, mesh_size=8):
            pass


def test_picard_worker_returns_the_in_process_solve(grid2, params):
    u0 = random_field(grid2, seed=7, amplitude=1e-2)
    traj, state = picard_solve(u0, params, 0.1, mesh_size=8, max_iter=10)
    with picard_worker(u0, params, 0.1, mesh_size=8, max_iter=10) as worker:
        traj_w, state_w = worker.result()
    assert traj_w.times.tobytes() == traj.times.tobytes()
    assert (state_w.increments_linf, state_w.converged, state_w.n_iter) == (
        state.increments_linf, state.converged, state.n_iter)
    for mine, theirs in zip(traj_w.snapshots, traj.snapshots, strict=True):
        assert mine.coeffs.tobytes() == theirs.coeffs.tobytes()


def _parent_evaluations(monkeypatch, worker_delay: float) -> list[int]:
    """Count the nodes the parent evaluates; the worker sleeps before each of its own."""
    import lansfrac.mild as mild

    parent, real, count = os.getpid(), mild.rhs_f_band, []

    def f(*args, **kwargs):
        if os.getpid() == parent:
            count.append(1)
        else:
            time.sleep(worker_delay)
        return real(*args, **kwargs)

    monkeypatch.setattr(mild, "rhs_f_band", f)
    return count


@pytest.mark.parametrize("dim,n", [(2, 96), (3, 16)])  # an FFT plan, a GEMM plan
@pytest.mark.parametrize("parent_helps", [False, True])
def test_picard_worker_gives_the_in_process_bits_whoever_evaluates(monkeypatch, dim, n, parent_helps):
    # Either the reply is awaited before result(), so the parent evaluates no
    # node, or the worker sleeps before each of its own evaluations, so the
    # parent evaluates most of them. The nodes are the same bits either way.
    grid = make_grid(dim, n)
    p = Params(alpha=0.5, nu=0.5, s=0.75 if dim == 3 else 0.5)
    u0 = random_field(grid, seed=8, amplitude=0.05)
    mesh = 12
    traj, state = picard_solve(u0, p, 0.1, mesh_size=mesh, max_iter=10)
    assert grid.layout.gemm == (dim == 3)
    helped = _parent_evaluations(monkeypatch, worker_delay=0.01 if parent_helps else 0.0)
    with picard_worker(u0, p, 0.1, mesh_size=mesh, max_iter=10) as worker:
        ring = weakref.ref(worker._ring.base)
        if not parent_helps:
            select.select([worker.child.ends[0]], [], [])  # the worker's reply is readable
        traj_w, state_w = worker.result()
        assert ring() is None  # the parent has dropped its mapping of the ring
    if parent_helps:
        # The worker still takes a token whenever its next node is not in
        # and no report waits, so the parent's share is about three quarters,
        # not all.
        assert sum(helped) >= state.n_iter * mesh // 3
    else:
        assert helped == []
    assert (state_w.increments_linf, state_w.n_iter) == (state.increments_linf, state.n_iter)
    for mine, theirs in zip(traj_w.snapshots, traj.snapshots, strict=True):
        assert mine.coeffs.tobytes() == theirs.coeffs.tobytes()


WAVE_GRIDS = [(2, 32, 0.5), (2, 128, 0.5), (3, 16, 0.75)]  # GEMM, FFT and 3D GEMM plans


def _solve_where(where, monkeypatch, u0, p, T, mesh, seeds):
    """The seeded solve in this process, or in the worker, seeded as
    ``oracle-compare`` seeds it, with the parent's help or without; the
    trajectory, the state and the parent's evaluations."""
    if where == "here":
        return (*picard_solve(u0, p, T, mesh_size=mesh, max_iter=10, seeds=seeds), [])
    helped = _parent_evaluations(monkeypatch, worker_delay=0.01 if where == "helped" else 0.0)
    n = 0 if seeds is None else len(seeds) - 1
    with picard_worker(u0, p, T, mesh_size=mesh, max_iter=10, seeds=n) as worker:
        for j in range(1, n + 1):
            worker.seed(j, *seeds[j])
        if where == "worker":
            select.select([worker.child.ends[0]], [], [])  # the worker's reply is readable
        traj, state = worker.result()
    return traj, state, helped


@pytest.mark.parametrize("where", ["here", "worker", "helped"])
@pytest.mark.parametrize("start", ["cold", "warm", "warm-m3"])
@pytest.mark.parametrize("dim,n,s", WAVE_GRIDS)
def test_the_wavefront_gives_the_sweep_major_bits(monkeypatch, dim, n, s, start, where):
    # From the same seed, the levels run node-major behind the seeds give the
    # stack and the increments of sweep-major sweeps byte for byte, in one
    # process and in the worker, with the parent's help and without. A warm
    # start seeds every node (m = 1) or every third (m = 3).
    grid = make_grid(dim, n)
    p = Params(alpha=0.5, nu=0.5, s=s)
    u0 = random_field(grid, seed=8, amplitude=0.05)
    T, mesh = 0.1, 12
    seeds = None if start == "cold" else stepper_seeds(u0, p, T, 4 if start == "warm-m3" else 12)
    ref_stack, ref_incs = sweep_major_picard(u0, p, T, mesh, seeds)
    traj, state, helped = _solve_where(where, monkeypatch, u0, p, T, mesh, seeds)
    assert state.increments_linf == ref_incs and state.converged
    stack = np.stack([traj.snapshots.split(i)[0] for i in range(mesh + 1)])
    assert stack.tobytes() == ref_stack.tobytes()
    evaluated = state.n_iter * mesh if seeds is None else (state.n_iter - 1) * mesh
    if where == "helped":
        assert sum(helped) >= evaluated // 3
    else:
        assert helped == []


def test_a_warm_solve_evaluates_no_f_in_its_first_sweep(grid2, params, monkeypatch):
    # Seeded at every node, sweep 1 and node 0 take their f from the seeds; at
    # every third node, sweep 1 evaluates the two free nodes between seeds only.
    import lansfrac.mild as mild

    u0 = dealias(random_field(grid2, seed=70, amplitude=0.5))
    real, calls = mild.rhs_f_band, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    mesh = 12
    for n in (12, 4):
        seeds = stepper_seeds(u0, params, 0.3, n)
        monkeypatch.setattr(mild, "rhs_f_band", counted)
        calls.clear()
        _, state = picard_solve(u0, params, 0.3, mesh_size=mesh, seeds=seeds)
        monkeypatch.setattr(mild, "rhs_f_band", real)
        assert state.converged and state.n_iter > 2
        assert len(calls) == (state.n_iter - 1) * mesh + (mesh - n)


def test_a_warm_start_converges_to_the_cold_fixed_point(grid2, params):
    # The stop rule bounds the last iterate's distance from the fixed point
    # whatever the seed: warm and cold solves end within 1e-13 relative D(A)
    # node by node, and the warm one in fewer sweeps.
    u0 = dealias(random_field(grid2, seed=70, amplitude=0.5))
    tables = diagnostics.audit_tables(grid2, params.alpha, params.s)
    warm, warm_state = picard_solve(u0, params, 0.3, mesh_size=12,
                                    seeds=stepper_seeds(u0, params, 0.3, 12))
    cold, cold_state = picard_solve(u0, params, 0.3, mesh_size=12)
    assert warm_state.converged and cold_state.converged
    assert warm_state.n_iter < cold_state.n_iter
    for i in range(13):
        a, b = warm.snapshots.split(i)[0], cold.snapshots.split(i)[0]
        assert diagnostics.norm_DA(a - b, tables) <= 1e-13 * diagnostics.norm_DA(b, tables)


@pytest.mark.parametrize("seed_nan", [False, True])
def test_a_level_raises_the_error_sweep_major_order_meets_first(grid2, params, monkeypatch, seed_nan):
    # Sweep 2's first f is nan, at node 1, while sweep 1 still runs behind the
    # seeds. Sweep-major order raises sweep 1's error first when seed 10's f
    # is nan too, else sweep 2's at node 1: so does the wavefront.
    import lansfrac.mild as mild

    u0 = dealias(random_field(grid2, seed=70, amplitude=0.5))
    seeds = stepper_seeds(u0, params, 0.3, 12)
    if seed_nan:
        seeds[10] = (seeds[10][0], np.full_like(seeds[10][1], np.nan))
    real, calls = mild.rhs_f_band, []

    def nan_first(*args, **kwargs):
        calls.append(1)
        out = real(*args, **kwargs)
        if len(calls) == 1:
            out[...] = np.nan
        return out

    monkeypatch.setattr(mild, "rhs_f_band", nan_first)
    t = 0.3 * (10 if seed_nan else 1) / 12
    with pytest.raises(NoContractionError, match=f"non-finite at t = {t:g}$"):
        picard_solve(u0, params, 0.3, mesh_size=12, seeds=seeds)


def test_picard_refuses_seeds_that_do_not_fit_its_mesh(grid2, params):
    u0 = dealias(random_field(grid2, seed=70, amplitude=0.5))
    seeds = stepper_seeds(u0, params, 0.3, 5)
    with pytest.raises(ValueError, match="do not divide"):
        picard_solve(u0, params, 0.3, mesh_size=12, seeds=seeds)
    seeds[0] = (2.0 * seeds[0][0], seeds[0][1])
    with pytest.raises(ValueError, match="u0's band block"):
        picard_solve(u0, params, 0.3, mesh_size=10, seeds=seeds)


def test_ring_nodes_read_a_waiting_report_before_a_token(monkeypatch):
    # The worker's pipes hold a report of node 2 and a token of node 3. Asked
    # for f_2, it reads the report and evaluates nothing. Once no report can
    # come any more (the parent's end is closed), asking for f_3 raises.
    import lansfrac.mild as mild

    evaluated = []
    monkeypatch.setattr(mild, "rhs_f_band", lambda *args, **kwargs: evaluated.append(args))
    stack, ring = np.zeros((9, 1), complex), np.zeros((RING_SLOTS, 1), complex)
    tokens_r, post = os.pipe()
    reports_r, reports_w = os.pipe()
    for fd in (tokens_r, reports_r):
        os.set_blocking(fd, False)
    os.write(post, struct.pack("<i", 3))
    os.write(reports_w, struct.pack("<i", 2))
    os.close(reports_w)
    try:
        f_at = _RingNodes(None, None, stack, ring, tokens_r, post, reports_r, -1, stack[:1])
        assert np.shares_memory(f_at(2), ring[2]) and evaluated == []
        with pytest.raises(LansfracError, match="parent"):
            f_at(3)
        assert evaluated == []
    finally:
        for fd in (tokens_r, post, reports_r):
            os.close(fd)


class PlantedFault(Exception):
    """An exception a test plants in the kernel."""


def test_picard_worker_raises_the_parents_kernel_error_as_itself(monkeypatch, grid2, params):
    # The parent's first evaluation raises. The exception leaves result() and
    # the with block as the object the kernel raised, from the parent's own
    # frames, and the worker is gone and reaped.
    import lansfrac.mild as mild

    fault, parent, real = PlantedFault("a planted fault"), os.getpid(), mild.rhs_f_band

    def f(*args, **kwargs):
        if os.getpid() == parent:
            raise fault
        time.sleep(0.01)  # the parent takes a token once it helps
        return real(*args, **kwargs)

    monkeypatch.setattr(mild, "rhs_f_band", f)
    u0 = random_field(grid2, seed=7, amplitude=1e-2)
    with pytest.raises(PlantedFault) as caught:
        with picard_worker(u0, params, 0.1, mesh_size=8) as worker:
            pid = worker.child.pid
            worker.result()
    assert caught.value is fault
    assert "_help" in [entry.name for entry in caught.traceback]
    with pytest.raises(ChildProcessError):  # reaped already
        os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("fork", ["picard-worker", "kernel-helper"])
def test_a_ctrl_c_just_after_a_fork_leaves_no_process(monkeypatch, grid2, params, fork):
    # SIGINT comes as soon as os.fork has returned in the parent: opening the
    # fork raises KeyboardInterrupt, and the autouse fixtures check that no
    # child process and no descriptor is left.
    if fork == "kernel-helper" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the helper needs a second CPU")
    real = os.fork

    def fork_then_ctrl_c():
        pid = real()
        if pid:
            signal.raise_signal(signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", fork_then_ctrl_c)
    if fork == "picard-worker":
        opened = picard_worker(random_field(grid2, seed=7, amplitude=1e-2), params, 0.1, mesh_size=8)
    else:
        opened = kernel_helper(make_grid(3, 32), params.alpha)
    with pytest.raises(KeyboardInterrupt):
        with opened:
            pass


@pytest.mark.parametrize("dim,n", [(3, 16), (2, 96)])  # a GEMM plan, an FFT plan
def test_picard_worker_holds_blas_at_one_thread_on_a_gemm_plan(monkeypatch, dim, n):
    # Both processes run on one OpenBLAS thread while the worker runs on a GEMM
    # plan, and the parent's count comes back afterwards; an FFT plan leaves
    # the pool alone. The worker reports its count in the exception it sends.
    import lansfrac.mild as mild

    calls = forks.openblas_threads()
    if calls is None:
        pytest.skip("no OpenBLAS whose thread count can be set through ctypes")
    get, put = calls
    grid = make_grid(dim, n)
    p = Params(alpha=0.5, nu=0.5, s=0.75 if dim == 3 else 0.5)
    u0 = random_field(grid, seed=8, amplitude=0.05)
    gemm = grid.layout.gemm
    assert gemm == (dim == 3)

    def report(*args, **kwargs):
        raise LansfracError(f"worker threads {get()}")

    monkeypatch.setattr(mild, "picard_solve", report)
    before = get()
    put(2)
    try:
        with picard_worker(u0, p, 0.1, mesh_size=8) as worker:
            parent = get()
            with pytest.raises(LansfracError, match=r"worker threads (\d+)") as caught:
                worker.result()
        worker_threads = int(caught.value.args[0].split()[-1])
        assert (parent, worker_threads) == ((1, 1) if gemm else (2, 2))
        assert get() == 2
    finally:
        put(before)


def test_picard_matches_stepper_small_data(grid2):
    # oracle equivalence on a short horizon: completely different numerics
    p = Params(alpha=0.5, nu=0.5, s=0.5)
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
    mild_traj, state = picard_solve(u0, p, T, mesh_size=50)
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
    p = Params(alpha=0.5, nu=0.5, s=0.5)
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
    p = Params(alpha=0.5, nu=0.5, s=0.5)
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
    p = Params(alpha=0.5, nu=0.5, s=0.5)
    u0 = dealias(random_field(grid2, seed=10, amplitude=1e-2))
    holder = holder_for(u0, beta=0.25, T=1.0)
    traj, state = picard_solve(u0, p, holder.T, mesh_size=64)
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
    p = Params(alpha=0.5, nu=0.5, s=0.5)
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
