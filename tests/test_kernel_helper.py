"""The kernel's helper process (``operators.kernel_helper``): same bits, no
shared buffer left behind, and no process or descriptor left on any exit."""

import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import lansfrac
from lansfrac import InitialData, Params, forks, make_grid, make_initial
from lansfrac.cli import main
from lansfrac.diagnostics import PER_MODE, audit, audit_tables
from lansfrac.errors import WorkerError
from lansfrac.operators import _kernel_workspace, kernel_helper, rhs_f_band

from conftest import exit_and_stderr, no_process_left, no_tail, process_group, stopped_by_ctrl_c

pytestmark = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the helper needs a second CPU"
)

SIM3D_CFG = """
dim = 3
N = {n}
alpha = 0.5
nu = 0.1
s = 0.75
dt = 1e-3
t_end = {t_end}
init = {init}
amplitude = {amplitude}
seed = 4
snapshot_every = {every}
{extra}"""

# Runs the CLI; with "alone" first, with no kernel helper.
_DRIVER = """\
import contextlib, sys
import lansfrac.cli as cli
if sys.argv[1] == "alone":
    cli.kernel_helper = lambda grid, alpha: contextlib.nullcontext()
sys.exit(cli.main(sys.argv[2:]))
"""


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(Path(lansfrac.__file__).parents[1])}


def _config(tmp_path, t_end=0.01, init="taylor-green", amplitude=1.0, every=5, n=32,
            extra="") -> str:
    path = tmp_path / "run.cfg"
    path.write_text(SIM3D_CFG.format(t_end=t_end, init=init, amplitude=amplitude, every=every,
                                     n=n, extra=extra))
    return str(path)


def _band_u(n: int):
    grid, p = make_grid(3, n), Params(alpha=0.5, nu=1.0, s=0.75)
    u = make_initial(InitialData(kind="random-spectrum", seed=7), grid)
    return grid, p, grid.layout.gather(u.coeffs)


@pytest.mark.parametrize("n", [26, 32, 48, 64])
def test_the_helper_gives_the_kernel_the_same_bits(n):
    grid, p, u = _band_u(n)
    alone = rhs_f_band(grid, u, p, out=np.empty_like(u))
    ws = _kernel_workspace(grid, p.alpha)
    with kernel_helper(grid, p.alpha):
        assert ws.helper is not None
        into_out = rhs_f_band(grid, u, p, out=np.empty_like(u))
        in_place = rhs_f_band(grid, u, p).copy()
    for f in (into_out, in_place):
        assert np.array_equal(f.view(np.float64), alone.view(np.float64))


@pytest.mark.parametrize("dim,n,helped", [(3, 16, False), (3, 24, False), (2, 64, False),
                                          (2, 128, False), (3, 26, True), (3, 32, True)])
def test_a_helper_starts_only_on_a_plan_of_several_slabs(monkeypatch, dim, n, helped):
    forked = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(None) or real())
    grid = make_grid(dim, n)
    with kernel_helper(grid, 0.5):
        assert (_kernel_workspace(grid, 0.5).helper is not None) == helped
    assert len(forked) == helped


def _shared_mappings() -> list[tuple[int, int]]:
    """The address ranges of this process's shared mappings (Linux /proc)."""
    ranges = []
    with open("/proc/self/maps") as maps:
        for line in maps:
            span, perms = line.split()[:2]
            if perms[3] == "s":
                lo, hi = (int(end, 16) for end in span.split("-"))
                ranges.append((lo, hi))
    return ranges


def _in_shared_mappings(owner) -> list[str]:
    """The names of owner's array attributes whose data lie in a shared mapping."""
    ranges = _shared_mappings()
    found = []
    for name, value in vars(owner).items():
        if isinstance(value, np.ndarray) and value.size:
            address = value.__array_interface__["data"][0]
            if any(lo <= address < hi for lo, hi in ranges):
                found.append(name)
    return found


def test_no_buffer_stays_shared_after_the_helper():
    # A shared buffer left in the cached workspace or plan would be shared by
    # a Picard worker forked later, and both would write the same _mid.
    grid, p, u = _band_u(32)
    ws = _kernel_workspace(grid, p.alpha)
    with kernel_helper(grid, p.alpha):
        rhs_f_band(grid, u, p)
        assert {"stack", "state", "product"} <= set(_in_shared_mappings(ws))
        assert _in_shared_mappings(ws.plan) == ["_mid"]
    assert _in_shared_mappings(ws) == [] and _in_shared_mappings(ws.plan) == []
    assert ws.helper is None


_ISOLATION = """\
import hashlib, sys
from lansfrac import InitialData, Params, make_grid, make_initial, picard_solve
from lansfrac.cli import main
from lansfrac.operators import kernel_helper, rhs_f_band
grid, p = make_grid(3, 32), Params(alpha=0.5, nu=0.1, s=0.75)
u0 = make_initial(InitialData(kind="random-spectrum", amplitude=0.05, seed=3), grid)
if sys.argv[1] == "helper":
    with kernel_helper(grid, p.alpha):
        rhs_f_band(grid, grid.layout.gather(u0.coeffs), p)
traj, _ = picard_solve(u0, p, 0.02, mesh_size=8)
print(hashlib.sha256(b"".join(node.coeffs.tobytes() for node in traj.snapshots)).hexdigest())
assert main(["oracle-compare", sys.argv[2], "--T", "0.004", "--out-dir", sys.argv[3]]) == 0
print(hashlib.sha256(open(sys.argv[3] + "/oracle.csv", "rb").read()).hexdigest())
"""


def test_a_process_that_had_a_helper_gives_the_oracles_bytes(tmp_path):
    # picard_solve in process, then oracle-compare's forked Picard worker,
    # on the workspace that the helper used, against a process that never
    # opened one
    cfg = _config(tmp_path, init="random-spectrum", amplitude=0.05)
    digests = []
    for mode in ("helper", "alone"):
        run = subprocess.run(
            [sys.executable, "-c", _ISOLATION, mode, cfg, str(tmp_path / mode)],
            env=_env(), capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout)
    assert len(digests[0].splitlines()) == 3  # the nodes, the command's line, oracle.csv
    assert digests[0] == digests[1]


@pytest.mark.parametrize("n,init,extra,t_end,snapshots", [
    (32, "taylor-green", "", 0.01, 3),
    (32, "random-spectrum", "", 0.01, 3),
    (26, "random-spectrum", "", 0.01, 3),  # the smallest helper grid: M = 25, odd halves
    (32, "random-spectrum", "galerkin_N = 8\n", 0.01, 3),  # the Galerkin cut
    # 11 steps, the last one shorter: its weights are loaded mid-run
    (32, "random-spectrum", "", 0.0105, 4),
], ids=["taylor-green", "random-spectrum", "n26", "galerkin", "short-last-step"])
def test_simulate_with_the_helper_writes_the_bytes_of_one_process(tmp_path, monkeypatch, n,
                                                                  init, extra, t_end, snapshots):
    import lansfrac.cli as cli

    cfg = _config(tmp_path, t_end=t_end, init=init, n=n, extra=extra)
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "helped")]) == 0
    monkeypatch.setattr(cli, "kernel_helper", lambda grid, alpha: nullcontext())
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "alone")]) == 0
    names = sorted(path.name for path in (tmp_path / "alone").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "helped").iterdir())
    assert len(names) == snapshots + 2  # with diagnostics.csv and manifest.json
    for name in set(names) - {"manifest.json"}:
        assert (tmp_path / "helped" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


@pytest.mark.parametrize("n", [26, 32, 48, 64])
def test_every_phase_splits_evenly(n):
    # No timing: each phase's two parts are non-empty and within one row,
    # plane, field or 4-column block of an even split, and a split of GEMM
    # columns falls on a multiple of 4.
    grid = make_grid(3, n)
    ws = _kernel_workspace(grid, 0.5)
    plan, b = ws.plan, grid.band_limit
    assert plan.S < plan.M  # a helper starts on this grid
    sizes = [plan.bounds(phase, len(ws.stack), len(ws.product)) for phase in range(plan.PHASES)]
    rows = [len(range(*ws.rows[part].indices(len(ws.k[0])))) for part in (0, 1)]
    for cut, end in sizes + [(rows[0], sum(rows))]:
        assert 0 < cut < end
    inverse, planes, n0_rows, columns = sizes
    for cut, end in (inverse, planes, n0_rows, (rows[0], sum(rows))):
        assert abs(2 * cut - end) <= 2, (cut, end)
    assert n0_rows[0] * (b + 1) % 4 == 0  # the flat (n_0, k_2) columns of the axis -2 pass
    assert columns[0] % 4 == 0 and abs(2 * columns[0] - columns[1]) <= 8


def test_the_helper_holds_blas_at_one_thread_and_puts_the_cpus_back(monkeypatch):
    calls = forks.openblas_threads()
    if calls is None:
        pytest.skip("no OpenBLAS whose thread count can be set through ctypes")
    get, put = calls
    grid, p, u = _band_u(32)
    ws = _kernel_workspace(grid, p.alpha)
    real, seen = type(ws).helper_share, forks.shared_array((2,))

    def share(self, phase):  # the helper's thread count and number of CPUs
        real(self, phase)
        seen[:] = get(), len(os.sched_getaffinity(0))

    monkeypatch.setattr(type(ws), "helper_share", share)
    cpus, before = os.sched_getaffinity(0), get()
    put(2)
    try:
        with kernel_helper(grid, p.alpha):
            rhs_f_band(grid, u, p)
            assert seen.real.tolist() == [1, 1]
            assert get() == 1
            assert os.sched_getaffinity(0) == cpus - {max(cpus)}
        assert get() == 2
        assert os.sched_getaffinity(0) == cpus
    finally:
        put(before)


def test_a_killed_helper_fails_the_next_kernel_call():
    grid, p, u = _band_u(32)
    ws = _kernel_workspace(grid, p.alpha)
    with kernel_helper(grid, p.alpha):
        os.kill(ws.helper._child.pid, signal.SIGKILL)
        with pytest.raises(WorkerError, match=rf"helper process ended by signal {int(signal.SIGKILL)}"):
            rhs_f_band(grid, u, p)
    assert _in_shared_mappings(ws) == [] and _in_shared_mappings(ws.plan) == []


def test_a_diverged_simulate_reaps_the_helper(tmp_path, capsys):
    cfg = _config(tmp_path, init="random-spectrum", amplitude=1e308)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == ["diverged: field invariant broken at step 1"]
    assert json.loads((out / "manifest.json").read_text())["status"]["state"] == "diverged"


def test_an_unwritable_output_reaps_the_helper(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "diagnostics.csv").mkdir(parents=True)
    assert main(["simulate", _config(tmp_path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0].startswith("error: ")
    assert json.loads((out / "manifest.json").read_text())["status"]["state"] == "error"


def test_a_failed_snapshot_write_mid_run_reaps_the_helper(tmp_path, capsys, monkeypatch):
    # The second snapshot (step 5 of 10) has a directory at its path: its
    # write fails inside the march, while the helper runs. The command exits
    # 2 with one line, the helper is reaped (the autouse fixtures) and this
    # process gets its CPUs back.
    import lansfrac.io

    grid, writes, real = make_grid(3, 32), [], lansfrac.io.write_snapshot

    def write_snapshot(*args):
        writes.append(_kernel_workspace(grid, 0.5).helper is not None)
        return real(*args)

    monkeypatch.setattr(lansfrac.io, "write_snapshot", write_snapshot)
    out = tmp_path / "out"
    (out / "snapshot_000001.flns").mkdir(parents=True)
    cpus = os.sched_getaffinity(0)
    cfg = _config(tmp_path, init="random-spectrum", amplitude=0.5)
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 2
    message = f"cannot write {str(out / 'snapshot_000001.flns')!r}: {os.strerror(errno.EISDIR)}"
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert json.loads((out / "manifest.json").read_text())["status"] == {
        "state": "error", "message": message}
    assert writes == [True, True]
    assert os.sched_getaffinity(0) == cpus


def _long_simulate(tmp_path):
    """A 3D N=32 simulate in a session of its own, once its first snapshot exists."""
    out = tmp_path / "out"
    cfg = _config(tmp_path, t_end=10, init="random-spectrum", amplitude=0.5, every=5000)
    proc = subprocess.Popen([sys.executable, "-m", "lansfrac.cli", "simulate", cfg,
                             "--out-dir", str(out)], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not (out / "snapshot_000000.flns").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        assert len(process_group(proc.pid)) == 2  # the command and its helper
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc, out


def test_a_killed_command_leaves_no_helper(tmp_path):
    # The helper ends at end-of-file on its command pipe.
    proc, _ = _long_simulate(tmp_path)
    os.kill(proc.pid, signal.SIGKILL)
    assert exit_and_stderr(proc)[0] == -signal.SIGKILL
    no_process_left(proc.pid)


def test_a_ctrl_c_stops_the_command_with_one_line_and_leaves_no_helper(tmp_path):
    # A terminal's SIGINT reaches the whole group; the helper ignores it.
    proc, out = _long_simulate(tmp_path)
    stopped_by_ctrl_c(proc, out)


def test_a_killed_helper_fails_the_command_with_one_line(tmp_path):
    proc, out = _long_simulate(tmp_path)
    (helper,) = [pid for pid, (ppid, _) in process_group(proc.pid).items() if ppid == proc.pid]
    os.kill(helper, signal.SIGKILL)
    _fails_with_one_line(proc, out)


def _fails_with_one_line(proc, out) -> None:
    """proc, whose helper was killed, exits 1 with one line and leaves its
    manifest, no .tmp file and no process."""
    code, err = exit_and_stderr(proc)
    line = (f"check failed: the kernel's helper process ended by signal {int(signal.SIGKILL)} "
            "during a step")
    assert (code, err.splitlines()) == (1, [line])
    status = json.loads((out / "manifest.json").read_text())["status"]
    assert status == {"state": "error", "message": line.removeprefix("check failed: ")}
    assert not [path for path in out.iterdir() if path.name.endswith(".tmp")]
    no_process_left(proc.pid)


# Runs the CLI with the helper killing itself in its 20th part of one of
# run's phases, named first: from the stage, the update or the audit.
_DYING = """\
import os, signal, sys
import lansfrac.cli as cli
from lansfrac import diagnostics, integrator, operators
phase = {"stage": integrator._STAGE, "update": integrator._UPDATE,
         "audit": diagnostics.PER_MODE}[sys.argv[1]]
task, parts = operators._PHASES[phase], []

def dying(ws, part):
    if part == 1:
        parts.append(part)
        if len(parts) == 20:
            os.kill(os.getpid(), signal.SIGKILL)
    task(ws, part)

operators._PHASES[phase] = dying
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("phase", ["stage", "update", "audit"])
def test_a_helper_killed_in_a_step_phase_fails_the_command_with_one_line(tmp_path, phase):
    driver, out = tmp_path / "dying.py", tmp_path / "out"
    driver.write_text(_DYING)
    cfg = _config(tmp_path, t_end=0.05, init="random-spectrum", amplitude=0.5, every=10)
    proc = subprocess.Popen([sys.executable, str(driver), phase, "simulate", cfg,
                             "--out-dir", str(out)], env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    _fails_with_one_line(proc, out)
    assert (out / "snapshot_000001.flns").exists()  # written before step 20


def test_a_diverging_run_prints_what_one_process_prints(tmp_path):
    # No numpy warning: the helper runs its shares with errors ignored. The
    # audit's maxima of the two halves keep the nan, so the records match.
    cfg = _config(tmp_path, init="random-spectrum", amplitude=1e150)
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER)
    errs = []
    for mode in ("helper", "alone"):
        run = subprocess.run(
            [sys.executable, str(driver), mode, "simulate", cfg, "--out-dir", str(tmp_path / mode)],
            env=_env(), capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 3
        errs.append(run.stderr)
    assert errs[0] == errs[1]
    assert errs[0].splitlines() == ["diverged: field invariant broken at step 1"]
    csv = [(tmp_path / mode / "diagnostics.csv").read_bytes() for mode in ("helper", "alone")]
    assert csv[0] == csv[1] and len(csv[0].splitlines()) == 3  # the header, steps 0 and 1


@pytest.mark.parametrize("where", [None, 0, 1])
def test_the_split_audit_gives_the_whole_audits_flags_and_record(where):
    # A nan in the rows of either process fails the flags as the whole
    # audit does: the halves' maxima are combined with np.max, which keeps
    # it (Python's max(1.0, nan) is 1.0).
    grid, p, u = _band_u(32)
    tables = audit_tables(grid, p.alpha, p.s)
    ws = _kernel_workspace(grid, p.alpha)
    if where is not None:
        rows = ws.rows[where]
        u[(1, rows.start + 1, 2, 3)] = np.nan
    with np.errstate(invalid="ignore"):
        f = rhs_f_band(grid, u, p, out=np.empty_like(u))
        whole = audit(u, f, tables, 0.5, no_tail(grid))
        with kernel_helper(grid, p.alpha):
            np.copyto(ws.state, u)
            np.copyto(ws.f_state, f)
            ws.split(PER_MODE)
            split = audit(ws.state, ws.f_state, tables, 0.5, no_tail(grid),
                          per_mode=(ws.per_mode, ws.maxima))
    assert split[0] == whole[0]
    assert all(split[0]) == (where is None)
    assert repr(split[1]) == repr(whole[1])


def test_a_run_after_a_diverged_one_keeps_the_helper_in_step():
    # The diverged run raises between phases, so the next run's phases pair up.
    from lansfrac.errors import DivergedError
    from lansfrac.integrator import SimConfig, StepScheme, run

    grid, p = make_grid(3, 32), Params(alpha=0.5, nu=0.1, s=0.75)
    def config(amplitude):
        return SimConfig(grid, p, StepScheme(dt=1e-3), t_end=3e-3, snapshot_every=10,
                         initial=InitialData(kind="random-spectrum", amplitude=amplitude, seed=4))
    alone = run(config(0.5)).snapshots[-1].coeffs
    with kernel_helper(grid, p.alpha):
        with pytest.raises(DivergedError, match="at step 1"):
            run(config(1e150))
        helped = run(config(0.5)).snapshots[-1].coeffs
    assert helped.tobytes() == alone.tobytes()


def test_simulate_on_the_benchmark_config_writes_the_bytes_of_one_process(tmp_path):
    # sim3d-n48: 3D N=48, s = 3/4, a restart from random-spectrum data,
    # ETD2RK, a snapshot every 5 steps
    grid = make_grid(3, 48)
    from lansfrac.io import SnapshotMeta, write_snapshot

    restart = tmp_path / "restart.flns"
    u0 = make_initial(InitialData(kind="random-spectrum", seed=0), grid)
    write_snapshot(u0, SnapshotMeta(alpha=0.5, nu=0.1, s=0.75, t=0.0), restart)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dim = 3\nN = 48\nalpha = 0.5\nnu = 0.1\ns = 0.75\nscheme = etd2rk\n"
                   f"dt = 0.001\nt_end = 0.012\ninit = snapshot:{restart}\namplitude = 1.0\n"
                   "seed = 0\nsnapshot_every = 5\n")
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER)
    digests = []
    for mode in ("helper", "alone"):
        out = tmp_path / mode
        run = subprocess.run([sys.executable, str(driver), mode, "simulate", str(cfg),
                              "--out-dir", str(out)], env=_env(), capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir() if path.name != "manifest.json"})
    assert len(digests[0]) == 5  # 4 snapshots and diagnostics.csv
    assert digests[0] == digests[1]
