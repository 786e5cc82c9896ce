"""Command-line surface: exit codes, file outputs, determinism."""

import dataclasses
import errno
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from lansfrac.cli import main
from lansfrac.diagnostics import DiagRecord
from lansfrac.integrator import Trajectory, make_initial

from conftest import (
    exit_and_stderr,
    nan_at_last_picard_node,
    no_process_left,
    process_group,
    stopped_by_ctrl_c,
)

SHEAR_CFG = """
dim = 2
N = 32
alpha = 0.5
nu = 0.1
s = 0.5
dt = 1e-3
t_end = 1
init = shear
snapshot_every = 200
"""

SMALL_CFG = """
dim = 2
N = 32
alpha = 0.5
nu = 0.5
s = 0.5
dt = 2e-3
t_end = 0.05
init = random-spectrum
amplitude = 0.01
seed = 11
"""

# flags a command needs besides its config, with values valid for SMALL_CFG
REQUIRED_FLAGS = {"holder": ["--beta", "0.25"], "oracle-compare": ["--T", "0.004"],
                  "smoothing": ["--r", "0.375"]}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_unknown_subcommand_usage_exit(capsys):
    assert main(["frobnicate"]) == 2


def _package_env() -> dict[str, str]:
    import lansfrac

    return {
        "PYTHONPATH": str(Path(lansfrac.__file__).parents[1]),
        "PATH": "",
        "PYTHONDONTWRITEBYTECODE": "1",  # leave no __pycache__ in the source tree
    }


def test_import_loads_no_scipy():
    code = "import sys, lansfrac.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_a_3d_restart_never_imports_numpy_fft(tmp_path):
    # the benchmark's sim3d-n48 command: the grid's wavevectors are integers
    # and every 3D grid runs the GEMM band passes, so nothing in the command
    # reaches numpy.fft
    from lansfrac.integrator import InitialData
    from lansfrac.io import SnapshotMeta, write_snapshot
    from lansfrac.spectral import make_grid

    u0 = make_initial(InitialData(kind="random-spectrum", seed=0), make_grid(3, 48))
    restart = tmp_path / "restart.flns"
    write_snapshot(u0, SnapshotMeta(alpha=0.5, nu=0.1, s=0.75, t=0.0), restart)
    cfg = write(tmp_path, "dim = 3\nN = 48\nalpha = 0.5\nnu = 0.1\ns = 0.75\n"
                          "scheme = etd2rk\ndt = 0.001\nt_end = 0.015\n"
                          f"init = snapshot:{restart}\namplitude = 1.0\nseed = 0\n"
                          "snapshot_every = 5\n")
    code = ("import sys; from lansfrac import cli; "
            "rc = cli.main(sys.argv[1:]); print(rc, 'numpy.fft' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code, "simulate", cfg, "--out-dir", str(tmp_path / "out")],
        env=_package_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.stdout.splitlines()[-1] == "0 False", out.stderr


# Runs the CLI with the nonlinear kernel's one filter-and-projection pass
# replaced by the identity, so every f(u, u) keeps the gradient part of the
# product.
_CORRUPT_KERNEL = """\
import sys

import numpy as np

from lansfrac import cli, operators

operators._KernelWorkspace.project = lambda self, a, out, part=None: np.copyto(out, a) or out
sys.exit(cli.main(sys.argv[1:]))
"""


# The one stderr line of each command run on the corrupted kernel. holder runs
# Picard alone, with no stepper: the check of its nodes fails at node 1.
_CORRUPT_KERNEL_LINE = {
    "simulate": "diverged: the nonlinearity f(u, u) is not solenoidal at step 0",
    "oracle-compare": "diverged: the nonlinearity f(u, u) is not solenoidal at step 0",
    "holder": "diverged: Picard node invariant broken at t = 0.00078125",
}


@pytest.mark.parametrize(
    "flags,command",
    [
        ([], ["simulate"]),
        (["-O"], ["oracle-compare", "--T", "0.1"]),
        (["-O"], ["holder", "--beta", "0.25"]),  # runs Picard alone, no stepper
    ],
)
def test_corrupted_kernel_exits_three_with_one_line(tmp_path, flags, command):
    # the audit's check of f(u), and Picard's of its nodes, are explicit
    # checks: they report a broken kernel as a divergence (exit 3, no
    # traceback) that names its step or t, also under python -O
    driver = tmp_path / "corrupt.py"
    driver.write_text(_CORRUPT_KERNEL)
    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3"))
    argv = [command[0], cfg, *command[1:], "--out-dir", str(tmp_path / "out")]
    out = subprocess.run(
        [sys.executable, *flags, str(driver), *argv],
        env=_package_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 3
    assert out.stderr.splitlines() == [_CORRUPT_KERNEL_LINE[command[0]]]


def test_missing_config_file(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.cfg")]) == 2


def test_simulate_writes_outputs_and_manifest(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    snaps = sorted(out.glob("snapshot_*.flns"))
    assert len(snaps) >= 2
    assert capsys.readouterr().out.startswith(f"simulate: {len(snaps)} snapshots,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["N"] == 32


@pytest.mark.parametrize("command", ["simulate", "verify-energy", "oracle-compare"])
def test_manifest_entries_are_the_digest_and_size_of_each_output(tmp_path, command):
    # the writers hash what they write; hashlib over each file agrees
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert main([command, cfg, "--out-dir", str(out), *REQUIRED_FLAGS.get(command, [])]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert sorted(entry["path"] for entry in outputs) == written
    for entry in outputs:
        data = (out / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)


def test_simulate_determinism(tmp_path):
    cfg = write(tmp_path, SMALL_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        outs.append(sha256_of(out / "diagnostics.csv"))
    assert outs[0] == outs[1]


def test_simulate_regime_violation(tmp_path):
    cfg = write(tmp_path, SMALL_CFG.replace("s = 0.5", "s = 0.4"))
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 2


def test_ops_test_accepts_subcritical_s(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_CFG.replace("s = 0.5", "s = 0.4"))
    assert main(["ops-test", cfg, "--fields", "2"]) == 0
    assert "nonlinear cancellation" in capsys.readouterr().out


def test_ops_test_default_battery(capsys):
    assert main(["ops-test", "--fields", "2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "ok" in out


def test_verify_energy_shear(tmp_path):
    cfg = write(tmp_path, SHEAR_CFG)
    out = tmp_path / "out"
    code = main(["verify-energy", cfg, "--out-dir", str(out), "--tol", "1e-8"])
    assert code == 0
    assert (out / "residuals.csv").exists()


def test_verify_energy_fails_on_absurd_tol(tmp_path):
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert main(["verify-energy", cfg, "--out-dir", str(out), "--tol", "1e-30"]) == 1


def test_smoothing_subcommand(tmp_path):
    cfg = write(
        tmp_path,
        SMALL_CFG.replace("t_end = 0.05", "t_end = 0.12")
        .replace("amplitude = 0.01", "amplitude = 0.5")
        .replace("s = 0.5", "s = 0.75")
        .replace("dt = 2e-3", "dt = 1e-3")
        .replace("nu = 0.5", "nu = 0.1")
        + "decay_exponent = 3.01\n",
    )
    out = tmp_path / "out"
    assert main(["smoothing", cfg, "--r", "0.375", "--out-dir", str(out)]) == 0
    assert (out / "ratefit.csv").exists()


def test_oracle_compare_subcommand(tmp_path):
    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3"))
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", "0.1", "--out-dir", str(out)]) == 0
    assert (out / "oracle.csv").exists()


def test_oracle_compare_checks_every_stepper_time(tmp_path):
    # 3 steps of dt = 3e-3: the Picard mesh is refined to 9 intervals, so
    # each stepper time is a node; a mesh of 8 would meet only t = 0 and T.
    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 3e-3"))
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", "0.009", "--out-dir", str(out)]) == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert len(times) == 4 and np.allclose(times, [0.0, 3e-3, 6e-3, 9e-3], rtol=0, atol=1e-15)


@pytest.mark.parametrize("amplitude,code", [("1e-140", 0), ("1e-160", 2), ("1e-170", 2),
                                            ("1e-300", 2)])
def test_verify_energy_refuses_data_whose_e1_underflows(tmp_path, capsys, amplitude, code):
    # The residuals are relative to E1(0). At 3D N=16 it is a normal float64
    # at amplitude 1e-140 and underflows below it: the command then exits 2
    # with one line, and warns nothing.
    cfg = write(tmp_path, SMALL_CFG.replace("dim = 2", "dim = 3").replace("N = 32", "N = 16")
                .replace("s = 0.5", "s = 0.75").replace("dt = 2e-3", "dt = 1e-3")
                .replace("t_end = 0.05", "t_end = 0.01")
                .replace("amplitude = 0.01", f"amplitude = {amplitude}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify-energy", cfg, "--out-dir", str(tmp_path / "out")]) == code
    assert not caught
    err = capsys.readouterr().err.splitlines()
    if code:
        assert len(err) == 1 and err[0].startswith("error: verify-energy needs E1(0)")
    else:
        assert err == []


@pytest.mark.parametrize("nu,dt,t_end", [("1e100", "1e-3", "0.003"), ("1e308", "1", "3")],
                         ids=["nu-1e100", "nu-1e308-dt-1"])
def test_simulate_at_a_huge_viscosity_exits_0_and_warns_nothing(tmp_path, capsys, nu, dt, t_end):
    # z = -nu dt |k|^{2s} lies far below the phi functions' series switch, and
    # at nu = 1e308, dt = 1 it overflows to -inf: every weight stays finite
    cfg = write(tmp_path, SMALL_CFG.replace("N = 32", "N = 16").replace("nu = 0.5", f"nu = {nu}")
                .replace("dt = 2e-3", f"dt = {dt}").replace("t_end = 0.05", f"t_end = {t_end}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert not caught and capsys.readouterr().err == ""


@pytest.mark.parametrize("nu", ["1e280", "1e290", "1e295", "5e299", "1e300", "2e300", "1e303",
                                "1e305", "1e308"])
def test_a_decay_to_tiny_states_exits_0_and_warns_nothing(tmp_path, capsys, nu):
    # one step of such a viscosity takes the state to zero, or at nu = 5e299
    # to 2e300 to a subnormal one (max |u| about 1e-320): a state with no
    # normal coefficient is checked as zero, so a clean decay does not read
    # as a divergence
    cfg = write(tmp_path, SMALL_CFG.replace("N = 32", "N = 16").replace("nu = 0.5", f"nu = {nu}")
                .replace("dt = 2e-3", "dt = 1e-3").replace("t_end = 0.05", "t_end = 0.003")
                .replace("amplitude = 0.01", "amplitude = 1").replace("seed = 11", "seed = 0"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert not caught and capsys.readouterr().err == ""


def test_oracle_compare_rejects_a_horizon_off_the_step_grid(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 3e-3"))
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", "0.1", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "0.1" in err[0] and "0.003" in err[0]
    assert not (out / "oracle.csv").exists()


def test_oracle_compare_non_finite_picard_node_fails(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3"))
    nan_at_last_picard_node(monkeypatch, nodes=21)  # --T 0.02 at dt = 1e-3: 20 intervals
    assert main(["oracle-compare", cfg, "--T", "0.02", "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("check failed:") and "non-finite" in err[0]


def test_oracle_compare_sup_keeps_a_nan(tmp_path, capsys, monkeypatch):
    # a nan in the last row must not be dropped by the sup over the rows; the
    # worker plants it in the last node of the stack it shares with the parent
    import lansfrac.mild as mild

    real = mild.picard_solve

    def picard_with_nan_end(*args, out, **kwargs):
        result = real(*args, out=out, **kwargs)
        out.setflags(write=True)
        out[-1] = np.nan
        return result

    monkeypatch.setattr(mild, "picard_solve", picard_with_nan_end)
    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3"))
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", "0.02", "--out-dir", str(out)]) == 1
    assert "sup rel diff nan" in capsys.readouterr().out
    assert (out / "oracle.csv").read_text().splitlines()[-1].endswith(",nan")


def test_oracle_compare_kills_the_picard_worker_when_the_stepper_diverges(
    tmp_path, capsys, monkeypatch
):
    # the stepper's first step overflows while the worker still runs; the
    # worker is killed and reaped (conftest checks that no child is left)
    import lansfrac.mild as mild

    monkeypatch.setattr(mild, "picard_solve", lambda *args, **kwargs: time.sleep(60))
    real_waitpid, statuses = os.waitpid, []

    def waitpid(pid, options):
        reaped, status = real_waitpid(pid, options)
        statuses.append(status)
        return reaped, status

    monkeypatch.setattr(os, "waitpid", waitpid)
    text = SMALL_CFG.replace("N = 32", "N = 16").replace("amplitude = 0.01", "amplitude = 1e150")
    cfg = write(tmp_path, text)
    assert main(["oracle-compare", cfg, "--T", "0.004", "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == ["diverged: field invariant broken at step 1"]
    assert len(statuses) == 1 and os.WIFSIGNALED(statuses[0])
    assert os.WTERMSIG(statuses[0]) == signal.SIGKILL


def test_oracle_compare_reports_a_picard_worker_killed_by_a_signal(tmp_path, capsys, monkeypatch):
    import lansfrac.mild as mild

    monkeypatch.setattr(
        mild, "picard_solve", lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL)
    )
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", "0.004", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"check failed: the Picard process ended by signal {int(signal.SIGKILL)} "
        "before it sent a result"
    ]
    assert not (out / "oracle.csv").exists()


def test_oracle_compare_issues_the_picard_workers_warnings(tmp_path, monkeypatch):
    import lansfrac.mild as mild

    real = mild.picard_solve

    def warning_picard(*args, **kwargs):
        warnings.warn("a warning in the worker", RuntimeWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(mild, "picard_solve", warning_picard)
    cfg = write(tmp_path, SMALL_CFG)
    with pytest.warns(RuntimeWarning, match="a warning in the worker"):
        assert main(["oracle-compare", cfg, "--T", "0.004", "--out-dir", str(tmp_path / "out")]) == 0


def test_oracle_compare_of_overflowing_data_exits_three_with_one_line(tmp_path):
    # the stepper's first step overflows; the Picard worker, which overflows
    # too and warns, is killed with its warnings unsent
    text = SMALL_CFG.replace("N = 32", "N = 16").replace("amplitude = 0.01", "amplitude = 1e308")
    cfg = write(tmp_path, text)
    out = subprocess.run(
        [sys.executable, "-m", "lansfrac.cli", "oracle-compare", cfg, "--T", "0.004",
         "--out-dir", str(tmp_path / "out")],
        env=_package_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 3
    assert out.stderr.splitlines() == ["diverged: field invariant broken at step 1"]


def _patch_picard_kernel(monkeypatch, in_parent, in_worker=None) -> None:
    """Run a hook before each of Picard's kernel calls, by process.

    The worker sleeps before each of its own calls, so once the parent waits
    for it, the parent takes most of the tokens.
    """
    import lansfrac.mild as mild

    real, parent = mild.rhs_f_band, os.getpid()

    def f(*args, **kwargs):
        if os.getpid() == parent:
            in_parent()
        else:
            time.sleep(0.01)
            if in_worker is not None:
                in_worker()
        return real(*args, **kwargs)

    monkeypatch.setattr(mild, "rhs_f_band", f)


def test_oracle_compare_reports_a_worker_killed_while_the_parent_helps(tmp_path, capsys, monkeypatch):
    # At its first evaluation the parent kills the worker and waits until it
    # has ended, so the parent's report of that node meets a closed pipe.
    real_fork, workers = os.fork, []

    def fork():
        pid = real_fork()
        workers.append(pid)
        return pid

    def kill_the_worker():
        if workers:
            pid = workers.pop()
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # ended, not reaped

    monkeypatch.setattr(os, "fork", fork)
    _patch_picard_kernel(monkeypatch, kill_the_worker)
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", "0.004", "--out-dir", str(out)]) == 1
    assert workers == []
    assert capsys.readouterr().err.splitlines() == [
        f"check failed: the Picard process ended by signal {int(signal.SIGKILL)} "
        "before it sent a result"
    ]
    assert not (out / "oracle.csv").exists()


# The benchmark's oracle2d-n128 problem
ORACLE_2D_N128_CFG = """
dim = 2
N = 128
alpha = 0.5
nu = 0.1
s = 0.5
scheme = etd2rk
dt = 1e-3
t_end = 0.06
init = random-spectrum
amplitude = 0.05
seed = 0
"""


def _long_command(argv: list[str], ready) -> subprocess.Popen:
    """The CLI command argv in a session of its own, once ready(proc) holds."""
    proc = subprocess.Popen([sys.executable, "-m", "lansfrac.cli", *argv], env=_package_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not ready(proc):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc


def _long_oracle_compare(tmp_path):
    """A 2D N=128 oracle-compare, once its Picard worker runs."""
    cfg = write(tmp_path, ORACLE_2D_N128_CFG)
    argv = ["oracle-compare", cfg, "--T", "0.5", "--out-dir", str(tmp_path / "out")]
    # the command and its worker
    return _long_command(argv, lambda proc: len(process_group(proc.pid)) >= 2)


def test_a_ctrl_c_stops_oracle_compare_with_one_line_and_leaves_no_worker(tmp_path):
    # A terminal's SIGINT reaches the whole group; the worker ignores it.
    proc = _long_oracle_compare(tmp_path)
    stopped_by_ctrl_c(proc, tmp_path / "out")


def test_a_ctrl_c_stops_simulate_with_one_line(tmp_path):
    cfg = write(tmp_path, "dim = 2\nN = 16\nalpha = 0.5\nnu = 0.1\ns = 0.5\ndt = 1e-4\n"
                          "t_end = 50\ninit = taylor-green\nsnapshot_every = 1000\n")
    out = tmp_path / "out"
    proc = _long_command(["simulate", cfg, "--out-dir", str(out)],
                         lambda proc: (out / "snapshot_000001.flns").exists())
    stopped_by_ctrl_c(proc, out)


def test_a_killed_oracle_compare_leaves_no_worker(tmp_path):
    # The worker meets the end of its report pipe at its next node and ends.
    proc = _long_oracle_compare(tmp_path)
    os.kill(proc.pid, signal.SIGKILL)
    assert exit_and_stderr(proc)[0] == -signal.SIGKILL
    no_process_left(proc.pid)


@pytest.mark.parametrize("where", ["worker", "parent"])
@pytest.mark.parametrize("error,code,prefix", [
    ("DivergedError", 3, "diverged"), ("NoContractionError", 1, "check failed")])
def test_oracle_compare_reports_a_node_error_alike_from_either_process(
    tmp_path, capsys, monkeypatch, where, error, code, prefix
):
    import lansfrac.errors as errors

    met = []

    def fault():
        met.append(1)
        raise getattr(errors, error)("a planted fault")

    if where == "worker":
        _patch_picard_kernel(monkeypatch, lambda: None, fault)
    else:
        _patch_picard_kernel(monkeypatch, fault)
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", "0.004", "--out-dir", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == [f"{prefix}: a planted fault"]
    assert bool(met) == (where == "parent")  # the worker's list is its own copy
    assert not (out / "oracle.csv").exists()


def test_oracle_compare_issues_the_parents_picard_warnings_after_the_workers(tmp_path, monkeypatch):
    # The parent catches the warnings of its evaluations and issues them with
    # the worker's, after them, once the worker has replied.
    _patch_picard_kernel(
        monkeypatch,
        lambda: warnings.warn("a warning in the parent", RuntimeWarning),
        lambda: warnings.warn("a warning in the worker", RuntimeWarning),
    )
    cfg = write(tmp_path, SMALL_CFG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["oracle-compare", cfg, "--T", "0.004", "--out-dir", str(tmp_path / "out")]) == 0
    messages = [str(w.message) for w in caught]
    first = messages.index("a warning in the parent")
    assert "a warning in the worker" in messages[:first]
    assert set(messages[first:]) == {"a warning in the parent"}


def full_field_oracle_rows(config, T: float, u0=None) -> tuple[list[dict], list]:
    """Reference: oracle-compare's rows from a run that holds its whole snapshots.

    The same stepper and Picard solve as ``_cmd_oracle_compare``, with every
    norm ``norm_DAr`` of a whole field: the stepper's snapshot, and its
    difference from the whole Picard node. The solve runs in this process,
    seeded as the command seeds its worker: with each snapshot's band block
    and f of it. u0, when given, replaces the config's initial data. Returns
    the rows and the snapshots.
    """
    from lansfrac import mild
    from lansfrac.integrator import _steps, run
    from lansfrac.operators import band_plan, rhs_f_band
    from lansfrac.spectral import norm_DAr

    traj = run(dataclasses.replace(config, t_end=T, snapshot_every=1), initial_field=u0)
    n, _ = _steps(T, config.scheme.dt)
    m = -(-8 // n)
    u0 = traj.snapshots[0]
    plan = band_plan(config.grid, config.params.alpha)
    blocks = [plan.gather(u.coeffs) for u in traj.snapshots]
    seeds = [(b, rhs_f_band(config.grid, b, config.params).copy()) for b in blocks]
    oracle, _ = mild.picard_solve(u0, config.params, T, mesh_size=n * m, max_iter=10, seeds=seeds)
    rows = []
    for j, u in enumerate(traj.snapshots):
        t, w = oracle.times[j * m], oracle.snapshots[j * m]
        ref = norm_DAr(u, 1.0)
        rows.append({"t": float(t), "nDA_stepper": ref,
                     "rel_diff": norm_DAr(u - w, 1.0) / max(ref, 1e-30)})
    return rows, traj.snapshots


def assert_oracle_csv_matches(path: Path, rows: list[dict]) -> None:
    """oracle.csv against reference rows: the same t bytes, the norms within 1e-14 relative."""
    from lansfrac.io import emit_csv

    emit_csv(rows, path.with_name("reference.csv"))
    got = [line.split(",") for line in path.read_text().splitlines()]
    want = [line.split(",") for line in path.with_name("reference.csv").read_text().splitlines()]
    assert got[0] == want[0] == ["t", "nDA_stepper", "rel_diff"]
    assert [row[0] for row in got] == [row[0] for row in want]
    for mine, theirs in zip(got[1:], want[1:], strict=True):
        for a, b in zip(map(float, mine[1:]), map(float, theirs[1:])):
            assert abs(a - b) <= 1e-14 * abs(b), (a, b)


def oracle_compare_holding(monkeypatch, argv: list[str]) -> tuple[list, int]:
    """Run oracle-compare; return the (block, tail) pairs it held and the full fields it built
    after ``PicardWorker.result``.

    The held pairs are read off the first ``diagnostics.norm_DA`` call of each
    row, the stepper's norm.
    """
    from lansfrac import diagnostics, picard_fork
    from lansfrac.spectral import SpectralField

    norms, builds = [], []
    real_norm, real_result = diagnostics.norm_DA, picard_fork.PicardWorker.result
    from_coeffs = SpectralField.from_coeffs.__func__

    def norm_DA(u, tables, tail=None):
        if tail is not None:  # not Picard's increments, which carry no tail
            norms.append((u, tail[1]))
        return real_norm(u, tables, tail)

    def counted(cls, grid, coeffs):
        builds.append(1)
        return from_coeffs(cls, grid, coeffs)

    def result(self):
        answer = real_result(self)
        monkeypatch.setattr(SpectralField, "from_coeffs", classmethod(counted))
        return answer

    monkeypatch.setattr(diagnostics, "norm_DA", norm_DA)
    monkeypatch.setattr(picard_fork.PicardWorker, "result", result)
    assert main(argv) == 0
    return norms[0::2], len(builds)


def assert_held_whole(held: list, snapshots: list, plan, modes) -> None:
    """Each held pair keeps every bit of its snapshot's block and tail, and the snapshot
    is zero by value everywhere else."""
    assert len(held) == len(snapshots)
    for (block, tail), u in zip(held, snapshots):
        flat = u.coeffs.reshape(len(u.coeffs), -1)
        assert block.tobytes() == plan.gather(u.coeffs).tobytes()
        assert tail.tobytes() == flat[:, modes].tobytes()
        assert np.array_equal(plan.join(block, modes, tail), u.coeffs)


@pytest.mark.parametrize("init,band_limited", [
    ("random-spectrum", True), ("taylor-green", False),
    pytest.param("random-spectrum\nband = 15", False, id="random-spectrum-band15-False"),
])
def test_oracle_compare_rows_equal_a_held_run(tmp_path, monkeypatch, init, band_limited):
    # random-spectrum snapshots are +0.0 outside the band block; taylor-green
    # comes from physical samples, so its modes outside the block carry
    # rounding noise, and band = N/2 - 1 puts modes of the data there. The
    # CSV is the one the whole fields give, the hold keeps every bit of each
    # snapshot's block and tail, and the comparison builds no full field.
    from lansfrac.io import parse_config
    from lansfrac.operators import band_plan

    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3")
                .replace("random-spectrum", init))
    out = tmp_path / "out"
    held, builds = oracle_compare_holding(
        monkeypatch, ["oracle-compare", cfg, "--T", "0.02", "--out-dir", str(out)])
    config = parse_config(cfg)
    rows, snapshots = full_field_oracle_rows(config, 0.02)
    assert_oracle_csv_matches(out / "oracle.csv", rows)
    assert builds == 0

    plan = band_plan(config.grid, config.params.alpha)
    _, modes, tail = plan.split(snapshots[0].coeffs)
    assert (tail is None) == band_limited
    assert_held_whole(held, snapshots, plan, modes)


@pytest.mark.parametrize("T", ["0.02", "0.004"])  # 20 steps, m = 1; 4 steps, m = 2
def test_oracle_compares_a_faulty_stepper_with_the_fixed_point(tmp_path, capsys, monkeypatch, T):
    # A planted fault of the stepper, ETD2RK's w2 scaled by 20, seeds Picard
    # with faulty states and f's that fit them. The warm solve still ends at
    # the fixed point, within 1e-13 relative D(A) of a cold solve node by
    # node, so the comparison sees the fault and the command exits 1. (A
    # 1 + 1e-3 scale moves rel_diff by below 1e-8 on these data, inside the
    # stepper's own error.)
    import lansfrac.integrator as integrator
    from lansfrac import diagnostics, mild, picard_fork
    from lansfrac.io import parse_config

    real_weights, real_result, held = integrator._weights, picard_fork.PicardWorker.result, []

    def planted(*args):
        table = real_weights(*args)
        table[2] *= 20.0
        return table

    def result(self):
        held.append(real_result(self))
        return held[-1]

    monkeypatch.setattr(integrator, "_weights", planted)
    monkeypatch.setattr(picard_fork.PicardWorker, "result", result)
    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3")
                .replace("amplitude = 0.01", "amplitude = 1"))
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", T, "--out-dir", str(out)]) == 1
    worst = max(float(line.split(",")[2]) for line in (out / "oracle.csv").read_text().splitlines()[1:])
    assert worst > 1e-5
    assert f"sup rel diff {worst:.3e}" in capsys.readouterr().out

    config = parse_config(cfg)
    (warm, _), = held
    u0, p = make_initial(config.initial, config.grid, config.params), config.params
    cold, _ = mild.picard_solve(u0, p, float(T), mesh_size=len(warm.times) - 1, max_iter=10)
    assert cold.times.tobytes() == warm.times.tobytes()
    tables = diagnostics.audit_tables(config.grid, p.alpha, p.s)
    for i in range(len(cold.times)):
        a, b = warm.snapshots.split(i)[0], cold.snapshots.split(i)[0]
        assert diagnostics.norm_DA(a - b, tables) <= 1e-13 * diagnostics.norm_DA(b, tables)


def test_oracle_compare_of_the_benchmark_problem_takes_three_sweeps(tmp_path, capsys):
    # oracle2d-n128 over 60 steps: warm-started from the stepper, the solve
    # converges in 3 sweeps, where a cold start takes 5
    cfg = write(tmp_path, ORACLE_2D_N128_CFG)
    assert main(["oracle-compare", cfg, "--T", "0.06", "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.rstrip().endswith(", 3 Picard sweeps")


def test_oracle_compare_starts_picard_from_the_galerkin_cut_start(tmp_path):
    # run cuts its start at galerkin_N, and Picard starts from that cut field:
    # band = 15 puts modes of the data above galerkin_N = 12, itself above the
    # band limit 10 of N = 32
    from lansfrac.integrator import galerkin_truncate
    from lansfrac.io import parse_config

    text = SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3") + "band = 15\ngalerkin_N = 12\n"
    cfg = write(tmp_path, text)
    config = parse_config(cfg)
    u0 = make_initial(config.initial, config.grid, config.params)
    assert not np.array_equal(galerkin_truncate(u0, 12).coeffs, u0.coeffs)
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", "0.02", "--out-dir", str(out)]) == 0
    rows, _ = full_field_oracle_rows(config, 0.02)
    assert_oracle_csv_matches(out / "oracle.csv", rows)


@pytest.mark.parametrize("dim,s,galerkin_n,band_limit", [(2, 0.5, 2, 5), (3, 0.75, 4, 5)])
def test_oracle_compare_refuses_a_galerkin_cutoff_below_the_band_limit(
    tmp_path, capsys, dim, s, galerkin_n, band_limit
):
    # The stepper cuts the modes above galerkin_N at every step and Picard cuts
    # none, so below the band limit the two solve different equations. The
    # config is refused before the out dir is made.
    text = (SMALL_CFG.replace("dim = 2", f"dim = {dim}").replace("N = 32", "N = 16")
            .replace("s = 0.5", f"s = {s}").replace("dt = 2e-3", "dt = 1e-3")
            + f"galerkin_N = {galerkin_n}\n")
    out = tmp_path / "out"
    argv = ["oracle-compare", write(tmp_path, text), "--T", "0.004", "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: oracle-compare needs galerkin_N >= the band limit {band_limit}, got "
        f"galerkin_N = {galerkin_n}: the stepper would cut modes that Picard keeps"
    ]
    assert not out.exists()


@pytest.mark.parametrize("value", [-0.0, 1e-300, -1e-300])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_a_snapshot_with_anything_but_plus_zero_outside_the_band_is_held_whole(
    tmp_path, monkeypatch, value, part
):
    # A mode outside the band block, k = (0, b + 2), of u's first component
    # (which keeps u solenoidal) carries value. A non-zero value is one of
    # the start's tail modes, held in every snapshot's tail; -0.0 is zero by
    # value and is not.
    from lansfrac import cli
    from lansfrac.io import parse_config
    from lansfrac.operators import band_plan
    from lansfrac.spectral import SpectralField

    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3"))
    config = parse_config(cfg)
    grid = config.grid
    coeffs = make_initial(config.initial, grid).coeffs.copy()
    mode = coeffs[0, 0, grid.band_limit + 2 : grid.band_limit + 3]
    assert mode == 0.0
    getattr(mode, part)[...] = value
    u0 = SpectralField.from_coeffs(grid, coeffs)
    monkeypatch.setattr(cli, "make_initial", lambda *args: u0)
    out = tmp_path / "out"
    held, _ = oracle_compare_holding(
        monkeypatch, ["oracle-compare", cfg, "--T", "0.004", "--out-dir", str(out)])
    rows, snapshots = full_field_oracle_rows(config, 0.004, u0)
    assert_oracle_csv_matches(out / "oracle.csv", rows)

    plan = band_plan(grid, config.params.alpha)
    _, modes, _ = plan.split(u0.coeffs)
    assert list(modes) == ([] if value == 0.0 else [grid.band_limit + 2])
    assert_held_whole(held, snapshots, plan, modes)


def test_oracle_compare_holds_band_blocks(tmp_path):
    # From 4 to 8 steps the Picard mesh stays at 8 intervals (m = 2, then
    # 1), so the peak grows by the 4 added stepper snapshots alone. Each is
    # held as its band block, a share of one field; a whole field per
    # snapshot would add 1.
    from lansfrac.operators import band_plan
    from lansfrac.spectral import make_grid

    cfg = write(tmp_path, SMALL_CFG.replace("N = 32", "N = 64").replace("dt = 2e-3", "dt = 1e-3"))

    def peak(T: str) -> int:
        tracemalloc.start()
        try:
            assert main(["oracle-compare", cfg, "--T", T, "--out-dir", str(tmp_path / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("0.004")  # warm the grid, kernel and propagator caches
    grid = make_grid(2, 64)
    share = np.prod(band_plan(grid, 0.5).block_shape) / np.prod(grid.spectral_shape)
    field = 16 * grid.dim * np.prod(grid.spectral_shape)
    per_snapshot = (peak("0.008") - peak("0.004")) / 4 / field
    assert per_snapshot <= share + 0.1, (per_snapshot, share)


def test_holder_subcommand(tmp_path):
    cfg = write(tmp_path, SMALL_CFG.replace("t_end = 0.05", "t_end = 1"))
    out = tmp_path / "out"
    assert main(["holder", cfg, "--beta", "0.25", "--out-dir", str(out)]) == 0
    assert (out / "holder.csv").exists()


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("holder", "--beta", "0.7"),
        ("holder", "--beta", "0.5"),
        ("holder", "--beta", "0"),
        ("holder", "--beta", "nan"),
        ("holder", "--beta", "one"),
        ("verify-energy", "--tol", "nan"),
        ("verify-energy", "--tol", "-1e-6"),
        ("oracle-compare", "--tol", "nan"),
        ("oracle-compare", "--tol", "inf"),
        ("smoothing", "--r", "nan"),
        ("smoothing", "--r", "-inf"),
        ("smoothing", "--tol", "-0.1"),
        ("simulate", "--seed", "-1"),
        ("ops-test", "--seed", "-1"),
        ("ops-test", "--fields", "0"),
        ("ops-test", "--fields", "-2"),
    ],
)
def test_bad_flag_values_exit_two(tmp_path, capsys, command, flag, value):
    cfg = write(tmp_path, SMALL_CFG)
    required = REQUIRED_FLAGS.get(command, [])
    if flag in required:
        required = []
    if command != "ops-test":  # the one command that writes no output
        required = ["--out-dir", str(tmp_path / "out"), *required]
    argv = [command, cfg, *required, f"{flag}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command", ["simulate", "verify-energy", "smoothing", "oracle-compare", "holder"]
)
@pytest.mark.parametrize("below", [False, True])
def test_an_out_dir_that_cannot_be_made_exits_two(tmp_path, capsys, command, below):
    # --out-dir names an existing file, or a path below one
    cfg = write(tmp_path, SMALL_CFG)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if below else blocker
    assert main([command, cfg, "--out-dir", str(out), *REQUIRED_FLAGS.get(command, [])]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(out) in err[0]
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv,name", [
    (["simulate"], "diagnostics.csv"),
    (["oracle-compare", "--T", "0.004"], "oracle.csv"),
    (["verify-energy"], "manifest.json"),
])
def test_an_output_that_cannot_be_written_exits_two(tmp_path, capsys, argv, name):
    # A directory stands at the output's path. One error line names the
    # path and the directory stays. The manifest records the error where it
    # can still be written, and no temporary file is left.
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    (out / name / "kept").mkdir(parents=True)
    assert main([argv[0], cfg, "--out-dir", str(out), *argv[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    message = f"cannot write {str(out / name)!r}: {os.strerror(errno.EISDIR)}"
    assert err == [f"error: {message}"]
    assert (out / name / "kept").is_dir()
    if name != "manifest.json":
        status = json.loads((out / "manifest.json").read_text())["status"]
        assert status == {"state": "error", "message": message}
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]


def test_an_output_over_the_file_size_limit_exits_two(tmp_path):
    # The command runs in a child process that ignores SIGXFSZ and may write
    # files of up to 4 KiB, so its first snapshot (17,456 bytes) fails.
    code = (
        "import resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n"
        "from lansfrac.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-c", code, "simulate", write(tmp_path, SMALL_CFG), "--out-dir", str(out)],
        env=_package_env(), capture_output=True, text=True, timeout=300,
    )
    message = f"cannot write {str(out / 'snapshot_000000.flns')!r}: {os.strerror(errno.EFBIG)}"
    assert run.returncode == 2
    assert run.stderr.splitlines() == [f"error: {message}"]
    # the manifest fits under the limit, and it is the only file left
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == {"state": "error", "message": message}
    assert manifest["outputs"] == []


@pytest.mark.parametrize(
    "command,edits",
    [
        ("verify-energy", {"t_end = 0.05": "t_end = 0"}),  # no step, one record
        # the fit window [2 dt, 0.1] holds one step time: 4e-3 (steps end at
        # 2e-3 and 4e-3), and 0.1 (steps end at 0.05, 0.1, 0.15 and 0.2)
        ("smoothing", {"t_end = 0.05": "t_end = 0.004"}),
        ("smoothing", {"dt = 2e-3": "dt = 0.05", "t_end = 0.05": "t_end = 0.2"}),
    ],
)
def test_a_run_too_short_for_its_check_exits_two(tmp_path, capsys, command, edits):
    # the step count shows it before the run: one error line, no output
    text = SMALL_CFG
    for old, new in edits.items():
        text = text.replace(old, new)
    out = tmp_path / "out"
    assert main([command, write(tmp_path, text), "--out-dir", str(out),
                 *REQUIRED_FLAGS.get(command, [])]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("r", ["200", "1e10"])
def test_smoothing_refuses_an_r_whose_weight_overflows(tmp_path, capsys, r):
    # The fit weighs each mode by |k|^{4(1+r)}, which overflows float64 at
    # N = 32's largest |k|^2 = 512 once r > 55.88 (r = 55.8 still runs).
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["smoothing", write(tmp_path, SMALL_CFG), "--out-dir", str(out),
                     "--r", r]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: smoothing --r {float(r):g}:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-energy", "smoothing"])
def test_long_run_commands_hold_no_snapshots(tmp_path, command):
    # verify-energy reads only the diagnostics records, and smoothing no
    # snapshot after its fit window ends (t = 0.1), so from t_end 0.2 to 1.0
    # the peak may grow by the 80 extra records alone, under one field (the
    # energy identity of dt = 1e-2 holds to 1.4e-6, so its --tol is widened)
    extra = ["--r", "0.375"] if command == "smoothing" else ["--tol", "1e-4"]

    def peak(t_end: float) -> int:
        text = (
            SMALL_CFG.replace("N = 32", "N = 64")
            .replace("s = 0.5", "s = 0.75")
            .replace("nu = 0.5", "nu = 0.1")
            .replace("dt = 2e-3", "dt = 1e-2")
            .replace("amplitude = 0.01", "amplitude = 0.5")
            .replace("t_end = 0.05", f"t_end = {t_end}")
        )
        cfg = write(tmp_path, text, name=f"t{t_end}.cfg")
        tracemalloc.start()
        try:
            assert main([command, cfg, "--out-dir", str(tmp_path / "out"), *extra]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.2)  # warm the grid, kernel and propagator caches
    field_bytes = 2 * 64 * 33 * 16
    growth = peak(1.0) - peak(0.2)
    assert growth < field_bytes, growth / field_bytes


_PEAK_AT_EXIT = """
import sys
from lansfrac.cli import main
code = main(sys.argv[1:])
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
print(code, int(status["VmHWM"].split()[0]))
"""


@pytest.mark.skipif(platform.system() != "Linux", reason="reads VmHWM from /proc")
def test_smoothing_peaks_within_3_mib_of_verify_energy(tmp_path):
    # smoothing keeps one norm of each snapshot in its fit window, no field,
    # so its peak is that of a command that reads only the records; it held
    # the 100 fields with t <= 0.1 once, 27 MiB at 2D N=128. Each command runs
    # in its own process, whose VmHWM starts afresh at exec.
    text = (SMALL_CFG.replace("N = 32", "N = 128").replace("s = 0.5", "s = 0.75")
            .replace("nu = 0.5", "nu = 0.1").replace("dt = 2e-3", "dt = 1e-3")
            .replace("t_end = 0.05", "t_end = 0.12").replace("amplitude = 0.01", "amplitude = 1")
            .replace("seed = 11", "seed = 0"))
    cfg = write(tmp_path, text)

    def peak_kib(*argv: str) -> int:
        out = subprocess.run(
            [sys.executable, "-c", _PEAK_AT_EXIT, *argv, cfg, "--out-dir", str(tmp_path / argv[0])],
            env=_package_env(), capture_output=True, text=True, timeout=300, check=True,
        )
        code, peak = out.stdout.splitlines()[-1].split()
        assert code == "0"
        return int(peak)

    assert peak_kib("smoothing", "--r", "0.375") - peak_kib("verify-energy") <= 3 * 1024


def test_holder_wrong_regime(tmp_path):
    cfg = write(tmp_path, SMALL_CFG.replace("s = 0.5", "s = 0.75"))
    assert main(["holder", cfg, "--beta", "0.25"]) == 2


def test_diverged_exit_code(tmp_path):
    cfg = write(
        tmp_path,
        SMALL_CFG.replace("amplitude = 0.01", "amplitude = 1e5")
        .replace("nu = 0.5", "nu = 1e-4")
        .replace("dt = 2e-3", "dt = 0.5")
        .replace("t_end = 0.05", "t_end = 20"),
    )
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 3


def test_a_diverged_simulate_leaves_its_diagnostics(tmp_path, capsys):
    # the records run made, through the failing step's state, reach the CSV;
    # the exit code and the one stderr line stay those of a divergence (the
    # manifest: test_a_diverged_command_writes_its_manifest)
    text = SMALL_CFG.replace("amplitude = 0.01", "amplitude = 1e308")
    out = tmp_path / "out"
    assert main(["simulate", write(tmp_path, text), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == ["diverged: field invariant broken at step 1"]
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert rows[0].split(",") == [f.name for f in dataclasses.fields(DiagRecord)]
    assert [float(row.split(",")[0]) for row in rows[1:]] == [0.0, 2e-3]  # t of steps 0 and 1


@pytest.mark.parametrize("command", [
    ["simulate"], ["verify-energy"], ["smoothing", "--r", "0.5"], ["oracle-compare", "--T", "0.004"],
], ids=lambda command: command[0])
def test_a_diverged_command_writes_its_manifest(tmp_path, capsys, command):
    # the manifest has the step and t of the divergence and lists exactly the
    # files the command wrote: simulate's snapshot and records, nothing else
    text = SMALL_CFG.replace("N = 32", "N = 16").replace("amplitude = 0.01", "amplitude = 1e308")
    out = tmp_path / "out"
    assert main([command[0], write(tmp_path, text), *command[1:], "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == ["diverged: field invariant broken at step 1"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == {"state": "diverged", "step": 1, "t": 2e-3}
    listed = {entry["path"]: entry for entry in manifest["outputs"]}
    assert set(listed) | {"manifest.json"} == {path.name for path in out.iterdir()}
    wrote = {"snapshot_000000.flns", "diagnostics.csv"} if command[0] == "simulate" else set()
    assert set(listed) == wrote
    for name, entry in listed.items():
        data = (out / name).read_bytes()
        assert (entry["sha256"], entry["bytes"]) == (hashlib.sha256(data).hexdigest(), len(data))


@pytest.mark.parametrize("amplitude", ["1e308", "1e150"])
def test_overflowing_run_exits_three_with_one_line(tmp_path, amplitude):
    # The first step overflows. numpy warns about none of it: the audit of
    # that step's state is what reports the fault. With 1e150 the record's
    # nDA^3 overflowed in Python float arithmetic and ended in a traceback.
    text = SMALL_CFG.replace("N = 32", "N = 16")
    cfg = write(tmp_path, text.replace("amplitude = 0.01", f"amplitude = {amplitude}"))
    out = subprocess.run(
        [sys.executable, "-m", "lansfrac.cli", "simulate", cfg, "--out-dir", str(tmp_path / "out")],
        env=_package_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 3
    assert out.stderr.splitlines() == ["diverged: field invariant broken at step 1"]


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, SMALL_CFG)
    hashes = []
    for name, seed in (("s11", "11"), ("s12", "12")):
        out = tmp_path / name
        assert main(["simulate", cfg, "--out-dir", str(out), "--seed", seed]) == 0
        hashes.append(sha256_of(out / "diagnostics.csv"))
    assert hashes[0] != hashes[1]


def test_manifest_records_the_environment(tmp_path):
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    assert manifest["status"] == {"state": "ok"}


def test_manifest_echoes_regime(tmp_path):
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["regime"] == "global"


@pytest.mark.parametrize(
    "key,value",
    [("nu", "nan"), ("dt", "nan"), ("t_end", "inf"), ("alpha", "inf"),
     ("amplitude", "nan"), ("s", "-inf"), ("decay_exponent", "inf"),
     ("seed", "-1"), ("band", "16")],
)
def test_simulate_rejects_non_finite_values(tmp_path, capsys, key, value):
    text = "\n".join(
        line for line in SMALL_CFG.splitlines() if not line.startswith(f"{key} =")
    )
    cfg = write(tmp_path, f"{text}\n{key} = {value}\n")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad value for '{key}'") and err.count("\n") == 1


def test_simulate_rejects_step_count_float64_cannot_index(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_CFG.replace("t_end = 0.05", "t_end = 1e300"))
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "t_end" in capsys.readouterr().err


def test_oracle_compare_over_less_than_one_step_exits_two(tmp_path, capsys):
    # --T 1e-12 passes the multiple-of-dt check (it is within 1e-9 dt of
    # zero steps), and the Picard mesh cannot refine zero steps
    out = tmp_path / "out"
    assert main(["oracle-compare", write(tmp_path, SMALL_CFG), "--T", "1e-12",
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: oracle-compare needs at least one step of dt = 0.002, got --T 1e-12"]
    assert not out.exists()


def test_oracle_compare_rejects_horizon_float64_cannot_step(tmp_path, capsys):
    text = SMALL_CFG.replace("t_end = 0.05", "t_end = 0").replace("dt = 2e-3", "dt = 1e-300")
    cfg = write(tmp_path, text)
    assert main(["oracle-compare", cfg, "--T", "0.1", "--out-dir", str(tmp_path / "out")]) == 2
    assert "2**53" in capsys.readouterr().err


def test_config_file_not_utf8_exits_two(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(SMALL_CFG.encode() + b"# caf\xe9\n")
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_config_path_is_a_directory_exits_two(tmp_path, capsys):
    assert main(["simulate", str(tmp_path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "directory" in capsys.readouterr().err


def _first_snapshot(tmp_path, text):
    out = tmp_path / "first"
    assert main(["simulate", write(tmp_path, text, "first.cfg"), "--out-dir", str(out)]) == 0
    return out / "snapshot_000000.flns"


def test_restart_from_snapshot_with_other_alpha(tmp_path, capsys):
    snap = _first_snapshot(tmp_path, SMALL_CFG.replace("alpha = 0.5", "alpha = 0.9"))
    restart = SMALL_CFG.replace("init = random-spectrum", f"init = snapshot:{snap}")
    cfg = write(tmp_path, restart, "restart.cfg")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "alpha" in capsys.readouterr().err
    cfg = write(tmp_path, restart.replace("alpha = 0.5", "alpha = 0.9"), "same.cfg")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "same")]) == 0


def test_snapshot_path_is_a_directory_exits_two(tmp_path, capsys):
    restart = SMALL_CFG.replace("init = random-spectrum", f"init = snapshot:{tmp_path}")
    cfg = write(tmp_path, restart, "restart.cfg")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: snapshot {tmp_path} is a directory, not a file\n"


@pytest.mark.parametrize(
    "what,name,reason",
    [("config", "file/x.cfg", "Not a directory"), ("snapshot", "file/x", "Not a directory"),
     ("snapshot", "a\0b", "embedded null byte")],
)
def test_an_unreadable_input_path_exits_two(tmp_path, capsys, what, name, reason):
    # a path below a file, or with a NUL byte: one error line, no traceback
    (tmp_path / "file").write_text("not a directory\n")
    path = f"{tmp_path}/{name}"
    cfg = path
    if what == "snapshot":
        restart = SMALL_CFG.replace("init = random-spectrum", f"init = snapshot:{path}")
        cfg = write(tmp_path, restart)
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: cannot read {what} {path!r}: {reason}\n"


def test_a_random_field_that_overflows_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_CFG + "decay_exponent = -1000\n")
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: decay_exponent = -1000.0 ") and err.count("\n") == 1
    assert not list(out.glob("*.flns"))


def test_restart_from_a_snapshot_with_a_mean_exits_two(tmp_path, capsys):
    # the reader rejects the payload: one error line, no diverged run, no output
    from lansfrac.io import read_snapshot, write_snapshot

    snap = _first_snapshot(tmp_path, SMALL_CFG)
    field, meta = read_snapshot(snap)
    coeffs = np.array(field.coeffs)
    coeffs[0, 0, 0] = 1e-3
    write_snapshot(field.copy_with(coeffs), meta, snap)
    restart = SMALL_CFG.replace("init = random-spectrum", f"init = snapshot:{snap}")
    out = tmp_path / "out"
    assert main(["simulate", write(tmp_path, restart, "restart.cfg"), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {snap}: field carries a mean (is not mean-free)\n"
    assert not list(out.iterdir())


def test_restart_from_a_format_v1_snapshot_exits_two(tmp_path, capsys):
    # format v1 (the full spectrum) is no longer read; README says how to convert it
    snap = Path(__file__).parent / "data" / "v1_2d_n8.flns"
    restart = SMALL_CFG.replace("N = 32", "N = 8").replace("nu = 0.5", "nu = 0.1")
    restart = restart.replace("init = random-spectrum", f"init = snapshot:{snap}")
    out = tmp_path / "out"
    assert main(["simulate", write(tmp_path, restart, "restart.cfg"), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {snap}: format version 1 != 2\n"
    assert not list(out.iterdir())


def test_restart_from_snapshot_on_other_grid(tmp_path):
    snap = _first_snapshot(tmp_path, SMALL_CFG)
    restart = SMALL_CFG.replace("init = random-spectrum", f"init = snapshot:{snap}")
    cfg = write(tmp_path, restart.replace("N = 32", "N = 16"), "restart.cfg")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "dim,n,init,extra",
    [
        (2, 32, "taylor-green", ""),  # rounding dust on the tail modes
        (3, 16, "taylor-green", ""),
        (2, 32, "random-spectrum", "band = 15\n"),  # band N/2 - 1: data on the tail
        (2, 32, "random-spectrum", "band = 15\ngalerkin_N = 9\n"),
        (3, 16, "random-spectrum", ""),
    ],
)
def test_a_restart_continues_the_run_bit_for_bit(tmp_path, dim, n, init, extra):
    # A run to t = 0.02 with a snapshot every 5 steps, and a restart from its
    # snapshot 2 (t = 0.01) to t_end = 0.01. The restart's three snapshots
    # hold the payload bytes of snapshots 2-4, and its records equal rows
    # 10-20 in every column but t, which starts again at 0.
    base = (f"dim = {dim}\nN = {n}\nalpha = 0.5\nnu = 0.1\ns = {dim / 4}\ndt = 1e-3\n"
            f"snapshot_every = 5\n{extra}")
    full, again = tmp_path / "full", tmp_path / "again"
    cfg = write(tmp_path, f"{base}t_end = 0.02\ninit = {init}\n")
    assert main(["simulate", cfg, "--out-dir", str(full)]) == 0
    snap = full / "snapshot_000002.flns"
    cfg = write(tmp_path, f"{base}t_end = 0.01\ninit = snapshot:{snap}\n", "restart.cfg")
    assert main(["simulate", cfg, "--out-dir", str(again)]) == 0

    header = 48  # the snapshot header's bytes, which hold t
    assert len(list(full.glob("*.flns"))) == 5 and len(list(again.glob("*.flns"))) == 3
    for k in range(3):
        before = (full / f"snapshot_{k + 2:06d}.flns").read_bytes()
        assert (again / f"snapshot_{k:06d}.flns").read_bytes()[header:] == before[header:]
    rows = [line.split(",") for line in (full / "diagnostics.csv").read_text().splitlines()]
    later = [line.split(",") for line in (again / "diagnostics.csv").read_text().splitlines()]
    t = rows[0].index("t")
    assert later[0] == rows[0] and len(rows) == 22 and len(later) == 12
    for row, restarted in zip(rows[11:], later[1:]):
        assert row[:t] + row[t + 1:] == restarted[:t] + restarted[t + 1:]


# Random config text: a valid config in which lines for its keys take the
# place of its own lines for them, followed by lines for keys it lacks and
# junk lines, each key on one line at most (test_io covers a repeated key).
# Nine values in ten are in range for their key, so that about half of the
# configs are accepted; the others are numbers, non-finite spellings or
# junk. One line in ten is junk. N takes only small or malformed values, so
# a config that parses never builds a large grid.
_JUNK = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r="),
                max_size=12)
_ANY = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 40).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "2", "3", "0.75", "1e-3",
                     "shear", "random", "taylor-green", "snapshot:", "exp-euler"]),
    _JUNK,
)


def _mostly(valid, other, odds: int = 10):
    """valid, except one draw in odds, which is other."""
    return st.integers(1, odds).flatmap(lambda i: other if i == 1 else valid)


def _floats(lo: float, hi: float):
    return st.floats(lo, hi).map(repr)


# Values in range on their own and together: s >= 3/4 is in the global
# range of both dims, and band and galerkin_N fit N = 8.
_IN_RANGE = {
    "dim": st.sampled_from(["2", "3"]),
    "N": st.sampled_from(["8", "16"]),
    "alpha": _floats(0.0, 2.0),
    "nu": _floats(1e-3, 2.0),
    "s": _floats(0.75, 0.99),
    "dt": _floats(1e-4, 0.1),
    "t_end": _floats(0.0, 1.0),
    "init": st.sampled_from(["shear", "random", "random-spectrum", "taylor-green"]),
    "scheme": st.sampled_from(["etd2rk", "exp-euler", "ETD2RK"]),
    "galerkin_N": st.integers(1, 4).map(str),
    "snapshot_every": st.integers(1, 50).map(str),
    "amplitude": _floats(-10.0, 10.0),
    "seed": st.integers(0, 2**32).map(str),
    "decay_exponent": _floats(0.0, 5.0),
    "band": st.integers(1, 3).map(str),
    "out_dir": _JUNK,
}
_OUT_OF_RANGE = {"N": st.sampled_from(["7", "0", "-8", "1e2", "nan", ""])}
_LINE = _mostly(
    st.sampled_from(sorted(_IN_RANGE)).flatmap(
        lambda key: _mostly(_IN_RANGE[key], _OUT_OF_RANGE.get(key, _ANY)).map(
            lambda value: f"{key} = {value}")),
    _JUNK,
)


def _overridden(lines: list[str]) -> str:
    """SMALL_CFG with each line that sets one of its keys in place of that key's line,
    and the other lines after it."""
    base = SMALL_CFG.strip().splitlines()
    keys = [line.split("=")[0].strip() for line in base]
    rest = []
    for line in lines:
        key = line.split("=", 1)[0].strip()
        if "=" in line and key in keys:
            base[keys.index(key)] = line
        else:
            rest.append(line)
    return "\n".join(base + rest) + "\n"


def _one_step_trajectory(config, **_kwargs):
    make_initial(config.initial, config.grid, config.params)  # its errors are bad input too
    record = DiagRecord(t=0.0, E0=0.0, E1=0.0, D=0.0, nDA=0.0, n1ps2=0.0, cancel=0.0)
    return Trajectory(times=np.array([0.0]), snapshots=[], diag=[record])


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_LINE, max_size=20, unique_by=lambda line: line.split("=")[0].strip()))
def test_random_config_text_exits_zero_or_two(lines):
    # only the config handling and the initial data are under test: the time
    # loop is replaced by a one-record trajectory, so an accepted config costs
    # no solve
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(_overridden(lines), encoding="utf-8")
        with mock.patch("lansfrac.cli.run", _one_step_trajectory):
            code = main(["simulate", str(cfg), "--out-dir", str(Path(tmp) / "out")])
    event(f"exit code {code}")  # --hypothesis-show-statistics counts the accepted examples
    assert code in (0, 2)
