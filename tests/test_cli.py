"""Command-line surface: exit codes, file outputs, determinism."""

import json
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lansfrac import DiagRecord, Trajectory
from lansfrac.cli import main
from lansfrac.io import sha256_file

from conftest import nan_at_last_picard_node

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


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_unknown_subcommand_usage_exit(capsys):
    assert main(["frobnicate"]) == 2


def _package_env() -> dict[str, str]:
    import lansfrac

    return {"PYTHONPATH": str(Path(lansfrac.__file__).parents[1]), "PATH": ""}


def test_import_loads_no_scipy():
    code = "import sys, lansfrac.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# Runs the CLI with the nonlinear kernel's Leray projection replaced by the
# identity, so every f(u, u) keeps the gradient part of the product.
_CORRUPT_KERNEL = """\
import sys

import numpy as np

from lansfrac import cli, operators

operators._KernelWorkspace.project = lambda self, a, out: np.copyto(out, a) or out
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "flags,command",
    [
        ([], ["simulate"]),
        (["-O"], ["oracle-compare", "--T", "0.1"]),
        (["-O"], ["holder", "--beta", "0.25"]),  # runs Picard alone, no stepper
    ],
)
def test_corrupted_kernel_exits_three_with_one_line(tmp_path, flags, command):
    # the post-condition of f is an explicit check: it reports a broken
    # kernel as a divergence (exit 3, no traceback), also under python -O
    driver = tmp_path / "corrupt.py"
    driver.write_text(_CORRUPT_KERNEL)
    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3"))
    argv = [command[0], cfg, *command[1:], "--out-dir", str(tmp_path / "out")]
    out = subprocess.run(
        [sys.executable, *flags, str(driver), *argv],
        env=_package_env(), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 3
    assert out.stderr.splitlines() == ["diverged: the nonlinearity f(u, u) is not solenoidal"]


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
    for entry in manifest["outputs"]:
        assert sha256_file(out / entry["path"]) == entry["sha256"]


def test_simulate_determinism(tmp_path):
    cfg = write(tmp_path, SMALL_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        outs.append(sha256_file(out / "diagnostics.csv"))
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
    # a nan in the last row must not be dropped by the sup over the rows
    import lansfrac.mild as mild

    real = mild.picard_solve

    def picard_with_nan_end(*args, **kwargs):
        traj, state = real(*args, **kwargs)
        *head, last = traj.snapshots
        nodes = head + [last.copy_with(np.full_like(last.coeffs, np.nan))]
        return Trajectory(times=traj.times, snapshots=nodes, diag=[]), state

    monkeypatch.setattr(mild, "picard_solve", picard_with_nan_end)
    cfg = write(tmp_path, SMALL_CFG.replace("dt = 2e-3", "dt = 1e-3"))
    out = tmp_path / "out"
    assert main(["oracle-compare", cfg, "--T", "0.02", "--out-dir", str(out)]) == 1
    assert "sup rel diff nan" in capsys.readouterr().out
    assert (out / "oracle.csv").read_text().splitlines()[-1].endswith(",nan")


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
    ],
)
def test_bad_flag_values_exit_two(tmp_path, capsys, command, flag, value):
    cfg = write(tmp_path, SMALL_CFG)
    required = {"holder": ["--beta", "0.25"], "oracle-compare": ["--T", "0.004"],
                "smoothing": ["--r", "0.375"]}.get(command, [])
    if flag in required:
        required = []
    argv = [command, cfg, "--out-dir", str(tmp_path / "out"), *required, f"{flag}={value}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, SMALL_CFG)
    hashes = []
    for name, seed in (("s11", "11"), ("s12", "12")):
        out = tmp_path / name
        assert main(["simulate", cfg, "--out-dir", str(out), "--seed", seed]) == 0
        hashes.append(sha256_file(out / "diagnostics.csv"))
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


def test_manifest_echoes_regime(tmp_path):
    cfg = write(tmp_path, SMALL_CFG)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["regime"] == "global"


@pytest.mark.parametrize(
    "key,value",
    [("nu", "nan"), ("dt", "nan"), ("t_end", "inf"), ("alpha", "inf"),
     ("amplitude", "nan"), ("s", "-inf"), ("decay_exponent", "inf")],
)
def test_simulate_rejects_non_finite_values(tmp_path, capsys, key, value):
    text = "\n".join(
        line for line in SMALL_CFG.splitlines() if not line.startswith(f"{key} =")
    )
    cfg = write(tmp_path, f"{text}\n{key} = {value}\n")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_simulate_rejects_step_count_float64_cannot_index(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_CFG.replace("t_end = 0.05", "t_end = 1e300"))
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "t_end" in capsys.readouterr().err


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


def test_restart_from_snapshot_on_other_grid(tmp_path):
    snap = _first_snapshot(tmp_path, SMALL_CFG)
    restart = SMALL_CFG.replace("init = random-spectrum", f"init = snapshot:{snap}")
    cfg = write(tmp_path, restart.replace("N = 32", "N = 16"), "restart.cfg")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2


# Random config text: a valid config followed by lines that override its keys
# with numbers, non-finite spellings or junk, and by junk lines. N takes only
# small or malformed values, so a config that parses never builds a large grid.
_KEYS = ("dim", "alpha", "nu", "s", "dt", "t_end", "init", "scheme", "galerkin_N",
         "snapshot_every", "amplitude", "seed", "decay_exponent", "band", "out_dir")
_JUNK = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r="),
                max_size=12)
_VALUE = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 40).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "2", "3", "0.75", "1e-3",
                     "shear", "random", "taylor-green", "snapshot:", "exp-euler"]),
    _JUNK,
)
_LINE = st.one_of(
    st.tuples(st.sampled_from(_KEYS), _VALUE).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["8", "16", "7", "0", "-8", "1e2", "nan", ""]).map(lambda v: f"N = {v}"),
    _JUNK,
)


def _one_step_trajectory(config, **_kwargs):
    record = DiagRecord(t=0.0, E0=0.0, E1=0.0, D=0.0, nDA=0.0, n1ps2=0.0, cancel=0.0)
    return Trajectory(times=np.array([0.0]), snapshots=[], diag=[record])


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_LINE, max_size=20))
def test_random_config_text_exits_zero_or_two(lines):
    # only the config handling is under test: the time loop is replaced by a
    # one-record trajectory, so an accepted config costs no solve
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(SMALL_CFG + "\n".join(lines) + "\n", encoding="utf-8")
        with mock.patch("lansfrac.cli.run", _one_step_trajectory):
            code = main(["simulate", str(cfg), "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 2)
