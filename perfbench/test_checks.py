"""Each output check of the benchmark fails on a planted broken output.

    python3 -m pytest perfbench -q
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from layers import REMAINDER, Tracer  # noqa: E402
from lansfrac.cli import main  # noqa: E402
from lansfrac.io import read_snapshot, write_snapshot  # noqa: E402
from lansfrac.spectral import SpectralField, to_physical, to_spectral  # noqa: E402

NU = 0.1
STEPS = 10
CFG = f"""
dim = 2
N = 16
alpha = 0.5
nu = {NU}
s = 0.5
dt = 1e-3
t_end = {STEPS * 1e-3!r}
init = random-spectrum
amplitude = 0.5
seed = 3
"""


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    base = tmp_path_factory.mktemp("pristine")
    cfg = base / "run.cfg"
    cfg.write_text(CFG)
    assert main(["simulate", str(cfg), "--out-dir", str(base / "sim")]) == 0
    assert main(["oracle-compare", str(cfg), "--out-dir", str(base / "oracle"),
                 "--T", "0.01"]) == 0
    return base


@pytest.fixture
def sim(pristine, tmp_path):
    return Path(shutil.copytree(pristine / "sim", tmp_path / "sim"))


@pytest.fixture
def oracle(pristine, tmp_path):
    return Path(shutil.copytree(pristine / "oracle", tmp_path / "oracle"))


def edit_csv(path: Path, row: int, column: str, change) -> None:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def replant(path: Path, change) -> None:
    """Rewrite a snapshot with its physical samples changed by change(u, x)."""
    field, meta = read_snapshot(path)
    grid = field.grid
    write_snapshot(to_spectral(change(to_physical(field), grid.x), grid), meta, path)


def test_untouched_outputs_pass(sim, oracle):
    assert checks.check_simulate(sim, NU, STEPS + 1) == []
    assert checks.check_oracle(oracle, expected_rows=11) == []


def test_perturbed_energy_row_fails(sim):
    edit_csv(sim / "diagnostics.csv", 5, "E1", lambda v: v * (1 + 1e-5))
    assert any("energy identity" in p for p in checks.check_simulate(sim, NU, STEPS + 1))


def test_growing_e1_fails_within_identity_tolerance():
    t = np.linspace(0.0, 1.0, 5)
    e1 = np.ones(5)
    e1[3] += 1e-9
    diag = {"t": t, "E1": e1, "D": np.zeros(5), "cancel": np.zeros(5)}
    assert checks.check_energy(diag, NU) == ["E1 grows by 1.000e-09 between records"]


def test_cancellation_residual_fails(sim):
    edit_csv(sim / "diagnostics.csv", 2, "cancel", lambda v: 1e-9)
    assert any("cancel" in p for p in checks.check_simulate(sim, NU, STEPS + 1))


def test_non_solenoidal_snapshot_fails(sim):
    path = sim / "snapshot_000004.flns"
    replant(path, lambda u, x: u + 1e-3 * np.stack([np.cos(x[0]), np.zeros_like(x[0])]))
    problems = checks.check_snapshot(path, checks.read_csv(sim / "diagnostics.csv"))
    assert any("divergence-free" in p for p in problems)


def test_snapshot_with_mean_fails(sim):
    path = sim / "snapshot_000004.flns"
    replant(path, lambda u, x: u + np.array([1e-3, 0.0])[:, None, None])
    problems = checks.check_snapshot(path, checks.read_csv(sim / "diagnostics.csv"))
    assert any("mean-free" in p for p in problems)


def test_complex_snapshot_fails(sim):
    path = sim / "snapshot_000004.flns"
    field, meta = read_snapshot(path)
    write_snapshot(SpectralField(field.grid, 1j * field.coeffs), meta, path)
    problems = checks.check_snapshot(path, checks.read_csv(sim / "diagnostics.csv"))
    assert any("unreadable" in p for p in problems)


def test_energy_of_samples_must_match_csv(sim):
    u = to_physical(read_snapshot(sim / "snapshot_000004.flns")[0])
    e0 = float(np.sum(u**2) * (2 * np.pi / u.shape[-1]) ** 2)
    assert checks.check_samples(u, e0) == []
    assert any("E0" in p for p in checks.check_samples(u, e0 * (1 + 1e-8)))


def test_missing_snapshot_and_bad_hash_fail(sim):
    (sim / "snapshot_000007.flns").unlink()
    problems = checks.check_simulate(sim, NU, STEPS + 1)
    assert any("snapshots written" in p for p in problems)
    assert any("missing snapshot_000007" in p for p in problems)
    blob = bytearray((sim / "snapshot_000002.flns").read_bytes())
    blob[-1] ^= 1
    (sim / "snapshot_000002.flns").write_bytes(bytes(blob))
    assert any("hash of snapshot_000002" in p for p in checks.check_manifest(sim))


def test_oracle_disagreement_fails(oracle):
    edit_csv(oracle / "oracle.csv", 4, "rel_diff", lambda v: 2e-5)
    assert any("differ" in p for p in checks.check_oracle(oracle, 11))


def test_oracle_growing_norm_fails(oracle):
    edit_csv(oracle / "oracle.csv", 7, "nDA_stepper", lambda v: 3 * v)
    assert any("nDA_stepper" in p for p in checks.check_oracle(oracle, 11))


def test_oracle_missing_row_fails(oracle):
    path = oracle / "oracle.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert any("rows" in p for p in checks.check_oracle(oracle, 11))


@pytest.mark.parametrize(
    "rc, stderr, ok",
    [
        (2, "error: nu must be finite\n", True),
        (3, "diverged: non-finite coefficients after step\n", False),
        (1, "Traceback (most recent call last):\nValueError: x\n", False),
        (2, "error: one\nerror: two\n", False),
    ],
)
def test_rejection_needs_exit_2_and_one_line(rc, stderr, ok):
    assert (checks.check_rejected(rc, stderr) == []) is ok


def test_self_times_partition_the_window():
    clock = iter(range(1000)).__next__
    tracer = Tracer(clock=lambda: float(clock()))
    leaf = tracer.wrap(lambda: None, "leaf")
    outer = tracer.wrap(lambda: (leaf(), leaf()), "outer")
    outer()                          # before the window: not counted
    tracer.open_window(float(clock()))
    outer()
    leaf()
    tracer.close_window(float(clock()))
    total = tracer.end - tracer.start
    assert sum(tracer.self_s.values()) == total
    assert tracer.inclusive["outer"] == 5.0
    assert tracer.inclusive["leaf"] == 3.0
    assert tracer.self_s["outer"] == 3.0 and tracer.self_s[REMAINDER] == total - 6.0
    assert tracer.calls == {"outer": 1, "leaf": 3}
    assert tracer.inclusive_all["outer"] == 10.0
