"""Output checks of the benchmark, computed apart from the program.

The checks read what the CLI writes (CSV files, the manifest and the snapshot
files, the latter through ``lansfrac.io.read_snapshot``) and the physical
samples of each snapshot (``lansfrac.spectral.to_physical``). Quadratures,
transforms and hashes are the benchmark's own numpy and hashlib code, and no
check reads the coefficient layout or compares against a stored output. Each
check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

ENERGY_TOL = 1e-6     # |E1(t) + 2 nu int_0^t D - E1(0)| / E1(0)
ROUNDING = 1e-12      # relative growth of E1 between records still counted as rounding
CANCEL_TOL = 1e-10    # normalized nonlinear energy pairing
SAMPLE_TOL = 1e-10    # divergence, mean and E0 of the physical samples, relative
ORACLE_TOL = 1e-5     # sup relative D(A) distance, stepper against Picard
NDA_GROWTH = 2.0      # nDA_stepper may not exceed this multiple of its t = 0 value


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of a numeric CSV file written by the CLI."""
    lines = Path(path).read_text().splitlines()
    names = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    table = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return {name: table[:, i] for i, name in enumerate(names)}


def check_energy(diag: dict[str, np.ndarray], nu: float) -> list[str]:
    """H^1_alpha energy identity, monotone E1 and the cancellation residual."""
    t, e1, d, cancel = diag["t"], diag["E1"], diag["D"], diag["cancel"]
    if len(t) < 2:
        return [f"diagnostics.csv has {len(t)} rows, need at least 2"]
    if not all(np.all(np.isfinite(c)) for c in (t, e1, d, cancel)):
        return ["diagnostics.csv holds non-finite values"]
    dissipated = np.concatenate(([0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(t))))
    residual = float(np.max(np.abs(e1 + 2.0 * nu * dissipated - e1[0]) / e1[0]))
    problems = []
    if residual > ENERGY_TOL:
        problems.append(f"energy identity residual {residual:.3e} > {ENERGY_TOL:.0e}")
    growth = float(np.max(np.diff(e1) / e1[:-1]))
    if growth > ROUNDING:
        problems.append(f"E1 grows by {growth:.3e} between records")
    worst = float(np.max(cancel))
    if worst > CANCEL_TOL:
        problems.append(f"cancel {worst:.3e} > {CANCEL_TOL:.0e}")
    return problems


def check_samples(u: np.ndarray, e0_csv: float) -> list[str]:
    """Physical samples (dim, N, ..., N): real, solenoidal, mean-free, and E0.

    E0 is the rectangle-rule quadrature of |u|^2, which is exact for the
    band-limited samples; the CSV's E0 counts every coefficient, so a field
    with an imaginary part would fail this match as well.
    """
    if not np.isrealobj(u) or not np.all(np.isfinite(u)):
        return ["physical samples are not finite real numbers"]
    dim, n = u.shape[0], u.shape[-1]
    axes = tuple(range(1, dim + 1))
    uh = np.fft.fftn(u, axes=axes)
    k = np.meshgrid(*([np.fft.fftfreq(n, 1.0 / n)] * dim), indexing="ij")
    div = sum(k[j] * uh[j] for j in range(dim))
    grad = np.sqrt(sum(np.sum(k[j] ** 2 * np.abs(uh) ** 2) for j in range(dim)))
    problems = []
    if np.sqrt(np.sum(np.abs(div) ** 2)) > SAMPLE_TOL * grad:
        problems.append("samples are not divergence-free")
    mean = np.abs(np.mean(u, axis=axes))
    rms = np.sqrt(np.mean(u**2))
    if np.max(mean) > SAMPLE_TOL * rms:
        problems.append("samples are not mean-free")
    e0 = float(np.sum(u**2) * (2.0 * np.pi / n) ** dim)
    if abs(e0 - e0_csv) > SAMPLE_TOL * e0_csv:
        problems.append(f"quadrature E0 {e0:.17g} != CSV E0 {e0_csv:.17g}")
    return problems


def check_snapshot(path: Path, diag: dict[str, np.ndarray]) -> list[str]:
    """Read one snapshot back and check its physical samples against the CSV."""
    from lansfrac.errors import LansfracError
    from lansfrac.io import read_snapshot
    from lansfrac.spectral import to_physical

    try:
        field, meta = read_snapshot(path)
        u = to_physical(field)
    except (LansfracError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    rows = np.flatnonzero(np.abs(diag["t"] - meta.t) <= 1e-12 * max(1.0, abs(meta.t)))
    if len(rows) != 1:
        return [f"{path.name}: no diagnostics row at t = {meta.t!r}"]
    return [f"{path.name}: {p}" for p in check_samples(u, float(diag["E0"][rows[0]]))]


def check_manifest(out_dir: Path) -> list[str]:
    """Every output the manifest lists exists with its recorded size and sha256."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    problems = []
    for entry in manifest["outputs"]:
        path = out_dir / entry["path"]
        if not path.is_file():
            problems.append(f"manifest lists missing {entry['path']}")
            continue
        blob = path.read_bytes()
        if len(blob) != entry["bytes"] or hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            problems.append(f"manifest size or hash of {entry['path']} does not match")
    return problems


def check_simulate(out_dir: Path, nu: float, expected_snapshots: int) -> list[str]:
    """All checks of a ``simulate`` output directory."""
    try:
        diag = read_csv(out_dir / "diagnostics.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [f"diagnostics.csv unreadable: {exc}"]
    problems = check_energy(diag, nu)
    snaps = sorted(out_dir.glob("snapshot_*.flns"))
    if len(snaps) != expected_snapshots:
        problems.append(f"{len(snaps)} snapshots written, expected {expected_snapshots}")
    for path in snaps:
        problems += check_snapshot(path, diag)
    problems += check_manifest(out_dir)
    return problems


def check_oracle(out_dir: Path, expected_rows: int) -> list[str]:
    """All checks of an ``oracle-compare`` output directory."""
    try:
        rows = read_csv(out_dir / "oracle.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [f"oracle.csv unreadable: {exc}"]
    t, nda, rel = rows["t"], rows["nDA_stepper"], rows["rel_diff"]
    if len(t) == 0:
        return ["oracle.csv has no rows"]
    problems = []
    if len(t) != expected_rows or t[0] != 0.0:
        problems.append(f"oracle.csv has {len(t)} rows from t = {t[0]!r}, "
                        f"expected {expected_rows} from t = 0")
    if not (np.all(np.isfinite(rel)) and np.max(rel) <= ORACLE_TOL):
        problems.append(f"stepper and Picard differ by {np.max(rel):.3e} > {ORACLE_TOL:.0e}")
    if not (np.all(np.isfinite(nda)) and np.max(nda) <= NDA_GROWTH * nda[0]):
        problems.append(f"nDA_stepper reaches {np.max(nda) / nda[0]:.3g} x its t = 0 value")
    return problems + check_manifest(out_dir)


def check_rejected(rc: int, stderr: str) -> list[str]:
    """A bad config must end with exit code 2 and a one-line message."""
    problems = []
    if rc != 2:
        problems.append(f"exit code {rc}, expected 2")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    elif len(stderr.strip().splitlines()) != 1:
        problems.append(f"{len(stderr.strip().splitlines())} lines on stderr, expected 1")
    return problems
