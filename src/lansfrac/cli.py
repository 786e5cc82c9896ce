"""Command-line surface: simulate, verify-energy, smoothing, oracle-compare,
holder, ops-test.

Exit codes: 0 ok, 1 a property check failed, 2 usage/config problems
(including admissibility-range violations), 3 runtime divergence. The energy,
smoothing, oracle and holder subcommands exist so CI can gate directly on the
model's analytic properties.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, mild
from .errors import (
    ConfigError,
    DivergedError,
    LansfracError,
    RegimeViolationError,
    SnapshotError,
)
from .integrator import InitialData, SimConfig, Trajectory, _step_count, make_initial, run
from .io import (
    RunManifest,
    SnapshotMeta,
    config_echo,
    emit_csv,
    parse_config,
    write_manifest,
)
from .operators import rhs_f, rhs_v, u_from_v, v_from_u
from .spectral import (
    Params,
    Regime,
    SpectralField,
    dealias,
    frac_stokes_apply,
    l2_norm,
    leray_project,
    make_grid,
    norm_DAr,
    semigroup_apply,
    to_physical,
    to_spectral,
)


def _load_config(args) -> SimConfig:
    config = parse_config(args.config)
    if getattr(args, "out_dir", None):
        config = dataclasses.replace(config, out_dir=args.out_dir)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(
            config, initial=dataclasses.replace(config.initial, seed=args.seed)
        )
    return config


def _require_global(config: SimConfig, command: str) -> None:
    if config.params.regime is not Regime.GLOBAL_RANGE:
        raise RegimeViolationError(
            f"'{command}' is a long-run command and needs s >= dim/4 "
            f"(got s={config.params.s}, dim={config.grid.dim})"
        )


def _out_dir(config: SimConfig) -> Path:
    out = Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


class _ManifestWriter:
    def __init__(self, config: SimConfig):
        self.config = config
        self.t0 = time.monotonic()
        self.started = datetime.now(timezone.utc).isoformat()
        self.manifest = RunManifest(
            config=config_echo(config),
            version=__version__,
            started=self.started,
            finished="",
            wall_seconds=0.0,
            outputs=[],
        )

    def finish(self, out: Path) -> None:
        self.manifest.finished = datetime.now(timezone.utc).isoformat()
        self.manifest.wall_seconds = time.monotonic() - self.t0
        write_manifest(self.manifest, out / "manifest.json")


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    _require_global(config, "simulate")
    out = _out_dir(config)
    mw = _ManifestWriter(config)
    p = config.params

    index = {"n": 0}

    def writer(field: SpectralField, t: float) -> None:
        path = out / f"snapshot_{index['n']:06d}.flns"
        from .io import write_snapshot

        write_snapshot(field, SnapshotMeta(alpha=p.alpha, nu=p.nu, s=p.s, t=t), path)
        mw.manifest.add_output(path)
        index["n"] += 1

    traj = run(config, on_snapshot=writer)
    diag_path = out / "diagnostics.csv"
    emit_csv(traj.diag, diag_path)
    mw.manifest.add_output(diag_path)
    mw.finish(out)
    print(f"simulate: {index['n']} snapshots, t_end={config.t_end}")
    return 0


def _cmd_verify_energy(args) -> int:
    config = _load_config(args)
    _require_global(config, "verify-energy")
    out = _out_dir(config)
    mw = _ManifestWriter(config)
    traj = run(config, on_snapshot=lambda field, t: None)  # reads only the records
    residuals = diagnostics.energy_balance_residual(traj, config.params)
    rows = [
        {"t": rec.t, "residual": float(res)}
        for rec, res in zip(traj.diag, residuals)
    ]
    path = out / "residuals.csv"
    emit_csv(rows, path)
    mw.manifest.add_output(path)
    mw.finish(out)
    worst = float(np.max(residuals))
    print(f"verify-energy: max residual {worst:.3e} (tol {args.tol:.3e})")
    return 0 if worst <= args.tol else 1


def _cmd_smoothing(args) -> int:
    config = _load_config(args)
    _require_global(config, "smoothing")
    config = dataclasses.replace(config, snapshot_every=1)
    out = _out_dir(config)
    mw = _ManifestWriter(config)
    window = (2.0 * config.scheme.dt, 0.1)
    times: list[float] = []
    fields: list[SpectralField] = []

    def keep_window(field: SpectralField, t: float) -> None:
        # the fit reads no snapshot after its window ends
        if t <= window[1]:
            times.append(t)
            fields.append(field)

    traj = run(config, on_snapshot=keep_window)
    kept = Trajectory(times=np.array(times), snapshots=fields, diag=traj.diag)
    fit = diagnostics.smoothing_rate(kept, args.r, config.params.s, window=window)
    rows = [
        {
            "t_min": fit.window[0],
            "t_max": fit.window[1],
            "r": fit.r,
            "slope": fit.slope,
            "expected": fit.expected,
            "residual": fit.residual,
        }
    ]
    path = out / "ratefit.csv"
    emit_csv(rows, path)
    mw.manifest.add_output(path)
    mw.finish(out)
    ok = fit.slope >= fit.expected - args.tol
    print(
        f"smoothing: slope {fit.slope:.4f} vs bound {fit.expected:.4f} - {args.tol}"
        f" -> {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _cmd_oracle_compare(args) -> int:
    config = _load_config(args)
    if config.params.regime is Regime.UNRESTRICTED:
        raise RegimeViolationError("oracle-compare needs s >= 1/2")
    T = args.T
    if not 0 < T <= 1.0:
        raise RegimeViolationError("oracle-compare needs 0 < T <= 1")
    out = _out_dir(config)
    mw = _ManifestWriter(config)

    dt = config.scheme.dt
    try:
        stepper_cfg = dataclasses.replace(config, t_end=T, snapshot_every=1)
    except ValueError as exc:
        raise ConfigError(f"oracle-compare --T {T}: {exc}") from None
    n = _step_count(T, dt)
    if abs(T - n * dt) > 1e-9 * max(dt, T):
        raise ConfigError(f"oracle-compare --T {T} is not a multiple of dt = {dt}")
    # The Picard mesh refines the stepper's n steps m-fold, to at least 8
    # intervals, so that every stepper time is a mesh node.
    m = -(-8 // n)
    traj = run(stepper_cfg)
    u0 = traj.snapshots[0]
    holder = mild.HolderClass(R=max(norm_DAr(u0, 1.0), 1e-30), beta=0.25, T=T)
    oracle_traj, state = mild.picard_solve(
        u0, config.params, holder, mesh_size=n * m, max_iter=10
    )

    rows = []
    for u, t, w in zip(traj.snapshots, oracle_traj.times[::m], oracle_traj.snapshots[::m]):
        ref = norm_DAr(u, 1.0)
        diff = norm_DAr(u - w, 1.0) / max(ref, 1e-30)
        rows.append({"t": float(t), "nDA_stepper": ref, "rel_diff": diff})
    # np.max keeps a nan, where Python's max would drop one after the first row
    worst = float(np.max([row["rel_diff"] for row in rows], initial=0.0))
    path = out / "oracle.csv"
    emit_csv(rows, path)
    mw.manifest.add_output(path)
    mw.finish(out)
    print(
        f"oracle-compare: sup rel diff {worst:.3e} (tol {args.tol:.3e}), "
        f"{state.n_iter} Picard sweeps"
    )
    return 0 if worst <= args.tol else 1


def _cmd_holder(args) -> int:
    config = _load_config(args)
    if config.grid.dim != 2 or abs(config.params.s - 0.5) > 1e-12:
        raise RegimeViolationError("holder requires the critical case dim=2, s=1/2")
    out = _out_dir(config)
    mw = _ManifestWriter(config)
    u0 = make_initial(config.initial, config.grid, config.params)
    T = min(config.t_end, 1.0) if config.t_end > 0 else 1.0
    holder = mild.HolderClass(R=max(norm_DAr(u0, 1.0), 1e-30), beta=args.beta, T=T)
    traj, _state = mild.picard_solve(u0, config.params, holder, mesh_size=64)
    report = mild.holder_membership(traj, holder, config.params.s)
    semi = mild.semigroup_class_check(u0, config.params, holder)
    rows = [
        {"trajectory": "picard", **_report_row(report)},
        {"trajectory": "semigroup", **_report_row(semi)},
    ]
    path = out / "holder.csv"
    emit_csv(rows, path)
    mw.manifest.add_output(path)
    mw.finish(out)
    finite = all(
        np.isfinite([report.minimal_R, semi.minimal_R])
    ) and report.minimal_R > 0
    print(
        f"holder: minimal R/||u0|| = {report.minimal_R / holder.R:.3f} "
        f"(semigroup {semi.minimal_R / holder.R:.3f})"
    )
    return 0 if finite else 1


def _report_row(report: mild.ClassReport) -> dict:
    return {
        "sup_amplitude": report.sup_amplitude,
        "sup_smoothing": report.sup_smoothing,
        "sup_holder_da": report.sup_holder_da,
        "sup_holder_smooth": report.sup_holder_smooth,
        "minimal_R": report.minimal_R,
        "member": report.member,
    }


def _cmd_ops_test(args) -> int:
    if args.config:
        config = parse_config(args.config)
        grid, params = config.grid, config.params
    else:
        grid = make_grid(2, 32)
        params = Params(alpha=0.7, nu=0.4, s=0.6)
    rng_seed = args.seed if args.seed is not None else 0

    checks: list[tuple[str, float, float]] = []  # name, residual, tolerance

    def rand_field(g, seed):
        return make_initial(
            InitialData(kind="random-spectrum", amplitude=1.0, seed=seed), g
        )

    u = rand_field(grid, rng_seed)
    w = dealias(u)

    rt = to_spectral(to_physical(u), grid)
    checks.append(("transform round-trip", _rel(rt.coeffs - u.coeffs, u.coeffs), 1e-12))

    phys = to_physical(u)
    phys_norm = float(np.sqrt(np.sum(phys**2) * (grid.dx**grid.dim)))
    checks.append(
        ("parseval", abs(phys_norm - l2_norm(u)) / l2_norm(u), 1e-12)
    )

    pp = leray_project(leray_project(u))
    checks.append(
        ("leray idempotent", _rel(pp.coeffs - leray_project(u).coeffs, u.coeffs), 1e-12)
    )

    ab = semigroup_apply(semigroup_apply(u, 0.3, params), 0.7, params)
    direct = semigroup_apply(u, 1.0, params)
    checks.append(("semigroup property", _rel(ab.coeffs - direct.coeffs, u.coeffs), 1e-13))

    back = v_from_u(u_from_v(u, 0.5), 0.5)
    checks.append(("helmholtz inverse", _rel(back.coeffs - u.coeffs, u.coeffs), 1e-12))

    two = frac_stokes_apply(frac_stokes_apply(u, 0.3), 0.45)
    one = frac_stokes_apply(u, 0.75)
    checks.append(("stokes power composition", _rel(two.coeffs - one.coeffs, one.coeffs), 1e-12))

    worst_cancel = 0.0
    for i in range(args.fields):
        uu = dealias(rand_field(grid, rng_seed + 10 + i))
        rec = diagnostics.record(uu, params, 0.0)
        worst_cancel = max(worst_cancel, rec.cancel)
    g3 = make_grid(3, 16)
    for i in range(max(1, args.fields // 2)):
        uu = dealias(rand_field(g3, rng_seed + 50 + i))
        rec = diagnostics.record(uu, params, 0.0)
        worst_cancel = max(worst_cancel, rec.cancel)
    checks.append(("nonlinear cancellation", worst_cancel, 1e-10))

    ub = dealias(rand_field(grid, rng_seed + 99))
    v = v_from_u(ub, params.alpha)
    lhs = v_from_u(
        rhs_f(ub, ub, params) - params.nu * frac_stokes_apply(ub, params.s),
        params.alpha,
    )
    rhs = rhs_v(ub, v, params)
    checks.append(("u/v form consistency", _rel(lhs.coeffs - rhs.coeffs, rhs.coeffs), 1e-8))

    shear = make_initial(InitialData(kind="shear"), grid)
    fs = rhs_f(shear, shear, params)
    checks.append(("shear is f-free", l2_norm(fs) / l2_norm(shear), 1e-13))

    failed = 0
    for name, residual, tol in checks:
        ok = residual <= tol
        failed += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {residual:.3e} (tol {tol:.1e})")
    return 0 if failed == 0 else 1


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    denom = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(diff))) / (denom if denom > 0 else 1.0)


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _beta(text: str) -> float:
    """argparse type: a Hoelder exponent in (0, 1/2), as HolderClass requires."""
    value = _finite(text)
    if not 0.0 < value < 0.5:
        raise argparse.ArgumentTypeError(f"{text!r} does not lie in (0, 1/2)")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lansfrac",
        description="Fractional LANS-alpha pseudo-spectral solver and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default=None):
        p.add_argument("config", help="path to key=value config file")
        p.add_argument("--out-dir", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if tol_default is not None:
            p.add_argument("--tol", type=_tolerance, default=tol_default)

    p = sub.add_parser("simulate", help="run and write snapshots + diagnostics")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-energy", help="check the discrete energy identity")
    common(p, tol_default=1e-6)
    p.set_defaults(func=_cmd_verify_energy)

    p = sub.add_parser("smoothing", help="instantaneous smoothing-rate fit")
    common(p, tol_default=0.15)
    p.add_argument("--r", type=_finite, required=True, help="extra Stokes order probed")
    p.set_defaults(func=_cmd_smoothing)

    p = sub.add_parser("oracle-compare", help="stepper vs Picard mild solution")
    common(p, tol_default=1e-5)
    p.add_argument("--T", type=_finite, required=True, help="comparison horizon")
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("holder", help="critical-case weighted-Hoelder quotients")
    common(p)
    p.add_argument("--beta", type=_beta, required=True)
    p.set_defaults(func=_cmd_holder)

    p = sub.add_parser("ops-test", help="operator unit battery incl. cancellation")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fields", type=int, default=6, help="random fields per check")
    p.set_defaults(func=_cmd_ops_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, SnapshotError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except LansfracError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
