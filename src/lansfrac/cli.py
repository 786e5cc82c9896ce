"""Command-line surface: simulate, verify-energy, smoothing, oracle-compare,
holder, ops-test.

Exit codes: 0 ok, 1 a property check failed (also: a forked process of the
command ended early), 2 usage/config problems (including admissibility-range
violations) and outputs that cannot be written, 3 runtime divergence, 130
(128 + SIGINT) a command stopped by Ctrl-C, with one ``stopped:`` line. The
energy, smoothing, oracle and holder subcommands exist so CI can gate
directly on the model's analytic properties.

Four commands fork (POSIX ``os.fork``, through ``forks.fork``) and leave no
process behind on any exit. simulate, verify-energy and smoothing step
through one path, ``_run``, which forks the kernel's helper
(``operators.kernel_helper``; Linux, 3D grids from N=26 up) to run half of
each kernel call, of the step's stage and update and of the audit's
per-mode pass, with the same output bytes as without it; each step
length's weights, a Galerkin cut and the audit's sums stay in this process.
oracle-compare always runs the Picard oracle in a forked worker process
beside the stepper, and opens no kernel helper: the worker owns the second
core. It reads the stepper's states from ``integrator._march``, whose time
loop ``run`` shares, as band blocks and tails, and seeds Picard with each
state and its f (a warm start: on oracle2d-n128 3 sweeps in place of 5, and
242 kernel calls in place of 422), while the worker runs its sweeps as a
wavefront behind the stepper (``mild._Wavefront``). The seed changes how
many sweeps Picard takes, not where it ends (``mild.picard_solve``). It
compares the two with ``diagnostics.norm_DA`` on the band block and u0's
tail, building no field. holder runs Picard in this process alone.
verify-energy reads only the records, so its run joins one field, at
t_end, and refuses data whose E1(0), the base of its relative residuals,
is not a positive normal float64 (exit 2); smoothing keeps one D(A^{1+r}) norm of each snapshot in its fit
window. A command that diverges still writes its manifest, and simulate
its diagnostics. A command whose output cannot be written, or whose
forked process ended early, still writes its manifest where it can
(``_Manifest``).
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
    OutputError,
    RegimeViolationError,
    SnapshotError,
    WorkerError,
)
from .integrator import (
    InitialData,
    SimConfig,
    Trajectory,
    _march,
    _step_time,
    _steps,
    galerkin_truncate,
    make_initial,
    run,
)
from .io import (
    RunManifest,
    SnapshotMeta,
    config_echo,
    emit_csv,
    parse_config,
    write_manifest,
)
from .operators import kernel_helper, rhs_f, u_from_v, v_from_u, v_nonlinearity
from .spectral import (
    Params,
    Regime,
    SpectralField,
    dealias,
    frac_stokes_apply,
    infer_regime,
    l2_norm,
    leray_project,
    make_grid,
    norm_DAr,
    semigroup_apply,
    stokes_multiplier,
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
    if infer_regime(config.grid.dim, config.params.s) is not Regime.GLOBAL_RANGE:
        raise RegimeViolationError(
            f"'{command}' is a long-run command and needs s >= dim/4 "
            f"(got s={config.params.s}, dim={config.grid.dim})"
        )


def _out_dir(config: SimConfig) -> Path:
    out = Path(config.out_dir or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {str(out)!r}: {exc.strerror or exc}"
        ) from None
    return out


class _Manifest:
    """The manifest of one command, written to out/manifest.json as its with block ends.

    The block gets the ``RunManifest`` to list its outputs in. A block that
    returns writes it with status ok; one that raises DivergedError writes
    it with status diverged, the step and t, and one that raises OutputError
    or WorkerError (a forked process ended early) writes it with status
    error and the message, where the manifest itself can still be written.
    The error goes on either way. Any other exception writes no manifest.
    """

    def __init__(self, config: SimConfig, out: Path):
        self.path, self.t0 = out / "manifest.json", time.monotonic()
        self.manifest = RunManifest(
            config=config_echo(config),
            version=__version__,
            started=datetime.now(timezone.utc).isoformat(),
            finished="",
            wall_seconds=0.0,
            outputs=[],
        )

    def __enter__(self) -> RunManifest:
        return self.manifest

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, DivergedError):
            self.manifest.status = {"state": "diverged", "step": exc.step, "t": exc.t}
        elif isinstance(exc, (OutputError, WorkerError)):
            self.manifest.status = {"state": "error", "message": str(exc)}
        elif exc is not None:
            return
        self.manifest.finished = datetime.now(timezone.utc).isoformat()
        self.manifest.wall_seconds = time.monotonic() - self.t0
        try:
            write_manifest(self.manifest, self.path)
        except OutputError:
            if not isinstance(exc, OutputError):
                raise  # else the block's own write error is the one reported


def _run(config: SimConfig, on_snapshot) -> Trajectory:
    """``run`` with the kernel's helper process beside it (``operators.kernel_helper``):
    the stepping commands' one path to the stepper."""
    with kernel_helper(config.grid, config.params.alpha):
        return run(config, on_snapshot=on_snapshot)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    _require_global(config, "simulate")
    out = _out_dir(config)
    p = config.params

    index = {"n": 0}
    diag_path = out / "diagnostics.csv"
    with _Manifest(config, out) as manifest:

        def writer(field: SpectralField, t: float) -> None:
            path = out / f"snapshot_{index['n']:06d}.flns"
            from .io import write_snapshot

            meta = SnapshotMeta(alpha=p.alpha, nu=p.nu, s=p.s, t=t)
            manifest.add_output(path, *write_snapshot(field, meta, path))
            index["n"] += 1

        try:
            traj = _run(config, writer)
        except DivergedError as exc:
            if exc.diag:  # a diverged run leaves its records up to the failure
                manifest.add_output(diag_path, *emit_csv(exc.diag, diag_path))
            raise
        manifest.add_output(diag_path, *emit_csv(traj.diag, diag_path))
    print(f"simulate: {index['n']} snapshots, t_end={config.t_end}")
    return 0


def _cmd_verify_energy(args) -> int:
    config = _load_config(args)
    _require_global(config, "verify-energy")
    n, _ = _steps(config.t_end, config.scheme.dt)
    if n == 0:
        raise ConfigError("verify-energy needs at least one step, got t_end = 0")
    out = _out_dir(config)
    with _Manifest(config, out) as manifest:
        # reads only the records: a snapshot at t = 0 (the start) and t_end
        traj = _run(dataclasses.replace(config, snapshot_every=n), lambda field, t: None)
        e1 = traj.diag[0].E1  # the residuals are relative to it
        if not (math.isfinite(e1) and e1 >= sys.float_info.min):
            raise ConfigError(
                f"verify-energy needs E1(0) to be a positive normal float64, got {e1:g}: "
                "the initial data are too small for a relative energy residual"
            )
        residuals = diagnostics.energy_balance_residual(traj, config.params)
        rows = [
            {"t": rec.t, "residual": float(res)}
            for rec, res in zip(traj.diag, residuals)
        ]
        path = out / "residuals.csv"
        manifest.add_output(path, *emit_csv(rows, path))
    worst = float(np.max(residuals))
    print(f"verify-energy: max residual {worst:.3e} (tol {args.tol:.3e})")
    return 0 if worst <= args.tol else 1


def _cmd_smoothing(args) -> int:
    config = _load_config(args)
    _require_global(config, "smoothing")
    config = dataclasses.replace(config, snapshot_every=1)
    dt, t_end, window = config.scheme.dt, config.t_end, (2.0 * config.scheme.dt, 0.1)
    # step 2 ends at 2 dt, so the window holds two step times when step 3 ends in it too
    n, _ = _steps(t_end, dt)
    if n < 3 or _step_time(3, n, t_end, dt) > window[1]:
        raise ConfigError(f"smoothing's fit window [2 dt, 0.1] holds < 2 step times: dt = {dt:g}")
    # the fit's D(A^{1+r}) norm weighs each mode by |k|^{4(1+r)}
    k2_max = float(config.grid.k2.max())
    with np.errstate(over="ignore"):
        if not np.isfinite(stokes_multiplier(k2_max, 2.0 * (1.0 + args.r))):
            raise ConfigError(
                f"smoothing --r {args.r:g}: the weight |k|^(4(1+r)) overflows float64 "
                f"at the grid's largest |k|^2 = {k2_max:g}"
            )
    out = _out_dir(config)
    times: list[float] = []
    norms: list[float] = []

    def keep_norm(field: SpectralField, t: float) -> None:
        # the fit reads one norm of each snapshot in its window, and none after it
        if t <= window[1]:
            times.append(t)
            norms.append(norm_DAr(field, 1.0 + args.r))

    with _Manifest(config, out) as manifest:
        _run(config, keep_norm)
        fit = diagnostics.smoothing_rate(times, norms, args.r, config.params.s, window=window)
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
        manifest.add_output(path, *emit_csv(rows, path))
    ok = fit.slope >= fit.expected - args.tol
    print(
        f"smoothing: slope {fit.slope:.4f} vs bound {fit.expected:.4f} - {args.tol}"
        f" -> {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _cmd_oracle_compare(args) -> int:
    config = _load_config(args)
    if infer_regime(config.grid.dim, config.params.s) is Regime.UNRESTRICTED:
        raise RegimeViolationError("oracle-compare needs s >= 1/2")
    T = args.T
    if not 0 < T <= 1.0:
        raise RegimeViolationError("oracle-compare needs 0 < T <= 1")
    dt = config.scheme.dt
    try:
        stepper_cfg = dataclasses.replace(config, t_end=T, snapshot_every=1)
    except ValueError as exc:
        raise ConfigError(f"oracle-compare --T {T}: {exc}") from None
    n, last = _steps(T, dt)
    if n == 0:
        raise ConfigError(f"oracle-compare needs at least one step of dt = {dt}, got --T {T}")
    if last != dt:
        raise ConfigError(f"oracle-compare --T {T} is not a multiple of dt = {dt}")
    # The stepper cuts the modes above galerkin_N at every step, and Picard cuts
    # none: below the band limit the two would solve different equations.
    band = config.grid.band_limit
    if config.galerkin_N is not None and config.galerkin_N < band:
        raise ConfigError(
            f"oracle-compare needs galerkin_N >= the band limit {band}, got galerkin_N = "
            f"{config.galerkin_N}: the stepper would cut modes that Picard keeps"
        )
    out = _out_dir(config)
    # The Picard mesh refines the stepper's n steps m-fold, to at least 8
    # intervals, so that every stepper time is a mesh node.
    m = -(-8 // n)
    with _Manifest(config, out) as manifest:
        # Both sides start from the state run would step: u0 with its Galerkin
        # cutoff taken, which _march steps as it is.
        u0 = make_initial(config.initial, config.grid, config.params)
        if config.galerkin_N is not None:
            u0 = galerkin_truncate(u0, config.galerkin_N)
        # Picard runs in a forked worker, a wavefront behind the stepper here,
        # seeded with each stepper state and its f, which the audit has just
        # read; the worker makes f(u0) itself, so nothing new runs here before
        # the first step. Each state is held as its band block, in the
        # worker's shared states, and its values on u0's tail modes, the only
        # modes outside the block where a state is non-zero ((dim, 0) when
        # there are none); no field is built.
        from . import picard_fork  # here: the other commands need not compile it

        grid, p = config.grid, config.params
        tails: list[np.ndarray] = []
        no_tail = np.empty((grid.dim, 0), np.complex128)
        with picard_fork.picard_worker(u0, p, T, mesh_size=n * m, max_iter=10, seeds=n) as picard:
            for j, (_, block, f, modes, tail) in enumerate(_march(stepper_cfg, u0, "u", [])):
                picard.seed(j, block, f)
                tails.append(no_tail if tail is None else tail.copy())
            oracle_traj, state = picard.result()
            # the rows are taken while the worker's process ends
            tables = diagnostics.audit_tables(grid, p.alpha, p.s)
            rows_tail = diagnostics.tail_rows(grid, p.alpha, p.s, modes)
            rows = []
            for j, (block, tail) in enumerate(zip(picard.states, tails, strict=True)):
                w_block, _, w_tail = oracle_traj.snapshots.split(j * m)
                ref = diagnostics.norm_DA(block, tables, (rows_tail, tail))
                diff = diagnostics.norm_DA(block - w_block, tables, (rows_tail, tail - w_tail))
                rows.append({"t": float(oracle_traj.times[j * m]), "nDA_stepper": ref,
                             "rel_diff": diff / max(ref, 1e-30)})
        # np.max keeps a nan, where Python's max would drop one after the first row
        worst = float(np.max([row["rel_diff"] for row in rows], initial=0.0))
        path = out / "oracle.csv"
        manifest.add_output(path, *emit_csv(rows, path))
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
    u0 = make_initial(config.initial, config.grid, config.params)
    T = min(config.t_end, 1.0) if config.t_end > 0 else 1.0
    holder = mild.HolderClass(R=max(norm_DAr(u0, 1.0), 1e-30), beta=args.beta, T=T)
    with _Manifest(config, out) as manifest:
        traj, _state = mild.picard_solve(u0, config.params, holder.T, mesh_size=64)
        report = mild.holder_membership(traj, holder, config.params.s)
        semi = mild.semigroup_class_check(u0, config.params, holder)
        rows = [
            {"trajectory": "picard", **dataclasses.asdict(report)},
            {"trajectory": "semigroup", **dataclasses.asdict(semi)},
        ]
        path = out / "holder.csv"
        manifest.add_output(path, *emit_csv(rows, path))
    finite = all(
        np.isfinite([report.minimal_R, semi.minimal_R])
    ) and report.minimal_R > 0
    print(
        f"holder: minimal R/||u0|| = {report.minimal_R / holder.R:.3f} "
        f"(semigroup {semi.minimal_R / holder.R:.3f})"
    )
    return 0 if finite else 1


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
        rhs_f(ub, params) - params.nu * frac_stokes_apply(ub, params.s),
        params.alpha,
    )
    rhs = v_nonlinearity(ub, v) - params.nu * frac_stokes_apply(v, params.s)
    checks.append(("u/v form consistency", _rel(lhs.coeffs - rhs.coeffs, rhs.coeffs), 1e-8))

    shear = make_initial(InitialData(kind="shear"), grid)
    fs = rhs_f(shear, params)
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


def _seed(text: str) -> int:
    """argparse type: an int >= 0, as numpy's generator seeds must be."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _count(text: str) -> int:
    """argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is below 1")
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
        p.add_argument("--seed", type=_seed, default=None, help="seed override")
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
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--fields", type=_count, default=6, help="random fields per check")
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
    except (ConfigError, SnapshotError, OutputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except LansfracError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # forks.fork has ended the command's children
        print("stopped: interrupted (SIGINT)", file=sys.stderr)
        return 130


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
