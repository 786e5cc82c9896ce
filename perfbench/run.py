"""Benchmark of the lansfrac CLI: set-up time, time to solution and peak memory.

Run from the repository root:

    python3 perfbench/run.py --workload sim3d-n48 --seed 0 --seconds 30 --trace 0

Every CLI command runs in a fresh interpreter (``child.py``), without ``-O``.
A run makes COMMANDS timed commands of its workload and reports the medians
of setup_s, solve_s and peak_rss_mib. With ``--trace 1`` the last command is
traced instead, and the run reports its per-layer split. The last line of
standard output is one JSON object. README.md explains the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "_results"
DEADLINE_S = 170.0
COMMANDS = 6  # timed commands per run; each reports set-up, solve and peak RSS
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Shared model constants; dt is small enough for the 1e-6 energy identity.
ALPHA, NU, DT = 0.5, 0.1, 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # CLI subcommand
    dim: int
    n: int
    s: float
    amplitude: float          # ||u0||_D(A) of the random-spectrum data
    size_per_second: float    # time steps (simulate) or mesh nodes (oracle-compare)
                              # of one command, per second of run length
    snapshot_every: int | None = None  # None keeps the CLI default of 1

    def size(self, seconds: int) -> int:
        return max(8, round(self.size_per_second * seconds))

    def config(self, size: int, init: str) -> str:
        lines = [
            f"dim = {self.dim}",
            f"N = {self.n}",
            f"alpha = {ALPHA}",
            f"nu = {NU}",
            f"s = {self.s}",
            "scheme = etd2rk",
            f"dt = {DT}",
            f"t_end = {size * DT!r}",
            f"init = {init}",
            f"amplitude = {self.amplitude}",
            "seed = 0",
        ]
        if self.snapshot_every is not None:
            lines.append(f"snapshot_every = {self.snapshot_every}")
        return "\n".join(lines) + "\n"


SIM3D = Workload("sim3d-n48", "simulate", dim=3, n=48, s=0.75, amplitude=1.0,
                 size_per_second=0.5, snapshot_every=5)
ORACLE = Workload("oracle2d-n128", "oracle-compare", dim=2, n=128, s=0.5, amplitude=0.05,
                  size_per_second=2)
# A third workload, 2D N=64 with a snapshot every step, was left out: on a
# shared 2-vCPU VM its solve time moved 28-31% between runs (README, Notes).
WORKLOADS = {w.name: w for w in (SIM3D, ORACLE)}

# Config values the program should refuse with exit code 2. oracle2d-n128
# submits each to simulate in place of one value of its config (whose seed is
# fixed, not --seed). parse_config accepts non-finite floats, so today every
# one of them fails.
BAD_VALUES = (("nu", "nan"), ("dt", "nan"), ("t_end", "inf"), ("alpha", "inf"),
              ("amplitude", "nan"))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _spawn(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        return subprocess.run(argv, capture_output=True, text=True, env=_env(),
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv)}") from None


def _child(mode: str, cli_args: list[str], deadline: float) -> dict | None:
    """One command in child.py; None if it died before printing its record."""
    proc = _spawn([sys.executable, str(HERE / "child.py"), mode, *cli_args], deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def _prepare(wl: Workload, seed: int, seconds: int, work: Path) -> tuple[list[str], int]:
    """Write the inputs; return the CLI arguments (without --out-dir) and size."""
    size = wl.size(seconds)
    cfg = work / "run.cfg"
    if wl is SIM3D:
        from lansfrac.integrator import InitialData, make_initial
        from lansfrac.io import SnapshotMeta, write_snapshot
        from lansfrac.spectral import make_grid

        # Borderline-D(A) random-spectrum data, restarted with amplitude 1.
        u0 = make_initial(InitialData(kind="random-spectrum", seed=seed),
                          make_grid(wl.dim, wl.n))
        restart = work / "restart.flns"
        write_snapshot(u0, SnapshotMeta(alpha=ALPHA, nu=NU, s=wl.s, t=0.0), restart)
        cfg.write_text(wl.config(size, f"snapshot:{restart}"))
    else:
        cfg.write_text(wl.config(size, "random-spectrum"))
    args = [wl.command, str(cfg), "--seed", str(seed)]
    if wl is ORACLE:
        args += ["--T", repr(size * DT)]
    return args, size


def _check(wl: Workload, out: Path, size: int) -> list[str]:
    if wl is ORACLE:
        return checks.check_oracle(out, expected_rows=size + 1)
    every = wl.snapshot_every
    expected = 1 + size // every + (1 if size % every else 0)
    return checks.check_simulate(out, NU, expected)


def _bad_inputs(work: Path, deadline: float) -> list[list[str]]:
    """Submit each bad config to simulate; return the problems of each."""
    base = (work / "run.cfg").read_text().splitlines()
    results = []
    for key, value in BAD_VALUES:
        cfg = work / f"bad-{key}.cfg"
        cfg.write_text("\n".join(f"{key} = {value}" if line.split(" = ")[0] == key
                                 else line for line in base) + "\n")
        proc = _spawn([sys.executable, "-m", "lansfrac.cli", "simulate", str(cfg),
                       "--out-dir", str(work / f"bad-{key}")], deadline)
        results.append(checks.check_rejected(proc.returncode, proc.stderr))
    return results


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "lansfrac" / "cli.py").is_file():
        raise BenchError(f"no lansfrac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lansfrac.cli  # noqa: F401  (compiles and caches the package before any timing)

    wl = WORKLOADS[workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cli_args, size = _prepare(wl, seed, seconds, work)
        attempted, failed, problems, timed = 0, 0, [], []
        layers = None
        for i in range(COMMANDS):
            traced = trace and i == COMMANDS - 1
            out = work / f"out{i}"
            rec = _child("trace" if traced else "run", [*cli_args, "--out-dir", str(out)],
                         deadline)
            attempted += 1
            if rec is None or rec["rc"] != 0 or rec["setup_s"] is None:
                failed += 1
            else:
                problems += _check(wl, out, size)
                if traced:
                    layers = rec["layers"]
                    # The slices of all spans and the remainder partition the solve.
                    if abs(rec["self_total_s"] - layers["trace.solve_s"]) > 1e-9 * rec["solve_s"]:
                        problems.append("per-layer self times do not add up to the solve")
                else:
                    timed.append(rec)
            shutil.rmtree(out, ignore_errors=True)
        extra: dict = {"commands": timed}
        if wl is ORACLE:
            rejected = _bad_inputs(work, deadline)
            attempted += len(rejected)
            failed += sum(1 for p in rejected if p)
            extra["bad_inputs"] = {f"{k} = {v}": p for (k, v), p in zip(BAD_VALUES, rejected)}

        if not timed or (trace and layers is None):
            raise BenchError("no timed command succeeded")
        values = {key: statistics.median(r[key] for r in timed)
                  for key in ("setup_s", "solve_s", "peak_rss_mib")}
        if trace:
            values = {**layers, "trace.overhead_s": layers["trace.solve_s"] - values["solve_s"]}
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        result = {"correct": not problems, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        RESULTS.mkdir(exist_ok=True)
        detail = {**result, "workload": wl.name, "seed": seed, "seconds": seconds,
                  "problems": problems, **extra}
        (RESULTS / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(detail, indent=1) + "\n")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
