"""Run one lansfrac CLI command in this fresh interpreter and time it from outside.

    python3 perfbench/child.py MODE CLI-ARGS...

MODE is ``run``, which reports set-up time, solve time and peak RSS, or
``trace``, which also wraps every traced layer (see layers.py) and reports
the per-layer split of the solve.

The set-up/solve boundary is the first call of ``integrator._advance`` (the
first time step) or of ``io.write_snapshot`` (the t = 0 snapshot that
``simulate`` writes just before it), whichever comes first. Until then the
process has imported the package, parsed the config, built the grid tables,
made or read the initial field and evaluated the first f and diagnostics
record. The hook takes one timestamp and puts the original functions back,
so the steps themselves run unwrapped. The last line of standard output is
one JSON object.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _install_boundary(on_boundary) -> None:
    import lansfrac.integrator as integrator
    import lansfrac.io as lio

    originals = [(integrator, "_advance"), (lio, "write_snapshot")]
    originals = [(mod, name, getattr(mod, name)) for mod, name in originals]

    def first_call(fn):
        def hook(*args, **kwargs):
            for mod, name, orig in originals:
                setattr(mod, name, orig)
            on_boundary(time.perf_counter())
            return fn(*args, **kwargs)

        return hook

    for mod, name, orig in originals:
        setattr(mod, name, first_call(orig))


def main(argv: list[str]) -> int:
    if sys.flags.optimize:
        print("child: run without -O; rhs_f's invariant assert is part of a step",
              file=sys.stderr)
        return 2
    mode, args = argv[0], argv[1:]
    import lansfrac.cli as cli

    imported = time.perf_counter()
    boundary = {}

    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(HERE))
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    def on_boundary(now: float) -> None:
        boundary["t"] = now
        if tracer is not None:
            tracer.open_window(now)

    _install_boundary(on_boundary)
    rc = cli.main(args)
    end = time.perf_counter()
    record = {
        "rc": rc,
        "import_s": imported - T0,
        "setup_s": boundary["t"] - T0 if boundary else None,
        "solve_s": end - boundary["t"] if boundary else None,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None and boundary:
        tracer.close_window(end)
        record["layers"] = tracer.metrics(imported - T0)
        record["self_total_s"] = sum(tracer.self_s.values())
    sys.stdout.flush()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
