"""Per-layer tracing of one lansfrac command, applied from outside the program.

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that opens a span on entry and closes it on return. Time is
attributed slice by slice: the interval between two consecutive span events
belongs to the innermost open span, or to the remainder when no span is open.
So the self times of all spans plus the remainder add up exactly to the
length of the measured window, which is the solve (from the set-up/solve
boundary to the return of the command). Inclusive times and call counts are
kept per span name as well; ``inclusive_all`` also covers the set-up.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter, defaultdict

REMAINDER = "remainder"

# (module, attribute, span name). The attribute is the name the caller looks
# up at call time: a function imported with ``from .x import f`` is patched in
# the importing module, one called as ``module.f`` in its own module.
TARGETS = (
    ("lansfrac.operators", "coeffs_to_phys", "spectral.inverse"),
    ("lansfrac.spectral", "coeffs_to_phys", "spectral.inverse"),
    ("lansfrac.operators", "phys_to_coeffs", "spectral.forward"),
    ("lansfrac.spectral", "phys_to_coeffs", "spectral.forward"),
    ("lansfrac.operators", "leray_project", "spectral.leray"),
    ("lansfrac.spectral", "leray_project", "spectral.leray"),
    ("lansfrac.integrator", "leray_project", "spectral.leray"),
    ("lansfrac.spectral", "measure_flags", "spectral.flags"),
    ("lansfrac.io", "measure_flags", "spectral.flags"),
    ("lansfrac.integrator", "rhs_f", "operators.rhs"),
    ("lansfrac.mild", "rhs_f", "operators.rhs"),
    ("lansfrac.diagnostics", "rhs_f", "operators.rhs"),
    ("lansfrac.cli", "run", "integrator.run"),
    ("lansfrac.integrator", "_advance", "integrator.step"),
    ("lansfrac.diagnostics", "record", "diagnostics.record"),
    ("lansfrac.mild", "picard_solve", "mild.picard"),
    ("lansfrac.mild", "_duhamel_sweep", "mild.duhamel"),
    ("lansfrac.io", "read_snapshot", "io.snapshot_read"),
    ("lansfrac.io", "write_snapshot", "io.snapshot_write"),
    ("lansfrac.cli", "emit_csv", "io.csv"),
    ("lansfrac.io:RunManifest", "add_output", "io.manifest"),
    ("lansfrac.cli", "write_manifest", "io.manifest"),
)


def _held_bytes(fields) -> int:
    """Bytes of the distinct coefficient arrays behind a list of fields."""
    seen = {}
    for f in fields:
        seen[id(f.coeffs)] = f.coeffs.nbytes
    return sum(seen.values())


class Tracer:
    """Spans and counts of one command; the window opens at the boundary."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[str] = []
        self.last: float | None = None  # last event time while the window is open
        self.start: float | None = None
        self.end: float | None = None
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.inclusive_all: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.step_starts: list[float] = []

    def _tick(self, now: float) -> None:
        if self.last is not None:
            self.self_s[self.stack[-1] if self.stack else REMAINDER] += now - self.last
            self.last = now

    def open_window(self, now: float) -> None:
        self.start = self.last = now

    def close_window(self, now: float) -> None:
        self._tick(now)
        self.last = None
        self.end = now

    @property
    def in_window(self) -> bool:
        return self.last is not None

    def wrap(self, fn, name: str, observe=None):
        """Return fn wrapped in a span; observe(args, result) sees each call."""

        def traced(*args, **kwargs):
            now = self.clock()
            self._tick(now)
            outer = name not in self.stack
            self.stack.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                done = self.clock()
                self._tick(done)
                self.stack.pop()
                if outer:
                    self.inclusive_all[name] += done - now
                    if self.in_window:
                        self.inclusive[name] += done - max(now, self.start)
                if self.in_window:
                    self.calls[name] += 1
            if observe is not None and self.in_window:
                observe(args, result)
            return result

        return traced

    # Observers: counts taken from arguments and results at the boundary.

    def _fft(self, args, result) -> None:
        arr, dim = args[0], args[1]
        per_field = 1
        for n in arr.shape[-dim:]:
            per_field *= n
        self.counts["fft_fields"] += arr.size // per_field
        self.counts["fft_bytes"] += arr.size * 16  # complex128 points transformed

    def _rhs(self, args, result) -> None:
        if "mild.picard" in self.stack:
            self.counts["picard_rhs"] += 1

    def _snapshot_write(self, args, result) -> None:
        self.counts["snapshot_files"] += 1
        self.counts["snapshot_bytes"] += os.path.getsize(args[2])

    def _run(self, args, result) -> None:
        self.counts["held_bytes"] += _held_bytes(result.snapshots)

    def _picard(self, args, result) -> None:
        _traj, state = result
        self.counts["picard_sweeps"] += state.n_iter
        self.counts["iterates_bytes"] += _held_bytes(
            [f for sweep in state.iterates for f in sweep]
        )

    def install(self) -> None:
        """Patch every target; the step wrapper also records step start times."""
        observers = {
            "spectral.inverse": self._fft,
            "spectral.forward": self._fft,
            "operators.rhs": self._rhs,
            "io.snapshot_write": self._snapshot_write,
            "integrator.run": self._run,
            "mild.picard": self._picard,
        }
        for target, attr, name in TARGETS:
            modname, _, clsname = target.partition(":")
            owner = importlib.import_module(modname)
            if clsname:
                owner = getattr(owner, clsname)
            fn = getattr(owner, attr)
            wrapped = self.wrap(fn, name, observers.get(name))
            if name == "integrator.step":
                wrapped = self._stamp_steps(wrapped)
            setattr(owner, attr, wrapped)

    def _stamp_steps(self, fn):
        def stamped(*args, **kwargs):
            if self.in_window:
                self.step_starts.append(self.clock())
            return fn(*args, **kwargs)

        return stamped

    def metrics(self, import_s: float) -> dict[str, float]:
        """Per-layer metrics of the window, keyed as in BENCHMARK.json."""
        solve = self.end - self.start
        steps = len(self.step_starts)
        per_step = 1.0 / steps if steps else 0.0
        gaps = [b - a for a, b in zip(self.step_starts, self.step_starts[1:])]
        step_ms = 1e3 * statistics.median(gaps) if gaps else 0.0
        mib = 1.0 / 2**20
        s, inc, calls, c = self.self_s, self.inclusive, self.calls, self.counts
        return {
            "cli.import_s": import_s,
            "io.snapshot_read_s": self.inclusive_all["io.snapshot_read"],
            "io.snapshot_write_s": inc["io.snapshot_write"],
            "io.manifest_s": inc["io.manifest"],
            "io.csv_s": inc["io.csv"],
            "io.snapshot_files": c["snapshot_files"],
            "io.snapshot_mib": c["snapshot_bytes"] * mib,
            "spectral.inverse_s": inc["spectral.inverse"],
            "spectral.forward_s": inc["spectral.forward"],
            "spectral.fields_per_step": c["fft_fields"] * per_step,
            "spectral.fft_mib_per_step": c["fft_bytes"] * mib * per_step,
            "spectral.leray_s": inc["spectral.leray"],
            "spectral.leray_calls_per_step": calls["spectral.leray"] * per_step,
            "spectral.flags_s": inc["spectral.flags"],
            "spectral.flags_calls_per_step": calls["spectral.flags"] * per_step,
            "operators.rhs_s": inc["operators.rhs"],
            "operators.rhs_self_s": s["operators.rhs"],
            "operators.rhs_calls_per_step": calls["operators.rhs"] * per_step,
            "integrator.steps": steps,
            "integrator.step_ms": step_ms,
            "integrator.self_s": s["integrator.run"] + s["integrator.step"],
            "integrator.held_mib": c["held_bytes"] * mib,
            "diagnostics.record_s": inc["diagnostics.record"],
            "diagnostics.record_self_s": s["diagnostics.record"],
            "diagnostics.record_calls": calls["diagnostics.record"],
            "mild.picard_s": inc["mild.picard"],
            "mild.picard_self_s": s["mild.picard"],
            "mild.duhamel_s": inc["mild.duhamel"],
            "mild.sweeps": c["picard_sweeps"],
            "mild.rhs_calls": c["picard_rhs"],
            "mild.iterates_mib": c["iterates_bytes"] * mib,
            "trace.solve_s": solve,
            "trace.remainder_s": s[REMAINDER],
        }

