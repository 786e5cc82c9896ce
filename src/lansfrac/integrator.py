"""Time evolution of du/dt = -nu A^s u + f(u, u) with the stiff part exact.

The dissipative semigroup is applied as an exact per-mode multiplier, so the
schemes here are exponential integrators: the step is the discrete Duhamel
formula with phi-function weights on the nonlinearity. ExpEuler is first
order and kept as a simple oracle; ETD2RK (the two-stage exponential
Runge-Kutta of Cox-Matthews) is the default. Galerkin truncation to a sharp
spectral cutoff reproduces the semidiscrete existence scheme and is available
per step through ``galerkin_N``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import diagnostics
from .errors import ConfigError, DivergedError, SnapshotMismatchError
from .operators import (
    _kernel_workspace,
    phase,
    rhs_f_band,
    u_from_v,
    v_from_u,
    v_nonlinearity,
)
from .operators import rhs_f  # noqa: F401  the benchmark's tracer patches integrator.rhs_f
from .spectral import (
    GridSpec,
    Params,
    SpectralField,
    half_spectrum,
    leray_project,
    measure_flags,
    norm_DAr,
    reflect_conj,
    stokes_multiplier,
    to_spectral,
)

PHI_SWITCH = 1e-4
BLOWUP_FACTOR = 1e6
MAX_STEPS = 2**53  # above it dt * i no longer tells consecutive steps apart


class SchemeKind(Enum):
    EXP_EULER = "exp-euler"
    ETD2RK = "etd2rk"


@dataclass(frozen=True)
class StepScheme:
    """Time-stepping choice; dt is fixed."""

    kind: SchemeKind = SchemeKind.ETD2RK
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if not math.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class InitialData:
    """Initial condition recipe.

    kinds: "taylor-green", "shear", "random-spectrum", "snapshot". For the
    random spectrum, per-mode vector amplitudes follow |k|^{-decay_exponent}
    with seeded phases and the field is rescaled so ||u0||_{D(A)} = amplitude;
    for the analytic profiles, amplitude multiplies the profile.
    """

    kind: str
    amplitude: float = 1.0
    seed: int = 0
    decay_exponent: float | None = None
    band: int | None = None
    path: str | None = None

    _KINDS = ("taylor-green", "shear", "random-spectrum", "snapshot")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown initial-data kind: {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if self.decay_exponent is not None and not math.isfinite(self.decay_exponent):
            raise ValueError(f"decay_exponent must be finite, got {self.decay_exponent}")
        if self.kind == "snapshot" and not self.path:
            raise ValueError("snapshot initial data needs a path")


@dataclass(frozen=True)
class SimConfig:
    grid: GridSpec
    params: Params
    scheme: StepScheme
    t_end: float
    initial: InitialData
    galerkin_N: int | None = None
    snapshot_every: int = 1
    out_dir: str | None = None
    linear_only: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.t_end / self.scheme.dt > MAX_STEPS:
            raise ValueError(
                f"t_end / dt = {self.t_end / self.scheme.dt:.3g} steps exceeds 2**53, "
                "the largest step count float64 step times can index"
            )
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        half = self.grid.N // 2
        if self.galerkin_N is not None and not 1 <= self.galerkin_N <= half:
            raise ValueError(f"galerkin_N must lie in [1, N/2] = [1, {half}], got {self.galerkin_N}")
        band = self.initial.band
        if band is not None and not 1 <= band <= half - 1:
            raise ValueError(f"band must lie in [1, N/2-1] = [1, {half - 1}], got {band}")


@dataclass
class Trajectory:
    """Snapshot series (empty when ``run`` streamed it to a sink) plus dense
    per-step diagnostics."""

    times: np.ndarray
    snapshots: Sequence[SpectralField]
    diag: list[diagnostics.DiagRecord]


def phi_functions(z):
    """Exponential-integrator weights phi1(z) = (e^z-1)/z, phi2 = (e^z-1-z)/z^2.

    A 6-term Taylor series takes over for |z| < 1e-4, and is evaluated only
    there; the closed form is evaluated in extended precision so the two
    branches agree to 1e-12 at the switch. Both are 0 at z = -inf, where
    nu dt |k|^{2s} has overflowed, so every z <= 0 gives finite weights.
    """
    z = np.asarray(z, dtype=np.float64)
    small, gone = np.abs(z) < PHI_SWITCH, np.isneginf(z)
    zs = np.where(small, z, 0.0)  # the series' powers of z overflow far off the switch
    c1 = [1.0 / math.factorial(m + 1) for m in range(6)]
    c2 = [1.0 / math.factorial(m + 2) for m in range(6)]
    p1s = np.zeros_like(z)
    p2s = np.zeros_like(z)
    for a1, a2 in zip(reversed(c1), reversed(c2)):
        p1s = p1s * zs + a1
        p2s = p2s * zs + a2

    zl = z.astype(np.longdouble)
    zl_safe = np.where(small | gone, 1.0, zl)
    em1 = np.expm1(zl_safe)
    p1c = (em1 / zl_safe).astype(np.float64)
    p2c = ((em1 - zl_safe) / zl_safe**2).astype(np.float64)

    phi1 = np.where(small, p1s, np.where(gone, 0.0, p1c))
    phi2 = np.where(small, p2s, np.where(gone, 0.0, p2c))
    if phi1.ndim == 0:
        return float(phi1), float(phi2)
    return phi1, phi2


def galerkin_truncate(field: SpectralField, N_cut: int) -> SpectralField:
    """Sharp spectral cutoff: set all modes with max_i |k_i| > N_cut to +0.0."""
    if N_cut < 1:
        raise ValueError(f"N_cut must be >= 1, got {N_cut}")
    grid = field.grid
    mask = np.max(np.abs(grid.k), axis=0) <= N_cut
    # np.where, not coeffs * mask, which leaves -0.0 where a cut part is negative
    return field.copy_with(np.where(mask, field.coeffs, 0.0))


def _random_solenoidal_coeffs(
    grid: GridSpec, decay_exponent: float, seed: int, band: int
) -> np.ndarray:
    """Hermitian solenoidal coefficients with |uhat(k)| = |k|^{-p} on the band."""
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # Hermitize, project, then pin the per-mode vector modulus to the target
    # spectrum; every step preserves the conjugate symmetry. The draws fill
    # the full spectrum and the half is kept, so a seed's field does not
    # depend on the storage layout.
    herm = half_spectrum(0.5 * (raw + reflect_conj(raw, grid.dim)))
    proj = leray_project(SpectralField.from_coeffs(grid, herm)).coeffs
    modulus = np.sqrt(np.sum(np.abs(proj) ** 2, axis=0))
    target = stokes_multiplier(grid.k2, -decay_exponent / 2.0)
    keep = np.max(np.abs(grid.k), axis=0) <= band
    scale = np.where(modulus > 1e-30, target / np.where(modulus > 1e-30, modulus, 1.0), 0.0)
    # +0.0 outside the band, as a dealiased field has (proj * 0.0 can be -0.0)
    out = np.where(keep, proj * scale, 0.0)
    out[(slice(None),) + (0,) * grid.dim] = 0.0
    return out


def make_initial(
    initial: InitialData, grid: GridSpec, params: Params | None = None
) -> SpectralField:
    """Realize an initial-data recipe as a solenoidal zero-mean field.

    A snapshot must match the grid and, when params is given, the alpha, nu
    and s of its header; otherwise SnapshotMismatchError is raised.
    Random-spectrum data keep the modes with every |k_i| <= band (by default
    ``grid.band_limit``). A band >= N/2 gives the band N/2-1 field, because
    the Leray projection zeroes every Nyquist mode, and a band <= 0 leaves
    the field empty, which raises. ``SimConfig`` checks a config's band.
    """
    amp = initial.amplitude
    if initial.kind == "shear":
        phys = np.zeros((grid.dim,) + grid.shape)
        phys[0] = amp * np.sin(grid.x[1])
        return to_spectral(phys, grid)
    if initial.kind == "taylor-green":
        x = grid.x
        phys = np.zeros((grid.dim,) + grid.shape)
        if grid.dim == 2:
            phys[0] = amp * np.sin(x[0]) * np.cos(x[1])
            phys[1] = -amp * np.cos(x[0]) * np.sin(x[1])
        else:
            phys[0] = amp * np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2])
            phys[1] = -amp * np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2])
        return to_spectral(phys, grid)
    if initial.kind == "random-spectrum":
        p = initial.decay_exponent
        if p is None:
            # Borderline-D(A) spectrum: ||A u|| barely converges as N grows.
            p = 2.0 + grid.dim / 2.0 + 0.01
        band = initial.band if initial.band is not None else grid.band_limit
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _random_solenoidal_coeffs(grid, p, initial.seed, band)
            u = SpectralField.from_coeffs(grid, coeffs)
            nda = norm_DAr(u, 1.0)
        if not math.isfinite(nda):
            raise ConfigError(f"decay_exponent = {p!r} overflows the random-spectrum field")
        if nda == 0.0:
            raise ValueError("random-spectrum initial data came out empty")
        return u * (amp / nda)
    if initial.kind == "snapshot":
        from .io import read_snapshot  # local import: io sits above the solver

        field, meta = read_snapshot(initial.path)
        if field.grid != grid:
            raise SnapshotMismatchError(
                f"snapshot grid (dim={field.grid.dim}, N={field.grid.N}) does not "
                f"match configured grid (dim={grid.dim}, N={grid.N})"
            )
        if params is not None:
            for name in ("alpha", "nu", "s"):
                have, want = getattr(meta, name), getattr(params, name)
                if have != want:
                    raise SnapshotMismatchError(
                        f"snapshot {name} = {have!r} does not match configured {name} = {want!r}"
                    )
        return field * amp
    raise ValueError(f"unknown initial-data kind: {initial.kind!r}")


def _weights(size: int, nu: float, s: float, dt: float) -> np.ndarray:
    """E = e^z, w1 = dt phi1(z) and w2 = dt phi2(z), z = -nu dt |k|^{2s}, for
    |k|^2 = 0, 1, ..., size - 1, stacked: shape (3, size). A grid's k2 holds
    integers (``GridSpec``), so indexed by k2 the table gives each mode the
    per-mode formula's bits: 676 entries serve the 15,376 modes of the 3D
    N=48 band block, which hold 566 distinct |k|^2. A z that overflows is
    -inf, whose weights are E = 0 and w1 = w2 = 0 (``phi_functions``)."""
    with np.errstate(over="ignore"):
        z = -nu * dt * stokes_multiplier(np.arange(size, dtype=np.float64), s)
    phi1, phi2 = phi_functions(z)
    return np.stack([np.exp(z), dt * phi1, dt * phi2])


def _stage(ws, part: int | None) -> None:
    """state = E state + w1 f(state) on part's k_0 rows, the step's stage, in place."""
    rows = ws.rows[part]
    u, (E, w1, _) = ws.state[:, rows], ws.weights[:, rows]
    np.multiply(E, u, out=u)
    np.add(u, np.multiply(w1, ws.f_state[:, rows]), out=u)


def _update(ws, part: int | None) -> None:
    """state = stage + w2 (f(stage) - f(state)) on part's k_0 rows, in place over
    the stage, with f(stage) in the kernel's product block: the ETD2RK update."""
    rows = ws.rows[part]
    work = np.subtract(ws.product[:, rows], ws.f_state[:, rows])
    np.multiply(ws.weights[2, rows], work, out=work)
    np.add(ws.state[:, rows], work, out=ws.state[:, rows])


_STAGE, _UPDATE = phase(_stage), phase(_update)


def _advance(ws, kind: SchemeKind, f_stage: Callable[[np.ndarray], object]) -> np.ndarray:
    """One exponential step of the kernel workspace's state, in place; the new state.

    ws.state holds u, ws.f_state f(u) and ws.weights the step's E, w1 and
    w2 (see ``run``). The stage is formed in place over u, f_stage(stage)
    writes f(stage) into ws.product, and the ETD2RK update is formed in
    place over the stage; w1 f(u) and f(stage) - f(u) are row temporaries.
    Each arithmetic pass is a phase of ``ws.split``, so a kernel helper
    takes half of its rows; every element's operations are the same, so
    the bits are too. ``run`` checks the result.
    """
    ws.split(_STAGE)
    if kind is SchemeKind.ETD2RK:
        f_stage(ws.state)
        ws.split(_UPDATE)
    return ws.state


# A step on a blown-up state over- or underflows on the way; the audit that
# follows reports that state as a DivergedError, so numpy need not warn.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _steps(t_end: float, dt: float) -> tuple[int, float]:
    """(n, h): the number of steps covering [0, t_end], and the last one's length.

    Step i ends at ``_step_time(i, n, t_end, dt)``: dt * i, and exactly t_end
    for the last step i = n. Every step is dt long but a shorter last one,
    t_end - dt (n - 1), where that is off dt by more than 1e-9 max(dt, t_end).
    """
    if t_end == 0.0:
        return 0, dt
    tol = 1e-9 * max(dt, t_end)
    n = math.floor(t_end / dt + 1e-9)
    if t_end - dt * n > tol:
        n += 1
    h = t_end - dt * (n - 1)
    return n, h if abs(h - dt) > tol else dt


def _step_time(i: int, n: int, t_end: float, dt: float) -> float:
    """End time of step i of n (see _steps)."""
    return t_end if i == n else dt * i


def _broken(flags: tuple[bool, ...], step: int, t: float) -> DivergedError:
    """The error of a state whose flags (u's, f's, the tail's) are not all set."""
    what = "field invariant broken"
    if all(flags[:3] + flags[5:]):
        what = f"the nonlinearity f(u, u) {'is not solenoidal' if flags[4] else 'carries a mean'}"
    return DivergedError(f"{what} at step {step}", step=step, t=t)


def run(
    config: SimConfig,
    initial_field: SpectralField | None = None,
    on_snapshot: Callable[[SpectralField, float], None] | None = None,
    form: str = "u",
) -> Trajectory:
    """March the configured problem to t_end, recording diagnostics each step.

    A snapshot is taken at t = 0, every ``snapshot_every`` steps and at t_end,
    and goes to exactly one consumer: ``on_snapshot(field, t)`` when it is
    given, else the returned Trajectory. So a run with a sink holds no fields
    (its ``times`` and ``snapshots`` are empty), and its memory does not grow
    with the number of steps or snapshots. The t = 0 snapshot is the start
    state itself, taken right after the first f and diagnostics record.

    The steps are ``_march``'s, which holds the time loop; run takes the
    Galerkin cutoff and the v form of the start before it, and builds the
    snapshots from the states it yields. Each later snapshot is
    ``BandPlan.join`` of the state's block and tail, the only full field the
    run builds: the bytes a whole-spectrum step gives. ``on_snapshot`` must
    neither start another run on this (grid, alpha) nor evaluate f there:
    any kernel call, ``rhs_f`` and ``diagnostics.record`` included,
    overwrites the state (see ``_march``).

    form = "v" evolves the filtered momentum v = (1 + alpha^2 A) u instead;
    snapshots then hold v. Raises DivergedError, with the step and its end
    time and the records made through the failing state, as ``_march``
    does.
    """
    if form not in ("u", "v"):
        raise ValueError(f"form must be 'u' or 'v', got {form!r}")
    grid, alpha = config.grid, config.params.alpha

    # start is the run's only reference to its initial field, so that the
    # field can be freed once the t = 0 snapshot no longer needs it
    start = (
        initial_field
        if initial_field is not None
        else make_initial(config.initial, grid, config.params)
    )
    del initial_field
    if config.galerkin_N is not None:
        start = galerkin_truncate(start, config.galerkin_N)
    if form == "v":
        start = v_from_u(start, alpha)

    snapshots: list[SpectralField] = []
    snap_times: list[float] = []
    if on_snapshot is None:
        def on_snapshot(w: SpectralField, t: float) -> None:
            snapshots.append(w)
            snap_times.append(t)

    plan = _kernel_workspace(grid, alpha).plan
    n_steps, _ = _steps(config.t_end, config.scheme.dt)
    diag: list[diagnostics.DiagRecord] = []
    for step, (t, block, _, modes, tail) in enumerate(_march(config, start, form, diag)):
        if step == 0:
            on_snapshot(start, 0.0)
            del start
        elif step % config.snapshot_every == 0 or step == n_steps:
            on_snapshot(SpectralField.from_coeffs(grid, plan.join(block, modes, tail)), t)
    return Trajectory(times=np.array(snap_times), snapshots=snapshots, diag=diag)


def _march(
    config: SimConfig,
    start: SpectralField,
    form: str,
    diag: list[diagnostics.DiagRecord],
) -> Iterator[tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """The time loop of ``run``: step start, as it is, to config.t_end, and
    yield each checked state as (t, block, f, modes, tail).

    The states are the start (step 0) and the end of each step, in order.
    block is the state's band block, f = f(state) on the block, modes the
    flat indices of the tail and tail its (dim, n) values there, or None when
    the start has none (``BandPlan.split``). All three arrays are views of
    the march's own buffers, valid until the next state is asked for, so a
    consumer copies what it keeps. Each state's diagnostics record is
    appended to diag before it is yielded. start is neither cut nor
    converted here: ``run`` takes the Galerkin cutoff and the v form first.

    The march has one layout: the band block of its start state, plus a
    linear tail. The 2/3-dealiased f(u, u) reads and writes only the band
    block (see ``BandPlan``; Orszag 1971), so on every other mode the
    exponential step is E u + w1 0 + w2 0, the exact linear semigroup. The
    march steps the block: the state, f, the step's arrays, the propagator
    weights, the Galerkin mask, the v-form factor and the audit's tables
    hold just the band modes. The tail is the start's non-zero modes outside
    the block (``BandPlan.split``; the Galerkin cutoff is taken before, so
    it keeps them all), and only the propagator touches it, as tail = E tail
    + 0.0. A Galerkin cutoff sets its cut modes to +0.0. Each step calls
    ``_advance`` once.

    The block's state, f(state) and the step's weights live in the kernel
    workspace (``operators._KernelWorkspace``), where the step is formed in
    place, so a march holds no block of its own beyond the tail. The stage,
    the update and the audit's per-mode pass are phases of
    ``_KernelWorkspace.split``: inside ``operators.kernel_helper`` the
    helper process takes half of their k_0 rows, and half of each kernel
    call. This process alone computes the weights (``_weights``: dt's table
    before the loop, a shorter last step's before that step), the
    Galerkin cut (one masked copy), the audit's sums, the checks and the
    tail, so every output has the same bytes with or without the helper.
    The workspace holds one march's step, its state in the kernel's input
    block, so a consumer must neither start another march on this
    (grid, alpha) nor evaluate f there between two states.

    form = "v" steps the filtered momentum v = (1 + alpha^2 A) u. Each
    state gets one ``diagnostics.audit`` of u and f(u), the march's only
    check, whose record sums block and tail. Raises DivergedError, with the
    step and its end time, if an invariant flag (real / solenoidal /
    zero-mean) of that state's block or the solenoidal or zero-mean flag of
    its f breaks, which a non-finite state does, or if the D(A) norm exceeds
    1e6 times its initial value; f(stage) is checked through the state it
    makes. No energy enters the flags, so a finite start whose E0
    overflows passes and its first step reports the blow-up. The start is
    step 0, checked before it is yielded, and with a tail all of it by
    ``measure_flags``. E is real and even, so the tail stays real,
    solenoidal and mean-free and needs no later check. The error's ``diag``
    is diag, the records through the failing state.
    """
    grid, params = config.grid, config.params
    alpha = params.alpha
    ws = _kernel_workspace(grid, alpha)
    plan = ws.plan
    state, modes, tail = plan.split(start.coeffs, out=ws.state)
    tables = diagnostics.audit_tables(grid, alpha, params.s)
    # f(state) into ws.f_state, f(stage) into ws.product (see _advance)
    if config.linear_only:
        f_new, f_step = (lambda w: ws.f_state.fill(0.0)), (lambda w: ws.product.fill(0.0))
    elif form == "v":
        def f_of(w: np.ndarray, out: np.ndarray) -> None:
            v = SpectralField.from_coeffs(grid, plan.join(w))
            plan.gather(v_nonlinearity(u_from_v(v, alpha), v).coeffs, out=out)

        f_new, f_step = (lambda w: f_of(w, ws.f_state)), (lambda w: f_of(w, ws.product))
    else:
        f_new = lambda w: rhs_f_band(grid, w, params, out=ws.f_state)
        f_step = lambda w: rhs_f_band(grid, w, params)
    helm = 1.0 + alpha**2 * ws.k2 if form == "v" else None
    cut = None
    if config.galerkin_N is not None:  # the block's modes the Galerkin cutoff sets to +0.0
        cut = plan.gather(np.max(np.abs(grid.k), axis=0) > config.galerkin_N)
    k2_block, k2_tail = ws.k2.astype(np.intp), None  # _weights' table indices
    audit_tail = None
    if tail is not None:
        k2_tail = grid.k2.ravel()[modes].astype(np.intp)
        rows = diagnostics.tail_rows(grid, alpha, params.s, modes)
        if form == "v":  # the energies of u = v / (1 + alpha^2 |k|^2)
            rows = rows / (1.0 + alpha**2 * k2_tail) ** 2
        audit_tail = (rows, tail)  # the tail is stepped in place
    size = 1 + int(k2_block.max() if tail is None else max(k2_block.max(), k2_tail.max()))

    dt = config.scheme.dt
    n_steps, last = _steps(config.t_end, dt)

    def load(h: float) -> np.ndarray | None:
        """Put the weights of a step of length h into ws.weights; the tail's E."""
        table = _weights(size, params.nu, params.s, h)
        np.copyto(ws.weights, table[:, k2_block])
        return None if tail is None else table[0, k2_tail]

    def audit(t: float) -> tuple[bool, ...]:
        if helm is None:
            ws.split(diagnostics.PER_MODE)
            flags, rec = diagnostics.audit(ws.state, ws.f_state, tables, t, audit_tail,
                                           (ws.per_mode, ws.maxima))
        else:  # u and f(u): exact conjugacy of the forms
            flags, rec = diagnostics.audit(ws.state / helm, ws.f_state / helm, tables, t,
                                           audit_tail)
        diag.append(rec)
        return flags

    try:
        with np.errstate(**_QUIET):
            f_new(state)
            flags = audit(0.0)
            if tail is not None:
                flags += measure_flags(grid, start.coeffs)
        if not all(flags):
            raise _broken(flags, 0, 0.0)
        guard = BLOWUP_FACTOR * max(diag[0].nDA, 1e-300)
        del start  # the caller's snapshot of t = 0 is its last use
        yield 0.0, state, ws.f_state, modes, tail

        e_tail = load(dt)
        for i in range(n_steps):
            t = _step_time(i + 1, n_steps, config.t_end, dt)
            if i == n_steps - 1 and last != dt:
                e_tail = load(last)
            with np.errstate(**_QUIET):
                state = _advance(ws, config.scheme.kind, f_step)
                if tail is not None:
                    np.add(np.multiply(e_tail, tail, out=tail), 0.0, out=tail)
                if cut is not None:
                    np.copyto(state, 0.0, where=cut)
                f_new(state)
                flags = audit(t)

            if not all(flags):
                raise _broken(flags, i + 1, t)
            if diag[-1].nDA > guard:
                raise DivergedError(f"D(A) norm blew up at step {i + 1}", step=i + 1, t=t)
            yield t, state, ws.f_state, modes, tail
    except DivergedError as exc:
        exc.diag = diag  # the records through the failing state
        raise
