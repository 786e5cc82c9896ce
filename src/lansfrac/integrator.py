"""Time evolution of du/dt = -nu A^s u + f(u, u) with the stiff part exact.

The dissipative semigroup is applied as an exact per-mode multiplier, so the
schemes here are exponential integrators: the step is the discrete Duhamel
formula with phi-function weights on the nonlinearity. ExpEuler is first
order and kept as a simple oracle; ETD2RK (the two-stage exponential
Runge-Kutta of Cox-Matthews) is the default. Galerkin truncation to a sharp
spectral cutoff reproduces the semidiscrete existence scheme and is available
per step through ``galerkin_N``.

``march`` is the one time loop. It yields each checked state, and every
consumer reads those states: ``run``, which keeps the records and the
cadenced snapshots for the tests and the acceptance criteria, and each
stepping command of ``cli``.
"""

from __future__ import annotations

import itertools
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
    v_nonlinearity,
)
from .operators import rhs_f  # noqa: F401  the benchmark's tracer patches integrator.rhs_f
from .spectral import (
    GridSpec,
    Params,
    SpectralField,
    band_flags,
    half_spectrum,
    leray_project,
    norm_DAr,
    reflect_conj,
    stokes_multiplier,
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
    """The snapshots a run keeps, with their times, plus the record of every state."""

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


def _restart(initial: InitialData, grid: GridSpec, params: Params | None) -> tuple:
    """A snapshot's block, modes and tail as stored (``io.read_band``), times
    the amplitude. The snapshot must match the grid and, when params is
    given, the alpha, nu and s of its header, else SnapshotMismatchError."""
    from .io import read_band  # local import: io sits above the solver

    (block, modes, tail), file_grid, meta = read_band(initial.path)
    pairs = [("grid", f"(dim={file_grid.dim}, N={file_grid.N})", f"(dim={grid.dim}, N={grid.N})")]
    names = ("alpha", "nu", "s") if params is not None else ()
    pairs += [(name, getattr(meta, name), getattr(params, name)) for name in names]
    for name, have, want in pairs:
        if have != want:
            raise SnapshotMismatchError(
                f"snapshot {name} = {have} does not match configured {name} = {want}")
    return block * initial.amplitude, modes, tail * initial.amplitude


def make_initial(
    initial: InitialData, grid: GridSpec, params: Params | None = None
) -> SpectralField:
    """Realize an initial-data recipe as a solenoidal zero-mean field.

    ``shear`` (sin y, 0, 0) and ``taylor-green`` (sin x cos y, -cos x sin y,
    0), times cos z in 3D, are written as their exact Fourier coefficients:
    their mean is +0.0, as is every mode outside the band block.
    Random-spectrum data keep the modes with every |k_i| <= band (by default
    ``grid.band_limit``). A band >= N/2 gives the band N/2-1 field, because
    the Leray projection zeroes every Nyquist mode, and a band <= 0 leaves
    the field empty, which raises. ``SimConfig`` checks a config's band. A
    snapshot is its block and tail joined (``_restart``).
    """
    amp = initial.amplitude
    if initial.kind in ("shear", "taylor-green"):
        # A term sign amp sin(x_a) prod_b cos(x_b) over n axes has the coefficient
        # -i sign amp k_a / 2^n at each k = +-1 on its axes, 0 on the others, as
        # sin x = (e^{ix} - e^{-ix}) / 2i and cos x = (e^{ix} + e^{-ix}) / 2; the
        # half spectrum keeps those with k_last >= 0.
        shear = initial.kind == "shear"
        axes = (1,) if shear else range(grid.dim)
        terms = ((0, 1, 1.0),) if shear else ((0, 0, 1.0), (1, 1, -1.0))  # component, a, sign
        coeffs = np.zeros((grid.dim,) + grid.spectral_shape, np.complex128)
        for k in itertools.product(*[(1, -1) if b in axes else (0,) for b in range(grid.dim)]):
            for component, a, sign in terms if k[-1] >= 0 else ():
                coeffs.imag[(component, *k)] = -sign * amp * k[a] / 2 ** len(axes)
        return SpectralField.from_coeffs(grid, coeffs)
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
        return SpectralField.from_coeffs(grid, grid.layout.join(*_restart(initial, grid, params)))
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
    w2 (see ``march``). The stage is formed in place over u, f_stage(stage)
    writes f(stage) into ws.product, and the ETD2RK update is formed in
    place over the stage; w1 f(u) and f(stage) - f(u) are row temporaries.
    Each arithmetic pass is a phase of ``ws.split``, so a kernel helper
    takes half of its rows; every element's operations are the same, so
    the bits are too. ``march`` checks the result.
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


def _check(flags: tuple[bool, ...], step: int, t: float, f: np.ndarray | None = None) -> None:
    """Raise DivergedError for a state whose flags (u's, f's, the tail's) are not all
    set, or whose f, given at the last state, which no step follows, is not finite."""
    what = None
    if not all(flags[:3] + flags[5:]):
        what = "field invariant broken"
    elif not all(flags[3:5]):
        what = f"the nonlinearity f(u, u) {'is not solenoidal' if flags[4] else 'carries a mean'}"
    elif f is not None and not np.isfinite(f).all():
        what = "the nonlinearity f(u, u) is not finite"
    if what:
        raise DivergedError(f"{what} at step {step}", step=step, t=t)


def _mode_tables(config: SimConfig, form: str, modes: np.ndarray) -> list:
    """The march's per-mode tables as (band block, tail at the flat indices modes) pairs, None
    where unused: cut, True where the Galerkin cutoff sets a mode to +0.0; helm, 1 + alpha^2 k^2."""
    grid = config.grid
    cut = None if config.galerkin_N is None else np.max(np.abs(grid.k), axis=0) > config.galerkin_N
    helm = 1.0 + config.params.alpha**2 * grid.k2 if form == "v" else None
    return [None if a is None else (grid.layout.gather(a), a.ravel()[modes]) for a in (cut, helm)]


def start_field(
    config: SimConfig, initial_field: SpectralField | None = None, form: str = "u"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The start a march of config steps in the grid's layout: (block, modes,
    tail), its band block, its tail's flat indices and (dim, n) values.

    It is initial_field split once (``BandLayout.split``), else a restart's
    block and tail as stored (``_restart``, no full field built), else
    ``make_initial``'s field split. The Galerkin cutoff sets its cut block
    modes to +0.0, and the tail keeps only its non-zero modes that the cutoff
    keeps; for form = "v" both then hold v = (1 + alpha^2 A) u. The tables
    are the march's (``_mode_tables``), with the bits of the cutoff and the
    factor taken on the whole field.
    """
    grid = config.grid
    if initial_field is not None:
        block, modes, tail = grid.layout.split(initial_field.coeffs)
    elif config.initial.kind == "snapshot":
        block, modes, tail = _restart(config.initial, grid, config.params)
    else:
        block, modes, tail = grid.layout.split(make_initial(config.initial, grid).coeffs)
    cut, helm = _mode_tables(config, form, modes)
    keep = np.any(tail != 0, axis=0)
    if cut is not None:
        block = np.where(cut[0], 0.0, block)
        keep &= ~cut[1]
    modes, tail = modes[keep], tail[:, keep]
    if helm is not None:
        block, tail = block * helm[0], tail * helm[1][keep]
    return block, modes, tail


class State:
    """One checked state of a ``march``.

    step counts the steps made (0 for the start) and t is the state's time.
    On the grid's layout (``grid.layout``), block is its band block, f =
    f(state) on the block, modes the flat indices of the tail and tail its
    (dim, n) values there, n = 0 when the start has none (``start_field``).
    The arrays are views of the march's own buffers, and the state is
    valid until the next one is asked for, so a consumer copies what it
    keeps; ``io.write_snapshot`` writes the state from them. snapshot says
    whether the snapshot cadence takes the state: step 0, every
    ``snapshot_every`` steps and the last step.
    """

    __slots__ = ("step", "t", "block", "f", "modes", "tail", "snapshot", "grid")

    def __init__(self, step, t, block, f, modes, tail, snapshot, grid):
        self.step, self.t, self.block, self.f = step, t, block, f
        self.modes, self.tail, self.snapshot = modes, tail, snapshot
        self.grid = grid

    def field(self) -> SpectralField:
        """The state as a full field: a new ``BandLayout.join`` of block and
        tail, +0.0 on every other mode, the bytes a whole-spectrum step gives."""
        coeffs = self.grid.layout.join(self.block, self.modes, self.tail)
        return SpectralField.from_coeffs(self.grid, coeffs)


def run(
    config: SimConfig, initial_field: SpectralField | None = None, form: str = "u"
) -> Trajectory:
    """The ``march`` of config from initial_field (else the config's initial
    data, see ``start_field``) to t_end, kept whole: every state's record and
    the full field (``State.field``) of each state the snapshot cadence
    takes, t = 0 included. For the tests and the acceptance criteria; the CLI's
    commands read the march. form = "v" evolves the filtered momentum
    v = (1 + alpha^2 A) u instead; snapshots then hold v. Raises
    DivergedError as ``march`` does.
    """
    diag: list[diagnostics.DiagRecord] = []
    times, snapshots = [], []
    for state in march(config, diag, start_field(config, initial_field, form), form):
        if state.snapshot:
            times.append(state.t)
            snapshots.append(state.field())
    return Trajectory(times=np.array(times), snapshots=snapshots, diag=diag)


def march(
    config: SimConfig,
    diag: list[diagnostics.DiagRecord],
    start: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    form: str = "u",
) -> Iterator[State]:
    """The time loop: step start, as it is, to config.t_end, and yield each
    checked ``State``, the start (step 0) and the end of each step, in order.

    start is a (block, modes, tail) of ``start_field``, by default
    ``start_field(config, form=form)``; its tail is stepped in place. Each
    state's diagnostics record is appended to diag before the state is
    yielded, so on any exit diag holds the records through the last state
    made, a failing one included. Every command and ``run`` read this one
    loop. A consumer must neither start another march on this (grid, alpha)
    nor evaluate f there between two states: any kernel call, ``rhs_f`` and
    ``diagnostics.record`` included, overwrites the state.

    The march has one layout, the grid's (``BandLayout``). The 2/3-dealiased
    f(u, u) reads and writes only the band block (Orszag 1971), so on every
    other mode the exponential step is E u + w1 0 + w2 0, the exact linear
    semigroup. So the state, f, the step's arrays, the weights and the
    tables (``_mode_tables``, the audit's) hold the band block alone, and the
    tail, the start's non-zero modes outside it, is stepped as tail = E tail
    + 0.0, a step an empty tail skips. A Galerkin cutoff sets its cut modes
    to +0.0. Each step calls the module's ``_advance`` once.

    The block's state, f(state) and the step's weights live in the kernel
    workspace (``operators._KernelWorkspace``), where the step is formed in
    place. The stage, the update and the audit's per-mode pass are phases
    of ``_KernelWorkspace.split``: inside ``operators.kernel_helper`` the
    helper process takes half of their k_0 rows, and half of each kernel
    call. This process alone computes the weights (``_weights``, per step
    length), the Galerkin cut, the audit's sums, the checks and the tail, so
    every output has the same bytes with or without the helper.

    form = "v" steps the filtered momentum v = (1 + alpha^2 A) u. Each state
    gets one ``diagnostics.audit`` of u and f(u), whose record sums block and
    tail. Raises DivergedError, with the step and its end time, if an
    invariant flag (real / solenoidal / zero-mean) of the state's block or
    the solenoidal or zero-mean flag of its f breaks, which a non-finite
    state does, or if the D(A) norm exceeds 1e6 times its initial value;
    f(stage) is checked through the state it makes, and a non-finite f
    through the next state, or at the last state, which none follows. No
    energy enters the flags, so a finite start whose E0 overflows passes
    and its first step reports the blow-up. A start with a tail is also
    checked whole (``spectral.band_flags``). E is real and even, so the
    tail stays real, solenoidal and mean-free.
    """
    if form not in ("u", "v"):
        raise ValueError(f"form must be 'u' or 'v', got {form!r}")
    if start is None:
        start = start_field(config, form=form)
    grid, params, alpha = config.grid, config.params, config.params.alpha
    ws, layout = _kernel_workspace(grid, alpha), grid.layout
    state, modes, tail = ws.state, start[1], start[2]
    np.copyto(state, start[0])
    del start  # the workspace holds the block from here
    tables = diagnostics.audit_tables(grid, alpha, params.s)
    # f(state) into ws.f_state, f(stage) into ws.product (see _advance)
    if config.linear_only:
        f_new, f_step = (lambda w: ws.f_state.fill(0.0)), (lambda w: ws.product.fill(0.0))
    elif form == "v":
        def f_of(w: np.ndarray, out: np.ndarray) -> None:
            v = SpectralField.from_coeffs(grid, layout.join(w))
            layout.gather(v_nonlinearity(u_from_v(v, alpha), v).coeffs, out=out)

        f_new, f_step = (lambda w: f_of(w, ws.f_state)), (lambda w: f_of(w, ws.product))
    else:
        f_new = lambda w: rhs_f_band(grid, w, params, out=ws.f_state)
        f_step = lambda w: rhs_f_band(grid, w, params)
    cut, helm = _mode_tables(config, form, modes)
    # _weights' table indices
    k2_block, k2_tail = ws.k2.astype(np.intp), grid.k2.ravel()[modes].astype(np.intp)
    rows = diagnostics.tail_rows(grid, alpha, params.s, modes)
    if helm is not None:  # the energies of u = v / (1 + alpha^2 |k|^2)
        rows = rows / helm[1] ** 2
    audit_tail = (rows, tail)  # the tail is stepped in place
    size = 1 + int(max(k2_block.max(), k2_tail.max(initial=0)))

    dt, every = config.scheme.dt, config.snapshot_every
    n_steps, last = _steps(config.t_end, dt)

    def load(h: float) -> np.ndarray:
        """Put the weights of a step of length h into ws.weights; the tail's E."""
        table = _weights(size, params.nu, params.s, h)
        np.copyto(ws.weights, table[:, k2_block])
        return table[0, k2_tail]

    def audit(t: float) -> tuple[bool, ...]:
        if helm is None:
            ws.split(diagnostics.PER_MODE)
            flags, rec = diagnostics.audit(ws.state, ws.f_state, tables, t, audit_tail,
                                           (ws.per_mode, ws.maxima))
        else:  # u and f(u): exact conjugacy of the forms
            flags, rec = diagnostics.audit(ws.state / helm[0], ws.f_state / helm[0], tables, t,
                                           audit_tail)
        diag.append(rec)
        return flags

    with np.errstate(**_QUIET):
        f_new(state)
        flags = audit(0.0)
        if tail.size:
            flags += band_flags(grid, state, modes, tail)
    _check(flags, 0, 0.0, ws.f_state if n_steps == 0 else None)
    guard = BLOWUP_FACTOR * max(diag[0].nDA, 1e-300)
    yield State(0, 0.0, state, ws.f_state, modes, tail, True, grid)

    e_tail = load(dt)
    for i in range(n_steps):
        step, t = i + 1, _step_time(i + 1, n_steps, config.t_end, dt)
        if step == n_steps and last != dt:
            e_tail = load(last)
        with np.errstate(**_QUIET):
            state = _advance(ws, config.scheme.kind, f_step)
            if tail.size:
                np.add(np.multiply(e_tail, tail, out=tail), 0.0, out=tail)
            if cut is not None:
                np.copyto(state, 0.0, where=cut[0])
            f_new(state)
            flags = audit(t)

        _check(flags, step, t, ws.f_state if step == n_steps else None)
        if diag[-1].nDA > guard:
            raise DivergedError(f"D(A) norm blew up at step {step}", step=step, t=t)
        yield State(step, t, state, ws.f_state, modes, tail,
                    step % every == 0 or step == n_steps, grid)
