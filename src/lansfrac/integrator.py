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
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import diagnostics
from .errors import ConfigError, DivergedError, SnapshotMismatchError
from .operators import rhs_f, u_from_v, v_from_u, v_nonlinearity
from .spectral import (
    GridSpec,
    Params,
    SpectralField,
    half_spectrum,
    leray_project,
    norm_DAr,
    reflect_conj,
    stokes_multiplier,
    to_spectral,
    zero_field,
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
            raise ValueError("snapshot_every must be >= 1")
        if self.galerkin_N is not None and not 1 <= self.galerkin_N <= self.grid.N // 2:
            raise ValueError(
                f"galerkin_N must lie in [1, N/2] = [1, {self.grid.N // 2}]"
            )


@dataclass
class Trajectory:
    """Snapshot series (empty when ``run`` streamed it to a sink) plus dense
    per-step diagnostics."""

    times: np.ndarray
    snapshots: Sequence[SpectralField]
    diag: list[diagnostics.DiagRecord]


def phi_functions(z):
    """Exponential-integrator weights phi1(z) = (e^z-1)/z, phi2 = (e^z-1-z)/z^2.

    A 6-term Taylor series takes over for |z| < 1e-4; the closed form is
    evaluated in extended precision so the two branches agree to 1e-12 at the
    switch.
    """
    z = np.asarray(z, dtype=np.float64)
    c1 = [1.0 / math.factorial(m + 1) for m in range(6)]
    c2 = [1.0 / math.factorial(m + 2) for m in range(6)]
    p1s = np.zeros_like(z)
    p2s = np.zeros_like(z)
    for a1, a2 in zip(reversed(c1), reversed(c2)):
        p1s = p1s * z + a1
        p2s = p2s * z + a2

    zl = z.astype(np.longdouble)
    zl_safe = np.where(z == 0.0, 1.0, zl)
    em1 = np.expm1(zl_safe)
    p1c = (em1 / zl_safe).astype(np.float64)
    p2c = ((em1 - zl_safe) / zl_safe**2).astype(np.float64)

    small = np.abs(z) < PHI_SWITCH
    phi1 = np.where(small, p1s, p1c)
    phi2 = np.where(small, p2s, p2c)
    if phi1.ndim == 0:
        return float(phi1), float(phi2)
    return phi1, phi2


def galerkin_truncate(field: SpectralField, N_cut: int) -> SpectralField:
    """Sharp spectral cutoff: zero all modes with max_i |k_i| > N_cut."""
    if N_cut < 1:
        raise ValueError(f"N_cut must be >= 1, got {N_cut}")
    grid = field.grid
    mask = np.max(np.abs(grid.k), axis=0) <= N_cut
    return field.copy_with(field.coeffs * mask)


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
    """
    amp = initial.amplitude
    x = grid.x
    if initial.kind == "shear":
        phys = np.zeros((grid.dim,) + grid.shape)
        phys[0] = amp * np.sin(x[1])
        return to_spectral(phys, grid)
    if initial.kind == "taylor-green":
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
        if not 1 <= band <= grid.N // 2 - 1:
            raise ValueError(f"random-spectrum band must lie in [1, N/2-1], got {band}")
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


class _Propagator:
    """Cached per-mode weights of one exponential step of size dt."""

    def __init__(self, grid: GridSpec, params: Params, dt: float):
        z = -params.nu * dt * stokes_multiplier(grid.k2, params.s)
        phi1, phi2 = phi_functions(z)
        self.E = np.exp(z)
        self.w1 = dt * phi1
        self.w2 = dt * phi2


def _advance(
    u: SpectralField,
    prop: _Propagator,
    kind: SchemeKind,
    f_eval: Callable[[SpectralField], SpectralField],
    f_u: SpectralField,
) -> SpectralField:
    """One exponential step from u, with f_u = f(u) already evaluated.

    The stage and the ETD2RK update are formed with ``out=`` in two arrays.
    w1 f(u) and f(stage) are temporaries, so neither outlives its one use:
    w1 f(u) is freed before the stage's f is evaluated. ``run`` checks the result.
    """
    stage_c = np.multiply(prop.E, u.coeffs)
    stage = u.copy_with(np.add(stage_c, np.multiply(prop.w1, f_u.coeffs), out=stage_c))
    if kind is SchemeKind.EXP_EULER:
        return stage
    work = np.subtract(f_eval(stage).coeffs, f_u.coeffs)
    np.multiply(prop.w2, work, out=work)
    return stage.copy_with(np.add(stage.coeffs, work, out=work))


def _step_count(t_end: float, dt: float) -> int:
    """Steps covering [0, t_end], uniform at dt except a shorter last one.

    Step i ends at ``_step_time(i, n, t_end, dt)``: dt * i, and exactly t_end
    for the last step i = n.
    """
    if t_end == 0.0:
        return 0
    n = math.floor(t_end / dt + 1e-9)
    return n + 1 if t_end - dt * n > 1e-9 * max(dt, t_end) else n


def _step_time(i: int, n: int, t_end: float, dt: float) -> float:
    """End time of step i of n (see _step_count)."""
    return t_end if i == n else dt * i


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
    with the number of steps or snapshots. The t = 0 snapshot is taken right
    after the first f and diagnostics record.

    form = "v" evolves the filtered momentum v = (1 + alpha^2 A) u instead;
    snapshots then hold v. Raises DivergedError, with the step and its end
    time, if an invariant flag (real / solenoidal / zero-mean) of the new
    state breaks, which a non-finite coefficient does, or if the D(A) norm
    exceeds 1e6 times its initial value. It also raises it, without them,
    if f(u, u) fails the post-condition ``rhs_f`` checks.
    """
    if form not in ("u", "v"):
        raise ValueError(f"form must be 'u' or 'v', got {form!r}")
    grid, params = config.grid, config.params
    alpha = params.alpha

    # state is the run's only reference to its start, so that the initial
    # field can be freed once the first step has replaced it
    state = (
        initial_field
        if initial_field is not None
        else make_initial(config.initial, grid, params)
    )
    del initial_field
    if config.galerkin_N is not None:
        state = galerkin_truncate(state, config.galerkin_N)
    if form == "v":
        state = v_from_u(state, alpha)

    if config.linear_only:
        f_eval: Callable[[SpectralField], SpectralField] = lambda w: zero_field(grid)
    elif form == "v":
        f_eval = lambda w: v_nonlinearity(u_from_v(w, alpha), w)
    else:
        f_eval = lambda w: rhs_f(w, params)

    dt = config.scheme.dt
    n_steps = _step_count(config.t_end, dt)

    snapshots: list[SpectralField] = []
    snap_times: list[float] = []
    if on_snapshot is None:
        def on_snapshot(w: SpectralField, t: float) -> None:
            snapshots.append(w)
            snap_times.append(t)

    diag: list[diagnostics.DiagRecord] = []
    props: dict[float, _Propagator] = {}

    def record_at(w: SpectralField, t: float, f_w: SpectralField) -> None:
        if form == "v":
            u = u_from_v(w, alpha)
            f_u = u_from_v(f_w, alpha)  # exact conjugacy of the two forms
        else:
            u, f_u = w, f_w
        if config.linear_only:
            f_u = zero_field(grid)
        diag.append(diagnostics.record(u, params, t, f=f_u))

    f_cur = f_eval(state)
    record_at(state, 0.0, f_cur)
    guard = BLOWUP_FACTOR * max(diag[0].nDA, 1e-300)
    on_snapshot(state, 0.0)

    t = 0.0
    for i in range(n_steps):
        t_next = _step_time(i + 1, n_steps, config.t_end, dt)
        h = t_next - t
        key = round(h, 15)
        if key not in props:
            props[key] = _Propagator(grid, params, h)
        state = _advance(state, props[key], config.scheme.kind, f_eval, f_cur)
        if config.galerkin_N is not None:
            state = galerkin_truncate(state, config.galerkin_N)
        t = t_next

        if not (state.hermitian and state.solenoidal and state.zero_mean):
            raise DivergedError(
                f"field invariant broken at step {i + 1}", step=i + 1, t=t
            )

        f_cur = f_eval(state)
        record_at(state, t, f_cur)
        if diag[-1].nDA > guard:
            raise DivergedError(f"D(A) norm blew up at step {i + 1}", step=i + 1, t=t)
        last = i + 1 == n_steps
        if (i + 1) % config.snapshot_every == 0 or last:
            on_snapshot(state, t)

    return Trajectory(times=np.array(snap_times), snapshots=snapshots, diag=diag)
