"""Torus grids, transforms, and diagonal Fourier-multiplier operators.

Fields live on the periodic box [0, 2pi)^dim and are stored as coefficients of
the synthesis u(x) = sum_k uhat(k) exp(i k.x) with integer wavevectors k, so
every operator here (Leray projection, fractional Stokes powers, dissipative
semigroup) is a diagonal multiplier on the coefficient array. Norms and
inner products carry the (2pi)^dim measure factor and therefore report
physical L^2([0, 2pi]^dim) values; Parseval is exact for band-limited fields.

Fields are real, so only the half spectrum is stored: the ``rfftn`` layout,
shape (dim, N, ..., N, N/2+1), with the last wavevector component running over
0..N/2. Each stored mode with 0 < k_last < N/2 stands for itself and its
conjugate mirror -k, so every sum over modes carries the multiplicity
``GridSpec.weight`` (2 there, 1 on the k_last = 0 and k_last = N/2 planes).
A solver state is stepped and stored in the grid's band layout
(``GridSpec.layout``): the band block the 2/3 rule keeps, plus a tail.
The solver's fields are real, solenoidal and mean-free, and every check of
that is one verdict, ``invariant_flags``, of the residuals of a band block
(``invariant_residuals``) or of a block and its tail (``band_flags``).

Everything is a pure function of its inputs; fields are immutable (the
coefficient buffers are write-protected). Only the whole-field transforms
and a 2D ``BandPlan`` above ``GEMM_MAX_N`` use ``numpy.fft``, so a 3D
``simulate`` never imports it. A ``BandPlan`` transforms only the band
block, the modes the 2/3 rule keeps, one axis at a time into persistent
buffers, and its one entry, ``BandPlan.share``, is the nonlinear kernel's
path on every grid, phase by phase: band blocks to samples, a pointwise
product, samples back to band blocks.
On every 3D grid, and on 2D grids with N <= ``GEMM_MAX_N`` (64), it samples
on the exact dealiasing grid of M = 3b + 1 points per axis (46 at N=48),
each complex pass is one dense DFT matrix product (BLAS GEMM) per field,
and the passes and the product run fused over slabs of sample planes that
stay in cache; it matches ``irfftn``/``rfftn`` on the M grid to rounding.
Larger 2D grids run pruned FFT passes over the whole stack on the N grid,
whose inverse matches ``irfftn`` bit for bit. At 2D N=96 the products win
on the default BLAS pool and tie on one thread, at 2D N=128 the FFT passes
win on both, and at 2D N=256 by more. In 3D the products win up to N=192;
only at N=256, a grid nothing runs, were FFT passes faster, by 8%
(README, "Nonlinearity", gives the timings).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as _field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError, MeanModeError

TWO_PI = 2.0 * np.pi

# Tolerances of the invariant flags, relative to the largest coefficient of the
# block checked; invariant_flags alone reads them.
HERMITIAN_TOL = 1e-12
SOLENOIDAL_TOL = 1e-12
MEAN_TOL = 1e-12

# Bytes of one slab of samples in a BandPlan's fused GEMM pass: it then
# stays within a 2 MiB L2 cache.
LINE_BUDGET = 2**20

# 2D grids with N at most this run their band transforms as dense DFT matrix
# products (BLAS GEMM), larger 2D grids pruned FFT passes; every 3D grid runs
# the products (see BandPlan, which gives the crossover timings).
GEMM_MAX_N = 64


class Regime(Enum):
    """Which hypothesis set the parameters are certified for."""

    GLOBAL_RANGE = "global"        # s in [dim/4, 1): global well-posedness
    LOCAL_RANGE = "local"          # s in [1/2, 1): local well-posedness only
    UNRESTRICTED = "unrestricted"  # any s in (0, 1): operator tests only


def infer_regime(dim: int, s: float) -> Regime:
    """Strongest regime admissible for the pair (dim, s); endpoints included."""
    if dim / 4.0 <= s < 1.0:
        return Regime.GLOBAL_RANGE
    if 0.5 <= s < 1.0:
        return Regime.LOCAL_RANGE
    return Regime.UNRESTRICTED


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the 2pi-periodic torus.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    N : int
        Modes per axis; must be even and at least 8. Wavevector components
        are the integers [-N/2, N/2) on every axis but the last and 0..N/2 on
        the last (the half spectrum), held exactly, so every |k|^2 in k2 is an
        integer and a sharp cutoff compares exact values.

    k2, dealias_mask, weight and each component of k have the half-spectrum
    shape ``spectral_shape``; ``shape`` and x describe the physical grid. x is
    built on first use, and no solver path reads it: analytic initial data
    are written as exact coefficients. layout is the grid's ``BandLayout``.
    """

    dim: int
    N: int
    k: np.ndarray = _field(init=False, repr=False, compare=False)
    k2: np.ndarray = _field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = _field(init=False, repr=False, compare=False)
    weight: np.ndarray = _field(init=False, repr=False, compare=False)
    layout: BandLayout = _field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise GridError(f"dim must be 2 or 3, got {self.dim}")
        if self.N % 2 != 0:
            raise GridError(f"N must be even, got {self.N}")
        if self.N < 8:
            raise GridError(f"N must be at least 8, got {self.N}")
        # numpy indexes no array of more than intp's largest number of bytes
        if 16 * self.dim * math.prod(self.spectral_shape) > np.iinfo(np.intp).max:
            raise GridError(f"N = {self.N} is too large: a field on its grid cannot be indexed")
        try:
            half = self.N // 2
            k1 = np.r_[0:half, -half:0]  # 0, 1, ..., N/2-1, -N/2, ..., -1
            axes = np.meshgrid(*([k1] * (self.dim - 1)), np.arange(half + 1), indexing="ij")
            k = np.stack(axes).astype(np.float64)  # integers, so k2 is too
            k2 = np.sum(k * k, axis=0)
            # 2/3 rule: zero every mode with any |k_i| >= N/3.
            mask = np.all(np.abs(k) < self.N / 3.0, axis=0)
            w_last = np.full(half + 1, 2.0)
            w_last[[0, -1]] = 1.0  # the k_last = 0 and Nyquist planes hold their own mirrors
            weight = np.ascontiguousarray(np.broadcast_to(w_last, k2.shape))
        except MemoryError as exc:
            raise GridError(f"N = {self.N} is too large: {exc}") from None
        tables = (("k", k), ("k2", k2), ("dealias_mask", mask), ("weight", weight))
        for name, arr in tables:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "layout", BandLayout(self))

    @cached_property
    def x(self) -> np.ndarray:
        """Physical sample points, shape (dim,) + (N,)*dim; read-only."""
        x1 = np.arange(self.N) * (TWO_PI / self.N)
        x = np.stack(np.meshgrid(*([x1] * self.dim), indexing="ij"))
        x.setflags(write=False)
        return x

    @property
    def shape(self) -> tuple[int, ...]:
        """Physical grid shape, (N,) * dim."""
        return (self.N,) * self.dim

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Half-spectrum shape, (N,) * (dim - 1) + (N/2 + 1,)."""
        return (self.N,) * (self.dim - 1) + (self.N // 2 + 1,)

    @property
    def dx(self) -> float:
        return TWO_PI / self.N

    @property
    def band_limit(self) -> int:
        """Largest |k_i| that survives dealiasing."""
        return int(np.ceil(self.N / 3.0)) - 1

    @property
    def measure(self) -> float:
        """Weight turning coefficient sums into L^2([0,2pi]^dim) integrals."""
        return TWO_PI**self.dim


@lru_cache(maxsize=8)
def make_grid(dim: int, N: int) -> GridSpec:
    """The validated torus grid with its wavevector tables, one per (dim, N)."""
    return GridSpec(dim, N)


@dataclass(frozen=True)
class Params:
    """Physical and model constants.

    alpha is the averaging scale (alpha = 0 degenerates to plain fractional
    Navier-Stokes advection and is allowed for operator tests), nu > 0 the
    viscosity, s in (0, 1) the fractional order of the dissipation A^s.
    """

    alpha: float
    nu: float
    s: float

    def __post_init__(self) -> None:
        for name in ("alpha", "nu", "s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if not math.isfinite(self.alpha * self.alpha):  # the Helmholtz symbol 1 + alpha^2 |k|^2
            raise ValueError(f"alpha^2 must be finite, got alpha = {self.alpha}")
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")


def _spatial_axes(dim: int) -> tuple[int, ...]:
    return tuple(range(-dim, 0))


def phys_to_coeffs(phys: np.ndarray, dim: int) -> np.ndarray:
    """Half-spectrum Fourier coefficients of a real array (spatial axes last)."""
    return np.fft.rfftn(phys, axes=_spatial_axes(dim), norm="forward")


def coeffs_to_phys(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Real samples of half-spectrum arrays.

    Whatever part of the k_last = 0 and Nyquist planes does not match its own
    conjugate mirror is dropped silently; the hermitian flag detects it.
    """
    n = coeffs.shape[-dim]
    return np.fft.irfftn(coeffs, s=(n,) * dim, axes=_spatial_axes(dim), norm="forward")


def _along(axis: int, index) -> tuple:
    """Index tuple selecting ``index`` along the negative axis ``axis``."""
    return (Ellipsis, index) + (slice(None),) * (-axis - 1)


class BandLayout:
    """The band layout of one grid's half spectrum: ``GridSpec.layout``.

    The band block of a half-spectrum array holds the modes with every
    |k_i| <= b = ``grid.band_limit``, the only ones the 2/3 rule keeps (those
    of ``grid.dealias_mask``). It has shape ``block_shape`` = (2b+1,) *
    (dim-1) + (b+1,), and each complex axis runs over k = 0..b, -b..-1. A
    state is its block plus its tail: its other non-zero modes, as
    increasing flat indices into ``grid.spectral_shape``, and their (dim, n)
    values, n = 0 for a band-limited state (``split``). The march steps
    this layout, a ``BandPlan`` transforms its blocks and a snapshot stores
    it (``io``). It depends on the grid alone, as does ``gemm``, the
    algorithm a ``BandPlan`` runs on the grid.
    """

    def __init__(self, grid: GridSpec):
        N, b, dim = grid.N, grid.band_limit, grid.dim
        self.grid = grid
        self.block_shape = (2 * b + 1,) * (dim - 1) + (b + 1,)
        self.gemm = dim == 3 or N <= GEMM_MAX_N
        # (block, full) index pairs of the two halves of a complex axis.
        halves = (
            (slice(0, b + 1), slice(0, b + 1)),
            (slice(b + 1, 2 * b + 1), slice(N - b, N)),
        )
        last = slice(0, b + 1)
        self._slabs = []  # (block, full) index pairs of the band's 2^(dim-1) slabs
        for pairs in itertools.product(halves, repeat=dim - 1):
            blk, full = zip(*pairs)
            self._slabs.append(((Ellipsis,) + blk + (last,), (Ellipsis,) + full + (last,)))

    def gather(self, full: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The band block of a half-spectrum array (any leading axes)."""
        if out is None:
            out = np.empty(full.shape[: -self.grid.dim] + self.block_shape, full.dtype)
        for blk, src in self._slabs:
            out[blk] = full[src]
        return out

    def scatter(self, block: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write a band block into the band modes of a half-spectrum array."""
        for blk, dst in self._slabs:
            out[dst] = block[blk]
        return out

    def split(self, full: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The band block of a (dim,) + spectral_shape array, and its tail.

        The tail is full's modes outside the block that are non-zero by value
        (so -0.0 counts as zero and nan does not): their flat indices into
        ``grid.spectral_shape``, increasing, and their values, shape (dim, n),
        n = 0 when there are none. ``np.count_nonzero`` of full and of its
        block decides that first, so a band-limited array costs no full-size
        temporary.
        """
        block = self.gather(full)
        if np.count_nonzero(full) == np.count_nonzero(block):
            return block, np.empty(0, np.intp), np.empty((len(full), 0), full.dtype)
        modes = np.flatnonzero(np.any(full != 0, axis=0) & ~self.grid.dealias_mask)
        return block, modes, full.reshape(len(full), -1)[:, modes]

    def join(self, block: np.ndarray, modes: np.ndarray | None = None,
             tail: np.ndarray | None = None) -> np.ndarray:
        """The inverse of ``split``: a new (dim,) + spectral_shape array that is
        block on the band, tail at the flat indices modes and +0.0 elsewhere;
        a block alone when no tail is given."""
        grid = self.grid
        full = self.scatter(block, np.zeros((grid.dim,) + grid.spectral_shape, block.dtype))
        if tail is not None:
            full.reshape(grid.dim, -1)[:, modes] = tail
        return full


class BandPlan:
    """Band-pruned transforms of stacked fields on one grid, with their buffers.

    The plan transforms band blocks of the grid's layout (``BandLayout``,
    ``GridSpec.layout``). ``share`` is the one transform entry: its
    phases (``PHASES``), run in order, sample a stack of band blocks, let a
    pointwise step form the samples of a product from them, and transform
    those back into band blocks. It runs one of two algorithms, picked from
    the grid, on samples of ``shape`` = (M,) * dim:

    - **Matrix products** (``layout.gemm``: every 3D grid, and 2D grids with
      N <= ``GEMM_MAX_N``) on the exact dealiasing grid, M = 3b + 1 points
      per axis (46 at N=48, 31 at N=32, N at N=16 and 64). A product of
      two fields of the band has modes |k_i| <= 2b, and on M points a mode
      k aliases only onto k +- M, so the product's band modes come back
      exact (Orszag's rule). Each pass is one
      BLAS GEMM (``np.matmul`` with ``out=``) against a constant DFT matrix:
      ``_ec`` (M x 2b+1) of exp(i k n 2pi/M) for the complex axes, and a real
      matrix ``_r`` that acts on the float64 view of the half-spectrum axis.
      The rows of ``_r`` hold cos and -sin with weight 1 at k = 0 and 2
      above, so the imaginary part of k = 0 is ignored, as ``irfft`` ignores
      it. The phases come from the integer k n mod M. A GEMM contracts the
      leading axis, so in 3D the inverse runs axis -3 for a whole stack in
      one call, transposes each field to (k_1, n_0, k_2) in ``_t`` and runs
      axis -2 as one GEMM per field into ``_mid``, whose samples are then in
      (n_1, n_0, n_2) order; then the real axis. The forward runs the same
      passes in reverse with the conjugate matrices over M. Both match
      ``irfftn``/``rfftn`` on the M grid to rounding (about 1e-15 relative),
      not bit for bit. The passes are fused: the complex inverse passes of
      the stack, then the real passes and the pointwise step one slab of
      ``S`` planes of the first sample axis (n_1 in 3D, n_0 in 2D) at a
      time, so that one slab's samples of every field stay in cache, then
      the complex forward passes. ``S`` is the most planes whose samples of
      the inverse's fields, the forward's rows and one scratch row fit in
      ``LINE_BUDGET`` bytes (one slab wherever the whole stack fits: 2D
      grids, 3D N=16). The forward's real pass writes each slab into the
      planes of ``_mid`` that the slab has read.
    - **Pruned FFT passes** (2D grids with N > ``GEMM_MAX_N``), on the N
      grid (M = N), in ``_inverse`` and ``_forward``, each over the whole
      stack with ``numpy.fft`` and ``out=``. The inverse runs the complex
      axis -2 on the b + 1 columns the band reaches, then the real axis, as
      ``irfftn`` does, and matches it bit for bit; the forward runs the same
      passes in reverse order and matches ``rfftn`` to rounding. The
      pointwise step writes the product's whole stack of samples into
      ``_rows``. The whole product is phase 0; phases 1-3 do nothing.

    For short pruned lines the products win: on 2D grids up to N=64 on one
    BLAS thread, which ``oracle-compare`` holds on GEMM plans, and on every
    3D grid up to N=192, in time and in peak memory (README, "Nonlinearity",
    holds the timings).

    The FFT inverse's last pass is an ``irfft`` over a half-spectrum buffer
    (..., N/2 + 1): the axis -2 pass writes its first b + 1 columns and the
    inverse zeroes the rest, so numpy pads no line itself. That buffer is the
    one the forward's ``rfft`` writes. Every FFT line is transformed on its
    own, and every GEMM runs one field's matrix, so the stack size changes
    no bit of the result.

    Every buffer is the plan's own and the next call rewrites it, so a plan
    is not re-entrant. No call passes information to the next: the FFT
    inverse's zero-padded input ``_pad`` holds zeros outside the band that
    no call writes, the inverse zeroes the tail columns of the half-spectrum
    buffer that the forward fills, and every other region a call reads is
    rewritten earlier in that call.

    A GEMM plan's pass runs in four phases (``PHASES``), each in two parts
    (``share``, ``bounds``) that write disjoint fields, planes, rows or
    columns, so a forked helper process can run part 1 of every phase while
    the caller runs part 0. The plan knows no process: the kernel runs every
    phase through its workspace (``operators._KernelWorkspace.split``),
    whose helper ``operators.kernel_helper`` forks for the stepping commands
    on GEMM plans only. ``_mid`` then lives in a mapping both processes
    share (``allocate``); ``_t`` and ``_slab`` stay each process's own.
    Every GEMM call is the one a lone process makes, or a block of its
    columns split at a multiple of 4, so the helper changes no bit. The
    split is even to a row or a 4-column block in every phase, so that
    neither process waits for the other's larger part; the times per phase
    and process that decided it are in CHANGES.md, in the entry on both
    CPUs for the whole 3D step.
    """

    PHASES = 4  # of a product (share): a GEMM plan's fused pass; an FFT plan's is phase 0

    def __init__(self, grid: GridSpec, inverse_fields: int, forward_fields: int):
        N, b = grid.N, grid.band_limit
        self.grid, self.layout = grid, grid.layout
        self.M = 3 * b + 1 if self.layout.gemm else N
        self.shape = (self.M,) * grid.dim
        if self.layout.gemm:
            self._init_gemm(inverse_fields, forward_fields)
            return
        cplx, lines = np.complex128, (N, b + 1)
        # The inverse reads _pad, the forward's axis -2 pass writes _fwd, and the
        # inverse's last pass reads _half, which the forward's first writes.
        self._pad = np.zeros((inverse_fields,) + lines, cplx)
        self._fwd = np.empty((forward_fields,) + lines, cplx)
        self._half = np.empty((max(inverse_fields, forward_fields),) + grid.spectral_shape, cplx)
        # The inverse's samples, the product's samples and one row of scratch.
        self._phys = np.empty((inverse_fields,) + grid.shape)
        self._rows = np.empty((forward_fields,) + grid.shape)
        self._scratch = np.empty(grid.shape)

    def _init_gemm(self, inverse_fields: int, forward_fields: int) -> None:
        M, b, dim = self.M, self.grid.band_limit, self.grid.dim
        n = np.arange(M)
        phase = (TWO_PI / M) * (np.outer(n, np.r_[0 : b + 1, -b:0]) % M)
        self._ec = np.cos(phase) + 1j * np.sin(phase)  # (M, 2b+1)
        self._fc = np.ascontiguousarray(np.conj(self._ec).T) / M  # (2b+1, M)
        phase = (TWO_PI / M) * (np.outer(np.arange(b + 1), n) % M)  # (b+1, M)
        weight = np.full((b + 1, 1), 2.0)
        weight[0] = 1.0
        self._r = np.empty((2 * (b + 1), M))  # real view of the half axis -> samples
        self._r[0::2], self._r[1::2] = weight * np.cos(phase), -weight * np.sin(phase)
        self._fr = np.empty((M, 2 * (b + 1)))  # samples -> real view of the half axis
        self._fr[:, 0::2], self._fr[:, 1::2] = np.cos(phase).T / M, -np.sin(phase).T / M
        # _mid holds every field's complex passes at sample length on the
        # complex axes, in (n_1, n_0, k_2) order in 3D, and in 3D the forward's
        # transposed axis -2 pass in the fields after out's (share's phase 2);
        # _t (3D) is the one field's transposition between two complex passes.
        fields = max(inverse_fields, forward_fields * (dim - 1))
        self._mid = np.empty((fields,) + self.shape[:-1] + (b + 1,), np.complex128)
        if dim == 3:
            self._t = np.empty((2 * b + 1, M, b + 1), np.complex128)
        # A slab is S planes of the first sample axis: the samples of the
        # inverse's fields, the forward's rows and one row of scratch.
        plane = 8 * M ** (dim - 1)
        self.S = min(M, max(1, LINE_BUDGET // (plane * (inverse_fields + forward_fields + 1))))
        self._slab = np.empty((inverse_fields + forward_fields + 1, self.S) + self.shape[1:])
        # share's parts of the slabs, the planes before and from the middle one
        # (no part 1 on a plan of one slab), each as slabs of at most S planes
        self._plane_cut = cut = M // 2 if self.S < M else M
        self._slabs_of = {0: _chunks(0, cut, self.S), 1: _chunks(cut, M, self.S)}
        self._slabs_of[None] = self._slabs_of[0] + self._slabs_of[1]
        # (cut, end) of the forward's parts in 3D: n_0 rows of the axis -2 pass,
        # whose flat (n_0, k_2) columns split at a multiple of 4, and (k_1, k_2)
        # columns of the axis -3 pass, split at a multiple of 4 (see share)
        rows = 4 // math.gcd(4, b + 1)
        columns = (2 * b + 1) * (b + 1)
        self._forward_cuts = ((rows * round(M / (2 * rows)), M),
                              (4 * round(columns / 8), columns))

    def allocate(self, alloc) -> None:
        """Give ``_mid`` (GEMM plans) a new buffer, alloc(shape); see ``share``."""
        if self.layout.gemm:
            self._mid = alloc(self._mid.shape)

    def bounds(self, phase: int, fields_in: int, fields_out: int) -> tuple[int, int]:
        """(cut, end) of a phase of ``share`` on fields_in fields in and
        fields_out out: part 0 covers [0, cut) and part 1 [cut, end) of the
        phase's fields, planes, n_0 rows or columns."""
        if phase == 0:
            return fields_in // 2, fields_in
        if phase == 1:
            return self._plane_cut, self.M
        if self.grid.dim == 2:  # one complex forward pass, by fields
            return (fields_out // 2, fields_out) if phase == 2 else (0, 0)
        return self._forward_cuts[phase - 2]

    def share(self, block: np.ndarray, out: np.ndarray, pointwise, phase: int,
              part: int | None = None) -> None:
        """Part 0 or 1 of one phase of a product, or with part None the whole
        phase: the ``PHASES`` phases in order write into out the band block
        of a pointwise product of block's samples.

        ``pointwise(samples, rows, scratch)`` writes the product's samples
        into rows, from block's samples, with one row of scratch; each array
        covers the same sample planes. out must be C-contiguous; a GEMM plan
        raises ValueError on any other. On an FFT plan phase 0 is the whole
        product, run whole (part None), and phases 1-3 return at once.

        On a GEMM plan the phases are the fused pass, and each part covers
        half of what its phase runs over (``bounds``). Phase 0 runs the
        complex inverse passes into ``_mid``, part 0 of block's first half
        of fields (u in the kernel), part 1 of the rest (curl v). Phase 1
        runs the slabs, part 0 those before the middle plane, part 1 the
        others, each in slabs of at most ``S`` planes: the inverse's real
        pass, ``pointwise`` and the forward's real pass into the slab's
        planes of ``_mid``, which the slab has already read. In 3D phase 2
        runs the forward's axis -2 pass over a block of n_0 rows of every
        field, one GEMM per field on those columns, and writes it transposed
        into the fields of ``_mid`` after out's, which no part reads in this
        phase; phase 3 runs the axis -3 pass over a block of out's (k_1, k_2)
        columns. In 2D phase 2 runs the one complex forward pass by fields,
        and phase 3 nothing. Samples lie on the M-point grid, in (n_1, n_0,
        n_2) order in 3D.

        The two parts of a phase read only what earlier phases wrote and
        write disjoint fields, planes, rows or columns, so they may run at
        once in two processes; each process has a ``_t`` and a ``_slab`` of
        its own. A part makes the GEMM calls of the whole phase on a subset
        of fields or slabs, or on a block of columns of the same product.
        The columns split at a multiple of 4: on OpenBLAS 0.3.31 every such
        split of every 3D forward GEMM at N = 26, 32, 48 and 64 gave the whole
        product's bits, and other split points changed them. So how a phase
        is split over processes changes no bit.
        """
        if not self.layout.gemm:
            if phase == 0:
                rows = self._rows[: len(out)]
                pointwise(self._inverse(block), rows, self._scratch)
                self._forward(rows, out)
            return
        if not out.flags.c_contiguous:  # a reshape below would write into a copy
            raise ValueError("the band forward transform needs a C-contiguous out")
        if phase == 1:
            self._slab_pass(block, len(out), pointwise, self._slabs_of[part])
            return
        cut, end = self.bounds(phase, len(block), len(out))
        lo, hi = {None: (0, end), 0: (0, cut), 1: (cut, end)}[part]
        if lo == hi:
            return
        if phase == 0:
            self._complex_inverse(block[lo:hi], self._mid[lo:hi])
        elif self.grid.dim == 2:
            np.matmul(self._fc, self._mid[lo:hi], out=out[lo:hi])
        elif phase == 2:
            self._forward_rows(len(out), lo, hi)
        else:
            self._forward_columns(out, lo, hi)

    def _slab_pass(self, block: np.ndarray, n_out: int, pointwise, slabs) -> None:
        """The real passes and pointwise of the slabs, (first plane, planes) pairs."""
        F, M = len(block), self.M
        real = self._mid.view(np.float64)
        for s0, s in slabs:
            samples, rows = self._slab[:F, :s], self._slab[F : F + n_out, :s]
            half = real[:F, s0 : s0 + s].reshape(F, -1, len(self._r))
            np.matmul(half, self._r, out=samples.reshape(F, -1, M))
            pointwise(samples, rows, self._slab[F + n_out, :s])
            half = real[:n_out, s0 : s0 + s].reshape(n_out, -1, len(self._r))
            np.matmul(rows.reshape(n_out, -1, M), self._fr, out=half)

    def _complex_inverse(self, block: np.ndarray, mid: np.ndarray) -> None:
        """The complex passes of block's fields into mid, their fields of _mid:
        one GEMM per pass and field."""
        F, K = len(block), len(self._ec[0])
        if self.grid.dim == 2:
            np.matmul(self._ec, block, out=mid)
            return
        M, t = self.M, self._t
        # axis -3 into the front of each field's _mid, (n_0, k_1, k_2)
        front = mid.reshape(F, -1)[:, : t.size].reshape(F, M, -1)
        np.matmul(self._ec, block.reshape(F, K, -1), out=front)
        for f in range(F):  # axis -2 on the transposed (k_1, n_0, k_2)
            np.copyto(t, front[f].reshape(M, K, -1).transpose(1, 0, 2))
            np.matmul(self._ec, t.reshape(K, -1), out=mid[f].reshape(M, -1))

    def _front(self, first: int, fields: int) -> np.ndarray:
        """The (n_0, k_1, k_2) front of fields of _mid from first on, (fields, M, K, b + 1)."""
        t = self._t
        return self._mid[first : first + fields].reshape(fields, -1)[:, : t.size].reshape(
            (fields, self.M) + t.shape[::2])

    def _forward_rows(self, fields: int, lo: int, hi: int) -> None:
        """The forward's axis -2 pass of the first fields of _mid on n_0 rows lo..hi,
        transposed to (n_0, k_1, k_2) into the fields of _mid that follow (3D)."""
        M, K, t = self.M, len(self._fc), self._t
        w = t.shape[-1]
        columns = slice(lo * w, hi * w)  # the flat (n_0, k_2) columns of the rows
        front, t_rows = self._front(fields, fields), t.reshape(K, -1)[:, columns]
        for f in range(fields):
            np.matmul(self._fc, self._mid[f].reshape(M, -1)[:, columns], out=t_rows)
            np.copyto(front[f, lo:hi], t[:, lo:hi].transpose(1, 0, 2))

    def _forward_columns(self, out: np.ndarray, lo: int, hi: int) -> None:
        """The forward's axis -3 pass into out's flat (k_1, k_2) columns lo..hi (3D)."""
        F, K = len(out), len(self._fc)
        front = self._front(F, F).reshape(F, self.M, -1)
        np.matmul(self._fc, front[:, :, lo:hi], out=out.reshape(F, K, -1)[:, :, lo:hi])

    def _inverse(self, block: np.ndarray) -> np.ndarray:
        """Samples of block's fields on the N grid (FFT plans), in the plan's buffer."""
        F, N, b = len(block), self.grid.N, self.grid.band_limit
        pad, half = self._pad[:F], self._half[:F]
        self.layout.scatter(block, pad)  # its b + 1 columns are the band's k_last
        half[..., b + 1 :] = 0.0
        np.fft.ifft(pad, axis=-2, norm="forward", out=half[..., : b + 1])
        return np.fft.irfft(half, n=N, axis=-1, norm="forward", out=self._phys[:F])

    def _forward(self, phys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The band blocks of phys's fields on the N grid into out (FFT plans)."""
        F, b = len(phys), self.grid.band_limit
        half = np.fft.rfft(phys, axis=-1, norm="forward", out=self._half[:F])
        lines = np.fft.fft(half[..., : b + 1], axis=-2, norm="forward", out=self._fwd[:F])
        return self.layout.gather(lines, out)


def _chunks(start: int, end: int, size: int) -> list[tuple[int, int]]:
    """(first, length) of the consecutive chunks of at most size that cover start..end."""
    return [(first, min(size, end - first)) for first in range(start, end, size)]


def _reflect(a: np.ndarray, axes) -> np.ndarray:
    """a(-k) along the given axes of an fftn-ordered array."""
    for ax in axes:
        a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
    return a


def reflect_conj(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """conj(a(-k)) over the last dim axes of a full (fftn-layout) spectrum.

    It equals a(k) exactly iff the physical field is real.
    """
    return np.conj(_reflect(coeffs, range(-dim, 0)))


def half_spectrum(full: np.ndarray) -> np.ndarray:
    """The stored half (k_last = 0..N/2) of a full fftn-layout spectrum."""
    return np.ascontiguousarray(full[..., : full.shape[-1] // 2 + 1])


def mode_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_i conj(a_i(k)) b_i(k) per mode of two (components,) + modes arrays.

    It reads float64 views of a and b, copies only where the last axis is
    not contiguous, so a block of rows of a band block costs no copy.
    """
    terms = np.einsum("i...,i...->...", _float_view(a), _float_view(b))
    return terms[..., 0::2] + terms[..., 1::2]  # real and imaginary terms


def _float_view(a: np.ndarray) -> np.ndarray:
    """The float64 view of a as complex128, last axis doubled."""
    a = np.asarray(a, dtype=np.complex128)
    return (a if a.strides[-1] == a.itemsize else np.ascontiguousarray(a)).view(np.float64)


def mode_sum(grid: "GridSpec", per_mode: np.ndarray) -> float:
    """Sum of a per-mode quantity over the full spectrum: sum_k w(k) q(k).

    ``np.einsum`` sums in its own loop; ``np.dot`` would call BLAS, which
    wakes its thread pool for vectors of 3D size and costs far more here.
    """
    return float(np.einsum("i,i->", grid.weight.ravel(), per_mode.ravel()))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Divergence-free vector field stored as Fourier coefficients.

    coeffs has the half-spectrum shape (dim,) + grid.spectral_shape. The
    flags (hermitian, solenoidal, zero_mean) are ``measure_flags`` of the
    coefficients, measured on first access and cached, not declared.
    """

    grid: GridSpec
    coeffs: np.ndarray

    @classmethod
    def from_coeffs(cls, grid: GridSpec, coeffs: np.ndarray) -> "SpectralField":
        coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.dim,) + grid.spectral_shape:
            raise GridError(
                f"coefficient shape {coeffs.shape} does not match grid "
                f"{(grid.dim,) + grid.spectral_shape}"
            )
        coeffs.setflags(write=False)
        return cls(grid, coeffs)

    @cached_property
    def _flags(self) -> tuple[bool, bool, bool]:
        return measure_flags(self.grid, self.coeffs)

    @property
    def hermitian(self) -> bool:
        return self._flags[0]

    @property
    def solenoidal(self) -> bool:
        return self._flags[1]

    @property
    def zero_mean(self) -> bool:
        return self._flags[2]

    def copy_with(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField.from_coeffs(self.grid, coeffs)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return self.copy_with(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return self.copy_with(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return self.copy_with(self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self.copy_with(-self.coeffs)


def measure_flags(grid: GridSpec, coeffs: np.ndarray) -> tuple[bool, bool, bool]:
    """(hermitian, solenoidal, zero_mean) of a half-spectrum coefficient array:
    ``band_flags`` of its band block and tail (``BandLayout.split``)."""
    return band_flags(grid, *grid.layout.split(coeffs))


def invariant_flags(scale: float, herm: float, sol: float, mean: float) -> tuple[bool, bool, bool]:
    """(hermitian, solenoidal, zero_mean): the one verdict of every invariant check.

    Each residual (``invariant_residuals``) is held against its tolerance
    times scale, the largest coefficient of the block checked, so a block
    times a power of two keeps its flags while tolerance x scale is normal.
    A scale below 2^-1022 passes, as the zero state it has decayed to: each
    coefficient is rounded to the 2^-1074 quantum on its own, so no relative
    invariant is resolved. A nan or inf in the block makes scale fail all three.
    """
    if scale < 2.0**-1022:
        return True, True, True
    if not math.isfinite(scale):
        return False, False, False
    return herm <= HERMITIAN_TOL * scale, sol <= SOLENOIDAL_TOL * scale, mean <= MEAN_TOL * scale


@lru_cache(maxsize=16)
def _mirror(shape: tuple[int, ...]) -> np.ndarray:
    """Flat index of each mode's mirror -k on a k_last = 0 plane of this shape,
    whose axes are in fftn order, as ``_reflect`` reflects them."""
    index = np.arange(math.prod(shape)).reshape(shape)
    mirror = np.ascontiguousarray(_reflect(index, range(len(shape)))).ravel()
    mirror.setflags(write=False)
    return mirror


def invariant_residuals(block: np.ndarray, k: np.ndarray, rows: slice = slice(None)) -> tuple:
    """The maxima ``invariant_flags`` compares, over the modes of the band
    block on rows of its first wavevector axis, k being its wavevectors:
    |conj(u(-k)) - u(k)| on the k_last = 0 plane, the only one that must
    match its own conjugate mirror (whose mirrors may lie on other rows),
    |k . u|, and |u| of the mean mode, 0.0 unless rows holds it. Each is a
    maximum of per-mode terms, so the maxima over disjoint rows combine with
    ``np.max`` into those over their union."""
    plane = block[..., 0]
    flat = plane.reshape(len(plane), -1)
    first, end, _ = rows.indices(plane.shape[1])
    width = flat.shape[1] // plane.shape[1]
    span = slice(first * width, end * width)
    herm = float(np.max(np.abs(np.conj(flat[:, _mirror(plane.shape[1:])[span]]) - flat[:, span])))
    sol = float(np.max(np.abs(np.einsum("i...,i...->...", k[:, rows], block[:, rows]))))
    mean = 0.0 if first else float(np.max(np.abs(block[(slice(None),) + (0,) * (block.ndim - 1)])))
    return herm, sol, mean


@np.errstate(invalid="ignore", over="ignore")  # a non-finite state fails quietly
def band_flags(grid: GridSpec, block: np.ndarray, modes: np.ndarray, tail: np.ndarray) -> tuple:
    """(hermitian, solenoidal, zero_mean) of a state in the band layout, its
    block and its tail (``BandLayout.split``), read off both: the whole-field
    check, the snapshot reader's and the march's at step 0. The scale is
    max |u| over both; a tail mode on the k_last = 0 or Nyquist plane meets
    its mirror's tail value (+0.0 where there is none); k . u takes the
    tail's own k, and the block's residuals are ``invariant_residuals``."""
    herm, sol, mean = invariant_residuals(block, grid.layout.gather(grid.k))
    *axes, last = np.unravel_index(modes, grid.spectral_shape)
    on = (last == 0) | (last == grid.N // 2)
    mirrors = np.ravel_multi_index([-i[on] % grid.N for i in axes] + [last[on]],
                                   grid.spectral_shape)
    at = np.minimum(np.searchsorted(modes, mirrors), len(modes) - 1)
    mirrored = np.where(modes[at] == mirrors, tail[:, at], 0.0)
    k = grid.k.reshape(grid.dim, -1)[:, modes]
    herm = max(herm, float(np.max(np.abs(np.conj(mirrored) - tail[:, on]), initial=0.0)))
    sol = max(sol, float(np.max(np.abs(np.einsum("i...,i...->...", k, tail)), initial=0.0)))
    scale = float(np.max([np.max(np.abs(block)), np.max(np.abs(tail), initial=0.0)]))
    return invariant_flags(scale, herm, sol, mean)


def _check_same_grid(a: SpectralField, b: SpectralField) -> None:
    if a.grid != b.grid:
        raise GridError("fields live on different grids")


def to_physical(field: SpectralField) -> np.ndarray:
    """Real-space samples, shape (dim,) + (N,)*dim. Requires a real field."""
    if not field.hermitian:
        raise ValueError("to_physical requires a hermitian (real-valued) field")
    return coeffs_to_phys(field.coeffs, field.grid.dim)


def to_spectral(phys: np.ndarray, grid: GridSpec) -> SpectralField:
    """Transform real-space samples (shape (dim,) + (N,)*dim) to coefficients."""
    phys = np.asarray(phys)
    if phys.shape != (grid.dim,) + grid.shape:
        raise GridError(
            f"array shape {phys.shape} does not match grid {(grid.dim,) + grid.shape}"
        )
    return SpectralField.from_coeffs(grid, phys_to_coeffs(phys, grid.dim))


def l2_norm(field: SpectralField) -> float:
    """Physical L^2([0,2pi]^dim) norm."""
    grid = field.grid
    return float(np.sqrt(grid.measure * mode_sum(grid, mode_dot(field.coeffs, field.coeffs))))


def inner(f: SpectralField, g: SpectralField) -> float:
    """L^2 inner product of two real fields."""
    _check_same_grid(f, g)
    return f.grid.measure * mode_sum(f.grid, mode_dot(f.coeffs, g.coeffs))


@lru_cache(maxsize=8)
def _leray_divisor(grid: GridSpec) -> np.ndarray:
    """|k|^2 with the k = 0 mode sent to 1, computed once per grid."""
    table = np.where(grid.k2 > 0, grid.k2, 1.0)
    table.setflags(write=False)
    return table


def leray_project(field: SpectralField) -> SpectralField:
    """Remove the k-parallel (gradient) part of every mode; mode 0 untouched.

    Nyquist modes (some k_i = -N/2, or k_last = N/2) are zeroed. The k table
    is not odd there, so a mode and its stored conjugate mirror would get
    different projectors, and a real field would come out non-real.
    """
    grid = field.grid
    kdot = np.einsum("i...,i...->...", grid.k, field.coeffs)
    out = field.coeffs - grid.k * (kdot / _leray_divisor(grid))
    for axis in range(-grid.dim, 0):
        out[_along(axis, grid.N // 2)] = 0.0
    zero = (slice(None),) + (0,) * grid.dim
    out[zero] = field.coeffs[zero]
    return field.copy_with(out)


def stokes_multiplier(k2: np.ndarray, r: float) -> np.ndarray:
    """|k|^{2r} evaluated as exp(r log|k|^2), with the k = 0 mode sent to 0."""
    with np.errstate(divide="ignore"):
        return np.where(k2 > 0, np.exp(r * np.log(np.where(k2 > 0, k2, 1.0))), 0.0)


@lru_cache(maxsize=16)
def _stokes_table(grid: GridSpec, r: float) -> np.ndarray:
    """stokes_multiplier(grid.k2, r), computed once per (grid, r)."""
    table = stokes_multiplier(grid.k2, r)
    table.setflags(write=False)
    return table


def frac_stokes_apply(field: SpectralField, r: float) -> SpectralField:
    """Fractional Stokes power A^r: Leray projection times the |k|^{2r} multiplier."""
    if r < 0 and not field.zero_mean:
        raise MeanModeError("A^r with r < 0 requires a zero-mean field")
    base = field if field.solenoidal else leray_project(field)
    return field.copy_with(base.coeffs * _stokes_table(field.grid, r))


def semigroup_factor(grid: GridSpec, t: float, params: Params) -> np.ndarray:
    """Per-mode multiplier exp(-nu t |k|^{2s}) of the dissipative semigroup."""
    return np.exp(-params.nu * t * _stokes_table(grid, params.s))


def semigroup_apply(field: SpectralField, t: float, params: Params) -> SpectralField:
    """Apply exp(-t nu A^s); t = 0 is the identity."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return field.copy_with(field.coeffs * semigroup_factor(field.grid, t, params))


def norm_DAr(field: SpectralField, r: float) -> float:
    """D(A^r) norm: (||A^r f||^2 + ||f||^2 1_{r>0})^{1/2}; r = 0 is plain L^2."""
    if r == 0.0:
        return l2_norm(field)
    grid = field.grid
    w = mode_dot(field.coeffs, field.coeffs)
    a_part = grid.measure * mode_sum(grid, _stokes_table(grid, 2.0 * r) * w)
    if r < 0:
        return float(np.sqrt(a_part))
    return float(np.sqrt(a_part + grid.measure * mode_sum(grid, w)))


def dealias(field: SpectralField) -> SpectralField:
    """Zero every mode with any |k_i| >= N/3 (2/3 rule); idempotent."""
    return field.copy_with(field.coeffs * field.grid.dealias_mask)
