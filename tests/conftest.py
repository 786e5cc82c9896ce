import math
import os
import signal
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from lansfrac import InitialData, Params, make_grid, make_initial, spectral
from lansfrac.operators import _vel_grad_phys
from lansfrac.spectral import (
    HERMITIAN_TOL,
    MEAN_TOL,
    SOLENOIDAL_TOL,
    GridSpec,
    SpectralField,
    _check_same_grid,
    _reflect,
    half_spectrum,
    leray_project,
    phys_to_coeffs,
    reflect_conj,
)


def full_spectrum(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Reference: the full fftn-layout spectrum of a half spectrum, mirror half by symmetry."""
    n = coeffs.shape[-dim]
    tail = coeffs[..., n // 2 - 1 : 0 : -1]  # k_last = N/2-1, ..., 1
    mirror = np.conj(_reflect(tail, range(-dim, -1)))  # k_last = N/2+1, ..., N-1
    return np.concatenate([coeffs, mirror], axis=-1)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else pid})")


_GEMM_MAX_N = spectral.GEMM_MAX_N


@pytest.fixture(autouse=True)
def gemm_max_n_unchanged():
    """Fail a test that leaves ``spectral.GEMM_MAX_N`` changed. A test that
    moves the 2D crossover does so with ``monkeypatch.setattr``, which puts
    it back; a leak would put every later 2D test on the other band
    algorithm. The import-time value is put back."""
    yield
    left = spectral.GEMM_MAX_N
    if left != _GEMM_MAX_N:
        spectral.GEMM_MAX_N = _GEMM_MAX_N
        pytest.fail(f"the test left spectral.GEMM_MAX_N at {left}, not {_GEMM_MAX_N}")


def open_descriptors() -> dict[int, str]:
    """This process's open file descriptors, each with what it refers to (Linux /proc)."""
    found = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            found[int(name)] = os.readlink(f"/proc/self/fd/{name}")
        except OSError:  # the descriptor of the listing itself, closed by now
            pass
    return found


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """Fail a test that leaves a file descriptor open, on any exit path: a pipe
    end or a mapping's descriptor of either forked worker, ``oracle-compare``'s
    Picard worker (``picard_fork.picard_worker``) or the stepping commands'
    kernel helper (``operators.kernel_helper``)."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = open_descriptors()
    yield
    left = {fd: what for fd, what in open_descriptors().items() if before.get(fd) != what}
    if left:
        pytest.fail(f"the test left file descriptors open: {left}")


@pytest.fixture(scope="session")
def grid2():
    return make_grid(2, 32)


@pytest.fixture(scope="session")
def grid2_64():
    return make_grid(2, 64)


@pytest.fixture(scope="session")
def grid3():
    return make_grid(3, 16)


@pytest.fixture
def params():
    return Params(alpha=0.5, nu=1.0, s=0.5)


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField.from_coeffs(
        grid, np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    )


def stress_form_f(u1: SpectralField, u2: SpectralField, params: Params) -> SpectralField:
    """Oracle: the paper's f(u1, u2) = -P[u1.grad(u2) + U_alpha(u1, u2)].

    U_alpha(u1, u2) = alpha^2 (1 - alpha^2 Lap)^{-1} div[G1 G2^T + G1 G2 - G1^T G2]
    with Gi = grad(ui), and P_alpha reduces to the Leray projection P on the
    torus. This gradient-stress form is the paper's definition of the
    bilinear f, off the diagonal too; it transforms 12 + 12 fields in 3D and
    is the independent reference the tests hold ``rhs_f`` against. No
    command or acceptance criterion calls it, so it lives with the tests.
    """
    _check_same_grid(u1, u2)
    grid = u1.grid
    dim = grid.dim
    vel1, g1 = _vel_grad_phys(u1)
    g2 = g1 if u2 is u1 else _vel_grad_phys(u2)[1]
    adv = np.einsum("j...,ij...->i...", vel1, g2)
    tens = (
        np.einsum("ik...,jk...->ij...", g1, g2)
        + np.einsum("ik...,kj...->ij...", g1, g2)
        - np.einsum("ki...,kj...->ij...", g1, g2)
    )
    stacked = phys_to_coeffs(
        np.concatenate([adv, tens.reshape((dim * dim,) + grid.shape)]), dim
    )
    div = np.einsum(
        "j...,ij...->i...",
        1j * grid.k,
        stacked[dim:].reshape((dim, dim) + grid.spectral_shape),
    )
    alpha2 = params.alpha**2
    hat = (stacked[:dim] + div * (alpha2 / (1.0 + alpha2 * grid.k2))) * grid.dealias_mask
    # Two passes, kept as the oracle's own form independent of the kernel's:
    # the second is a no-op analytically but keeps the divergence residual
    # eps-relative to f even when the projection cancels almost all of it.
    out = -(leray_project(leray_project(SpectralField.from_coeffs(grid, hat))))
    # The mean is annihilated analytically (divergence structure); pin it.
    coeffs = np.array(out.coeffs)
    coeffs[(slice(None),) + (0,) * dim] = 0.0
    return SpectralField.from_coeffs(grid, coeffs)


def galerkin_truncate(field: SpectralField, N_cut: int) -> SpectralField:
    """Reference: the sharp spectral cutoff on the whole field, every mode with
    max_i |k_i| > N_cut set to +0.0. The march cuts its band block and tail
    with its own tables (``integrator._mode_tables``)."""
    if N_cut < 1:
        raise ValueError(f"N_cut must be >= 1, got {N_cut}")
    grid = field.grid
    mask = np.max(np.abs(grid.k), axis=0) <= N_cut
    # np.where, not coeffs * mask, which leaves -0.0 where a cut part is negative
    return field.copy_with(np.where(mask, field.coeffs, 0.0))


def roll_flip(p: np.ndarray) -> np.ndarray:
    """Planes (components, complex axes..., planes) at -k on every complex axis,
    reflected by np.flip and np.roll."""
    for ax in range(-(p.ndim - 1), -1):
        p = np.roll(np.flip(p, axis=ax), 1, axis=ax)
    return p


def whole_field_flags(grid: GridSpec, coeffs: np.ndarray) -> tuple[bool, bool, bool]:
    """Reference: (hermitian, solenoidal, zero_mean) of a half spectrum checked
    whole. The k_last = 0 and Nyquist planes are held against their conjugate
    mirrors (``roll_flip``), k . u is taken on every mode, and each residual
    against its tolerance times max |u|. A scale below 2^-1022 passes, a
    non-finite one fails. ``spectral.band_flags`` reads a state as its band
    block and tail instead, and the audit as its block's maxima."""
    scale = float(np.max(np.abs(coeffs)))
    if scale < 2.0**-1022:
        return True, True, True
    if not math.isfinite(scale):
        return False, False, False
    planes = coeffs[..., [0, -1]]
    herm = float(np.max(np.abs(np.conj(roll_flip(planes)) - planes)))
    sol = float(np.max(np.abs(np.einsum("i...,i...->...", grid.k, coeffs))))
    mean = float(np.max(np.abs(coeffs[(slice(None),) + (0,) * grid.dim])))
    return herm <= HERMITIAN_TOL * scale, sol <= SOLENOIDAL_TOL * scale, mean <= MEAN_TOL * scale


def no_tail(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The ``diagnostics.audit`` tail of a band-limited state: no rows, no values."""
    return np.empty((5, 0)), np.empty((grid.dim, 0), np.complex128)


def random_field(grid: GridSpec, seed: int = 0, amplitude: float = 1.0, band=None, decay=2.0):
    """Seeded random solenoidal zero-mean field for ensemble tests."""
    return make_initial(
        InitialData(
            kind="random-spectrum",
            amplitude=amplitude,
            seed=seed,
            decay_exponent=decay,
            band=band,
        ),
        grid,
    )


def with_tail(u: SpectralField, seed: int = 0, size: float = 1e-3) -> SpectralField:
    """u plus a tail: random solenoidal real data of band N/2 - 1, size times
    a unit field, on the modes outside the band block alone."""
    grid = u.grid
    wide = random_field(grid, seed=seed, band=grid.N // 2 - 1).coeffs * size
    grid.layout.scatter(np.zeros((grid.dim,) + grid.layout.block_shape, complex), wide)
    return u.copy_with(u.coeffs + wide)


def nan_at_last_picard_node(monkeypatch) -> None:
    """Make Picard's f nan at the last of its mesh nodes, every sweep.

    The Duhamel sweep reads a nan f there, whichever process evaluated it:
    the sweeps run in the solve's own process, while ``oracle-compare``'s
    parent shares the f evaluations with its Picard worker in an order the
    scheduler decides, so counting kernel calls would not find the node.
    """
    import lansfrac.mild as mild

    real = mild._duhamel_sweep

    def sweep(band, stack, level, f):
        if level.node == len(stack) - 1:
            f = np.full_like(f, np.nan)
        return real(band, stack, level, f)

    monkeypatch.setattr(mild, "_duhamel_sweep", sweep)


def random_hermitian_field(grid: GridSpec, seed: int = 0) -> SpectralField:
    """Random real (hermitian) field, NOT solenoidal and with a mean part."""
    rng = np.random.default_rng(seed)
    phys = rng.standard_normal((grid.dim,) + grid.shape)
    from lansfrac.spectral import to_spectral

    return to_spectral(phys, grid)


def single_mode_field(grid: GridSpec, k: tuple, vec: tuple) -> SpectralField:
    """Real field with +/-k mode pair set to vec * e^{ik.x} + c.c."""
    coeffs = np.zeros((grid.dim,) + grid.shape, dtype=np.complex128)
    idx = tuple(ki % grid.N for ki in k)
    for comp, amp in enumerate(vec):
        coeffs[(comp,) + idx] = amp
    coeffs = 0.5 * (coeffs + reflect_conj(coeffs, grid.dim))
    return SpectralField.from_coeffs(grid, half_spectrum(coeffs))


def embed_band_coeffs(block: np.ndarray, grid: GridSpec) -> SpectralField:
    """Place a (dim, 2b+1, ..., 2b+1) coefficient block (k in [-b, b]) on a grid.

    The block is in the full layout; the field keeps its half spectrum.
    """
    dim = grid.dim
    b = (block.shape[-1] - 1) // 2
    coeffs = np.zeros((dim,) + grid.shape, dtype=np.complex128)
    rng = range(-b, b + 1)
    if dim == 2:
        for i in rng:
            for j in rng:
                coeffs[:, i % grid.N, j % grid.N] = block[:, i + b, j + b]
    else:
        for i in rng:
            for j in rng:
                for l in rng:
                    coeffs[:, i % grid.N, j % grid.N, l % grid.N] = block[:, i + b, j + b, l + b]
    return SpectralField.from_coeffs(grid, half_spectrum(coeffs))


def random_band_block(dim: int, b: int, seed: int) -> np.ndarray:
    """Hermitian solenoidal coefficient block on k in [-b, b]^dim.

    Graded against grid size: embed the same block on several grids to sample
    one continuum field at different resolutions.
    """
    n = 4 * b + 4  # scratch grid comfortably holding the band
    scratch = make_grid(dim, max(8, n + n % 2))
    f = random_field(scratch, seed=seed, band=b, decay=1.0)
    full = full_spectrum(f.coeffs, dim)
    width = 2 * b + 1
    block = np.zeros((dim,) + (width,) * dim, dtype=np.complex128)
    rng = range(-b, b + 1)
    if dim == 2:
        for i in rng:
            for j in rng:
                block[:, i + b, j + b] = full[:, i % scratch.N, j % scratch.N]
    else:
        for i in rng:
            for j in rng:
                for l in rng:
                    block[:, i + b, j + b, l + b] = full[:, i % scratch.N, j % scratch.N, l % scratch.N]
    return block


# the faults scaled_plant plants: none, or one that breaks one invariant flag
SCALE_FAULTS = ("none", "divergence", "mirror", "mean")


def scaled_plant(u: np.ndarray, k: np.ndarray, power: int, fault: str = "none") -> np.ndarray:
    """u times 2^power, with one fault of 1e-9 max |u| planted first.

    u is a half spectrum or a band block and k its wavevectors; index 1 of
    each complex axis holds k_i = 1 in both layouts. "divergence" adds c k
    at k = (1, ..., 1), off the k_last = 0 plane, so only k . u moves;
    "mirror" adds i c to the last component at k = (1, 0, ..., 0), whose
    mirror (-1, 0, ..., 0) keeps its value, so only the k_last = 0 plane's
    conjugate symmetry breaks (k_last = 0: k . u keeps its value); "mean"
    adds c to the mean mode. The product by 2^power is exact unless it
    leaves the normal floats; power >= -1074 keeps 2^power itself a float.
    """
    dim = len(k)
    u = np.array(u)
    c = 1e-9 * float(np.max(np.abs(u)))
    if fault == "divergence":
        at = (slice(None),) + (1,) * dim
        u[at] += c * k[at]
    elif fault == "mirror":
        u[(dim - 1, 1) + (0,) * (dim - 1)] += 1j * c
    elif fault == "mean":
        u[(0,) + (0,) * dim] += c
    return u * 2.0**power


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def process_group(pgid: int) -> dict[int, tuple[int, str]]:
    """The live processes of a process group: pid -> (parent pid, state); zombies are gone."""
    found = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:  # it ended while listed
                continue
            state, ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
            if int(pgrp) == pgid and state != "Z":
                found[int(entry)] = (int(ppid), state)
    return found


def no_process_left(pgid: int) -> None:
    """Fail unless the process group has no live process within 5 s."""
    deadline = time.monotonic() + 5
    while process_group(pgid):
        assert time.monotonic() < deadline, f"left running: {process_group(pgid)}"
        time.sleep(0.02)


def stopped_by_ctrl_c(proc, out: Path) -> None:
    """Send SIGINT to proc's group, as a terminal's Ctrl-C does; fail unless
    proc exits 130 with one stderr line, leaves no .tmp file in out and no
    process."""
    os.killpg(proc.pid, signal.SIGINT)
    assert exit_and_stderr(proc) == (130, "stopped: interrupted (SIGINT)\n")
    assert not [path for path in out.iterdir() if path.name.endswith(".tmp")]
    no_process_left(proc.pid)


def exit_and_stderr(proc) -> tuple[int, str]:
    """The exit code and stderr of proc; its group is killed if it has not ended in 60 s."""
    try:
        _, err = proc.communicate(timeout=60)
        return proc.returncode, err
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


# The faults of a format-v3 snapshot's framing that read_snapshot names: a
# truncation inside each section, a bad tail count, bad tail indices and
# trailing bytes.
V3_FAULTS = (
    "cut in header", "cut in block", "cut in count", "cut in indices", "cut in values",
    "negative count", "oversized count", "unsorted", "duplicate", "below range",
    "above range", "in block", "trailing",
)


def malformed_v3(blob: bytes, fault: str, pick) -> tuple[bytes, str]:
    """blob, a format-v3 snapshot with a tail of at least two modes, with one
    fault of ``V3_FAULTS`` planted, and a pattern of the message that names it.

    pick(lo, hi) chooses an integer in [lo, hi): where the cut falls, which
    index moves, by how much a count or an index is off.
    """
    dim, n = struct.unpack_from("<2I", blob, 8)
    grid = make_grid(dim, n)
    layout = grid.layout
    modes_all = int(np.prod(grid.spectral_shape))
    block_end = 48 + 16 * dim * int(np.prod(layout.block_shape))
    (count,) = struct.unpack_from("<q", blob, block_end)
    modes = np.frombuffer(blob, "<i8", count, block_end + 8).copy()
    values_at = block_end + 8 + 8 * count
    assert count >= 2 and values_at + 16 * dim * count == len(blob)
    cuts = {"header": (0, 48, "file shorter than header"),
            "block": (48, block_end, "the band block"),
            "count": (block_end, block_end + 8, "the tail's mode count"),
            "indices": (block_end + 8, values_at, "the tail's mode indices"),
            "values": (values_at, len(blob), "the tail's values")}
    kind = fault.split()[-1]
    if fault.startswith("cut in "):
        lo, hi, what = cuts[kind]
        message = what if kind == "header" else f"file ends inside {what}"
        return blob[: pick(lo, hi)], message
    if fault == "trailing":
        extra = pick(1, 64)
        return blob + bytes(extra), f"{extra} bytes after the tail"
    head, tail = bytearray(blob[: block_end]), blob[values_at:]
    if fault.endswith("count"):
        outside = modes_all - int(np.prod(layout.block_shape))
        bad = -pick(1, 2**62) if fault == "negative count" else outside + pick(1, 2**20)
        head += struct.pack("<q", bad)
        return bytes(head) + blob[block_end + 8 :], rf"tail mode count {bad} is not in \[0, "
    i = pick(0, count - 1)
    if fault == "unsorted":
        modes[i], modes[i + 1] = modes[i + 1], modes[i]
        message = "not strictly increasing"
    elif fault == "duplicate":
        modes[i + 1] = modes[i]
        message = "not strictly increasing"
    elif fault == "below range":
        modes[0] = -pick(1, 2**62)
        message = "out of range"
    elif fault == "above range":
        modes[-1] = modes_all + pick(0, 2**20)
        message = "out of range"
    else:  # a mode of the block below the first tail mode, which keeps the order
        inside = np.flatnonzero(layout.scatter(np.ones(layout.block_shape, bool),
                                               np.zeros(grid.spectral_shape, bool)))
        below = inside[inside < modes[0]]
        modes[0] = below[pick(0, len(below))]
        message = "inside the band block"
    head += struct.pack("<q", count)
    return bytes(head) + modes.astype("<i8").tobytes() + tail, message
