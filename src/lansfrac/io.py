"""Config parsing, binary snapshot persistence, CSV emission, run manifests.

The config grammar is deliberately line-oriented ``key = value`` with ``#``
comments: zero-dependency parsing and diff-friendly experiment records. A
snapshot (format v3, little-endian) holds a state in the layout the march
steps (``BandLayout``): a fixed header (magic "FLNS", version, dim, N,
alpha, nu, s, t), the band block, shape (dim,) + block_shape, as complex128,
then the tail: its mode count n and its n strictly increasing flat indices
into ``grid.spectral_shape`` as int64, and its (dim, n) complex128 values.

Every output file is written to a temporary file beside it and renamed over
it, so a failed write leaves the previous file untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    BadValueError,
    ConfigError,
    CorruptPayloadError,
    EmptyOutputError,
    GridError,
    MissingKeyError,
    OutputError,
    SnapshotError,
    VersionMismatchError,
)
from .integrator import InitialData, SchemeKind, SimConfig, State, StepScheme
from .spectral import GridSpec, Params, SpectralField, band_flags, infer_regime, make_grid
from .spectral import measure_flags  # noqa: F401  the benchmark's tracer patches io.measure_flags

SNAPSHOT_MAGIC = b"FLNS"
SNAPSHOT_VERSION = 3
_HEADER = struct.Struct("<4s3I4d")  # magic, version, dim, N, alpha, nu, s, t


@dataclass(frozen=True)
class SnapshotMeta:
    alpha: float
    nu: float
    s: float
    t: float


def _write_atomic(path: str | Path, chunks: Iterable[bytes | memoryview]) -> tuple[str, int]:
    """Write chunks to a temporary file beside path, then rename it to path.

    Returns the hex sha256 and the byte count of what was written, hashed
    chunk by chunk as it is written, so no output is read back. A write that
    fails (a directory at path, a full disk, a file-size limit) raises
    OutputError naming path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    digest, size = hashlib.sha256(), 0
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
                size += memoryview(chunk).nbytes
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from None
        raise
    return digest.hexdigest(), size


def write_snapshot(
    state: SpectralField | State, meta: SnapshotMeta, path: str | Path
) -> tuple[str, int]:
    """Write header, band block and tail (format v3); bit-exact round trip.

    state is a march's ``integrator.State``, written from its own block and
    tail, or a ``SpectralField``, split through its grid's layout
    (``BandLayout.split``: a -0.0 outside the block reads back as +0.0).
    Neither builds a field or a kernel workspace. A state's tail keeps every
    mode of its start's, also one whose value has decayed to zero, so its
    bytes are its field's unless they hold such a mode. Returns the file's
    hex sha256 and byte count.
    """
    if isinstance(state, SpectralField):
        grid = state.grid
        block, modes, tail = grid.layout.split(state.coeffs)
    else:
        grid, block, modes, tail = state.grid, state.block, state.modes, state.tail
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.dim, grid.N,
                          meta.alpha, meta.nu, meta.s, meta.t)
    return _write_atomic(path, (header, np.ascontiguousarray(block, dtype="<c16").data,
                                np.r_[len(modes), modes].astype("<i8").data,
                                np.ascontiguousarray(tail, dtype="<c16").data))


def _read_input(path: str | Path, what: str, error: type[Exception]) -> bytes:
    """Bytes of an input file; FileNotFoundError if it is missing, error if unreadable."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except IsADirectoryError:
        raise error(f"{what} {path} is a directory, not a file") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {what} {str(path)!r}: {reason}") from None


def _section(
    blob: bytes, at: int, dtype: str, count: int, what: str, path
) -> tuple[np.ndarray, int]:
    """count items of dtype in blob from offset at, and the offset after them;
    CorruptPayloadError naming what if the file ends first."""
    end = at + count * np.dtype(dtype).itemsize
    if len(blob) < end:
        raise CorruptPayloadError(f"{path}: file ends inside the {what}")
    return np.frombuffer(blob, dtype, count, at), end


def read_band(path: str | Path) -> tuple[tuple[np.ndarray, ...], GridSpec, SnapshotMeta]:
    """Read and validate a snapshot: ((block, modes, tail), grid, header), the
    state as stored, in read-only views of the file's bytes.

    The framing must hold exactly: the band block, a tail count n in [0,
    modes outside the block], n strictly increasing indices of modes
    outside the block, n values per component and nothing after them.
    Block and tail must be a solver state: finite, real (hermitian),
    solenoidal and mean-free, as ``spectral.band_flags`` finds them. A file
    that breaks one raises CorruptPayloadError naming it.
    """
    blob = _read_input(path, "snapshot", SnapshotError)
    if len(blob) < _HEADER.size:
        raise CorruptPayloadError(f"{path}: file shorter than header")
    magic, version, dim, n, alpha, nu, s, t = _HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise VersionMismatchError(f"{path}: format version {version} != {SNAPSHOT_VERSION}")
    if dim not in (2, 3):
        raise CorruptPayloadError(f"{path}: header dim {dim} is not 2 or 3")
    b = -(-n // 3) - 1  # the band limit, taken before the grid: a huge N's tables would not fit
    block, at = _section(blob, _HEADER.size, "<c16", dim * (2 * b + 1) ** (dim - 1) * (b + 1),
                         "band block", path)
    try:
        grid = make_grid(dim, n)
    except GridError as exc:
        raise CorruptPayloadError(f"{path}: header grid: {exc}") from None
    (count,), at = _section(blob, at, "<i8", 1, "tail's mode count", path)
    modes_all = grid.dealias_mask.size
    outside = modes_all - block.size // dim
    if not 0 <= count <= outside:
        raise CorruptPayloadError(f"{path}: tail mode count {count} is not in [0, {outside}]")
    modes, at = _section(blob, at, "<i8", int(count), "tail's mode indices", path)
    tail, at = _section(blob, at, "<c16", dim * int(count), "tail's values", path)
    if at != len(blob):
        raise CorruptPayloadError(f"{path}: {len(blob) - at} bytes after the tail")
    if np.any(np.diff(modes) <= 0):
        raise CorruptPayloadError(f"{path}: tail mode indices are not strictly increasing")
    if count and (modes[0] < 0 or modes[-1] >= modes_all):
        raise CorruptPayloadError(f"{path}: tail mode index out of range [0, {modes_all})")
    if grid.dealias_mask.ravel()[modes].any():
        raise CorruptPayloadError(f"{path}: tail mode index inside the band block")
    block, tail = block.reshape((dim,) + grid.layout.block_shape), tail.reshape(dim, -1)
    herm, sol, mean = band_flags(grid, block, modes, tail)
    # the flags all fail on a non-finite state
    if not (herm or sol or mean) and not (np.isfinite(block).all() and np.isfinite(tail).all()):
        raise CorruptPayloadError(f"{path}: field is not finite")
    if not herm:
        raise CorruptPayloadError(f"{path}: field violates hermitian symmetry")
    if not sol:
        raise CorruptPayloadError(f"{path}: field is not solenoidal (not divergence-free)")
    if not mean:
        raise CorruptPayloadError(f"{path}: field carries a mean (is not mean-free)")
    return (block, modes, tail), grid, SnapshotMeta(alpha=alpha, nu=nu, s=s, t=t)


def read_snapshot(path: str | Path) -> tuple[SpectralField, SnapshotMeta]:
    """``read_band``'s state joined into a full field (``BandLayout.join``), and the header."""
    band, grid, meta = read_band(path)
    return SpectralField.from_coeffs(grid, grid.layout.join(*band)), meta


def _format_value(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit_csv(rows: Sequence[Any], path: str | Path) -> tuple[str, int]:
    """Write records (dataclasses or mappings) as CSV at full precision.

    Returns the file's hex sha256 and byte count.
    """
    rows = list(rows)
    if not rows:
        raise EmptyOutputError(f"refusing to write empty CSV to {path}")
    first = rows[0]
    if dataclasses.is_dataclass(first):
        names = [f.name for f in dataclasses.fields(first)]
        get = lambda row, name: getattr(row, name)
    elif isinstance(first, Mapping):
        names = list(first.keys())
        get = lambda row, name: row[name]
    else:
        raise TypeError(f"cannot serialize rows of type {type(first)!r}")
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_format_value(get(row, n)) for n in names))
    return _write_atomic(path, ["\n".join(lines).encode() + b"\n"])


_REQUIRED_KEYS = ("dim", "N", "alpha", "nu", "s", "dt", "t_end", "init")
_KNOWN_KEYS = _REQUIRED_KEYS + (
    "scheme",
    "galerkin_N",
    "snapshot_every",
    "amplitude",
    "seed",
    "decay_exponent",
    "band",
    "out_dir",
)


def parse_config(path: str | Path) -> SimConfig:
    """Parse a key = value config file into a validated SimConfig.

    The parser only converts text: each value becomes an int, a float or a
    str, and the config types it builds (``GridSpec``, ``Params``,
    ``StepScheme``, ``InitialData``, ``SimConfig``) check every range. Their
    messages start with the field's name, which is also its key, so a
    type's error is reported under that key and its line. A key given twice
    is an error. Command-level range gating, by the regime ``infer_regime``
    finds for (dim, s), is the CLI's job.
    """
    try:
        text = _read_input(path, "config", ConfigError).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config {path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise BadValueError(body, lineno, "expected 'key = value'")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise BadValueError(key, lineno, "unknown key")
        if key in raw:
            raise BadValueError(key, lineno, f"repeats the key of line {raw[key][1]}")
        raw[key] = (value, lineno)

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise MissingKeyError(key)

    def take(key: str, conv=str, default=None):
        if key not in raw:
            return default
        value, lineno = raw[key]
        try:
            return conv(value)
        except ValueError as exc:
            raise BadValueError(key, lineno, str(exc)) from None

    def wrap(keys: tuple[str, ...], builder):
        """builder(), with a type's error under the key its message starts with, else keys[0]."""
        try:
            return builder()
        except BadValueError:
            raise  # from a ``take`` inside builder, and so already under its own key
        except Exception as exc:
            detail = str(exc)
            key = next((k for k in keys if detail.startswith(f"{k} ")), keys[0])
            raise BadValueError(key, raw[key][1] if key in raw else 0, detail) from None

    grid = wrap(("dim", "N"), lambda: make_grid(take("dim", int), take("N", int)))
    params = wrap(
        ("alpha", "nu", "s"),
        lambda: Params(alpha=take("alpha", float), nu=take("nu", float), s=take("s", float)),
    )
    scheme = wrap(
        ("scheme", "dt"),
        lambda: StepScheme(
            kind=SchemeKind(take("scheme", str, "etd2rk").lower()), dt=take("dt", float)
        ),
    )
    kind, _, snap_path = take("init").partition(":")
    kind = kind.strip().lower()
    initial = wrap(
        ("init", "amplitude", "seed", "decay_exponent"),
        lambda: InitialData(
            kind="random-spectrum" if kind == "random" else kind,
            amplitude=take("amplitude", float, 1.0),
            seed=take("seed", int, 0),
            decay_exponent=take("decay_exponent", float),
            band=take("band", int),
            path=snap_path.strip() or None,
        ),
    )
    return wrap(
        ("t_end", "snapshot_every", "galerkin_N", "band"),
        lambda: SimConfig(
            grid=grid,
            params=params,
            scheme=scheme,
            t_end=take("t_end", float),
            initial=initial,
            galerkin_N=take("galerkin_N", int),
            snapshot_every=take("snapshot_every", int, 1),
            out_dir=take("out_dir"),
        ),
    )


def run_environment() -> dict[str, str]:
    """Versions of the interpreter and of numpy that a run uses.

    The Python version is read off ``sys.version``, as ``platform`` does;
    importing ``platform`` would add milliseconds to every command.
    """
    return {"python": sys.version.split()[0], "numpy": np.__version__}


@dataclass
class RunManifest:
    """Record of one CLI invocation: config echo, version, outputs + checksums,
    the environment (Python and numpy versions) and the status: {"state":
    "ok"}, {"state": "diverged", "step": ..., "t": ...} for a run that
    diverged, or {"state": "error", "message": ...} for one whose output
    could not be written."""

    config: dict[str, Any]
    version: str
    started: str
    finished: str
    wall_seconds: float
    outputs: list[dict[str, Any]]
    environment: dict[str, str] = dataclasses.field(default_factory=run_environment)
    status: dict[str, Any] = dataclasses.field(default_factory=lambda: {"state": "ok"})

    def add_output(self, path: str | Path, sha256: str, nbytes: int) -> None:
        """Record an output file with the digest and size its writer returned."""
        self.outputs.append({"path": Path(path).name, "sha256": sha256, "bytes": nbytes})


def config_echo(config: SimConfig) -> dict[str, Any]:
    """JSON-friendly echo of a parsed configuration."""
    return {
        "dim": config.grid.dim,
        "N": config.grid.N,
        "alpha": config.params.alpha,
        "nu": config.params.nu,
        "s": config.params.s,
        "regime": infer_regime(config.grid.dim, config.params.s).value,
        "scheme": config.scheme.kind.value,
        "dt": config.scheme.dt,
        "t_end": config.t_end,
        "galerkin_N": config.galerkin_N,
        "snapshot_every": config.snapshot_every,
        "init": config.initial.kind,
        "amplitude": config.initial.amplitude,
        "seed": config.initial.seed,
        "decay_exponent": config.initial.decay_exponent,
        "band": config.initial.band,
        "out_dir": config.out_dir,
    }


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    text = json.dumps(dataclasses.asdict(manifest), indent=2) + "\n"
    _write_atomic(path, [text.encode()])
