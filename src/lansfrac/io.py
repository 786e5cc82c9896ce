"""Config parsing, binary snapshot persistence, CSV emission, run manifests.

The config grammar is deliberately line-oriented ``key = value`` with ``#``
comments: zero-dependency parsing and diff-friendly experiment records. The
snapshot format is a fixed little-endian header (magic "FLNS", version 2)
followed by the raw complex coefficient payload: the stored ``rfftn`` half
spectrum ``SpectralField.coeffs`` as it is, shape (dim, N, ..., N, N/2 + 1),
components outermost, k-indices in FFT-standard order.

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
from .integrator import InitialData, SchemeKind, SimConfig, StepScheme
from .spectral import (
    Params,
    SpectralField,
    infer_regime,
    make_grid,
    measure_flags,
)

SNAPSHOT_MAGIC = b"FLNS"
SNAPSHOT_VERSION = 2
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
    field: SpectralField, meta: SnapshotMeta, path: str | Path
) -> tuple[str, int]:
    """Write header + half-spectrum complex128 payload; bit-exact round trip.

    The payload is ``field.coeffs`` itself, written from its own buffer.
    Returns the file's hex sha256 and byte count.
    """
    grid = field.grid
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        grid.dim,
        grid.N,
        meta.alpha,
        meta.nu,
        meta.s,
        meta.t,
    )
    return _write_atomic(path, (header, np.ascontiguousarray(field.coeffs, dtype="<c16").data))


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


def read_snapshot(path: str | Path) -> tuple[SpectralField, SnapshotMeta]:
    """Read and validate a snapshot: magic, version, grid, payload size, and a state.

    The field must be a solver state: finite, real (hermitian), solenoidal
    and mean-free, each to ``measure_flags``' tolerances; a payload that
    breaks one raises CorruptPayloadError naming it. A half spectrum is real
    iff its k_last = 0 and Nyquist planes match their own conjugate mirrors,
    which is what the hermitian flag compares. The field's coefficients are
    a view into the file's bytes.
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
    expected = dim * n ** (dim - 1) * (n // 2 + 1) * 16
    if len(blob) - _HEADER.size != expected:
        raise CorruptPayloadError(
            f"{path}: payload is {len(blob) - _HEADER.size} bytes, expected {expected}"
        )
    try:
        grid = make_grid(dim, n)
    except GridError as exc:
        raise CorruptPayloadError(f"{path}: header grid: {exc}") from None
    coeffs = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size)
    coeffs = coeffs.astype(np.complex128, copy=False).reshape((dim,) + grid.spectral_shape)
    herm, sol, mean = measure_flags(grid, coeffs)
    # measure_flags fails all three flags of a non-finite field
    if not (herm or sol or mean) and not np.isfinite(coeffs).all():
        raise CorruptPayloadError(f"{path}: field is not finite")
    if not herm:
        raise CorruptPayloadError(f"{path}: field violates hermitian symmetry")
    if not sol:
        raise CorruptPayloadError(f"{path}: field is not solenoidal (not divergence-free)")
    if not mean:
        raise CorruptPayloadError(f"{path}: field carries a mean (is not mean-free)")
    field = SpectralField.from_coeffs(grid, coeffs)
    return field, SnapshotMeta(alpha=alpha, nu=nu, s=s, t=t)


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
