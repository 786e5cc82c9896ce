"""Snapshot format, CSV emission, config parsing, manifest checksums."""

import hashlib
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lansfrac.io as lio
from lansfrac import InitialData, Params, SchemeKind, SimConfig, StepScheme, make_grid
from lansfrac.diagnostics import DiagRecord
from lansfrac.errors import (
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
from lansfrac.io import (
    RunManifest,
    SnapshotMeta,
    config_echo,
    emit_csv,
    parse_config,
    read_snapshot,
    write_manifest,
    write_snapshot,
)
from lansfrac.spectral import GridSpec, SpectralField, to_physical

from conftest import V3_FAULTS, malformed_v3, random_field, scaled_plant

META = SnapshotMeta(alpha=0.5, nu=0.1, s=0.75, t=1.25)

# Format-v1 snapshots (full spectrum) written by the full-spectrum code that
# preceded the half-spectrum layout: N = 8, the coefficients of seeded
# standard-normal samples (np.random.default_rng(dim).standard_normal((dim,)
# + (8,) * dim)). The format-v2 fixtures (half spectrum) and the format-v3
# fixtures (band block and tail) are the same snapshots, converted by
# README's recipes. Their modes with |k_i| = 3 lie outside the band block of
# N = 8 (b = 2), so the v3 fixtures carry a tail.
DATA = Path(__file__).parent / "data"
V1_FIXTURES = {2: DATA / "v1_2d_n8.flns", 3: DATA / "v1_3d_n8.flns"}
V2_FIXTURES = {2: DATA / "v2_2d_n8.flns", 3: DATA / "v2_3d_n8.flns"}
V3_FIXTURES = {2: DATA / "v3_2d_n8.flns", 3: DATA / "v3_3d_n8.flns"}


# ---------------------------------------------------------------- snapshots

def test_snapshot_round_trip_bitwise(tmp_path, grid2):
    u = random_field(grid2, seed=1)
    path = tmp_path / "field.flns"
    write_snapshot(u, META, path)
    back, meta = read_snapshot(path)
    assert np.array_equal(back.coeffs, u.coeffs)
    assert meta == META
    assert back.grid == grid2


def test_snapshot_round_trip_3d(tmp_path, grid3):
    u = random_field(grid3, seed=2)
    path = tmp_path / "field3.flns"
    write_snapshot(u, META, path)
    back, _ = read_snapshot(path)
    assert np.array_equal(back.coeffs, u.coeffs)


def test_snapshot_header_layout(tmp_path, grid2):
    u = random_field(grid2, seed=3)
    path = tmp_path / "field.flns"
    write_snapshot(u, META, path)
    blob = path.read_bytes()
    magic, version, dim, n = struct.unpack_from("<4s3I", blob)
    assert magic == b"FLNS" and version == 3 and dim == 2 and n == 32
    alpha, nu, s, t = struct.unpack_from("<4d", blob, 16)
    assert (alpha, nu, s, t) == (0.5, 0.1, 0.75, 1.25)
    # the band block of b = 10, then an empty tail: a count of 0
    block = 2 * 21 * 11 * 16
    assert len(blob) == 16 + 32 + block + 8
    assert blob[48 : 48 + block] == grid2.layout.gather(u.coeffs).astype("<c16").tobytes()
    assert struct.unpack_from("<q", blob, 48 + block) == (0,)


def test_snapshot_truncated_payload(tmp_path, grid2):
    u = random_field(grid2, seed=4)
    path = tmp_path / "field.flns"
    write_snapshot(u, META, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(CorruptPayloadError):
        read_snapshot(path)


def test_snapshot_bad_magic(tmp_path, grid2):
    u = random_field(grid2, seed=5)
    path = tmp_path / "field.flns"
    write_snapshot(u, META, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        read_snapshot(path)


def test_snapshot_version_mismatch(tmp_path, grid2):
    u = random_field(grid2, seed=6)
    path = tmp_path / "field.flns"
    write_snapshot(u, META, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        read_snapshot(path)


def test_snapshot_hermitian_violation(tmp_path, grid2):
    u = random_field(grid2, seed=7)
    path = tmp_path / "field.flns"
    write_snapshot(u, META, path)
    blob = bytearray(path.read_bytes())
    # corrupt one coefficient of the band block so conjugate symmetry breaks:
    # k = (3, 0) of component 0, on the k_last = 0 plane, whose mirror
    # (-3, 0) is kept unchanged
    index = np.ravel_multi_index((0, 3, 0), (2,) + grid2.layout.block_shape)
    struct.pack_into("<2d", blob, 48 + 16 * int(index), 1e6, -1e6)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptPayloadError, match="hermitian"):
        read_snapshot(path)


@pytest.mark.parametrize("dim", [2, 3])
def test_v3_fixture_round_trips_byte_for_byte(tmp_path, dim):
    field, meta = read_snapshot(V3_FIXTURES[dim])
    assert field.grid == make_grid(dim, 8) and field.hermitian
    assert field.grid.layout.split(field.coeffs)[1].size > 0  # it has a tail
    path = tmp_path / "again.flns"
    write_snapshot(field, meta, path)
    assert path.read_bytes() == V3_FIXTURES[dim].read_bytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_v1_fixture_raises_version_mismatch(dim):
    with pytest.raises(VersionMismatchError, match="format version 1 != 3"):
        read_snapshot(V1_FIXTURES[dim])


@pytest.mark.parametrize("dim", [2, 3])
def test_v2_fixture_raises_version_mismatch(dim):
    with pytest.raises(VersionMismatchError, match="format version 2 != 3"):
        read_snapshot(V2_FIXTURES[dim])


def _readme_recipe(name: str):
    """A conversion function of README's snapshot section, defined here."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    code = next(block.split("```", 1)[0] for block in text.split("```python\n")[1:]
                if f"def {name}(" in block)
    scope: dict = {}
    exec(code, scope)
    return scope[name]


@pytest.mark.parametrize("dim", [2, 3])
def test_readme_recipe_converts_the_v1_fixtures_to_the_v2_ones(tmp_path, dim):
    path = tmp_path / "converted.flns"
    _readme_recipe("v1_to_v2")(V1_FIXTURES[dim], path)
    assert path.read_bytes() == V2_FIXTURES[dim].read_bytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_readme_recipe_converts_the_v2_fixtures_to_the_v3_ones(tmp_path, dim):
    path = tmp_path / "converted.flns"
    _readme_recipe("v2_to_v3")(V2_FIXTURES[dim], path)
    assert path.read_bytes() == V3_FIXTURES[dim].read_bytes()
    field, _ = read_snapshot(path)
    assert field.grid == make_grid(dim, 8)


def _solenoidal_samples(samples: np.ndarray) -> np.ndarray:
    """The samples' Leray projection, without mean or Nyquist modes, by numpy.fft alone."""
    dim, n = samples.ndim - 1, samples.shape[-1]
    axes = tuple(range(1, dim + 1))
    hat = np.fft.fftn(samples, axes=axes)
    k = np.stack(np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n)] * dim, indexing="ij"))
    k2 = np.sum(k**2, axis=0)
    hat -= k * np.sum(k * hat, axis=0) / np.where(k2 > 0, k2, 1.0)
    hat[:, np.any(np.abs(k) == n // 2, axis=0) | (k2 == 0)] = 0.0
    return np.fft.ifftn(hat, axes=axes).real


@pytest.mark.parametrize("dim", [2, 3])
def test_v3_fixture_holds_its_seeded_samples(dim):
    # the fixture holds seeded standard-normal samples, made a solver state:
    # Leray-projected, without mean and Nyquist modes
    field, meta = read_snapshot(V3_FIXTURES[dim])
    samples = np.random.default_rng(dim).standard_normal((dim,) + (8,) * dim)
    assert np.max(np.abs(to_physical(field) - _solenoidal_samples(samples))) < 1e-13
    assert (meta.alpha, meta.nu) == (0.5, 0.1)


def _corrupt(path, index, delta):
    """Add delta to one coefficient of a snapshot's half spectrum (a tail
    mode, if it lies outside the band block)."""
    field, meta = read_snapshot(path)
    coeffs = np.array(field.coeffs)
    coeffs[index] += delta
    write_snapshot(field.copy_with(coeffs), meta, path)


@pytest.mark.parametrize(
    "index",
    [
        (0, 5, 0),    # k_last = 0 plane: its mirror (-5, 0) is in the same plane
        (1, 2, 8),    # Nyquist plane
    ],
    ids=["k_last-0-plane", "nyquist-plane"],
)
def test_snapshot_asymmetry_anywhere_is_rejected(tmp_path, index):
    # the only coefficients of a half spectrum that have a mirror to break
    u = random_field(make_grid(2, 16), seed=8)
    path = tmp_path / "field.flns"
    write_snapshot(u, META, path)
    _corrupt(path, index, 0.5 + 0.5j)
    with pytest.raises(CorruptPayloadError):
        read_snapshot(path)


def _plant_in_snapshot(path, fault):
    """Rewrite a 2D snapshot's kept half with one fault that keeps it real."""
    field, meta = read_snapshot(path)
    c = np.array(field.coeffs)
    if fault == "not finite":
        c[0, 3, 2] = np.nan
    elif fault == "violates hermitian symmetry":
        c[1, 3, 0] += 0.5j  # its mirror (-3, 0) is kept unchanged
    elif fault == "not solenoidal":
        c[:, 3, 2] += 0.5 * np.array([3.0, 2.0])  # k . u != 0, realness kept
    elif fault == "carries a mean":
        c[0, 0, 0] = 0.5
    lio.write_snapshot(SpectralField.from_coeffs(field.grid, c), meta, path)


_INVARIANTS = ["not finite", "violates hermitian symmetry", "not solenoidal", "carries a mean"]


@pytest.mark.parametrize("fault", _INVARIANTS)
def test_snapshot_that_breaks_an_invariant_is_rejected(tmp_path, fault):
    # a snapshot is a solver state: finite, real, solenoidal and mean-free
    path = tmp_path / "field.flns"
    write_snapshot(random_field(make_grid(2, 16), seed=10), META, path)
    _plant_in_snapshot(path, fault)
    with pytest.raises(CorruptPayloadError, match=fault):
        read_snapshot(path)


@pytest.mark.parametrize("power", [-900, -1000])
def test_a_snapshot_of_a_tiny_state_is_read(tmp_path, power):
    # a valid state times 2^-900 or 2^-1000, whose E0 underflows to 0, is
    # checked against its own largest coefficient, as it is at size 1
    grid = make_grid(2, 32)
    u = random_field(grid, seed=10)
    tiny = SpectralField.from_coeffs(grid, scaled_plant(u.coeffs, grid.k, power))
    path = tmp_path / "tiny.flns"
    write_snapshot(tiny, META, path)
    back, _ = read_snapshot(path)
    assert np.array_equal(back.coeffs, tiny.coeffs) and 0.0 < np.max(np.abs(back.coeffs)) < 1e-270


_HEADER_BYTES = 48


@settings(max_examples=200, deadline=None)
@given(
    fixture=st.sampled_from([*V1_FIXTURES.values(), *V2_FIXTURES.values(),
                             *V3_FIXTURES.values()]),
    edits=st.lists(
        st.tuples(
            st.one_of(st.integers(0, _HEADER_BYTES - 1), st.integers(0, 2**20)),
            st.integers(0, 255),
        ),
        max_size=6,
    ),
    cut=st.one_of(st.none(), st.integers(0, 2**20)),
)
def test_mutated_or_truncated_snapshot_raises_only_snapshot_error(fixture, edits, cut):
    blob = bytearray(fixture.read_bytes())
    for offset, value in edits:
        blob[offset % len(blob)] = value
    if cut is not None:
        blob = blob[: cut % (len(blob) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.flns"
        path.write_bytes(bytes(blob))
        try:
            field, _ = read_snapshot(path)
        except SnapshotError:
            return
    assert field.hermitian  # whatever is accepted is a real field


@settings(max_examples=300, deadline=None)
@given(fixture=st.sampled_from(sorted(V3_FIXTURES.values())), fault=st.sampled_from(V3_FAULTS),
       data=st.data())
def test_a_malformed_v3_payload_raises_a_corrupt_payload_error_naming_its_fault(
    fixture, fault, data
):
    # each fault of the framing, wherever it falls: a truncation inside each
    # section, a negative or oversized tail count, unsorted, duplicate,
    # out-of-range or in-block tail indices, and trailing bytes
    blob, message = malformed_v3(fixture.read_bytes(), fault,
                                 lambda lo, hi: data.draw(st.integers(lo, hi - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "malformed.flns"
        path.write_bytes(blob)
        with pytest.raises(CorruptPayloadError, match=message):
            read_snapshot(path)


# ---------------------------------------------------------------------- CSV

def test_emit_csv_single_record(tmp_path):
    rec = DiagRecord(t=0.1, E0=1.0, E1=1.25, D=0.5, nDA=2.0, n1ps2=1.5, cancel=1e-15)
    path = tmp_path / "diag.csv"
    emit_csv([rec], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == "t,E0,E1,D,nDA,n1ps2,cancel"


def test_emit_csv_empty_rejected(tmp_path):
    with pytest.raises(EmptyOutputError):
        emit_csv([], tmp_path / "x.csv")


def test_emit_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    rows = [
        {"a": float(rng.standard_normal()), "b": float(np.pi * rng.random())}
        for _ in range(20)
    ]
    path = tmp_path / "vals.csv"
    emit_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    for row, line in zip(rows, lines[1:]):
        a, b = (float(x) for x in line.split(","))
        assert a == row["a"] and b == row["b"]  # 17 significant digits round-trips


# ------------------------------------------------------------------- config

MINIMAL = """
# minimal 2D configuration
dim = 2
N = 64
alpha = 0.5
nu = 0.1
s = 0.5
dt = 1e-3
t_end = 1
init = taylor-green
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.grid.dim == 2 and cfg.grid.N == 64
    assert cfg.params.alpha == 0.5 and cfg.params.nu == 0.1 and cfg.params.s == 0.5
    assert config_echo(cfg)["regime"] == "global"  # s = dim/4 endpoint included
    assert cfg.scheme.kind is SchemeKind.ETD2RK and cfg.scheme.dt == 1e-3
    assert cfg.t_end == 1.0
    assert cfg.initial.kind == "taylor-green"
    assert cfg.snapshot_every == 1 and cfg.galerkin_N is None


def test_parse_missing_key(tmp_path):
    text = MINIMAL.replace("nu = 0.1\n", "")
    with pytest.raises(MissingKeyError) as err:
        parse_config(write_config(tmp_path, text))
    assert err.value.key == "nu"


def test_parse_bad_value_reports_key_and_line(tmp_path):
    text = MINIMAL.replace("nu = 0.1", "nu = fast")
    with pytest.raises(BadValueError) as err:
        parse_config(write_config(tmp_path, text))
    assert err.value.key == "nu" and err.value.line > 0
    # each key is reported under its own name and line, also where the value
    # is checked while the config object it belongs to is built; MINIMAL has
    # N = 64, so band must lie in [1, 31] and galerkin_N in [1, 32]
    line = MINIMAL.count("\n") + 1
    for key, value in [("snapshot_every", "0"), ("snapshot_every", "x"),
                       ("galerkin_N", "33"), ("galerkin_N", "0"), ("galerkin_N", "x"),
                       ("band", "32"), ("band", "0"), ("seed", "-1")]:
        with pytest.raises(BadValueError) as err:
            parse_config(write_config(tmp_path, f"{MINIMAL}{key} = {value}\n"))
        assert (err.value.key, err.value.line) == (key, line), (key, value)
        assert str(err.value).startswith(f"bad value for '{key}' (line {line}): ")


# One bad value for each field a config sets, typed as parse_config converts it.
_BAD_FIELDS = [
    ("dim", 4), ("N", 7), ("N", 6), ("alpha", -1.0), ("alpha", float("nan")),
    ("nu", 0.0), ("nu", float("inf")), ("s", 1.0), ("s", float("-inf")),
    ("dt", 0.0), ("dt", float("nan")), ("t_end", -1.0), ("t_end", float("inf")),
    ("t_end", 1e300), ("amplitude", float("nan")), ("seed", -1),
    ("decay_exponent", float("inf")), ("band", 0), ("band", 32), ("galerkin_N", 0),
    ("galerkin_N", 33), ("snapshot_every", 0),
]


def _sim_config(**values) -> SimConfig:
    """MINIMAL's config built from the config types, with values in place of its own."""
    v = dict(dim=2, N=64, alpha=0.5, nu=0.1, s=0.5, dt=1e-3, t_end=1.0, amplitude=1.0,
             seed=0, decay_exponent=None, band=None, galerkin_N=None, snapshot_every=1)
    v.update(values)
    return SimConfig(
        grid=GridSpec(v["dim"], v["N"]),
        params=Params(alpha=v["alpha"], nu=v["nu"], s=v["s"]),
        scheme=StepScheme(dt=v["dt"]),
        t_end=v["t_end"],
        initial=InitialData(kind="random-spectrum", amplitude=v["amplitude"], seed=v["seed"],
                            decay_exponent=v["decay_exponent"], band=v["band"]),
        galerkin_N=v["galerkin_N"],
        snapshot_every=v["snapshot_every"],
    )


@pytest.mark.parametrize("key,value", _BAD_FIELDS, ids=lambda x: str(x))
def test_a_config_types_error_starts_with_its_field_and_names_its_key(tmp_path, key, value):
    # parse_config only converts text; the type that holds a field checks it,
    # and its message starts with the field's name, which is also the key
    # parse_config reports it under, with its line
    with pytest.raises((ValueError, GridError)) as built:
        _sim_config(**{key: value})
    detail = str(built.value)
    assert detail.startswith(f"{key} "), detail
    lines = [line for line in MINIMAL.splitlines() if not line.startswith(f"{key} =")]
    lines.append(f"{key} = {value}")
    with pytest.raises(BadValueError) as err:
        parse_config(write_config(tmp_path, "\n".join(lines)))
    assert str(err.value) == f"bad value for '{key}' (line {len(lines)}): {detail}"


@pytest.mark.parametrize("key,value", [("nu", "0.2"), ("dt", "1e-3"), ("init", "shear")])
def test_parse_repeated_key_names_both_lines(tmp_path, key, value):
    # a second value for a key is refused, also when it equals the first
    first = next(i for i, line in enumerate(MINIMAL.splitlines(), 1) if line.startswith(f"{key} ="))
    second = MINIMAL.count("\n") + 1
    with pytest.raises(BadValueError) as err:
        parse_config(write_config(tmp_path, f"{MINIMAL}{key} = {value}\n"))
    assert (err.value.key, err.value.line) == (key, second)
    assert str(err.value) == f"bad value for '{key}' (line {second}): repeats the key of line {first}"


def test_parse_unknown_key(tmp_path):
    with pytest.raises(BadValueError):
        parse_config(write_config(tmp_path, MINIMAL + "\ncolor = blue\n"))


def test_parse_subcritical_s_is_unrestricted(tmp_path):
    text = MINIMAL.replace("s = 0.5", "s = 0.4")
    cfg = parse_config(write_config(tmp_path, text))
    assert config_echo(cfg)["regime"] == "unrestricted"


def test_parse_optional_keys(tmp_path):
    text = MINIMAL + "\n".join(
        [
            "scheme = exp-euler",
            "galerkin_N = 10",
            "snapshot_every = 5",
            "amplitude = 0.25  # inline comment",
            "seed = 42",
            "decay_exponent = 3.01",
            "band = 8",
            "out_dir = results",
        ]
    )
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.scheme.kind is SchemeKind.EXP_EULER
    assert cfg.galerkin_N == 10 and cfg.snapshot_every == 5
    assert cfg.initial.amplitude == 0.25 and cfg.initial.seed == 42
    assert cfg.initial.decay_exponent == 3.01 and cfg.initial.band == 8
    assert cfg.out_dir == "results"


def test_parse_snapshot_init_path(tmp_path, grid2):
    u = random_field(grid2, seed=9)
    snap = tmp_path / "u0.flns"
    write_snapshot(u, META, snap)
    text = MINIMAL.replace("init = taylor-green", f"init = snapshot:{snap}")
    text = text.replace("N = 64", "N = 32")
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.initial.kind == "snapshot" and cfg.initial.path == str(snap)
    from lansfrac import make_initial

    u0 = make_initial(cfg.initial, cfg.grid)
    assert np.array_equal(u0.coeffs, u.coeffs)


def test_restart_field_has_the_config_grid(tmp_path):
    snap = tmp_path / "u0.flns"
    write_snapshot(random_field(make_grid(3, 16), seed=4), META, snap)
    text = MINIMAL.replace("init = taylor-green", f"init = snapshot:{snap}")
    text = text.replace("dim = 2", "dim = 3").replace("N = 64", "N = 16")
    cfg = parse_config(write_config(tmp_path, text))
    from lansfrac import make_initial

    assert make_initial(cfg.initial, cfg.grid).grid is cfg.grid


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_snapshot_io_makes_no_whole_payload_copies(tmp_path):
    # Traced peaks in units of the half spectrum (2.76 MB at 3D N=48; the
    # payload is its 0.27 share, the band block): the read holds the file's
    # bytes, the joined field and the flags' temporaries; the write of a
    # field holds the band block its split gathers, and it hashes every
    # array from its own buffer.
    grid = make_grid(3, 48)
    u = random_field(grid, seed=5)
    path = tmp_path / "big.flns"
    write_snapshot(u, META, path)
    half = 16 * grid.dim * np.prod(grid.spectral_shape)
    assert path.stat().st_size == 48 + 16 * grid.dim * np.prod(grid.layout.block_shape) + 8
    assert _traced_peak(lambda: write_snapshot(u, META, path)) <= 0.3 * half
    assert _traced_peak(lambda: read_snapshot(path)) <= 2.5 * half
    data = path.read_bytes()
    assert write_snapshot(u, META, path) == (hashlib.sha256(data).hexdigest(), len(data))
    assert np.array_equal(read_snapshot(path)[0].coeffs, u.coeffs)


# A 3D N=48 field written and read back in a fresh interpreter, with the
# number of kernel workspaces cached before and after.
_FIELD_PATH = """\
import sys
from lansfrac import InitialData, make_grid, make_initial, operators
from lansfrac.io import SnapshotMeta, read_snapshot, write_snapshot

u = make_initial(InitialData(kind="random-spectrum", seed=0), make_grid(3, 48))
before = operators._kernel_workspace.cache_info().currsize
write_snapshot(u, SnapshotMeta(alpha=0.5, nu=0.1, s=0.75, t=0.0), sys.argv[1])
back, _ = read_snapshot(sys.argv[1])
after = operators._kernel_workspace.cache_info().currsize
print(before, after, back.coeffs.tobytes() == u.coeffs.tobytes())
"""


def test_the_field_path_builds_no_kernel_workspace_and_writes_the_states_bytes(tmp_path):
    # A field's write splits it through the grid's layout and its read joins
    # it, so neither builds a kernel workspace: a process that writes the
    # benchmark's seed restart keeps its peak. A march's state, written from
    # its block and tail, gives the bytes of its field's write, on band data
    # and on random data of band N/2 - 1, whose tail holds modes of the data.
    path = tmp_path / "field.flns"
    out = subprocess.run([sys.executable, "-c", _FIELD_PATH, str(path)], capture_output=True,
                         text=True, timeout=300, check=True,
                         env={"PYTHONPATH": str(Path(lio.__file__).parents[1]), "PATH": "",
                              "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout.split() == ["0", "0", "True"]

    from lansfrac.integrator import march

    for band, n in ((None, 48), (7, 16)):
        config = SimConfig(grid=make_grid(3, n), params=Params(alpha=0.5, nu=0.1, s=0.75),
                           scheme=StepScheme(dt=1e-3), t_end=2e-3,
                           initial=InitialData(kind="random-spectrum", band=band))
        tails = []
        for state in march(config, []):
            meta = SnapshotMeta(alpha=0.5, nu=0.1, s=0.75, t=state.t)
            write_snapshot(state, meta, tmp_path / "state.flns")
            write_snapshot(state.field(), meta, path)
            assert (tmp_path / "state.flns").read_bytes() == path.read_bytes()
            tails.append(state.modes.size)
        assert len(tails) == 3 and (max(tails) == 0) == (band is None)


# ----------------------------------------------------------------- manifest

def test_manifest_checksums_recomputable(tmp_path):
    path = tmp_path / "out.csv"
    m = RunManifest(
        config={}, version="0", started="", finished="", wall_seconds=0.0, outputs=[]
    )
    m.add_output(path, *emit_csv([{"x": 1.0}], path))
    assert m.outputs[0]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert m.outputs[0]["bytes"] == path.stat().st_size


class _ShortWrite:
    """A file that takes a few bytes and then fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(bytes(data)[:5])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _fail_replace(src, dst):
    raise OSError(5, "Input/output error")


@pytest.mark.parametrize("failure", ["short-write", "rename"])
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, grid2, failure):
    u = random_field(grid2, seed=12)
    manifest = RunManifest(
        config={}, version="0", started="", finished="", wall_seconds=0.0, outputs=[]
    )
    writers = {
        "u.flns": lambda path, scale: write_snapshot(scale * u, META, path),
        "d.csv": lambda path, scale: emit_csv([{"x": scale}], path),
        "manifest.json": lambda path, scale: write_manifest(
            RunManifest(**{**manifest.__dict__, "wall_seconds": scale}), path
        ),
    }
    for name, write in writers.items():
        write(tmp_path / name, 1.0)
    before = {name: (tmp_path / name).read_bytes() for name in writers}

    if failure == "short-write":
        real_open = open
        monkeypatch.setattr(
            lio, "open", lambda path, mode: _ShortWrite(real_open(path, mode)), raising=False
        )
    else:
        monkeypatch.setattr(lio.os, "replace", _fail_replace)
    for name, write in writers.items():
        with pytest.raises(OutputError, match=f"cannot write '.*{name}'"):
            write(tmp_path / name, 2.0)
    monkeypatch.undo()

    assert {name: (tmp_path / name).read_bytes() for name in writers} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)


def test_parse_config_unreadable_text_is_a_config_error(tmp_path):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(MINIMAL.encode() + b"# na\xefve\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        parse_config(latin1)
    with pytest.raises(ConfigError, match="directory"):
        parse_config(tmp_path)


def test_snapshot_initial_grid_mismatch(tmp_path, grid2):
    from lansfrac import InitialData, make_initial
    from lansfrac.errors import SnapshotMismatchError

    u = random_field(grid2, seed=10)
    snap = tmp_path / "u0.flns"
    write_snapshot(u, META, snap)
    with pytest.raises(SnapshotMismatchError):
        make_initial(InitialData(kind="snapshot", path=str(snap)), make_grid(2, 64))


@pytest.mark.parametrize(
    "bad,key",
    [
        ("dim = 4", "dim"),
        ("N = 7", "N"),
        ("alpha = -1", "alpha"),
        ("nu = 0", "nu"),
        ("s = 1.5", "s"),
    ],
)
def test_parse_value_errors_name_the_offending_key(tmp_path, bad, key):
    line = bad.split("=")[0].strip()
    text = "\n".join(
        bad if l.startswith(f"{line} =") else l for l in MINIMAL.strip().splitlines()
    )
    with pytest.raises(BadValueError) as err:
        parse_config(write_config(tmp_path, text))
    assert err.value.key == key
