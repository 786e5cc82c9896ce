import numpy as np
import pytest

from lansfrac import GridSpec, InitialData, Params, Regime, SpectralField, make_grid, make_initial
from lansfrac.spectral import full_spectrum, half_spectrum, reflect_conj


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
    return Params(alpha=0.5, nu=1.0, s=0.5, regime=Regime.GLOBAL_RANGE)


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


def nan_at_last_picard_node(monkeypatch, nodes: int) -> None:
    """Make Picard's f return nan at the last of its mesh nodes, every sweep.

    A sweep calls the band kernel once per node but node 0, whose f is taken
    once per solve.
    """
    import lansfrac.mild as mild

    real, calls = mild.rhs_f_band, []

    def f(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        if len(calls) % (nodes - 1) == 0:
            out[...] = np.nan
        return out

    monkeypatch.setattr(mild, "rhs_f_band", f)


def random_hermitian_field(grid: GridSpec, seed: int = 0) -> SpectralField:
    """Random real (hermitian) field, NOT solenoidal and with a mean part."""
    rng = np.random.default_rng(seed)
    phys = rng.standard_normal((grid.dim,) + grid.shape)
    from lansfrac import to_spectral

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


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale
