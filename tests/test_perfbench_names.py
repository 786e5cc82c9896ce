"""The names the benchmark looks up in the package still exist.

``perfbench/layers.py`` patches every (module, attribute) of its ``TARGETS``
for ``--trace 1``, and ``perfbench/child.py`` patches two functions to take
the set-up/solve boundary. A refactor that renames or drops one of them
breaks every traced benchmark command; this test catches it first. The
inputs ``perfbench/run.py`` writes must also still start a march as the
data they were drawn from.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from layers import TARGETS  # noqa: E402

# (module, attribute) pairs that child.py's _install_boundary patches
BOUNDARY = (("lansfrac.integrator", "_advance"), ("lansfrac.io", "write_snapshot"))


@pytest.mark.parametrize("target,attr", [(t, a) for t, a, _ in TARGETS] + list(BOUNDARY))
def test_benchmark_patches_a_name_that_exists(target, attr):
    modname, _, clsname = target.partition(":")
    owner = importlib.import_module(modname)
    if clsname:
        owner = getattr(owner, clsname)
    assert callable(getattr(owner, attr, None)), f"{target}.{attr}"


def test_boundary_names_are_the_ones_child_patches():
    text = (PERFBENCH / "child.py").read_text()
    assert all(f'"{attr}"' in text for _, attr in BOUNDARY)


def test_the_benchmark_inputs_start_through_start_field(tmp_path):
    # perfbench/run.py's _prepare writes each workload's inputs, which the
    # march reads through start_field: sim3d-n48's restart gives the band
    # block of its random field byte for byte and an empty tail, and
    # oracle2d-n128's random data is band-limited too.
    import run as bench

    from lansfrac.integrator import InitialData, make_initial, start_field
    from lansfrac.io import parse_config

    for workload in (bench.SIM3D, bench.ORACLE):
        work = tmp_path / workload.name
        work.mkdir()
        args, _ = bench._prepare(workload, 0, 30, work)
        config = parse_config(args[1])
        block, modes, tail = start_field(config)
        seeded = InitialData(kind="random-spectrum", seed=0, amplitude=config.initial.amplitude)
        u0 = make_initial(seeded, config.grid)
        assert block.tobytes() == config.grid.layout.gather(u0.coeffs).tobytes(), workload.name
        assert modes.size == 0 and tail.shape == (config.grid.dim, 0)
    assert parse_config(tmp_path / "sim3d-n48" / "run.cfg").initial.kind == "snapshot"
