"""The names the benchmark looks up in the package still exist.

``perfbench/layers.py`` patches every (module, attribute) of its ``TARGETS``
for ``--trace 1``, and ``perfbench/child.py`` patches two functions to take
the set-up/solve boundary. A refactor that renames or drops one of them
breaks every traced benchmark command; this test catches it first.
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
