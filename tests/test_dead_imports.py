"""Every name a lansfrac module imports is used in that module.

A refactor that moves the last use of a name out of a module leaves its
import behind; this test catches it. The exceptions are the package's
re-exports in ``__init__`` and the (module, attribute) pairs that
``perfbench/layers.py`` patches (its ``TARGETS``), which a module imports
only so that the benchmark can find them there.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lansfrac"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from layers import TARGETS  # noqa: E402

PATCHED = {(target, attr) for target, attr, _ in TARGETS if ":" not in target}


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = f"lansfrac.{path.stem}"
    unused = {
        name: line
        for name, line in _imported(tree).items()
        if name not in used and (module, name) not in PATCHED
    }
    assert not unused, f"{path.name} imports names it does not use: {unused}"
