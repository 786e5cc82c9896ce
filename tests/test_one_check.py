"""One invariant check: only ``spectral.invariant_flags`` holds a residual
against the tolerances ``HERMITIAN_TOL``, ``SOLENOIDAL_TOL`` and ``MEAN_TOL``,
and only ``spectral`` defines a flag function (a function named ``*_flags``).

Every check of a state, its f, a restart or a Picard node reads the one
verdict, so a second comparison cannot drift from it; the test fails on any
function of the package but ``invariant_flags`` that names a tolerance, and
on any module but ``spectral`` that defines a ``*_flags`` function.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lansfrac"
TOLERANCES = {"HERMITIAN_TOL", "SOLENOIDAL_TOL", "MEAN_TOL"}


def _tolerance_readers(tree: ast.Module, module: str) -> set[str]:
    """module.qualified name of each scope that reads or imports a tolerance
    (module.<module> for the module body); assigning one is not reading it."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            read = ((isinstance(child, ast.Name) and child.id in TOLERANCES
                     and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr in TOLERANCES)
                    or (isinstance(child, ast.ImportFrom)
                        and any(alias.name in TOLERANCES for alias in child.names)))
            if read:
                found.add(".".join((module,) + (scope or ("<module>",))))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_invariant_flags_reads_the_tolerances():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        readers |= _tolerance_readers(ast.parse(path.read_text()), path.stem)
    assert readers == {"spectral.invariant_flags"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_spectral_defines_flag_functions(path):
    defined = sorted(node.name for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.FunctionDef) and node.name.endswith("_flags"))
    if path.name == "spectral.py":
        assert "invariant_flags" in defined  # the test would pass on nothing if it matched nothing
    else:
        assert not defined, f"{path.name} defines flag functions beside spectral's: {defined}"
