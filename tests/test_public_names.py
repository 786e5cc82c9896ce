"""The package re-exports the names the acceptance criteria import, and no others.

Everything else (the CLI, the benchmark, the other tests) imports from the
submodule that defines a name, so the package surface is the contract.
"""

import ast
import types
from pathlib import Path

import lansfrac


def test_package_exports_the_acceptance_surface():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lansfrac"
        for alias in node.names
    }
    exported = {
        name
        for name in lansfrac.__all__
        if not isinstance(getattr(lansfrac, name), types.ModuleType)
    }
    assert exported == imported
