"""One fork path: only ``lansfrac.forks`` forks a process, makes pipes for
it, ends it, reaps it or masks a signal around the fork, so every forked
process of the package has the one lifecycle of ``forks.fork``.

A second path would make its own choices about SIGINT across the fork, a
failed fork and reaping; the test fails on any module but ``forks`` that
names one of these calls, as ``os.fork`` or as ``from os import fork``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lansfrac"
LIFECYCLE = {"os.fork", "os.pipe", "os._exit", "os.waitpid", "signal.pthread_sigmask"}


def _lifecycle_calls(tree: ast.Module) -> set[str]:
    """The calls of LIFECYCLE the module names, each as module.name."""
    named = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    named |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    return named & LIFECYCLE


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_forks_runs_a_process_lifecycle(path):
    found = _lifecycle_calls(ast.parse(path.read_text()))
    if path.name == "forks.py":
        assert found == LIFECYCLE  # the test would pass on nothing if it matched nothing
    else:
        assert not found, f"{path.name} forks or reaps beside forks.fork: {sorted(found)}"
