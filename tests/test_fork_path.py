"""One fork path: only ``lansfrac.forks`` forks a process, makes pipes for
it, ends it, reaps it or masks a signal around the fork, so every forked
process of the package has the one lifecycle of ``forks.fork``.

A second path would make its own choices about SIGINT across the fork, a
failed fork and reaping; the test fails on any module but ``forks`` that
names one of these calls, as ``os.fork`` or as ``from os import fork``.

One protocol owner: only ``operators._KernelWorkspace.split`` starts the
kernel's helper or waits for it (``forks.Helper.start``, ``.wait``), and no
function of ``spectral`` takes a helper, so the transforms know no process.

One kernel path: only ``operators._product_phase`` calls ``BandPlan.share``,
the one transform entry, and ``rhs_f_band`` neither reads a helper nor calls
``project`` itself, so every kernel call runs its phases through ``split``
with or without a helper, on either band plan.

One copy of the stepped block: the step's state is the kernel's input
block, so no module names the second copy (``u_in``) or the phase that
copied the state into it (``_CURL_STATE``).

One time loop: only ``integrator.march`` holds a loop that steps
(``_advance``), and no module names a snapshot callback (``on_snapshot``)
or a second path to the stepper (``_run``), so ``run`` and every command
read the march's states.
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


def _callers(tree: ast.Module, module: str, methods: set[str]) -> set[str]:
    """module.qualified name of each function whose own body calls a method
    named in methods, on any object."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in methods):
                found.add(".".join((module,) + scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_workspace_split_starts_or_waits_for_the_helper():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text()), path.stem, {"start", "wait"})
    assert callers == {"operators._KernelWorkspace.split"}
    spectral = ast.parse((PACKAGE / "spectral.py").read_text())
    takes = sorted(node.name for node in ast.walk(spectral) if isinstance(node, ast.FunctionDef)
                   and "helper" in {arg.arg for arg in node.args.args + node.args.kwonlyargs})
    assert not takes, f"spectral functions that take a helper: {takes}"


def test_every_kernel_call_runs_its_phases_through_the_split():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text()), path.stem, {"share"})
    assert callers == {"operators._product_phase"}
    operators = ast.parse((PACKAGE / "operators.py").read_text())
    kernel, = (node for node in operators.body
               if isinstance(node, ast.FunctionDef) and node.name == "rhs_f_band")
    attributes = {node.attr for node in ast.walk(kernel) if isinstance(node, ast.Attribute)}
    assert "helper" not in attributes, "rhs_f_band branches on the helper"
    assert "project" not in attributes, "rhs_f_band projects outside the split"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_a_second_copy_of_the_state(path):
    tree = ast.parse(path.read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not named & {"u_in", "_CURL_STATE"}, f"{path.name} keeps a second copy of the state"


def _called(call: ast.Call) -> str | None:
    """The name a call calls, as f or as obj.f."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _step_loops(tree: ast.Module, module: str) -> set[str]:
    """module.qualified name of each function whose own body holds a loop
    that calls ``_advance``, a time step."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...], in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                visit(child, scope + (name,), False)
                continue
            if in_loop and isinstance(child, ast.Call) and _called(child) == "_advance":
                found.add(".".join((module,) + scope))
            visit(child, scope, in_loop or isinstance(child, _LOOPS))

    visit(tree, (), False)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_a_snapshot_callback_or_a_second_run_path(path):
    tree = ast.parse(path.read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {node.arg for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.keyword))}
    named |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not named & {"on_snapshot", "_run"}, f"{path.name} keeps a path beside the march"


def test_only_the_march_holds_a_step_loop():
    # every consumer, run and each command, reads the march's states
    loops = set()
    for path in sorted(PACKAGE.glob("*.py")):
        loops |= _step_loops(ast.parse(path.read_text()), path.stem)
    assert loops == {"integrator.march"}
