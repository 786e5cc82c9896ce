"""Every name a lansfrac module imports is used in that module, and every
function and class it defines is reached from a command, a criterion or the
benchmark.

A refactor that moves the last use of a name out of a module leaves its
import behind; the first test catches it. The exceptions are the package's
re-exports in ``__init__`` and the (module, attribute) pairs that
``perfbench/layers.py`` patches (its ``TARGETS``), which a module imports
only so that the benchmark can find them there. A refactor that removes the
last caller of a helper leaves the helper behind; the second test catches
that.
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


# module.name -> why it stays in the package though no root reaches it
UNREACHED_ALLOWED: dict[str, str] = {}

# The names perfbench/child.py patches to find the set-up/solve boundary.
BOUNDARY = ("_advance", "write_snapshot")


def _named(node: ast.AST) -> set[str]:
    """The names and attribute names a piece of code mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _imported_from_lansfrac(path: Path) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lansfrac")
        for alias in node.names
    }


def test_every_function_and_class_is_reached():
    # The roots are the CLI's entry points and commands, the names the
    # acceptance criteria import, and the names the benchmark imports, patches
    # or takes its boundary at. Module-level statements other than imports run
    # on import, so the names they mention are reached too. A function or
    # class is reached once a reached body mentions its name (as a name or as
    # an attribute, so a name is matched across modules, which errs towards
    # reached). A reached class's whole body is reached.
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    reached_on_import: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
                for decorator in stmt.decorator_list:
                    reached_on_import |= _named(decorator)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                reached_on_import |= _named(stmt)
    roots = {name for name in defs if name.startswith("_cmd_")}
    roots |= {"main", "entrypoint", "build_parser"}
    roots |= _imported_from_lansfrac(Path(__file__).parent / "test_acceptance.py")
    for path in PERFBENCH.glob("*.py"):
        roots |= _imported_from_lansfrac(path)
    roots |= {attr for _, attr, _ in TARGETS}
    roots |= {target.split(":")[1] for target, _, _ in TARGETS if ":" in target}
    roots |= set(BOUNDARY)

    reached: set[str] = set()
    todo = list(roots | reached_on_import)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, []):
                todo.extend(_named(node) - reached)
    unreached = {f"{module}.{name}" for name, found in defs.items() if name not in reached
                 for module, _ in found}
    assert unreached == set(UNREACHED_ALLOWED), (
        f"no command, criterion or benchmark reaches {sorted(unreached - set(UNREACHED_ALLOWED))}; "
        f"allowed but reached: {sorted(set(UNREACHED_ALLOWED) - unreached)}"
    )
