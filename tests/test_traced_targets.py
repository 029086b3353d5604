"""Every function the traced benchmark runner wraps is still where it looks.

``perfbench/traced.py`` wraps package functions by module and name:
``fn(module, "name", ...)`` for module-level functions and
``method(module.Class, "name", ...)`` for methods.  A name moved to another
module breaks only the traced runner, which otherwise shows up only in the
slow benchmark suite.  This test reads the runner's source and checks each
target against the package.
"""

import ast
import importlib
import pathlib

import pytest

TRACED = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def traced_targets() -> list[tuple[str, str | None, str]]:
    """(module, class or None, name) for every fn and method call."""
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    (instrument,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "instrument"]
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(instrument)
        if isinstance(node, ast.ImportFrom) and node.module == "chaintrace"
        for alias in node.names
    }
    targets = []

    def names(arg, loops) -> list[str]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return [arg.value]
        if isinstance(arg, ast.Name) and arg.id in loops:
            return loops[arg.id]
        raise AssertionError(f"line {arg.lineno}: cannot resolve the wrapped name")

    def visit(node, loops):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple):
            values = [elt.value for elt in node.iter.elts if isinstance(elt, ast.Constant)]
            loops = {**loops, node.target.id: values}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("fn", "method"):
            owner = node.args[0]
            if node.func.id == "fn":
                module, cls = modules[owner.id], None
            else:
                module, cls = modules[owner.value.id], owner.attr
            targets.extend((module, cls, name) for name in names(node.args[1], loops))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    for stmt in instrument.body:
        visit(stmt, {})
    return targets


TARGETS = traced_targets()


def test_scan_finds_the_runner_targets():
    # 27 wrapped names at the time of writing; a scan that finds few has
    # stopped reading the runner
    assert len(TARGETS) >= 25
    assert ("chaintrace.cli", None, "_resolve_category") in TARGETS
    assert ("chaintrace.hochschild", "CyclicModule", "boundary") in TARGETS


@pytest.mark.parametrize("module, cls, name", TARGETS, ids=lambda v: str(v))
def test_traced_target_is_bound_in_its_module(module, cls, name):
    mod = importlib.import_module(module)
    if cls is None:
        assert callable(getattr(mod, name, None)), f"{module}.{name} is not bound"
    else:
        owner = getattr(mod, cls, None)
        assert owner is not None, f"{module}.{cls} is not bound"
        assert name in vars(owner), f"{module}.{cls}.{name} is not defined on the class"
