"""Source hygiene: every module of the package uses what it imports, binds
what it exports, and exports only names that some code refers to.

The scans are syntactic.  An imported name counts as used when it appears as
a name anywhere else in the module (including annotations) or is listed in
the module's ``__all__``.  ``from __future__`` imports are directives, not
names, and are skipped.  A name in ``__all__`` counts as bound when a
module-level statement (also inside if/try/with blocks) defines, assigns or
imports it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chaintrace"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _bound(body: list) -> set[str]:
    names: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                names |= _bound(getattr(node, field, []))
    return names


def unbound_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    return sorted(_exported(tree) - _bound(tree.body))


def test_scan_flags_unused_and_spares_exports():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\nprint(sys.argv)\n"
    assert unused_imports(source) == [(1, "path")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_unbound_exports():
    source = (
        "import os\nfrom sys import argv as args\nX, (Y, Z) = 1, (2, 3)\n"
        "try:\n    import json\nexcept ImportError:\n    json = None\n"
        "def f():\n    inner = 1\nclass C:\n    attr = 1\n"
        "__all__ = ['os', 'args', 'X', 'Z', 'json', 'f', 'C', 'inner', 'attr', 'gone']\n"
    )
    assert unbound_exports(source) == ["attr", "gone", "inner"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_exports_are_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


ROOT = SRC.parent.parent
REFERENCE_DIRS = (SRC, ROOT / "tests", ROOT / "perfbench")


def references(source: str) -> set[str]:
    """Names a module reads: loaded names and attributes, imported names and
    string constants (which reach names through ``getattr``), leaving out
    the module's own ``__all__`` strings."""
    tree = ast.parse(source)
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skip.update(id(elt) for elt in ast.walk(node.value))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            out.add(node.value)
    return out


def dead_exports(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module.name`` for every ``__all__`` name that no module and no other
    source refers to beyond its definition and its ``__all__`` entry.

    Dunder names such as ``__version__`` are read by tools, not by code, and
    are left out.
    """
    used = set()
    for source in list(modules.values()) + others:
        used |= references(source)
    return sorted(
        f"{mod}.{name}"
        for mod, source in modules.items()
        for name in _exported(ast.parse(source))
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def test_scan_flags_dead_exports():
    lib = (
        "LIMIT = 3\ndef used():\n    return LIMIT\ndef by_string():\n    pass\n"
        "def dead():\n    pass\n__version__ = '1'\n"
        "__all__ = ['LIMIT', 'used', 'by_string', 'dead', '__version__']\n"
    )
    client = "from lib import used\nimport lib\ngetattr(lib, 'by_string')()\nused()\n"
    assert dead_exports({"lib": lib}, [client]) == ["lib.dead"]


def test_every_export_is_referenced():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    others = [
        p.read_text(encoding="utf-8")
        for folder in REFERENCE_DIRS[1:]
        for p in sorted(folder.glob("*.py"))
    ]
    assert dead_exports(modules, others) == []
