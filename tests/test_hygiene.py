"""Source hygiene: every module of the package uses what it imports, binds
what it exports, exports only names that some code refers to, and takes no
private name from another module of the package; every defaulted parameter
is passed by some call.

The scans are syntactic.  An imported name counts as used when it appears as
a name anywhere else in the module (including annotations) or is listed in
the module's ``__all__``: a string in its value, or in the value of a
module-level name it refers to (the values of a dict, whose keys are not
names), as in the package's ``__all__ = [*_OWNER, "__version__"]``.
``from __future__`` imports are directives, not names, and are skipped.  A name in ``__all__`` counts as bound when a
module-level statement (also inside if/try/with blocks) defines, assigns or
imports it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chaintrace"


def _exported(tree: ast.Module) -> set[str]:
    assigned = {
        t.id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    names: set[str] = set()
    todo, seen = [ast.Name("__all__")], set()
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            if node.id in assigned and node.id not in seen:
                seen.add(node.id)
                todo.append(assigned[node.id])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        else:  # a dict lists names in its values only
            todo.extend(node.values if isinstance(node, ast.Dict) else ast.iter_child_nodes(node))
    return names


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


def test_scan_reads_an_all_built_from_a_table():
    source = (
        "from os import path, sep\nfrom sys import argv\n"
        "_OWNERS = {'os': ('path', 'gone'), 'sys': ()}\n"
        "_OWNER = {name: module for module, names in _OWNERS.items() for name in names}\n"
        "__all__ = [*_OWNER, 'sep']\n"
    )
    assert unused_imports(source) == [(2, "argv")]
    assert unbound_exports(source) == ["gone"]


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for every private name a module takes from another
    module of the package: ``from .mod import _name`` (or from
    ``chaintrace.mod``), or ``mod._name`` on a module bound by
    ``from . import mod``.  Dunder names are public."""
    tree = ast.parse(source)
    modules = set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "chaintrace"):
            for alias in node.names:
                if _private(alias.name):
                    out.append((node.lineno, alias.name))
                elif node.module in (None, "chaintrace"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            out.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(out)


def test_scan_flags_private_imports():
    source = (
        "from .linalg import Matrix, _smith_engine\n"
        "from chaintrace.chain import _homology as h\n"
        "from . import wcat\n"
        "import os\n"
        "def f():\n"
        "    from .trace import _bar_face, __all__\n"
        "    return wcat._delta, wcat.MORPHISM_CAP, os._exit, h\n"
    )
    assert private_imports(source) == [(1, "_smith_engine"), (2, "_homology"), (6, "_bar_face"), (7, "wcat._delta")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


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


def _sources(folders) -> list[str]:
    return [p.read_text(encoding="utf-8") for folder in folders for p in sorted(folder.glob("*.py"))]


def _named_class(annotation) -> str | None:
    """The name an annotation gives, as in ``x: Matrix`` or ``-> "Matrix"``."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value
    return annotation.id if isinstance(annotation, ast.Name) else None


def _decorators(fn: ast.FunctionDef) -> set[str]:
    return {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}


def _is_property(fn: ast.FunctionDef) -> bool:
    return bool(_decorators(fn) & {"property", "cached_property"})


class _Index:
    """The classes of the package, their public methods, and what returns what.

    ``methods[name]`` lists (class, def) for every public method or property
    called ``name``.  ``data`` holds the names some class keeps as a field (its
    ``__slots__`` or ``_fields``, or a ``self.x = ...`` target) or as a
    property: a bare read such as ``m.cols`` reaches those, not a method.
    ``returns`` maps a function, or ``Class.method``, to the class its
    return annotation names.
    """

    def __init__(self, modules: list[str]):
        self.bases: dict[str, list[str]] = {}
        self.methods: dict[str, list] = {}
        self.data: set[str] = set()
        self.returns: dict[str, str] = {}
        for source in modules:
            for node in ast.parse(source).body:
                if isinstance(node, ast.FunctionDef) and _named_class(node.returns):
                    self.returns[node.name] = _named_class(node.returns)
                elif isinstance(node, ast.ClassDef):
                    self._add_class(node)

    def _add_class(self, cls: ast.ClassDef) -> None:
        self.bases[cls.name] = [b.id for b in cls.bases if isinstance(b, ast.Name)]
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                self.data.add(node.attr)
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("__slots__", "_fields") for t in node.targets
            ):
                self.data.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
            if not isinstance(node, ast.FunctionDef):
                continue
            if _named_class(node.returns):
                self.returns[f"{cls.name}.{node.name}"] = _named_class(node.returns)
            if _is_property(node):
                self.data.add(node.name)
            if not node.name.startswith("_"):
                self.methods.setdefault(node.name, []).append((cls.name, node))

    def lineage(self, cls: str) -> list[str]:
        out = [cls]
        for base in self.bases.get(cls, []):
            out += self.lineage(base)
        return out

    def related(self, a: str, b: str) -> bool:
        """Whether a call on an ``a`` may dispatch to a method of ``b``."""
        return b in self.lineage(a) or a in self.lineage(b)

    def method_returns(self, cls: str, name: str) -> str | None:
        for owner in self.lineage(cls):
            if f"{owner}.{name}" in self.returns:
                return self.returns[f"{owner}.{name}"]
        return None


def _accepts(fn: ast.FunctionDef, call: ast.Call, on_class: bool) -> bool:
    """Whether ``call`` fits fn's signature; called on the class itself, the
    first argument may be an explicit self."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    params = fn.args.posonlyargs + fn.args.args
    if "staticmethod" not in _decorators(fn):
        params = params[1:]
    required = len(params) - len(fn.args.defaults)
    for given in {len(call.args), len(call.args) - on_class}:
        if (given <= len(params) or fn.args.vararg) and given + len(call.keywords) >= required:
            return True
    return False


REFLECTION = ("getattr", "hasattr", "setattr", "delattr")


def method_uses(index: _Index, source: str) -> set[tuple[str, str]]:
    """(class, method) pairs that some attribute of ``source`` may reach.

    The receiver's class is inferred where the source states it: ``self``,
    an annotated parameter, a name bound to a constructor call or to a call
    whose return annotation names a class, a class named directly.  A call
    must fit the method's signature.  An unknown receiver may reach every
    method of that name, except that a bare read (no call) of a name in
    ``index.data`` counts for the data; any read reaches a property.  A
    string counts for every method of that name where a call takes it as a
    name: an argument of ``getattr``, ``hasattr``, ``setattr`` or
    ``delattr``, or one right after an argument that names a package class,
    as in ``method(cls, "name")``.  Any other string argument is data.
    """
    tree = ast.parse(source)
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    uses = set()

    def infer(node, env) -> str | None:
        if isinstance(node, ast.Name):
            return env.get(node.id) or (node.id if node.id in index.bases else None)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            return name if name in index.bases else index.returns.get(name)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = infer(node.func.value, env)
            return index.method_returns(owner, node.func.attr) if owner else None
        return None

    def visit(scope, env: dict, cls: str | None) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                visit(node, env, node.name)
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = dict(env) if isinstance(node, ast.Lambda) else {}
                for i, arg in enumerate(node.args.posonlyargs + node.args.args):
                    named = _named_class(arg.annotation)
                    if named in index.bases:
                        inner[arg.arg] = named
                    elif i == 0 and arg.arg == "self" and cls:
                        inner["self"] = cls
                visit(node, inner, cls)
                continue
            if isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
                named = infer(node.value, env)
                if named:
                    env[node.targets[0].id] = named
                else:
                    env.pop(node.targets[0].id, None)
            if isinstance(node, ast.Call):
                reflective = getattr(node.func, "id", None) in REFLECTION
                for before, arg in zip([None, *node.args], node.args):
                    names_class = (getattr(before, "id", None) or getattr(before, "attr", None)) in index.bases
                    if (reflective or names_class) and isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        uses.update((owner, arg.value) for owner, _ in index.methods.get(arg.value, ()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                receiver = infer(node.value, env)
                on_class = isinstance(node.value, ast.Name) and node.value.id in index.bases
                call = calls.get(id(node))
                for owner, fn in index.methods.get(node.attr, ()):
                    if receiver and not index.related(receiver, owner):
                        continue
                    if _is_property(fn):
                        reached = True
                    elif call is not None:
                        reached = _accepts(fn, call, on_class)
                    else:
                        reached = bool(receiver) or node.attr not in index.data
                    if reached:
                        uses.add((owner, node.attr))
            visit(node, env, cls)

    visit(tree, {}, None)
    return uses


def dead_methods(modules: list[str], others: list[str]) -> list[str]:
    """``Class.method`` for every public method or property of a package
    class that no source may reach (see ``method_uses``)."""
    index = _Index(modules)
    used = set()
    for source in modules + others:
        used |= method_uses(index, source)
    return sorted(
        f"{cls}.{name}"
        for name, owners in index.methods.items()
        for cls, _ in owners
        if (cls, name) not in used
    )


def test_scan_flags_dead_methods():
    lib = (
        "class Grid:\n"
        "    __slots__ = ('cols',)\n"
        "    def neg(self) -> 'Grid':\n        return self\n"
        "    def cols(self):\n        return []\n"
        "    def scale(self, c):\n        return self\n"
        "    def flip(self):\n        return self.neg()\n"
        "    @classmethod\n    def build(cls, n):\n        return cls()\n"
        "class Ring:\n"
        "    def neg(self, a):\n        return a\n"
        "    def scale(self, c, a):\n        return a\n"
        "    def unused(self):\n        pass\n"
        "    def wrapped(self):\n        pass\n"
        "def make() -> Grid:\n    return Grid.build(2)\n"
    )
    client = (
        "def f(r: Ring, x):\n"
        "    g = make()\n"
        "    g.flip()\n"
        "    r.neg(x).scale(1, 2)\n"
        "    log('scale', x, 'cols')\n"
        "    patch(lib.Ring, 'wrapped')\n"
        "    return x.cols, getattr(r, 'unused')\n"
    )
    assert dead_methods([lib], [client]) == ["Grid.cols", "Grid.scale"]


def test_scan_flags_dead_properties():
    lib = (
        "from functools import cached_property\n"
        "class Grid:\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    @cached_property\n    def core(self):\n        return 2\n"
        "    @property\n    def is_empty(self):\n        return False\n"
        "    @cached_property\n    def spare(self):\n        return 3\n"
        "class Ring:\n"
        "    @property\n    def zero(self):\n        return 0\n"
        "    @property\n    def core(self):\n        return 0\n"
    )
    client = "def f(g: Grid, x):\n    return x.size, g.core, x.zero\n"
    assert dead_methods([lib], [client]) == ["Grid.is_empty", "Grid.spare", "Ring.core"]


def test_every_public_method_is_referenced():
    assert dead_methods(_sources([SRC]), _sources(REFERENCE_DIRS[1:])) == []


def dead_attributes(modules: list[str], others: list[str]) -> list[str]:
    """``Class.attr`` for every attribute a package class stores on ``self``
    that no source reads: no source loads an attribute of that name or passes
    the name to ``getattr`` as a string.  The scan goes by name only, so a
    read of the same name on any object keeps the attribute."""
    stored = set()
    for source in modules:
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                stored.update(
                    (cls.name, node.attr)
                    for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
    read = set()
    for source in modules + others:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                read.update(a.value for a in node.args[1:2] if isinstance(a, ast.Constant))
    return sorted(f"{cls}.{attr}" for cls, attr in stored if attr not in read)


def test_scan_flags_dead_attributes():
    lib = (
        "class Grid:\n"
        "    _fields = ('rows', 'cols')\n"
        "    def __init__(self, rows, cols):\n"
        "        self.rows, self.cols = rows, cols\n"
        "        self.size = rows * cols\n"
        "        self._cache = {}\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
        "        self._cache['k'] = 1\n"
        "class Ring:\n"
        "    def __init__(self, table):\n"
        "        self.table = table\n"
        "        other = Grid(1, 2)\n"
        "        other.width = 3\n"
    )
    client = "def f(g, r):\n    return g.rows, getattr(r, 'table')\n"
    assert dead_attributes([lib], [client]) == ["Grid.cols", "Grid.count", "Grid.size"]


def test_every_stored_attribute_is_read():
    assert dead_attributes(_sources([SRC]), _sources(REFERENCE_DIRS[1:])) == []


def constant_defaults(source: str) -> list[str]:
    """``function.parameter`` for every parameter whose default is an
    upper-case module constant.  A cap belongs where it is enforced, read
    from its module constant: as a default it becomes an option that can
    run the engine under a cap the structured output does not report."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            out += [
                f"{node.name}.{arg.arg}"
                for arg, default in pairs
                if isinstance(default, ast.Name) and default.id.isupper()
            ]
    return out


def test_scan_flags_constant_defaults():
    source = (
        "CAP = 3\nLevel = 2\n"
        "def f(a, b=CAP, c=Level, d=None):\n    pass\n"
        "class K:\n    def g(self, *, e=CAP, h=4):\n        pass\n"
    )
    assert constant_defaults(source) == ["f.b", "g.e"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_parameter_defaults_to_a_module_constant(path):
    assert constant_defaults(path.read_text(encoding="utf-8")) == []


def unpassed_parameters(modules: list[str], callers: list[str]) -> list[str]:
    """``function.parameter`` for every defaulted parameter of a function or
    method in ``modules`` that no call in ``modules`` or ``callers`` passes.

    Calls are matched by callee name: ``f(...)`` and ``x.f(...)`` reach every
    function or method named ``f``, and ``C(...)`` reaches ``C.__init__``.  A
    call passes a parameter by keyword, or by position when it has more
    positional arguments than the parameters before it (``self`` and ``cls``
    not counted).  A call with ``*args`` or ``**kwargs`` passes everything.
    A parameter nobody passes is an option with one value: its default.
    """
    defaulted = []
    for source in modules:
        tree = ast.parse(source)
        methods = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(fn))
            args = fn.args
            positional = args.posonlyargs + args.args
            if cls and "staticmethod" not in _decorators(fn):
                positional = positional[1:]
            callee = cls if fn.name == "__init__" else fn.name
            first = len(positional) - len(args.defaults)
            defaulted += [(callee, arg.arg, pos) for pos, arg in enumerate(positional) if pos >= first]
            defaulted += [(callee, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    keywords, widest, everything = set(), {}, set()
    for source in modules + callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                everything.add(name)
            keywords.update((name, k.arg) for k in call.keywords)
            widest[name] = max(widest.get(name, 0), len(call.args))
    return sorted(
        f"{callee}.{param}"
        for callee, param, pos in defaulted
        if callee not in everything
        and (callee, param) not in keywords
        and (pos is None or pos >= widest.get(callee, 0))
    )


def test_scan_flags_unpassed_parameters():
    lib = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def g(a, b=1):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0, z=None):\n        pass\n"
        "    def m(self, p=1, q=2):\n        pass\n"
        "    @staticmethod\n    def s(p=1):\n        pass\n"
        "def h(x=0):\n    pass\n"
    )
    client = (
        "f(1, 2, e=5)\n"
        "K(1, z=3)\n"
        "K.s(0)\n"
        "obj.m(4)\n"
        "args = (1, 2)\n"
        "g(*args)\n"
        "opts = {}\n"
        "h(**opts)\n"
    )
    assert unpassed_parameters([lib], [client]) == ["K.y", "f.c", "f.d", "m.q"]


def test_every_defaulted_parameter_is_passed_somewhere():
    assert unpassed_parameters(_sources([SRC]), _sources(REFERENCE_DIRS[1:])) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(fn: ast.FunctionDef):
    """The nodes of fn's body, leaving out the insides of every function,
    lambda and class nested in it (their definitions are kept)."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def self_referencing_closures(source: str) -> list[str]:
    """``outer.inner`` for every function ``inner`` nested in a function
    ``outer`` that refers to its own name.  Its closure cell then holds the
    function itself, so every call of ``outer`` leaves a reference cycle,
    and all that ``inner`` reaches, for the cyclic collector.  A nested
    function is spared when ``outer`` deletes its name in a ``finally``."""
    out = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(_scope_nodes(outer))
        dropped = {
            target.id
            for node in nodes
            if isinstance(node, ast.Try)
            for stmt in node.finalbody
            for d in ast.walk(stmt)
            if isinstance(d, ast.Delete)
            for target in d.targets
            if isinstance(target, ast.Name)
        }
        out += [
            f"{outer.name}.{inner.name}"
            for inner in nodes
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
            and inner.name not in dropped
            and any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner))
        ]
    return sorted(out)


def test_scan_flags_self_referencing_closures():
    source = (
        "def walk(n):\n"
        "    def down(k):\n        return k and down(k - 1)\n"
        "    def flat(k):\n        return k\n"
        "    return down(n) + flat(n)\n"
        "def dropped(n):\n"
        "    def down(k):\n        return k and down(k - 1)\n"
        "    try:\n        return down(n)\n"
        "    finally:\n        del down\n"
        "def top(n):\n    return n and top(n - 1)\n"
        "class K:\n"
        "    def m(self):\n"
        "        if True:\n"
        "            def again():\n                return again\n"
        "        return again\n"
    )
    assert self_referencing_closures(source) == ["m.again", "walk.down"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_nested_function_refers_to_itself(path):
    assert self_referencing_closures(path.read_text(encoding="utf-8")) == []
