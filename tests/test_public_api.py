"""The package's public names, bound on first access.

``chaintrace/__init__.py`` imports no submodule; its ``TYPE_CHECKING``
block lists, for type checkers, which submodule owns each public name, and
a module ``__getattr__`` imports that submodule when the name is first read.
"""

import ast
import importlib
import pathlib

import pytest

import chaintrace

INIT = pathlib.Path(chaintrace.__file__)


def declared_owners() -> dict[str, str]:
    """Name -> owning submodule, read from the TYPE_CHECKING imports."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
    ]
    return {
        alias.name: node.module
        for node in block.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_type_checking_block_declares_every_public_name():
    assert set(declared_owners()) == set(chaintrace.__all__) - {"__version__"}


@pytest.mark.parametrize("name", sorted(declared_owners()))
def test_public_name_is_the_submodule_object(name):
    module = importlib.import_module(f"chaintrace.{declared_owners()[name]}")
    assert getattr(chaintrace, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from chaintrace import *", namespace)
    assert set(chaintrace.__all__) <= set(namespace)
    assert namespace["vect_gf"] is importlib.import_module("chaintrace.wcat").vect_gf


def test_submodules_import_through_the_package():
    from chaintrace import algebra, wcat

    assert algebra is importlib.import_module("chaintrace.algebra")
    assert wcat.vect_gf is chaintrace.vect_gf


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        chaintrace.not_a_name  # noqa: B018
    assert not hasattr(chaintrace, "thh")
