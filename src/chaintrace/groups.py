"""Finite groups given by their multiplication tables.

A FiniteGroup is a table on the elements 0..order-1 with an identity and
element names.  Every group-algebra selector ``R[Cn]`` builds a cyclic
group here, and so do ``group-homology`` and GL_n(A)
(chaintrace.general_linear), so this module holds only the groups
themselves: their homology is in chaintrace.grouphomology, which only
``group-homology`` and ``trace-homology`` load, and the exhaustive check of
a table given by hand (``validate_group``) is in chaintrace.tables."""

from __future__ import annotations

from .errors import NotInvertibleError
from .values import Value

__all__ = ["FiniteGroup", "trivial_group", "cyclic_group"]


class FiniteGroup(Value):
    """Multiplication table group; element 0..order-1, table[i][j] = i*j."""

    __slots__ = ("table", "identity", "names", "name")
    _fields = __slots__

    def __init__(
        self, table: tuple[tuple[int, ...], ...], identity: int, names: tuple[str, ...], name: str = ""
    ) -> None:
        self.table = table
        self.identity = identity
        self.names = names
        self.name = name

    @property
    def order(self) -> int:
        return len(self.table)

    def multiply(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        for j in range(self.order):
            if self.table[i][j] == self.identity:
                return j
        raise NotInvertibleError(f"group element {self.names[i]} has no inverse")

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or 'order ' + str(self.order)})"


def trivial_group() -> FiniteGroup:
    return FiniteGroup(table=((0,),), identity=0, names=("e",), name="trivial")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    names = tuple("e" if k == 0 else ("t" if k == 1 else f"t^{k}") for k in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(table=table, identity=0, names=names, name=f"C{n}")
