"""GL_n(A) over a finite base ring, as a finite group.

unit_group enumerates the units of M = M_n(A) by the test that
algebra.unit_inverse reads off its Smith form too: left multiplication by g
on M is onto (linalg.is_onto, which builds no transform; no determinant
over a possibly noncommutative A).  It refuses at the first unit past
GROUP_ORDER_CAP, before any product, and returns the group with the
embedding R[GL_n(A)] -> M_n(A), the SparseMap whose column k is the k-th
unit (GeneralLinearData).  Only the Dennis trace on group homology
(``trace-homology``) enters it, so it lives apart from algebra, whose
``general_linear_group`` imports it when it runs.
"""

from __future__ import annotations

import itertools

from .algebra import Algebra, matrix_algebra
from .conventions import GROUP_ORDER_CAP
from .errors import CapExceededError, InternalInvariantError
from .groups import FiniteGroup
from .linalg import SparseMap, is_onto
from .values import Value

__all__ = ["GeneralLinearData", "unit_group"]

# Largest number of candidate matrices |A|^(n^2) that unit_group tests.
ENUMERATION_CAP = 65536


class GeneralLinearData(Value):
    """GL_n(A) as a finite group, with the embedding R[GL_n(A)] -> M_n(A):
    the SparseMap whose column k is the k-th unit, a vector of M_n(A)."""

    __slots__ = ("group", "embedding")
    _fields = __slots__

    def __init__(self, group: FiniteGroup, embedding: SparseMap) -> None:
        self.group = group
        self.embedding = embedding


def unit_group(A: Algebra, n: int) -> GeneralLinearData:
    """Enumerate GL_n(A), the unit group of M = M_n(A), over a finite base ring.

    The candidates are M's coefficient vectors in itertools.product order,
    row-major in the entries since M is laid out (i, j, t); g is a unit iff
    left multiplication by g on M is onto (square, so bijective).  A
    candidate with a zero row is skipped before that test: it is never a
    unit, and this order puts every one of them first.  The table
    is M's product, and the embedding's columns are the vectors themselves.
    The |A|^(n^2) candidates must stay within ENUMERATION_CAP, and the units
    within GROUP_ORDER_CAP: the first unit past it refuses, before any product.
    """
    ring = A.ring
    m = ring.modulus
    if m is None:
        raise CapExceededError(f"GL_n over infinite base ring {ring} is not enumerable")
    M = matrix_algebra(A, n)
    count = m ** M.rank
    if count > ENUMERATION_CAP:
        raise CapExceededError(f"|A|^(n^2) = {count} exceeds the enumeration cap {ENUMERATION_CAP}")

    # row i of g is the slice of width n*rank(A) at i*width
    width = n * A.rank
    rows = range(0, M.rank, width) if width else ()
    elements = []
    for g in itertools.product(range(m), repeat=M.rank):
        if all(any(g[r : r + width]) for r in rows) and is_onto(M.left_mult_matrix(g)):
            if len(elements) == GROUP_ORDER_CAP:
                raise CapExceededError(f"|GL_{n}| > {GROUP_ORDER_CAP}, above the group order cap {GROUP_ORDER_CAP}")
            elements.append(g)
    index = {g: i for i, g in enumerate(elements)}
    try:
        identity = index[M.unit]
        table = tuple(tuple(index[M.mul_vec(g, h)] for h in elements) for g in elements)
    except KeyError:
        raise InternalInvariantError("units of M_n(A) not closed under multiplication; onto test broken") from None
    names = tuple(f"g{i}" for i in range(len(elements)))
    group = FiniteGroup(table=table, identity=identity, names=names, name=f"GL{n}({A.name or A.ring})")
    embedding = SparseMap.from_col_dicts(ring, M.rank, [dict(enumerate(g)) for g in elements])
    return GeneralLinearData(group=group, embedding=embedding)
