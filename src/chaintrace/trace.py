"""The Dennis trace's chain maps as whole-level matrices.

The trace commands push chains through image rules one generator at a
time (tracemaps.trace_rule, tracehomology.phi_rule) and build no matrix
of a chain map.  The whole-level matrices are what selftest's chain-map
checks compare: bar_complex, the unnormalized bar complex of a group
(level q = R[G^q]); group_to_hh, the map phi from it to the cyclic bar
construction of R[G]; and multitrace, from the cyclic bar construction of
M_n(A) to that of A.

No command loads this module; each trace command has its own
(chaintrace.tracek1, chaintrace.tracehomology, chaintrace.morita).
perfbench/traced.py wraps group homology's build and ``morita``'s iso
test as trace's, so GroupHomology and fp_map_is_iso are bound here too,
and a traced job that imports this module wraps the objects those
commands call.
"""

from __future__ import annotations

import itertools
from functools import partial

from .algebra import Algebra
from .chain import ChainComplex, basis_map_columns
from .conventions import LEVEL_CAP
from .errors import CapExceededError
from .groups import FiniteGroup
from .grouphomology import GroupHomology, bar_face
from .hochschild import check_full_level, tuple_index
from .linalg import SparseMap
from .morita import fp_map_is_iso
from .rings import BaseRing
from .tracehomology import phi_rule
from .tracemaps import trace_rule

__all__ = ["bar_complex", "group_to_hh", "multitrace", "GroupHomology", "fp_map_is_iso"]


def bar_complex(G: FiniteGroup, ring: BaseRing, max_d: int) -> ChainComplex:
    """Unnormalized inhomogeneous bar complex: level q is R[G^q]."""
    n = G.order
    if n**max_d > LEVEL_CAP:
        raise CapExceededError(f"bar level {max_d} has rank {n}^{max_d} > cap {LEVEL_CAP}")
    face, row_of = bar_face(G, ring.one), partial(tuple_index, n)
    diffs = {}
    for q in range(1, max_d + 1):
        cols = basis_map_columns(ring, itertools.product(range(n), repeat=q), q + 1, face, row_of)
        diffs[q] = SparseMap.from_col_dicts(ring, n ** (q - 1), cols)
    return ChainComplex(ring, [n**q for q in range(max_d + 1)], diffs)


def group_to_hh(G: FiniteGroup, ring: BaseRing, q: int) -> SparseMap:
    """Chain map bar level q -> cyclic bar level q of R[G], from phi_rule.

    Satisfies b . phi = phi . bar boundary exactly, and sends tuples
    containing the identity to degenerate chains.
    """
    n, tuples = G.order, itertools.product(range(G.order), repeat=q)
    cols = basis_map_columns(ring, tuples, 1, phi_rule(G, ring.one), partial(tuple_index, n))
    return SparseMap.from_col_dicts(ring, n ** (q + 1), cols)


def multitrace(A: Algebra, n: int, q: int) -> SparseMap:
    """Trace map: cyclic bar level q of M_n(A) -> cyclic bar level q of A.

    The whole-level matrix of tracemaps.trace_rule.  Commutes with every face,
    degeneracy, and the cyclic operator.  A source level of rank above
    LEVEL_CAP is refused before any tensor is enumerated.
    """
    check_full_level(n * n * A.rank, q, f" of M_{n}")
    r, tuples = A.rank, itertools.product(range(n * n * A.rank), repeat=q + 1)
    cols = basis_map_columns(A.ring, tuples, 1, trace_rule(A, n), partial(tuple_index, r))
    return SparseMap.from_col_dicts(A.ring, r ** (q + 1), cols)
