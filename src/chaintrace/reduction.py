"""Unit-pivot reduction of chain complexes: the invariants-only path.

reduce_complex(C) cancels unit pivots of the sparse boundaries
(Kaczynski-Mrozek-Slusarek reduction, with pivots.cancel_unit_pivots):
each pair (j in C_n, i in C_{n-1}) with d_n[i, j] a unit splits off an
acyclic summand, so every homology group is unchanged while the complex
shrinks, usually to a small core that chain.homology then eliminates
densely.  A pair changes d_n only and deletes a row of d_{n+1}, so
cancellation runs from d_1 up: each boundary meets only the rows that
survived below.  The core has no basis in common with C, so only callers
that print isomorphism types use it: HomologyHandle.core behind ``hh``,
``hc`` and ``group-homology``, and the weight-block cores of
chaintrace.weights, which direct_sum assembles.  The trace commands read
class coordinates and never load this module.
"""

from __future__ import annotations

from .chain import ChainComplex
from .linalg import SparseMap
from .pivots import cancel_unit_pivots, sparse_columns
from .rings import BaseRing

__all__ = ["reduce_complex", "direct_sum"]


def reduce_complex(complex_: ChainComplex) -> ChainComplex:
    """A small complex with the same homology as complex_ in degrees below the top.

    Unit pivots are cancelled in every differential from d_1 up.  A pair
    (j, i) cancelled in d_n removes j from C_n and i from C_{n-1}, rewrites
    d_n on the surviving basis, and deletes row j of d_{n+1} and column i
    of d_{n-1}, so d_n meets only the rows that survived below.  Zero
    columns of the top differential bound nothing and are dropped too.  The
    result goes through the ChainComplex constructor, so d o d = 0 is
    checked again on it.
    """
    ring = complex_.ring
    top = complex_.top_degree
    dead: list[set[int]] = [set() for _ in range(top + 1)]
    reduced: dict[int, dict[int, dict]] = {}
    for n in range(1, top + 1):
        cols, rows = sparse_columns(complex_.differential(n), dead[n - 1])
        for j, i in cancel_unit_pivots(ring, cols, rows):
            dead[n].add(j)
            dead[n - 1].add(i)
        reduced[n] = cols
    keep = [[b for b in range(complex_.rank(n)) if b not in dead[n]] for n in range(top + 1)]
    if top >= 1:
        keep[top] = [j for j in keep[top] if reduced[top][j]]
    diffs = {}
    for n in range(1, top + 1):
        position = {b: p for p, b in enumerate(keep[n - 1])}
        cols = [{position[i]: c for i, c in reduced[n][j].items()} for j in keep[n]]
        diffs[n] = SparseMap.from_col_dicts(ring, len(keep[n - 1]), cols)
    return ChainComplex(ring, [len(k) for k in keep], diffs)


def direct_sum(ring: BaseRing, top: int, summands) -> ChainComplex:
    """Block-diagonal sum of complexes in degrees 0..top, in the order given."""
    ranks = [0] * (top + 1)
    cols: list[list] = [[] for _ in range(top + 1)]
    for C in summands:
        for n in range(1, top + 1):
            off = ranks[n - 1]
            cols[n].extend(tuple((i + off, c) for i, c in col) for col in C.differential(n).cols)
        ranks = [a + C.rank(n) for n, a in enumerate(ranks)]
    diffs = {n: SparseMap(ring, ranks[n - 1], ranks[n], tuple(cols[n])) for n in range(1, top + 1)}
    return ChainComplex(ring, ranks, diffs)
