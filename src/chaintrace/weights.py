"""The weight grading of an algebra table and hh's block-wise core.

The invariants-only paths (HochschildHomology.core behind ``hh``,
cyclic.cyclic_core behind ``hc``) never build the whole normalized
complex.  table_grading finds the universal abelian grading of the
unit-first table, w(k) = w(i) + w(j) wherever c_ij^k != 0, by one Smith
normal form over Z: Z/n for Z[C_n], Z for R[x]/x^n, nothing for an
ungraded table.  Faces and B preserve the total weight of a tuple, so the
complex is the direct sum of its weight blocks (for a group algebra,
Burghelea's conjugacy-class summands; Loday, Cyclic Homology, 7.4).
block_core builds, checks, reduces and drops each block in turn.  A
block's row lookup drops a degenerate tuple, as the full complex's does,
and raises InternalInvariantError on a non-degenerate tuple of another
weight, so a wrong grading cannot lose a term.

Only ``hh`` and ``hc`` load this module (the trace commands read class
coordinates off the whole complex), so ``hh``'s output function is here.
"""

from __future__ import annotations

from functools import cache

from .formats import algebra_table
from .hochschild import HochschildHomology, NormalizedComplex
from .linalg import Matrix, smith_normal_form
from .reduction import direct_sum, reduce_complex
from .rings import ZZ

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra
    from .chain import ChainComplex

__all__ = ["table_grading", "weight_blocks", "block_core", "hh_command"]


def table_grading(A: Algebra) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Universal abelian grading of A's table: (moduli, weight of each e_j).

    Each nonzero c_ij^k asks w(k) = w(i) + w(j): a row e_k - e_i - e_j of
    an integer matrix M.  With U M V = S in Smith form, x -> xV carries the
    row space of M onto that of S, so the grading group is the sum of
    Z/d over the Smith entries d (0 past the rank, a free Z) and the weight
    of e_j is row j of V reduced modulo them.  Entries equal to 1 are
    dropped.  Z[C_n] gives moduli (n,), R[x]/x^n gives (0,), and a table
    with no grading gives () and a single block.
    """
    r = A.rank
    rows = {
        tuple((x == k) - (x == i) - (x == j) for x in range(r))
        for i, row in enumerate(A.table)
        for j, product in enumerate(row)
        for k, _ in product
    }
    dec = smith_normal_form(Matrix(ZZ, sorted(rows), r), factors=("V",))
    diagonal = dec.diagonal + (0,) * (r - len(dec.diagonal))
    kept = [(c, d) for c, d in enumerate(diagonal) if d != 1]
    weights = tuple(tuple(row[c] % d if d else row[c] for c, d in kept) for row in dec.V.rows)
    return tuple(d for _, d in kept), weights


def weight_blocks(N: NormalizedComplex):
    """Yield (weight, block) for the weight blocks of N's levels 0..max_level.

    Every face and B preserve the total weight of a tuple under
    table_grading, so the complex is the direct sum of its blocks.  The
    tuples of every level are sorted into blocks first, keeping level
    order; a block's operators are built only when the caller asks, so
    a caller that drops each block before taking the next holds one
    block's operators at a time.  Blocks come in sorted weight order.
    """
    C = N.cyclic_module
    A = C.algebra
    moduli, weights = table_grading(A)

    @cache
    def add(u, v):
        return tuple((a + b) % d if d else a + b for a, b, d in zip(u, v, moduli))

    levels: list[dict] = []
    tier = [((i,), w) for i, w in enumerate(weights)]
    for q in range(C.max_level + 1):
        if q:
            tier = [(t + (k,), add(w, weights[k])) for t, w in tier for k in range(1, A.rank)]
        blocks: dict = {}
        for t, w in tier:
            blocks.setdefault(w, []).append(t)
        levels.append(blocks)
    del tier
    for w in sorted(set().union(*levels)):
        tuples = {q: level.pop(w, []) for q, level in enumerate(levels)}
        yield w, NormalizedComplex(C, tuples)


def block_core(N: NormalizedComplex, build, top: int) -> ChainComplex:
    """Block-diagonal sum of reduce_complex(build(block, top)) over N's
    weight blocks, each built, checked, reduced and dropped in turn."""
    return direct_sum(N.ring, top, (reduce_complex(build(b, top)) for _, b in weight_blocks(N)))


def hh_command(config, A: Algebra) -> tuple[bool, str]:
    """``chaintrace hh``: HH_0 .. HH_max_degree of A (see formats.emit)."""
    return algebra_table(config, A, "HH_{}", HochschildHomology(A, config.max_degree).group)
