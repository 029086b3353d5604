"""Cyclic homology over Q: Connes' B and the (b, B) total complex.

B = (1 - t_s) s_e N (hochschild's conventions, B_CONVENTION) is written on
the unit-free tuples of the normalized complex as B(a) = sum_i (-1)^(qi)
(0, t^i a), dropping the terms that land on a degenerate tuple, so B^2 = 0
and bB + Bb = 0 hold on the nose (connes_b, built once per normalized
complex).  total_complex is Tot_m = sum over p >= 0 of the normalized
level m - 2p with differential b + B, whose homology is HC_*(A).
cyclic_core builds, reduces and drops that total complex one weight block
at a time (weights.block_core), since b and B preserve weight.

Only ``hc`` and selftest's cyclic identities load this module.
"""

from __future__ import annotations

from .algebra import Algebra, unit_first_presentation
from .chain import ChainComplex, FPModule, basis_map_columns, homology
from .errors import DegreeOutOfRangeError, UnsupportedRingError
from .formats import algebra_table
from .hochschild import NormalizedComplex, cached_operator, cyclic_bar
from .linalg import SparseMap
from .weights import block_core

__all__ = [
    "connes_b",
    "total_complex",
    "cyclic_total_complex",
    "cyclic_core",
    "cyclic_homology",
    "hc_command",
]


@cached_operator
def connes_b(N: NormalizedComplex, q: int) -> SparseMap:
    """Induced Connes boundary B of N: normalized level q -> q+1, built once per N.

    B(a) = sum_{i=0}^{q} (-1)^(qi) (0, t^i a): t^i moves the last i slots
    to the front, and a term with index 0 past slot 0 is degenerate.
    """
    N.cyclic_module._check_level(q + 1, lo=1)
    ring = N.ring
    # (k, sign) for t^i, which moves the tuple's slots from k = q + 1 - i on to the front
    turns = [(q + 1 - i, ring.neg(ring.one) if q * i % 2 else ring.one) for i in range(q + 1)]
    return N._map(
        q + 1, N.level_tuples(q), 1, lambda tup, _: [((0,) + tup[k:] + tup[:k], c) for k, c in turns]
    )

def total_complex(N: NormalizedComplex, top: int) -> ChainComplex:
    """Degrees 0..top of the (b, B) total complex of N (cyclic_total_complex).

    Tot_m has basis the pairs (p, j), j a tuple of normalized level
    m - 2p, in order of p; b keeps p and B lowers it.
    """
    levels = [[(p, j) for p in range(m // 2 + 1) for j in range(N.rank(m - 2 * p))] for m in range(top + 1)]
    diffs = {}
    for m in range(1, top + 1):
        b = [N.boundary(m - 2 * p).cols if 2 * p < m else None for p in range(m // 2 + 1)]
        B = [connes_b(N, m - 2 * p).cols if p else None for p in range(m // 2 + 1)]

        def image(x, _):
            p, j = x
            terms = [((p, i), c) for i, c in b[p][j]] if b[p] is not None else []
            if B[p] is not None:
                terms += [((p - 1, i), c) for i, c in B[p][j]]
            return terms

        rows = {x: t for t, x in enumerate(levels[m - 1])}
        cols = basis_map_columns(N.ring, levels[m], 1, image, rows.__getitem__)
        diffs[m] = SparseMap.from_col_dicts(N.ring, len(rows), cols)
    return ChainComplex(N.ring, [len(level) for level in levels], diffs)


def cyclic_total_complex(A: Algebra, max_degree: int) -> ChainComplex:
    """Total complex of the normalized (b, B) bicomplex of A over Q.

    Tot_m = sum over p >= 0 of the normalized level m-2p; the differential is
    b + B, whose square vanishing is exactly b^2 = 0, B^2 = 0, bB + Bb = 0,
    all of which hold on the nose and are re-checked by the chain complex
    constructor.  Its homology in degrees 0..max_degree is HC_*(A).
    """
    return total_complex(_cyclic_normalized(A, max_degree), max_degree + 1)


def cyclic_core(A: Algebra, max_degree: int) -> ChainComplex:
    """A small complex with the homology of cyclic_total_complex.

    b and B (the weight-0 unit put in front, then a rotation) preserve
    weight, so the total complex is built and reduced one weight block at a
    time (weights.block_core), as HochschildHomology.core is.
    """
    return block_core(_cyclic_normalized(A, max_degree), total_complex, max_degree + 1)


def _cyclic_normalized(A: Algebra, max_degree: int) -> NormalizedComplex:
    if A.ring.kind != "Q":
        raise UnsupportedRingError("cyclic homology is computed over Q only")
    if max_degree < 0:
        raise DegreeOutOfRangeError("degree must be >= 0")
    reduced, _, _ = unit_first_presentation(A)
    return NormalizedComplex(cyclic_bar(reduced, max_degree))


def cyclic_homology(A: Algebra, n: int) -> FPModule:
    """HC_n(A) over Q; see cyclic_core."""
    return homology(cyclic_core(A, n), n).group


def hc_command(config, A: Algebra) -> tuple[bool, str]:
    """``chaintrace hc``: HC_0 .. HC_max_degree of A over Q."""
    core = cyclic_core(A, config.max_degree)
    return algebra_table(config, A, "HC_{}", lambda d: homology(core, d).group)
