"""Group homology H_*(BG; R) through the normalized bar complex.

The inhomogeneous bar complex of a finite group G has level q = R[G^q]
and faces d_0 (drop g_1), d_i (multiply g_i g_{i+1}) and d_q (drop g_q),
written by bar_face as an image rule on basis tuples.  Its normalization
keeps the tuples of non-identity elements, (|G| - 1)^q of them at level q
(bar_rank), and GroupHomology reads H_0..H_max_degree off it through
chain.HomologyHandle, with class coordinates where a caller needs them.

``group-homology`` and ``trace-homology`` load this module; it imports
neither algebra, hochschild nor trace, so a ``group-homology`` job
compiles no algebra code.  The unnormalized bar complex, which only the
chain-map checks build, is trace.bar_complex.
"""

from __future__ import annotations

import itertools

from .chain import HomologyHandle, LevelRows, basis_map_columns
from .conventions import LEVEL_CAP
from .errors import CapExceededError
from .groups import FiniteGroup
from .linalg import SparseMap
from .rings import BaseRing

__all__ = ["bar_face", "bar_rank", "GroupHomology", "group_homology", "group_homology_command"]


def bar_face(G: FiniteGroup, one):
    """Faces of a bar tuple (g_1, ..., g_q), each one (tuple, one) pair:
    d_0 drops g_1, d_i multiplies g_i g_{i+1} for 0 < i < q, d_q drops g_q."""

    def face(tup: tuple, i: int) -> tuple:
        if i == 0:
            return ((tup[1:], one),)
        if i == len(tup):
            return ((tup[:-1], one),)
        return ((tup[: i - 1] + (G.multiply(tup[i - 1], tup[i]),) + tup[i + 1 :], one),)

    return face


def bar_rank(G: FiniteGroup, top: int, q: int) -> int:
    """Rank of normalized bar level q of G in levels 0..top: (|G| - 1)^q."""
    return (G.order - 1) ** q if 0 <= q <= top else 0


class GroupHomology(HomologyHandle):
    """H_*(BG; R) via the normalized bar complex, with class coordinates.

    Normalized level q has basis the tuples of non-identity elements; bar
    faces that produce the identity have no row in the level's LevelRows.
    The ranks are bar_rank's; the boundary is built on first read.
    """

    def __init__(self, G: FiniteGroup, ring: BaseRing, max_degree: int):
        super().__init__(ring, max_degree)
        if bar_rank(G, max_degree + 1, max_degree + 1) > LEVEL_CAP:
            raise CapExceededError(
                f"normalized bar level {max_degree + 1} exceeds cap {LEVEL_CAP} for |G| = {G.order}"
            )
        self.finite_group = G
        self._others = [g for g in range(G.order) if g != G.identity]

    def level(self, q: int):
        """The tuples of normalized level q in row order: q non-identity elements."""
        return itertools.product(self._others, repeat=q)

    def rank(self, q: int) -> int:
        return bar_rank(self.finite_group, self.max_degree + 1, q)

    def boundary(self, q: int) -> SparseMap:
        """Bar boundary of normalized level q, from the faces bar_face writes."""
        G = self.finite_group
        rows = LevelRows(self.level(q - 1), G.identity, 0)
        cols = basis_map_columns(self.ring, self.level(q), q + 1, bar_face(G, self.ring.one), rows.__getitem__)
        return SparseMap.from_col_dicts(self.ring, len(rows), cols)


def group_homology(G: FiniteGroup, ring: BaseRing, n: int):
    """H_n(BG; R) as an FPAbelianGroup or FPModule."""
    return GroupHomology(G, ring, n).group(n)


def group_homology_command(config, G: FiniteGroup, ring: BaseRing) -> tuple[bool, str]:
    """``chaintrace group-homology``: H_0 .. H_max_degree of BG over ring."""
    from .formats import degree_table, ring_spec

    work = GroupHomology(G, ring, config.max_degree)
    header = f"group {G.name or '(unnamed)'}: order {G.order}, coefficients {ring}"
    result = {"group": G.name, "order": G.order, "ring": ring_spec(ring)}
    return degree_table(config, header, "H_{}(BG)", work.group, result)
