"""What the Dennis trace commands share: the multitrace rule and homology classes.

The multitrace tr: HH_*(M_n(A)) -> HH_*(A) is an image rule on basis
tuples (trace_rule): E_(i_0 j_0) a_0 x ... x E_(i_q j_q) a_q goes to
a_0 x ... x a_q when the matrix indices close up into a cycle and to zero
otherwise.  Every trace command pushes its chains through it (chain.push):
``trace-k1`` (chaintrace.tracek1), ``morita`` (chaintrace.morita) and
``trace-homology`` (chaintrace.tracehomology).  Each command's own
pipeline is in its own module, so a trace job compiles no other trace
command.

A HomologyClass, what the first and last print, has a representative
that is a sparse chain in A's basis: dennis_trace_k1's, the pushed trace
of g^-1 x g, is a cycle; dennis_trace_homology's is a normalized cycle
lifted by chain_of, whose boundary is degenerate but not always zero
(GF(2)[C2], degrees 2 to 4).
"""

from __future__ import annotations

from .chain import FPAbelianGroup, FPModule
from .values import Value

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra

__all__ = ["trace_rule", "HomologyClass"]


def trace_rule(A: Algebra, n: int):
    """Image rule of the multitrace: E_(i_0 j_0) a_0 x ... x E_(i_q j_q) a_q
    goes to a_0 x ... x a_q when the matrix indices close up into a cycle
    (j_0 = i_1, ..., j_q = i_0) and to zero otherwise."""
    r, one = A.rank, A.ring.one

    def image(tup, _):
        ijs = [(t // (n * r), (t // r) % n, t % r) for t in tup]
        k = len(ijs)
        if all(ijs[a][1] == ijs[(a + 1) % k][0] for a in range(k)):
            return ((tuple(s for _, _, s in ijs), one),)
        return ()

    return image


class HomologyClass(Value):
    """A homology class: canonical coordinates plus one representative
    chain stored as a SparseMap column is, sorted (basis tuple, coeff) pairs
    without zeros.  Its boundary is degenerate (see the module docstring)."""

    __slots__ = ("degree", "coordinates", "representative", "group")
    _fields = __slots__

    def __init__(
        self, degree: int, coordinates: tuple, representative: tuple, group: FPAbelianGroup | FPModule
    ) -> None:
        self.degree = degree
        self.coordinates = coordinates
        self.representative = representative
        self.group = group

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)
