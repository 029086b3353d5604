"""Cyclic bar construction, the normalized complex and Hochschild homology.

Conventions, fixed once and recorded in CLI output:

* level q of the cyclic bar construction of A is A^tensor(q+1), basis
  tuples (i_0, ..., i_q), indexed big-endian;
* faces d_i multiply slots i and i+1 for 0 <= i < q, and d_q multiplies the
  last slot onto the first: d_q(a_0 x ... x a_q) = a_q a_0 x a_1 ... a_{q-1};
* degeneracies s_j insert the unit after slot j; the extra degeneracy s_e
  puts the unit in front;
* the cyclic operator t moves the last slot to the front (no sign); the
  signed operator at level q is t_s = (-1)^q t;
* the Hochschild boundary is b = sum_i (-1)^i d_i;
* the Connes boundary is B = (1 - t_s) s_e N with N = sum_i t_s^i, taken on
  the normalized complex, where B^2 = 0 and bB + Bb = 0 hold exactly.

The normalized complex is realized by first moving the algebra to a
unit-first basis (unit = basis vector 0); degenerate chains are then spanned
by basis tensors with a unit in some slot >= 1, and the quotient has the
honest basis of the r(r-1)^q tuples avoiding index 0 past slot 0.  b and B
are written directly on these unit-free tuples (Loday, Cyclic Homology,
2.1), dropping terms that land on a degenerate tuple, so the full levels are
never built for them.  Every operator (faces, degeneracies, t, both b's, B
and the b + B of the total complex) is written by chain.basis_map_columns
from an image rule on basis tuples and the row lookup of its target level;
each is built once per instance (cached_operator).  Chains cross between the
caller's basis and the normalized levels by chain.push through the change
of basis in every slot (tensor_rule), with no full level enumerated.

Every algebra command loads this module, so it holds what they all run:
the cyclic module, the normalized complex and its boundary b, and
HochschildHomology with its class coordinates.  What only some of them
run lives apart, each imported by the commands that run it:
chaintrace.weights holds hh's invariants-only path (the weight grading
and the block-wise core that HochschildHomology.core imports when it is
first read), chaintrace.cyclic holds hc's Connes B and (b, B) total
complex, and the trace commands' chain maps are in tracemaps and in
each trace command's own module (tracek1, tracehomology, morita).

The exhaustive check of the simplicial and cyclic identities on a cyclic
module (``validate_cyclic_module``) lives in chaintrace.selftest, its only
caller, so no Hochschild job compiles it.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial, wraps

from .algebra import Algebra, unit_first_presentation
from .chain import ChainComplex, HomologyHandle, LevelRows, basis_map_columns, push
from .conventions import B_CONVENTION, LEVEL_CAP
from .errors import CapExceededError, DegreeOutOfRangeError, ValidationError
from .linalg import SparseMap

__all__ = [
    "cached_operator",
    "CyclicModule",
    "cyclic_bar",
    "NormalizedComplex",
    "HochschildHomology",
    "hochschild_homology",
    "tuple_index",
    "tensor_rule",
    "check_full_level",
    "LEVEL_CAP",
    "B_CONVENTION",
]


def cached_operator(build):
    """Decorator of an operator on an object with a ``_cache`` dict (a method,
    or a function of a NormalizedComplex such as cyclic.connes_b): build once
    per argument tuple, kept in that object's _cache."""

    @wraps(build)
    def operator(self, *args):
        key = (build.__name__, *args)
        if key not in self._cache:
            self._cache[key] = build(self, *args)
        return self._cache[key]

    return operator


class CyclicModule:
    """Levels A^tensor(q+1) for q = 0..max_level with the cyclic structure.

    All operators are column-sparse maps, built lazily and cached.  A full
    level of rank above LEVEL_CAP is refused when an operator on it is
    built (check_full_level); nothing else enumerates a full level.
    """

    def __init__(self, algebra: Algebra, max_level: int):
        self.algebra = algebra
        self.ring = algebra.ring
        self.max_level = max_level
        self._cache: dict = {}

    def level_rank(self, q: int) -> int:
        if q < 0 or q > self.max_level:
            return 0
        return self.algebra.rank ** (q + 1)

    def tuples(self, q: int):
        check_full_level(self.algebra.rank, q)
        return itertools.product(range(self.algebra.rank), repeat=q + 1)

    def _check_level(self, q: int, lo: int = 0) -> None:
        if q < lo or q > self.max_level:
            raise DegreeOutOfRangeError(f"level {q} outside 0..{self.max_level}")

    def _map(self, q: int, sources, terms: int, image) -> SparseMap:
        """The map onto full level q that basis_map_columns writes, rows found by tuple_index."""
        cols = basis_map_columns(self.ring, sources, terms, image, partial(tuple_index, self.algebra.rank))
        return SparseMap.from_col_dicts(self.ring, self.level_rank(q), cols)

    @cached_operator
    def face(self, q: int, i: int) -> SparseMap:
        """d_i: level q -> level q-1."""
        self._check_level(q, lo=1)
        if not 0 <= i <= q:
            raise DegreeOutOfRangeError(f"face index {i} outside 0..{q}")
        A = self.algebra
        return self._map(q - 1, self.tuples(q), 1, lambda tup, _: _face(A, tup, i))

    @cached_operator
    def degeneracy(self, q: int, j: int) -> SparseMap:
        """s_j: level q -> level q+1, inserting the unit after slot j."""
        self._check_level(q)
        self._check_level(q + 1)
        if not 0 <= j <= q:
            raise DegreeOutOfRangeError(f"degeneracy index {j} outside 0..{q}")
        unit = tuple(enumerate(self.algebra.unit))
        return self._map(
            q + 1, self.tuples(q), 1, lambda tup, _: [(tup[: j + 1] + (k,) + tup[j + 1 :], c) for k, c in unit]
        )

    @cached_operator
    def cyclic(self, q: int) -> SparseMap:
        """t: level q -> level q, last slot to the front, no sign."""
        self._check_level(q)
        one = self.ring.one
        return self._map(q, self.tuples(q), 1, lambda tup, _: (((tup[q],) + tup[:q], one),))

    @cached_operator
    def boundary(self, q: int) -> SparseMap:
        """Hochschild b = sum_i (-1)^i d_i: level q -> level q-1."""
        self._check_level(q, lo=1)
        return self._map(q - 1, self.tuples(q), q + 1, partial(_face, self.algebra))

    def signed_cyclic(self, q: int) -> SparseMap:
        """t_s = (-1)^q t at level q."""
        t = self.cyclic(q)
        return t if q % 2 == 0 else t.neg()


def check_full_level(rank: int, q: int, of: str = "") -> None:
    """Refuse a full cyclic bar level q, rank^(q+1) tuples, above LEVEL_CAP;
    of names the algebra (" of M_n").  Only whole-level enumeration calls it."""
    if rank ** (q + 1) > LEVEL_CAP:
        raise CapExceededError(
            f"cyclic bar level {q}{of} has rank {rank}^{q + 1} = {rank ** (q + 1)} > cap {LEVEL_CAP}"
        )


def _face(A: Algebra, tup: tuple, i: int) -> list:
    """d_i of the basis tensor tup as (tuple, coeff) pairs.

    For i < q slots i and i+1 multiply; d_q multiplies the last slot onto
    the first.
    """
    q = len(tup) - 1
    if i < q:
        head, tail = tup[:i], tup[i + 2 :]
        return [(head + (k,) + tail, c) for k, c in A.table[tup[i]][tup[i + 1]]]
    body = tup[1:q]
    return [((k,) + body, c) for k, c in A.table[tup[q]][tup[0]]]


def tuple_index(base: int, tup) -> int:
    """Big-endian index of tup among the tuples of its length over range(base)."""
    idx = 0
    for t in tup:
        idx = idx * base + t
    return idx


def cyclic_bar(A: Algebra, N: int) -> CyclicModule:
    """Cyclic module of A with levels 0..N+1 (enough to compute HH_0..HH_N).

    LEVEL_CAP bounds the normalized level N+1, of rank r(r-1)^(N+1), which is
    what homology eliminates; a full level, of rank r^(q+1), is checked
    only when an operator on it is built (see check_full_level).
    """
    if N < 0:
        raise DegreeOutOfRangeError("N must be >= 0")
    r = A.rank
    top = r * (r - 1) ** (N + 1)
    if top > LEVEL_CAP:
        raise CapExceededError(
            f"cyclic bar level {N + 1} has rank {r}*{r - 1}^{N + 1} = {top} > cap {LEVEL_CAP}"
        )
    return CyclicModule(A, N + 1)


class NormalizedComplex:
    """Quotient of the cyclic bar levels by degenerate chains.

    Requires the algebra's unit to be basis vector 0; then degenerate chains
    are spanned by tuples with 0 in a slot >= 1 and the quotient basis is
    the set of tuples avoiding 0 past slot 0.  b and B are written on these
    unit-free tuples, and no full level is built.
    A weight block (weights.weight_blocks) is a NormalizedComplex whose
    levels hold only the tuples of one total weight, given as tuples.
    """

    def __init__(self, C: CyclicModule, tuples: dict[int, list] | None = None):
        A = C.algebra
        if A.unit != A.basis_vector(0):
            raise ValidationError(
                "normalized complex needs a unit-first basis; apply unit_first_presentation"
            )
        self.cyclic_module = C
        self.ring = C.ring
        self._tuples: dict[int, list] = tuples or {}
        self._cache: dict = {}

    def level_tuples(self, q: int) -> list:
        if q not in self._tuples:
            r = self.cyclic_module.algebra.rank
            self._tuples[q] = list(itertools.product(range(r), *[range(1, r)] * q))
        return self._tuples[q]

    def rank(self, q: int) -> int:
        """Rank of level q, r(r-1)^q until its tuples are built."""
        if q < 0 or q > self.cyclic_module.max_level:
            return 0
        if q in self._tuples:
            return len(self._tuples[q])
        r = self.cyclic_module.algebra.rank
        return r * (r - 1) ** q

    @cached_operator
    def _row_of(self, q: int):
        """Row lookup on level q; a tuple with the unit past slot 0 has none."""
        return LevelRows(self.level_tuples(q), 0, 1).__getitem__

    def _map(self, q: int, sources, terms: int, image) -> SparseMap:
        """The map onto normalized level q that basis_map_columns writes, rows found by _row_of."""
        cols = basis_map_columns(self.ring, sources, terms, image, self._row_of(q))
        return SparseMap.from_col_dicts(self.ring, self.rank(q), cols)

    @cached_operator
    def boundary(self, q: int) -> SparseMap:
        """Induced Hochschild boundary: b with degenerate faces dropped."""
        self.cyclic_module._check_level(q, lo=1)
        return self._map(q - 1, self.level_tuples(q), q + 1, partial(_face, self.cyclic_module.algebra))

    def chain_complex(self, top: int) -> ChainComplex:
        ranks = [self.rank(q) for q in range(top + 1)]
        diffs = {q: self.boundary(q) for q in range(1, top + 1)}
        return ChainComplex(self.ring, ranks, diffs)

def tensor_rule(f: SparseMap):
    """Image rule of f^tensor(q+1) on basis tuples: f in every slot, so a
    tuple goes to the products of one entry of f's column in each slot."""
    ring = f.ring

    def image(tup, _):
        terms = [((), ring.one)]
        for t in tup:
            terms = [(head + (row,), ring.mul(c, a)) for head, c in terms for row, a in f.cols[t]]
        return terms

    return image


class HochschildHomology(HomologyHandle):
    """HH_0..HH_max_degree of an algebra, with canonical class coordinates.

    A chain in the caller's basis of A^tensor(q+1) is a sparse dict {basis
    tuple: coeff}; internally everything runs on the normalized complex of
    a unit-first presentation, and the two are bridged by pushing chains
    through the change of basis in every slot (normalize, chain_of).  A
    class's chain is a normalized cycle lifted by chain_of: normalize(n - 1,
    b(chain)) is zero, b(chain) need not be (it is not for GF(2)[C2] in
    degree 2).  The handle's ranks and boundaries are the normalized
    complex's; its core is built one weight block at a time and never
    holds the whole complex.
    """

    def __init__(self, A: Algebra, max_degree: int):
        super().__init__(A.ring, max_degree)
        self.algebra = A
        reduced, T, Tinv = unit_first_presentation(A)
        self._from_unit_first, self._to_unit_first = tensor_rule(T), tensor_rule(Tinv)
        self.cyclic_module = cyclic_bar(reduced, max_degree)
        self.normalized = NormalizedComplex(self.cyclic_module)
        self.rank, self.boundary = self.normalized.rank, self.normalized.boundary

    @cached_property
    def core(self) -> ChainComplex:
        """The block-diagonal sum of the reduced weight blocks, each built,
        reduced and dropped in turn (weights.block_core, imported when this
        is first read: no job that reads coordinates needs it)."""
        from .weights import block_core

        return block_core(self.normalized, NormalizedComplex.chain_complex, self.max_degree + 1)

    def normalize(self, q: int, chain: dict) -> tuple:
        """Normalized level-q vector of a chain {tuple in the caller's basis:
        coeff}: T^-1 in every slot; a degenerate tuple has no entry."""
        image, zero = push(self.ring, chain, self._to_unit_first), self.ring.zero
        return tuple(image.get(x, zero) for x in self.normalized.level_tuples(q))

    def chain_of(self, q: int, vec) -> dict:
        """A normalized level-q vector as a chain {tuple in the caller's
        basis: coeff}: T in every slot."""
        ring = self.ring
        chain = {x: c for x, c in zip(self.normalized.level_tuples(q), vec) if not ring.is_zero(c)}
        return push(ring, chain, self._from_unit_first)

    def generators(self, n: int) -> tuple:
        """One chain {tuple in the caller's basis: coeff} per generator of
        HH_n, a normalized cycle lifted by chain_of (see the class)."""
        return tuple(self.chain_of(n, g) for g in self.homology_data(n).generators)

    def coordinates(self, n: int, chain: dict) -> tuple:
        """Canonical class coordinates of a chain {tuple in the caller's basis:
        coeff} whose boundary is degenerate.  A key that is not a tuple of
        n+1 indices in range(rank) raises ValueError."""
        r = self.algebra.rank
        for x in chain:
            if not (isinstance(x, tuple) and len(x) == n + 1 and all(isinstance(i, int) and 0 <= i < r for i in x)):
                raise ValueError(f"{x!r} is not a basis tuple of level {n}: {n + 1} indices in range({r})")
        return self.homology_data(n).coordinates(self.normalize(n, chain))

    def is_boundary(self, n: int, chain: dict) -> bool:
        return all(c == 0 for c in self.coordinates(n, chain))


def hochschild_homology(A: Algebra, n: int):
    """HH_n(A) as an FPAbelianGroup (over Z, Z/p^k) or FPModule (fields)."""
    return HochschildHomology(A, n).group(n)
