"""Bounded chain complexes and homology with canonical representatives.

homology(C, n) returns a HomologyData handle carrying:

* the isomorphism type (FPAbelianGroup over Z and Z/p^k, FPModule over a
  field),
* one representative cycle per generator, expressed in the complex's own
  basis, and
* a coordinates() map that reduces any cycle of degree n to canonical
  coordinates (mod the generator orders), so that distinct callers agree on
  the meaning of "the class of z".

One routine computes all of it over every ring, with two Smith
eliminations.  The first, of d_n, writes ker d_n in the V basis it gives:
column i of V scaled by a weight w_i.  Below the rank of d_n,
w_i = m / gcd(d_i, m) for the Smith entries d_i; past it, w_i = 1.  Over
Z/m both eliminations run on integer lifts, with residues lifted to
(-m/2, m/2] (linalg.symmetric_lift), and the basis spans the full-rank
lattice of integer vectors x with d_n x = 0 mod m.  Over Z and
fields the same formula with m = 0 gives w_i = 0, which drops column i.
The second elimination takes the boundaries written in that basis, and
over Z/m also the relations m e_i: the rows of V^-1 [d_{n+1} | mI]
divided by their weights.  Its diagonal gives the group and the generator
orders, V and its U^-1 give the generators, and V^-1 then U give the
coordinates.  So the first elimination builds only V and V^-1 and the
second only U and U^-1.

Smith normal form has a fixed pivot rule, so output is deterministic.  Over
Z/m the modulus must be a prime power; other moduli raise
UnsupportedRingError from check_homology_ring, which HochschildHomology
also calls before any Smith elimination of its own (the composite case is
deliberately out of contract even where the integer-lattice method would
cope).

reduce_complex(C) is the invariants-only path.  It cancels unit pivots of
the sparse boundaries (Kaczynski-Mrozek-Slusarek reduction): each pair
(j in C_n, i in C_{n-1}) with d_n[i, j] a unit splits off an acyclic
summand, so every homology group is unchanged while the complex shrinks,
usually to a small core that homology() then eliminates densely.  A pair
changes d_n only and deletes a row of d_{n+1}, so cancellation runs from
d_1 up: each boundary meets only the rows that survived below.  The core
has no basis in common with C, so callers that print only isomorphism types
use it, and callers that need generators or class coordinates call
homology() on C itself.

basis_map_columns is the one writer of every linear map given on basis
elements: the columns of sum_{i < terms} (-1)^i f_i, from an image rule
and a row lookup, which SparseMap.from_col_dicts takes.  One term gives a
single map: faces, degeneracies, t, B, projections, inclusions, phi, the
multitrace, K_0 relations.  The faces of a level give a boundary: Hochschild
b, the bar complexes, the S_2 faces of the w.S diagonal and total complex.
"""

from __future__ import annotations

import math

from .errors import (
    CapExceededError,
    DegreeOutOfRangeError,
    InternalInvariantError,
    UnsupportedRingError,
    ValidationError,
)
from .linalg import Matrix, SparseMap, lift_with_modulus, smith_cells, smith_normal_form, symmetric_lift
from .rings import ZZ, BaseRing
from .values import Value

__all__ = [
    "FPAbelianGroup",
    "FPModule",
    "ChainComplex",
    "HomologyData",
    "homology",
    "reduce_complex",
    "direct_sum",
    "basis_map_columns",
    "LevelRows",
    "rank_over_field",
    "predicted_dense_cells",
    "check_dense_cells",
    "check_homology_ring",
    "DENSE_CELL_CAP",
]

# Dense cells of the Smith factors that homology() builds in one degree
# (predicted_dense_cells).  morita GF:2[x]/x^2 --size 2 --max-degree 2
# needs 1.7e6 of them; morita Z[C3] --size 2 --max-degree 2 and
# GF:2[x]/x^2 one degree higher would need 3.2e7 and 8.4e7, hundreds of
# megabytes of list slots.
DENSE_CELL_CAP = 30_000_000


class FPAbelianGroup(Value):
    """Finitely generated abelian group: Z^free_rank + sum Z/d_i.

    invariant_factors is the canonical divisibility chain d_1 | d_2 | ...,
    every d_i >= 2, so equality of groups is plain equality of fields.
    """

    __slots__ = ("free_rank", "invariant_factors")
    _fields = __slots__

    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...] = ()) -> None:
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain, got {invariant_factors}")
        if any(d < 2 for d in invariant_factors):
            raise ValueError("invariant factors must be >= 2")
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        self.free_rank = free_rank
        self.invariant_factors = invariant_factors

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


class FPModule(Value):
    """Finite-dimensional vector space over an exact field."""

    __slots__ = ("field", "dimension")
    _fields = __slots__

    def __init__(self, field: BaseRing, dimension: int) -> None:
        if not field.is_field:
            raise ValueError(f"{field} is not a field")
        if dimension < 0:
            raise ValueError("dimension must be >= 0")
        self.field = field
        self.dimension = dimension

    def __str__(self) -> str:
        if self.dimension == 0:
            return "0"
        if self.dimension == 1:
            return str(self.field)
        return f"{self.field}^{self.dimension}"


class ChainComplex:
    """Chain complex concentrated in degrees 0..top_degree.

    differentials[n] is the boundary C_n -> C_{n-1} for 1 <= n <= top_degree;
    the composite of consecutive differentials is checked to vanish at
    construction time.
    """

    def __init__(self, ring: BaseRing, ranks: list[int], differentials: dict[int, SparseMap]):
        self.ring = ring
        self.ranks = tuple(ranks)
        self.differentials = dict(differentials)
        for n, d in self.differentials.items():
            if n < 1 or n > self.top_degree:
                raise ValueError(f"differential in degree {n} outside 1..{self.top_degree}")
            if (d.nrows, d.ncols) != (self.ranks[n - 1], self.ranks[n]):
                raise ValueError(
                    f"differential {n} has shape {d.nrows}x{d.ncols}, expected "
                    f"{self.ranks[n - 1]}x{self.ranks[n]}"
                )
        for n in range(1, self.top_degree):
            if n in self.differentials and n + 1 in self.differentials:
                if not self.differentials[n].compose(self.differentials[n + 1]).is_zero_map():
                    raise ValidationError(f"boundary of boundary is nonzero in degree {n + 1}")

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, n: int) -> int:
        if 0 <= n <= self.top_degree:
            return self.ranks[n]
        return 0

    def differential(self, n: int) -> SparseMap:
        """Boundary C_n -> C_{n-1}; the zero map in degrees 0 and out of range."""
        if n in self.differentials:
            return self.differentials[n]
        return SparseMap.zero(self.ring, self.rank(n - 1), self.rank(n))


class HomologyData(Value):
    """Homology group in one degree plus canonical reduction machinery."""

    _fields = ("ring", "degree", "group", "generators", "orders")
    __hash__ = None

    def __init__(
        self,
        ring: BaseRing,
        degree: int,
        group: FPAbelianGroup | FPModule,
        generators: tuple[tuple, ...],
        orders: tuple[int, ...],  # order of each generator; 0 means infinite/free
        _reduce=None,
        _cycle_test=None,
    ) -> None:
        self.ring = ring
        self.degree = degree
        self.group = group
        self.generators = generators
        self.orders = orders
        self._reduce = _reduce
        self._cycle_test = _cycle_test

    def coordinates(self, vec) -> tuple:
        """Canonical coordinates of the class of a cycle.

        Torsion coordinates are reduced into [0, order); free coordinates are
        exact.  Raises ValidationError when vec is not a cycle.
        """
        vec = tuple(self.ring.normalize(x) for x in vec)
        if not self._cycle_test(vec):
            raise ValidationError(f"vector is not a cycle in degree {self.degree}")
        return self._reduce(vec)

    def is_boundary(self, vec) -> bool:
        return all(c == 0 for c in self.coordinates(vec))

    def classes_equal(self, u, v) -> bool:
        return self.coordinates(u) == self.coordinates(v)


def _homology(ring: BaseRing, d_n: SparseMap, d_np1: SparseMap, degree: int) -> HomologyData:
    """H_n over Z, a field or Z/p^k by the two eliminations of the module
    docstring; m is the modulus over Z/m and 0 otherwise.

    The dense copies of the boundaries live only while the eliminations
    run: the returned data tests cycles with the sparse d_n and keeps only
    the rows of V^-1 that give kernel coordinates."""
    m = ring.modulus if ring.kind == "Zmod" else 0
    r_n = d_n.ncols
    first, second = d_n.to_matrix(), d_np1.to_matrix()
    if m:
        lifted = [symmetric_lift(row, m) for row in first.rows]
        first, second = Matrix._canonical(ZZ, lifted, r_n), lift_with_modulus(second)
    base = first.ring  # Z over Z/m
    dec1 = smith_normal_form(first, factors=("V", "Vinv"))
    Y = dec1.Vinv.mul(second)
    rank1 = dec1.rank
    weights: list[int] = []
    rel_rows = []
    for i, row in enumerate(Y.rows):
        w = m // math.gcd(int(dec1.S.rows[i][i]), m) if i < rank1 else 1
        if not w:
            if any(row):
                raise InternalInvariantError("boundary column escaped the kernel lattice")
            continue
        if w > 1:
            if any(x % w for x in row):
                raise InternalInvariantError("relation escaped the mod-m kernel lattice")
            row = [x // w for x in row]
        weights.append(w)
        rel_rows.append(row)
    # the kernel basis is columns start.. of V scaled by the weights: only
    # over Z and fields do rows drop out, and those are the first rank1
    k = len(weights)
    start = r_n - k
    dec2 = smith_normal_form(Matrix._canonical(base, rel_rows, Y.ncols), factors=("U", "Uinv"))
    s = dec2.rank
    if m and s != k:
        raise InternalInvariantError("mod-m relation matrix must have full rank")

    kept: list[int] = []
    orders: list[int] = []  # 0 for a free generator
    for j in range(k):
        d = dec2.S.rows[j][j] if j < s else 0
        if not base.is_unit(d):
            if d and m % d:
                raise InternalInvariantError("generator order must divide the modulus")
            kept.append(j)
            orders.append(int(d))
    if ring.is_field:
        group: FPAbelianGroup | FPModule = FPModule(ring, k - s)
    else:
        group = FPAbelianGroup(k - s, tuple(d for d in orders if d))

    # generators: the kernel basis twisted by U2^-1, with the weights
    # applied to the rows of U2^-1 rather than to the columns of V
    kernel = Matrix._canonical(base, [row[start:] for row in dec1.V.rows], k)
    twist = [[w * x for x in row] if w > 1 else row for w, row in zip(weights, dec2.Uinv.rows)]
    gens = kernel.mul(Matrix._canonical(base, twist, k))
    generators = tuple(tuple(map(ring.normalize, gens.col(j))) for j in kept)
    # rows start.. of V^-1 give the coordinates in the kernel basis
    kernel_coords = Matrix._canonical(base, dec1.Vinv.rows[start:], r_n)
    U2 = dec2.U

    def cycle_test(vec) -> bool:
        return all(ring.is_zero(x) for x in d_n.apply(vec))

    def reduce(vec) -> tuple:
        x = kernel_coords.apply(vec)
        if m:
            x = [v % m for v in x]
            if any(v % w for v, w in zip(x, weights)):
                raise InternalInvariantError("cycle escaped the mod-m kernel lattice")
            x = [v // w for v, w in zip(x, weights)]
        c = U2.apply(x)
        return tuple(c[j] % order if order else c[j] for j, order in zip(kept, orders))

    return HomologyData(ring, degree, group, generators, tuple(orders), reduce, cycle_test)


def homology(complex_: ChainComplex, n: int) -> HomologyData:
    """H_n with canonical generators; needs both boundaries in range.

    Degrees run 0..top_degree-1 so that the incoming boundary from degree
    n+1 exists; asking for the top degree raises DegreeOutOfRangeError.
    The first elimination builds only V and Vinv, the second only U and
    Uinv.  Before any matrix is built, check_dense_cells refuses a degree
    whose Smith factors would exceed DENSE_CELL_CAP dense cells.
    """
    if n < 0 or n >= complex_.top_degree:
        raise DegreeOutOfRangeError(
            f"degree {n} outside computable range 0..{complex_.top_degree - 1}"
        )
    ring = complex_.ring
    check_homology_ring(ring)
    check_dense_cells(ring, n, complex_.rank)
    d_n, d_np1 = complex_.differential(n), complex_.differential(n + 1)
    return _homology(ring, d_n, d_np1, n)


def check_homology_ring(ring: BaseRing) -> None:
    """Raise UnsupportedRingError unless homology over ring is supported:
    over Z/m the modulus must be a prime power."""
    if ring.kind == "Zmod" and ring.prime_power() is None:
        raise UnsupportedRingError(
            f"homology over Z/{ring.modulus} is supported for prime powers only"
        )


def check_dense_cells(ring: BaseRing, n: int, rank) -> None:
    """Raise CapExceededError if the Smith factors of homology in degree n
    of a complex over ring with ranks rank(q) could hold more than
    DENSE_CELL_CAP dense cells (predicted_dense_cells of the ranks).  It
    reads ranks only, so a caller can decide before building the complex."""
    ranks = (rank(n - 1), rank(n), rank(n + 1))
    cells = predicted_dense_cells(ring, *ranks)
    if cells > DENSE_CELL_CAP:
        raise CapExceededError(
            f"homology in degree {n} (ranks {ranks[0]}, {ranks[1]}, {ranks[2]}) needs "
            f"{cells} dense cells of Smith elimination, above the cap {DENSE_CELL_CAP}"
        )


def predicted_dense_cells(ring: BaseRing, a: int, b: int, c: int) -> int:
    """An upper bound of the dense cells of the Smith factors that the two
    eliminations of homology() build (linalg.smith_cells).

    a, b, c are the ranks in degrees n-1, n, n+1.  The first elimination
    takes d_n (a x b) and builds S, V and Vinv.  The second takes one row
    per kernel generator, b over Z/p^k and at least b - a otherwise, and c
    columns, or c + b over Z/p^k for the lift [d_{n+1} | mI]; it builds S,
    U and Uinv.  Both count U and V where a small input is self-checked.
    """
    if ring.kind == "Zmod":
        c, fewest = c + b, b
    else:
        fewest = max(b - a, 0)
    first = smith_cells(range(a, a + 1), b, ("V", "Vinv"))
    return first + smith_cells(range(fewest, b + 1), c, ("U", "Uinv"))


def _sparse_columns(d: SparseMap, dead=frozenset()) -> tuple[dict[int, dict], dict[int, set]]:
    """Mutable copy of d minus the dead rows: columns as {row: entry}, rows as column sets."""
    cols = {j: {i: x for i, x in col if i not in dead} for j, col in enumerate(d.cols)}
    rows: dict[int, set] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    return cols, rows


def _cancel_unit_pivots(ring: BaseRing, cols: dict[int, dict], rows: dict[int, set]) -> list[tuple[int, int]]:
    """Cancel unit pivots of one sparse matrix in place; return the (column, row) pairs.

    Cancelling (j, i) with a = M[i, j] a unit subtracts M[i, j'] a^-1 times
    column j from every other column j' meeting row i, then deletes column j
    and row i: the Schur complement D - c a^-1 b on the affected columns
    only.  Columns are visited shortest first (ties by index) in repeated
    passes until a pass cancels nothing; in a column the pivot is the unit
    whose row is shortest (ties by index), which keeps fill-in low.
    """
    is_unit, is_zero, mul, sub, zero = ring.is_unit, ring.is_zero, ring.mul, ring.sub, ring.zero
    pairs: list[tuple[int, int]] = []
    while True:
        before = len(pairs)
        for j in sorted(cols, key=lambda j: (len(cols[j]), j)):
            col = cols[j]
            best = None
            for i, x in col.items():
                if is_unit(x) and (best is None or (len(rows[i]), i) < best):
                    best = (len(rows[i]), i)
            if best is None:
                continue
            i = best[1]
            del cols[j]
            for k in col:
                rows[k].discard(j)
            a_inv = ring.inv(col.pop(i))
            for j2 in rows.pop(i):
                target = cols[j2]
                f = mul(target.pop(i), a_inv)
                for k, c in col.items():
                    v = sub(target.get(k, zero), mul(f, c))
                    if is_zero(v):
                        if k in target:
                            del target[k]
                            rows[k].discard(j2)
                    else:
                        if k not in target:
                            rows[k].add(j2)
                        target[k] = v
            pairs.append((j, i))
        if len(pairs) == before:
            return pairs


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
        cols, rows = _sparse_columns(complex_.differential(n), dead[n - 1])
        for j, i in _cancel_unit_pivots(ring, cols, rows):
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


def basis_map_columns(ring: BaseRing, basis, terms: int, image, row_of):
    """Yield the columns of sum_{i < terms} (-1)^i f_i, one {row: entry} per basis element.

    image(x, i) gives f_i(x) as (target, coefficient) pairs, and row_of
    maps a target to its row, or to None for a term the map drops (a
    degenerate simplex, the base point, the zero object).  With terms = 1
    this is the map f_0; with the q + 1 faces of level q it is the boundary
    sum_i (-1)^i d_i.
    """
    add, neg, zero = ring.add, ring.neg, ring.zero
    for x in basis:
        col: dict[int, object] = {}
        for i in range(terms):
            for target, c in image(x, i):
                row = row_of(target)
                if row is not None:
                    col[row] = add(col.get(row, zero), neg(c) if i % 2 else c)
        yield col


class LevelRows(dict):
    """Row of each simplex of one normalized level, in the order given.

    A simplex the level lacks is degenerate when unit sits in one of its
    slots from first on (past slot 0 for the cyclic bar construction, in
    any slot for the bar complex of a group) and has no row: the lookup
    returns None.  Any other miss is a face that left its weight block and
    raises InternalInvariantError.
    """

    __slots__ = ("unit", "first")

    def __init__(self, simplices, unit, first: int) -> None:
        super().__init__((x, i) for i, x in enumerate(simplices))
        self.unit = unit
        self.first = first

    def __missing__(self, x):
        if self.unit in x[self.first :]:
            return None
        raise InternalInvariantError(f"simplex {x} left its weight block")


def rank_over_field(d: SparseMap) -> int:
    """Rank of a linear map over a field, by unit-pivot cancellation.

    Over a field every nonzero entry is a unit, so cancellation only stops
    at the zero matrix and each cancelled pair adds one to the rank.
    """
    if not d.ring.is_field:
        raise UnsupportedRingError(f"rank_over_field needs a field, got {d.ring}")
    return len(_cancel_unit_pivots(d.ring, *_sparse_columns(d)))
