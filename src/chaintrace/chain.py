"""Bounded chain complexes and homology with canonical representatives.

homology(C, n) returns a HomologyData handle carrying:

* the isomorphism type (FPAbelianGroup over Z and Z/p^k, FPModule over a
  field),
* one representative cycle per generator, expressed in the complex's own
  basis, and
* a coordinates() map that reduces any cycle of degree n to canonical
  coordinates (mod the generator orders), so that distinct callers agree on
  the meaning of "the class of z".

Everything is driven by Smith normal form, so output is deterministic for
the fixed pivot rule.  Over Z/m the modulus must be a prime power; other
moduli raise UnsupportedRingError (the composite case is deliberately out
of contract even where the integer-lattice method would cope).

reduce_complex(C) is the invariants-only path.  It cancels unit pivots of
the sparse boundaries (Kaczynski-Mrozek-Slusarek reduction): each pair
(j in C_n, i in C_{n-1}) with d_n[i, j] a unit splits off an acyclic
summand, so every homology group is unchanged while the complex shrinks,
usually to a small core that homology() then eliminates densely.  The core
has no basis in common with C, so callers that print only isomorphism
types use it, and callers that need generators or class coordinates call
homology() on C itself.
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
from .linalg import Matrix, SparseMap, lift_with_modulus, smith_normal_form
from .rings import ZZ, BaseRing
from .values import Value

__all__ = [
    "FPAbelianGroup",
    "FPModule",
    "ChainComplex",
    "HomologyData",
    "homology",
    "reduce_complex",
    "rank_over_field",
    "predicted_dense_cells",
    "check_dense_cells",
    "DENSE_CELL_CAP",
]

# Dense cells (S, U, V and their inverses) that homology() may allocate in
# one degree.  The largest prediction among the tests and the benchmark
# jobs is about 9e5 cells, and morita GF:2[x]/x^2 --size 2 --max-degree 2
# needs 1.7e7; the morita runs of Z[C3] and of GF:2[x]/x^2 one degree
# higher would need 5.4e8 and 8.2e8, gigabytes of list slots.
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

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

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

    @property
    def is_trivial(self) -> bool:
        return self.dimension == 0

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


def _ints(vec) -> list[int]:
    return [int(x) for x in vec]


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

    def is_cycle(self, vec) -> bool:
        return self._cycle_test(tuple(self.ring.normalize(x) for x in vec))

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


def _homology_pid(ring: BaseRing, d_n: Matrix, d_np1: Matrix, degree: int) -> HomologyData:
    """Z and field case: kernel is free, quotient read off one more SNF."""
    dec1 = smith_normal_form(d_n)
    rank1 = dec1.rank
    r_n = d_n.ncols
    k = r_n - rank1  # nullity

    # express boundaries in the kernel basis: rows rank1.. of V^-1 * d_{n+1}
    Y = dec1.Vinv.mul(d_np1)
    for i in range(rank1):
        if any(not ring.is_zero(x) for x in Y.rows[i]):
            raise InternalInvariantError("boundary column escaped the kernel lattice")
    X = Matrix._canonical(ring, Y.rows[rank1:], d_np1.ncols)
    dec2 = smith_normal_form(X)
    s = dec2.rank
    diag = [dec2.S.rows[i][i] for i in range(min(k, X.ncols))]

    # the kernel basis is the last k columns of V
    kernel = Matrix._canonical(ring, [row[rank1:] for row in dec1.V.rows], k)
    gen_matrix = kernel.mul(dec2.Uinv) if k else Matrix.zeros(ring, r_n, 0)

    kept: list[int] = []
    orders: list[int] = []
    factors: list[int] = []
    for j in range(k):
        if j < s:
            d = diag[j]
            if ring.is_unit(d):
                continue  # killed generator
            kept.append(j)
            orders.append(int(d))
            factors.append(int(d))
        else:
            kept.append(j)
            orders.append(0)
    free_rank = k - s
    if ring.is_field:
        group: FPAbelianGroup | FPModule = FPModule(ring, free_rank)
    else:
        group = FPAbelianGroup(free_rank, tuple(factors))

    generators = tuple(gen_matrix.col(j) for j in kept)
    U2 = dec2.U
    V1inv = dec1.Vinv

    def cycle_test(vec, _d_n=d_n) -> bool:
        return all(ring.is_zero(x) for x in _d_n.apply(vec))

    def reduce(vec) -> tuple:
        y = V1inv.apply(vec)
        tail = y[rank1:]
        c = U2.apply(tail) if k else ()
        out = []
        for j, order in zip(kept, orders):
            if order:
                out.append(c[j] % order)
            else:
                out.append(c[j])
        return tuple(out)

    return HomologyData(ring, degree, group, generators, tuple(orders), reduce, cycle_test)


def _homology_zmod(ring: BaseRing, d_n: Matrix, d_np1: Matrix, degree: int) -> HomologyData:
    """Z/p^k case via integer lifts.

    The kernel of (x -> d_n x mod m) on Z^{r_n} is a full-rank lattice with
    basis V * diag(w_i), w_i = m / gcd(d_i, m); homology is the cokernel of
    the relation matrix [d_{n+1} | m I] rewritten in that basis.
    """
    m = ring.modulus
    r_n = d_n.ncols
    lift_n = Matrix(ZZ, [_ints(row) for row in d_n.rows], r_n)
    dec1 = smith_normal_form(lift_n)
    rank1 = dec1.rank
    weights = [m // math.gcd(int(dec1.S.rows[i][i]), m) if i < rank1 else 1 for i in range(r_n)]

    W = dec1.Vinv.mul(lift_with_modulus(d_np1))
    rel_rows = []
    for i in range(r_n):
        w = weights[i]
        row = []
        for x in W.rows[i]:
            q, r = divmod(x, w)
            if r:
                raise InternalInvariantError("relation escaped the mod-m kernel lattice")
            row.append(q)
        rel_rows.append(row)
    Rel = Matrix(ZZ, rel_rows, W.ncols)
    dec2 = smith_normal_form(Rel)
    if dec2.rank != r_n:
        raise InternalInvariantError("mod-m relation matrix must have full rank")
    diag = [int(dec2.S.rows[i][i]) for i in range(r_n)]

    # generators: kernel-lattice basis twisted by U2^-1, reduced mod m
    M_ker = Matrix(ZZ, [[dec1.V.rows[i][j] * weights[j] for j in range(r_n)] for i in range(r_n)], r_n)
    gen_int = M_ker.mul(dec2.Uinv)
    kept = [j for j in range(r_n) if diag[j] != 1]
    orders = [diag[j] for j in kept]
    for d in orders:
        if m % d != 0:
            raise InternalInvariantError("generator order must divide the modulus")
    group = FPAbelianGroup(0, tuple(d for d in orders))
    generators = tuple(tuple(ring.normalize(gen_int.rows[i][j]) for i in range(r_n)) for j in kept)

    V1inv = dec1.Vinv
    U2 = dec2.U

    def cycle_test(vec, _d_n=d_n) -> bool:
        return all(ring.is_zero(x) for x in _d_n.apply(vec))

    def reduce(vec) -> tuple:
        u = V1inv.apply(_ints(vec))
        x = []
        for i in range(r_n):
            w = weights[i]
            q, r = divmod(u[i] % m, w)
            if r:
                raise InternalInvariantError("cycle escaped the mod-m kernel lattice")
            x.append(q)
        c = U2.apply(x)
        return tuple(c[j] % orders[idx] for idx, j in enumerate(kept))

    return HomologyData(ring, degree, group, generators, tuple(orders), reduce, cycle_test)


def homology(complex_: ChainComplex, n: int) -> HomologyData:
    """H_n with canonical generators; needs both boundaries in range.

    Degrees run 0..top_degree-1 so that the incoming boundary from degree
    n+1 exists; asking for the top degree raises DegreeOutOfRangeError.
    Before any matrix is built, check_dense_cells refuses a degree whose
    eliminations would exceed DENSE_CELL_CAP.
    """
    if n < 0 or n >= complex_.top_degree:
        raise DegreeOutOfRangeError(
            f"degree {n} outside computable range 0..{complex_.top_degree - 1}"
        )
    ring = complex_.ring
    if ring.kind == "Zmod" and ring.prime_power() is None:
        raise UnsupportedRingError(
            f"homology over Z/{ring.modulus} is supported for prime powers only"
        )
    check_dense_cells(complex_, n)
    d_n = complex_.differential(n).to_matrix()
    d_np1 = complex_.differential(n + 1).to_matrix()
    if ring.kind == "Zmod":
        return _homology_zmod(ring, d_n, d_np1, n)
    return _homology_pid(ring, d_n, d_np1, n)


def check_dense_cells(complex_: ChainComplex, n: int) -> None:
    """Raise CapExceededError if homology(complex_, n) would allocate more
    than DENSE_CELL_CAP dense cells (predicted_dense_cells of the ranks)."""
    ranks = (complex_.rank(n - 1), complex_.rank(n), complex_.rank(n + 1))
    cells = predicted_dense_cells(complex_.ring, *ranks)
    if cells > DENSE_CELL_CAP:
        raise CapExceededError(
            f"homology in degree {n} (ranks {ranks[0]}, {ranks[1]}, {ranks[2]}) needs "
            f"{cells} dense cells of Smith elimination, above the cap {DENSE_CELL_CAP}"
        )


def predicted_dense_cells(ring: BaseRing, a: int, b: int, c: int) -> int:
    """Cells of S, U, V, Uinv and Vinv over both eliminations of homology().

    a, b, c are the ranks in degrees n-1, n, n+1.  The first elimination
    takes d_n (a x b).  The second takes the boundaries in the kernel basis,
    at most b rows by c columns; over Z/p^k it takes the lift
    [d_{n+1} | mI] in that basis, b rows by c + b columns.
    """
    if ring.kind == "Zmod":
        c += b
    first = a * b + 2 * a * a + 2 * b * b
    second = b * c + 2 * b * b + 2 * c * c
    return first + second


def _sparse_columns(d: SparseMap, skip=frozenset()) -> tuple[dict[int, dict], dict[int, set]]:
    """Mutable copy of d: live columns as {row: entry} and rows as column sets."""
    cols = {j: dict(col) for j, col in enumerate(d.cols) if j not in skip}
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

    Unit pivots are cancelled in every differential from the top down.  A
    pair (j, i) cancelled in d_n removes j from C_n and i from C_{n-1},
    rewrites d_n on the surviving basis, and deletes row j of d_{n+1} and
    column i of d_{n-1}.  Zero columns of the top differential bound
    nothing and are dropped too.  The result goes through the ChainComplex
    constructor, so d o d = 0 is checked again on it.
    """
    ring = complex_.ring
    top = complex_.top_degree
    dead: list[set[int]] = [set() for _ in range(top + 1)]
    reduced: dict[int, dict[int, dict]] = {}
    for n in range(top, 0, -1):
        cols, rows = _sparse_columns(complex_.differential(n), skip=dead[n])
        for j, i in _cancel_unit_pivots(ring, cols, rows):
            dead[n].add(j)
            dead[n - 1].add(i)
        reduced[n] = cols
    keep = [[b for b in range(complex_.rank(n)) if b not in dead[n]] for n in range(top + 1)]
    if top >= 1:
        gone = dead[top - 1]
        keep[top] = [j for j in keep[top] if any(i not in gone for i in reduced[top][j])]
    diffs = {}
    for n in range(1, top + 1):
        position = {b: p for p, b in enumerate(keep[n - 1])}
        cols = reduced[n]
        diffs[n] = SparseMap.from_col_dicts(
            ring,
            len(keep[n - 1]),
            [{position[i]: c for i, c in cols[j].items() if i in position} for j in keep[n]],
        )
    return ChainComplex(ring, [len(k) for k in keep], diffs)


def rank_over_field(d: SparseMap) -> int:
    """Rank of a linear map over a field, by unit-pivot cancellation.

    Over a field every nonzero entry is a unit, so cancellation only stops
    at the zero matrix and each cancelled pair adds one to the rank.
    """
    if not d.ring.is_field:
        raise UnsupportedRingError(f"rank_over_field needs a field, got {d.ring}")
    return len(_cancel_unit_pivots(d.ring, *_sparse_columns(d)))
