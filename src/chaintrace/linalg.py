"""Exact dense matrices, sparse linear maps, and Smith normal form.

All arithmetic happens in a BaseRing (Z, Q, Z/m, GF(p)); nothing here ever
touches floating point.  Two representations coexist:

* Matrix: dense row-major storage; the carrier for elimination.
* SparseMap: column-sparse storage for structured operators (face maps,
  boundary operators, induced chain maps), which are almost entirely zero.

Matrix(ring, rows) is where entries are normalized: it is the constructor
for values from outside (parsers, callers, tests).  Matrices built here from
entries that ring arithmetic already produced (products, sums, transposes,
Smith factors) skip that pass, and so does every SparseMap:
SparseMap.from_col_dicts takes ring values (ring arithmetic, the normalized
tables of an Algebra) and only drops zeros.

smith_normal_form is the package's one dense elimination: kernels,
membership, bijectivity and homology() are read off its result.  Sparse
unit-pivot cancellation (chain.reduce_complex) runs before it where only
isomorphism types are printed, and feeds it a small core with the same
homology; ranks over a field come from the same cancellation
(chain.rank_over_field).  Generators and class coordinates still come from
homology() on the full complex.  Image questions over Z/m go through the
integer lift [M | m*I] built by lift_with_modulus, which is exact for every
modulus.

smith_normal_form(M) returns (U, S, V) with S = U * M * V, U and V
invertible over the ring, S diagonal with the divisibility chain
d_1 | d_2 | ... | d_r.  The pivot rule (conventions.PIVOT_RULE) is fixed
for determinism: among the nonzero entries of the working block, choose the
one of smallest pivot measure (|x| over Z, p-adic valuation over Z/p^k, any
nonzero over a field), breaking ties in row-major order.  Diagonal entries
are normalized to canonical unit multiples (positive over Z, 1 over fields,
p-powers over Z/p^k).

Storage stays dense, but the kernel's cost follows the nonzero entries:
each row or column operation, scaling and pivot search skips zeros, since
x - q*0 is x again in value and in type, and Matrix.mul multiplies only
nonzero pairs.  The boundaries of the complexes here are a few percent
nonzero, so dense arithmetic would mostly compute x - q*0.  What stays
quadratic is memory: homology() therefore predicts the dense cells of its
eliminations from the ranks and refuses above chain.DENSE_CELL_CAP before
building any matrix.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

from .errors import InternalInvariantError, UnsupportedRingError
from .rings import ZZ, BaseRing
from .values import Value

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence

__all__ = [
    "Matrix",
    "SparseMap",
    "SmithDecomposition",
    "smith_normal_form",
    "kernel_basis",
    "solve_membership",
    "MembershipResult",
    "lift_with_modulus",
]


class Matrix:
    """Immutable-by-convention dense matrix over a BaseRing."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: BaseRing, rows: Sequence[Sequence], ncols: int | None = None):
        self.ring = ring
        self.rows = [[ring.normalize(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            self.ncols = 0 if ncols is None else ncols

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(cls, ring: BaseRing, rows: list[list], ncols: int) -> "Matrix":
        """Wrap rows (mutable lists) whose entries are already canonical."""
        m = cls.__new__(cls)
        m.ring = ring
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def zeros(cls, ring: BaseRing, nrows: int, ncols: int) -> "Matrix":
        z = ring.zero
        return cls._canonical(ring, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, ring: BaseRing, n: int) -> "Matrix":
        m = cls.zeros(ring, n, n)
        one = ring.one
        for i in range(n):
            m.rows[i][i] = one
        return m

    @classmethod
    def from_cols(cls, ring: BaseRing, cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        if not cols:
            return cls.zeros(ring, nrows or 0, 0)
        n = len(cols[0])
        return cls(ring, [[cols[j][i] for j in range(len(cols))] for i in range(n)], len(cols))

    def copy(self) -> "Matrix":
        return Matrix._canonical(self.ring, [row[:] for row in self.rows], self.ncols)

    # -- access ------------------------------------------------------------

    def col(self, j: int) -> tuple:
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def cols(self) -> list[tuple]:
        return [self.col(j) for j in range(self.ncols)]

    def is_zero(self) -> bool:
        zero = self.ring.is_zero
        return all(zero(x) for row in self.rows for x in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Matrix({self.ring}, {self.nrows}x{self.ncols})"

    # -- arithmetic ----------------------------------------------------------

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        ring = self.ring
        add, mul = ring.add, ring.mul
        out = Matrix.zeros(ring, self.nrows, other.ncols)
        # the nonzero entries of each row of other, read once
        nonzero = [[(j, orow[j]) for j in _support(orow)] for orow in other.rows]
        for srow, trow in zip(self.rows, out.rows):
            for k in _support(srow):
                a = srow[k]
                for j, b in nonzero[k]:
                    trow[j] = add(trow[j], mul(a, b))
        return out

    def __mul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        ring = self.ring
        return Matrix._canonical(
            ring,
            [[ring.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        ring = self.ring
        return Matrix._canonical(
            ring,
            [[ring.sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def neg(self) -> "Matrix":
        ring = self.ring
        return Matrix._canonical(ring, [[ring.neg(a) for a in row] for row in self.rows], self.ncols)

    def transpose(self) -> "Matrix":
        rows = self.rows
        return Matrix._canonical(self.ring, [[row[j] for row in rows] for j in range(self.ncols)], self.nrows)

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        ring = self.ring
        is_zero = ring.is_zero
        out = [ring.zero] * self.nrows
        for j, x in enumerate(vec):
            x = ring.normalize(x)
            if is_zero(x):
                continue
            for i in range(self.nrows):
                a = self.rows[i][j]
                if not is_zero(a):
                    out[i] = ring.add(out[i], ring.mul(a, x))
        return tuple(out)


class SparseMap(Value):
    """Column-sparse linear map; cols[j] lists (row, coeff) with coeff != 0."""

    __slots__ = ("ring", "nrows", "ncols", "cols")
    _fields = __slots__

    def __init__(
        self, ring: BaseRing, nrows: int, ncols: int, cols: tuple[tuple[tuple[int, object], ...], ...]
    ) -> None:
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    @classmethod
    def from_col_dicts(cls, ring: BaseRing, nrows: int, col_dicts: Sequence[dict]) -> "SparseMap":
        """Columns given as {row: ring value}; zeros are dropped, nothing is normalized."""
        cols = tuple(
            tuple((row, d[row]) for row in sorted(d) if not ring.is_zero(d[row])) for d in col_dicts
        )
        return cls(ring, nrows, len(cols), cols)

    @classmethod
    def zero(cls, ring: BaseRing, nrows: int, ncols: int) -> "SparseMap":
        return cls(ring, nrows, ncols, tuple(() for _ in range(ncols)))

    @classmethod
    def identity(cls, ring: BaseRing, n: int) -> "SparseMap":
        one = ring.one
        return cls(ring, n, n, tuple(((i, one),) for i in range(n)))

    @classmethod
    def from_matrix(cls, m: Matrix) -> "SparseMap":
        ring = m.ring
        cols = []
        for j in range(m.ncols):
            cols.append(tuple((i, m.rows[i][j]) for i in range(m.nrows) if not ring.is_zero(m.rows[i][j])))
        return cls(ring, m.nrows, m.ncols, tuple(cols))

    def to_matrix(self) -> Matrix:
        out = Matrix.zeros(self.ring, self.nrows, self.ncols)
        for j, col in enumerate(self.cols):
            for i, c in col:
                out.rows[i][j] = c
        return out

    def compose(self, inner: "SparseMap") -> "SparseMap":
        """self after inner (matrix product self * inner)."""
        if self.ncols != inner.nrows:
            raise ValueError("shape mismatch in compose")
        ring = self.ring
        cols = []
        for col in inner.cols:
            acc: dict[int, object] = {}
            for k, c in col:
                for i, a in self.cols[k]:
                    acc[i] = ring.add(acc.get(i, ring.zero), ring.mul(a, c))
            cols.append(acc)
        return SparseMap.from_col_dicts(ring, self.nrows, cols)

    def add(self, other: "SparseMap") -> "SparseMap":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        ring = self.ring
        cols = []
        for c1, c2 in zip(self.cols, other.cols):
            acc = dict(c1)
            for i, c in c2:
                acc[i] = ring.add(acc.get(i, ring.zero), c)
            cols.append(acc)
        return SparseMap.from_col_dicts(ring, self.nrows, cols)

    def scale(self, c) -> "SparseMap":
        ring = self.ring
        c = ring.normalize(c)
        cols = [{i: ring.mul(c, v) for i, v in col} for col in self.cols]
        return SparseMap.from_col_dicts(ring, self.nrows, cols)

    def neg(self) -> "SparseMap":
        return self.scale(self.ring.neg(self.ring.one))

    def sub(self, other: "SparseMap") -> "SparseMap":
        return self.add(other.neg())

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        ring = self.ring
        out = [ring.zero] * self.nrows
        for j, x in enumerate(vec):
            if ring.is_zero(x):
                continue
            for i, c in self.cols[j]:
                out[i] = ring.add(out[i], ring.mul(c, x))
        return tuple(out)

    def is_zero_map(self) -> bool:
        return all(not col for col in self.cols)

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols)


class SmithDecomposition(Value):
    """U * M * V = S with U, V invertible and S in Smith normal form."""

    __slots__ = ("U", "S", "V", "Uinv", "Vinv")
    _fields = __slots__

    def __init__(self, U: Matrix, S: Matrix, V: Matrix, Uinv: Matrix, Vinv: Matrix) -> None:
        self.U = U
        self.S = S
        self.V = V
        self.Uinv = Uinv
        self.Vinv = Vinv

    @property
    def diagonal(self) -> tuple:
        return tuple(self.S.rows[i][i] for i in range(min(self.S.nrows, self.S.ncols)))

    @property
    def rank(self) -> int:
        ring = self.S.ring
        return sum(1 for d in self.diagonal if not ring.is_zero(d))

    @property
    def invariant_factors(self) -> tuple:
        ring = self.S.ring
        return tuple(d for d in self.diagonal if not ring.is_zero(d))


def _support(row: list, start: int = 0) -> list:
    """Indices of the nonzero entries of row from start on.

    Entries are ints or Fractions, so truthiness is the zero test, and
    compress runs the scan in C.
    """
    return list(compress(range(start, len(row)), row[start:]))


def _rows_with(M: list[list], *cols: int) -> list[list]:
    """The rows of M that are nonzero in one of the given columns."""
    column = itemgetter(*cols)
    return list(compress(M, map(column, M) if len(cols) == 1 else map(any, map(column, M))))


def _find_pivot(ring: BaseRing, S: list[list], t: int):
    # no nonzero element measures below floor: a unit over Z/p^k has
    # valuation 0, every other nonzero measure is at least 1
    floor = 0 if ring.kind == "Zmod" else 1
    best = None
    for i in range(t, len(S)):
        row = S[i]
        for j in _support(row, t):
            m = ring.pivot_measure(row[j])
            if best is None or m < best[0]:
                best = (m, i, j)
                if m == floor:
                    return best
    return best


def _quotient(ring: BaseRing, a, b):
    """q with a - q*b reduced: exact where b | a, floor division over Z."""
    if ring.kind == "Z":
        return a // b
    return ring.exact_div(a, b) if ring.divides(b, a) else ring.zero


def _smith_engine(ring: BaseRing, mat: Matrix):
    """Core elimination; returns (U, Uinv, S, V, Vinv) as row lists.

    Storage is dense, but every operation visits only nonzero entries: an
    update x - q*0 is x again, so skipping it changes no value and no type.
    A column operation finds the rows it touches with one scan of the
    column, run in C by compress over itemgetter.
    """
    nr, nc = mat.nrows, mat.ncols
    add, sub, mul, one = ring.add, ring.sub, ring.mul, ring.one
    S = [row[:] for row in mat.rows]
    U, Uinv = Matrix.identity(ring, nr).rows, Matrix.identity(ring, nr).rows
    V, Vinv = Matrix.identity(ring, nc).rows, Matrix.identity(ring, nc).rows

    def row_sub(i, t, q, s_cols, u_cols):  # row_i -= q * row_t ; Uinv col_t += q * Uinv col_i
        if not q:
            return
        for ri, rt, cols in ((S[i], S[t], s_cols), (U[i], U[t], u_cols)):
            for j in cols:
                ri[j] = sub(ri[j], mul(q, rt[j]))
        for r in _rows_with(Uinv, i):
            r[t] = add(r[t], mul(q, r[i]))

    def col_sub(j, t, q, s_rows, v_rows):  # col_j -= q * col_t ; Vinv row_t += q * Vinv row_j
        if not q:
            return
        for rows in (s_rows, v_rows):
            for r in rows:
                r[j] = sub(r[j], mul(q, r[t]))
        rt, rj = Vinv[t], Vinv[j]
        for b in _support(rj):
            rt[b] = add(rt[b], mul(q, rj[b]))

    def row_swap(i, t):
        if i == t:
            return
        S[i], S[t] = S[t], S[i]
        U[i], U[t] = U[t], U[i]
        for r in _rows_with(Uinv, i, t):
            r[i], r[t] = r[t], r[i]

    def col_swap(j, t):
        if j == t:
            return
        for M in (S, V):
            for r in _rows_with(M, j, t):
                r[j], r[t] = r[t], r[j]
        Vinv[j], Vinv[t] = Vinv[t], Vinv[j]

    def row_scale(i, u):  # row_i *= u (unit); Uinv col_i *= u^-1
        if u == one:
            return
        for r in (S[i], U[i]):
            for j in _support(r):
                r[j] = mul(u, r[j])
        uinv = ring.inv(u)
        for r in _rows_with(Uinv, i):
            r[i] = mul(uinv, r[i])

    def eliminate_at(t):
        while True:
            piv = _find_pivot(ring, S, t)
            if piv is None:
                return False
            _, pi, pj = piv
            row_swap(pi, t)
            col_swap(pj, t)
            st = S[t]
            clean = True
            # row t stays fixed while rows below it change, and column t
            # while columns to its right change
            below = list(compress(range(t + 1, nr), map(itemgetter(t), S[t + 1 :])))
            if below:
                s_cols, u_cols = _support(st), _support(U[t])
                for i in below:
                    row_sub(i, t, _quotient(ring, S[i][t], st[t]), s_cols, u_cols)
                    if S[i][t]:
                        clean = False
            right = _support(st, t + 1)
            if right:
                s_rows, v_rows = _rows_with(S, t), _rows_with(V, t)
                for j in right:
                    col_sub(j, t, _quotient(ring, st[j], st[t]), s_rows, v_rows)
                    if st[j]:
                        clean = False
            # a row or column operation changes only its own row or column,
            # so a clean pass leaves row t and column t zero off the pivot
            if clean:
                return True

    def normalize_diag(t):
        d = S[t][t]
        if ring.is_zero(d):
            return
        if ring.kind == "Z":
            if d < 0:
                row_scale(t, -1)
        elif ring.is_field:
            row_scale(t, ring.inv(d))
        else:
            pk = ring.prime_power()
            if pk is None:
                raise UnsupportedRingError(
                    f"Smith normal form over Z/{ring.modulus} needs a prime power modulus"
                )
            p, _ = pk
            v, dd = 0, int(d)
            while dd % p == 0:
                dd //= p
                v += 1
            # d = unit * p^v; scale the unit away
            row_scale(t, ring.inv(ring.normalize(dd)))

    t = 0
    limit = min(nr, nc)
    while t < limit:
        if not eliminate_at(t):
            break
        normalize_diag(t)
        t += 1
    rank = t

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for t in range(rank - 1):
            a, b = S[t][t], S[t + 1][t + 1]
            if not ring.divides(a, b):
                # fold column t+1 into column t and re-eliminate
                for M in (S, V):
                    for r in _rows_with(M, t + 1):
                        r[t] = add(r[t], r[t + 1])
                r1, rt = Vinv[t + 1], Vinv[t]
                for k in _support(rt):
                    r1[k] = sub(r1[k], rt[k])
                eliminate_at(t)
                normalize_diag(t)
                eliminate_at(t + 1)
                normalize_diag(t + 1)
                changed = True
    # re-elimination may swap an already normalized entry out of place
    for t in range(rank):
        normalize_diag(t)
    return U, Uinv, S, V, Vinv


def smith_normal_form(mat: Matrix) -> SmithDecomposition:
    """Smith decomposition over Z, Q, GF(p), or Z/p^k.

    Deterministic: pivot of smallest measure, ties row-major.  Raises
    UnsupportedRingError over Z/m with composite non-prime-power m.
    """
    ring = mat.ring
    if ring.kind == "Zmod" and ring.prime_power() is None:
        raise UnsupportedRingError(
            f"Smith normal form over Z/{ring.modulus} needs a prime power modulus"
        )
    U, Uinv, S, V, Vinv = _smith_engine(ring, mat)
    nr, nc = mat.nrows, mat.ncols
    dec = SmithDecomposition(
        U=Matrix._canonical(ring, U, nr),
        S=Matrix._canonical(ring, S, nc),
        V=Matrix._canonical(ring, V, nc),
        Uinv=Matrix._canonical(ring, Uinv, nr),
        Vinv=Matrix._canonical(ring, Vinv, nc),
    )
    if __debug__ and mat.nrows * mat.ncols <= 2500:
        # cheap self-check on small inputs; the property suite covers the rest
        check = dec.U.mul(mat).mul(dec.V)
        if check != dec.S:
            raise InternalInvariantError("Smith decomposition failed U*M*V == S")
    return dec


def lift_with_modulus(mat: Matrix) -> Matrix:
    """The integer matrix [lift(M) | m*I] of a matrix M over Z/m.

    Its column image in Z^r is the preimage of the column image of M, so
    eliminating it over Z answers image questions over Z/m for every m.
    Column order is fixed: the columns of M, then m*e_i in row order.
    """
    m, n = mat.ring.modulus, mat.nrows
    rows = [[int(x) for x in row] + [m if i == j else 0 for j in range(n)] for i, row in enumerate(mat.rows)]
    return Matrix._canonical(ZZ, rows, mat.ncols + n)


def kernel_basis(mat: Matrix) -> list[tuple]:
    """Basis (lattice basis over Z) of ker(mat); list of column vectors.

    Restricted to Z and fields: over Z/p^k the free Smith columns do not
    generate the torsion part of the kernel, so this would silently lie.
    """
    if mat.ring.kind == "Zmod":
        raise UnsupportedRingError("kernel_basis is defined over Z and fields only")
    dec = smith_normal_form(mat)
    rank = dec.rank
    return [dec.V.col(j) for j in range(rank, mat.ncols)]


class MembershipResult(Value):
    """Witness for v in im(M) (found, x with M x = v) or a refusal reason."""

    __slots__ = ("found", "witness", "reason")
    _fields = __slots__

    def __init__(self, found: bool, witness: tuple | None = None, reason: str = "") -> None:
        self.found = found
        self.witness = witness
        self.reason = reason


def solve_membership(mat: Matrix, vec: Sequence) -> MembershipResult:
    """Decide v in column-image of M and produce an exact witness.

    Works over Z, Q, GF(p), and Z/m for arbitrary m >= 2 (via the integer
    lift [M | m*I], which is exact for every modulus).
    """
    ring = mat.ring
    vec = tuple(ring.normalize(x) for x in vec)
    if len(vec) != mat.nrows:
        raise ValueError("vector length mismatch")
    if ring.kind == "Zmod":
        res = solve_membership(lift_with_modulus(mat), [int(x) for x in vec])
        if not res.found:
            return MembershipResult(False, None, res.reason)
        return MembershipResult(True, tuple(ring.normalize(x) for x in res.witness[: mat.ncols]))
    dec = smith_normal_form(mat)
    y = dec.U.apply(vec)
    rank = dec.rank
    x = [ring.zero] * mat.ncols
    for i in range(mat.nrows):
        if i < rank:
            d = dec.S.rows[i][i]
            if not ring.divides(d, y[i]):
                return MembershipResult(False, None, f"row {i}: {y[i]} not divisible by invariant {d}")
            x[i] = ring.exact_div(y[i], d)
        elif not ring.is_zero(y[i]):
            return MembershipResult(False, None, f"row {i}: residue {y[i]} outside image")
    witness = dec.V.apply(x)
    if __debug__ and mat.apply(witness) != vec:
        raise InternalInvariantError("membership witness failed M x == v")
    return MembershipResult(True, witness)
