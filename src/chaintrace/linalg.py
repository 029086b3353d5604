"""Exact dense matrices, sparse linear maps, and Smith normal form.

All arithmetic happens in a BaseRing (Z, Q, Z/m, GF(p)); nothing here ever
touches floating point.  Smith elimination runs over Z and fields only:
every question over Z/m goes through the integer lift of lift_with_modulus.
Two representations coexist, each with one role:

* Matrix: dense row-major storage, only for Smith elimination: the input
  of smith_normal_form, its factors, and their products and images.
* SparseMap: column-sparse storage for every other linear map (faces,
  boundaries, chain maps, algebra maps, changes of basis), built by
  from_col_dicts, from the columns chain.basis_map_columns writes for any
  map given on basis elements.  to_matrix hands one to elimination.

Matrix(ring, rows) is where entries are normalized: it is the constructor
for values from outside (parsers, callers, tests).  Matrices built here from
entries that ring arithmetic already produced (products, integer lifts,
Smith factors) skip that pass, and so does every SparseMap:
SparseMap.from_col_dicts takes ring values (ring arithmetic, the normalized
tables of an Algebra) and only drops zeros.

smith_normal_form is the package's one dense elimination: kernels, onto
maps, unit inverses (algebra.unit_inverse) and homology() are read off its
result.  Sparse unit-pivot cancellation, which shrinks a complex before
Smith where only isomorphism types are printed, is chaintrace.pivots: the
jobs that read generators and class coordinates (the trace commands) never
run it, so they do not compile it.  Image questions over Z/m go through the
integer lift [M | m*I] built by lift_with_modulus, which is exact for every
modulus: is_onto and algebra.unit_inverse eliminate it directly, and
chain._homology, the one routine behind homology() over every ring,
eliminates the lift of d_n and then [d_{n+1} | m*I] written in the kernel
basis that elimination gives.  Every residue is lifted by symmetric_lift,
to (-m/2, m/2], which keeps the integer transforms small.

smith_normal_form(M) returns S = U * M * V, with U and V invertible over
the ring and S diagonal with the divisibility chain d_1 | d_2 | ... | d_r.
The pivot rule (conventions.PIVOT_RULE) is fixed for determinism: among the
nonzero entries of the working block, choose the one of smallest |x| over
Z, and the first nonzero one over a field, breaking ties in row-major
order.  Diagonal entries are normalized: positive over Z, 1 over a field.

Of the transforms U, V, Uinv and Vinv, the elimination builds only those
its caller names: homology() reads V and Vinv of its first elimination and
U and Uinv of its second, is_onto reads S alone, and algebra.unit_inverse
reads U and V.  Each transform's updates read S and itself only, so a
built factor has the same entries whichever others are built.  The kernel's cost follows the nonzero
entries: each row or column operation, scaling and pivot search skips
zeros, since x - q*0 is x again in value and in type, and Matrix.mul
multiplies only nonzero pairs.  The boundaries of the complexes here are a
few percent nonzero, so dense arithmetic would mostly compute x - q*0.
What stays quadratic is memory, since storage stays dense: S and an n x n
square for each transform built.  smith_cells counts those cells, and
homology() refuses above chain.DENSE_CELL_CAP before building any matrix.
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
    "smith_cells",
    "symmetric_lift",
    "lift_with_modulus",
    "is_onto",
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

    # -- access ------------------------------------------------------------

    def col(self, j: int) -> tuple:
        return tuple(self.rows[i][j] for i in range(self.nrows))

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


class SmithDecomposition(Value):
    """U * M * V = S with U, V invertible and S in Smith normal form.

    S is always present.  U, V, Uinv and Vinv are None where the call to
    smith_normal_form did not name them.
    """

    __slots__ = ("U", "S", "V", "Uinv", "Vinv")
    _fields = __slots__

    def __init__(
        self, U: Matrix | None, S: Matrix, V: Matrix | None, Uinv: Matrix | None, Vinv: Matrix | None
    ) -> None:
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

    @property
    def onto(self) -> bool:
        """Whether the eliminated matrix is onto: S = [I | 0], one invariant
        factor 1 in every row."""
        return self.rank == self.S.nrows and all(d == 1 for d in self.invariant_factors)


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
    """(i, j) of the first nonzero entry of smallest |x| over Z, or of the
    first nonzero entry over a field, in row-major order from (t, t); None
    when that block is zero.  No nonzero entry measures below 1, so the
    first that measures 1 is taken at once."""
    over_z = ring.kind == "Z"
    best = where = None
    for i in range(t, len(S)):
        row = S[i]
        for j in _support(row, t):
            m = abs(row[j]) if over_z else 1
            if best is None or m < best:
                best, where = m, (i, j)
                if m == 1:
                    return where
    return where


def _quotient(ring: BaseRing, a, b):
    """q with a - q*b reduced: floor division over Z, exact over a field."""
    if ring.kind == "Z":
        return a // b
    return ring.mul(a, ring.inv(b))


def _smith_engine(ring: BaseRing, mat: Matrix, factors: frozenset):
    """Core elimination; returns (U, Uinv, S, V, Vinv) as row lists.

    Storage is dense, but every operation visits only nonzero entries: an
    update x - q*0 is x again, so skipping it changes no value and no type.
    A column operation finds the rows it touches with one scan of the
    column, run in C by compress over itemgetter.  A transform not in
    factors is built and returned as a stand-in with no entries, so its
    updates visit nothing: U and Vinv, whose rows are taken by index, get
    empty rows, and Uinv and V, which are scanned for rows, get none.
    """
    nr, nc = mat.nrows, mat.ncols
    add, sub, mul, one = ring.add, ring.sub, ring.mul, ring.one
    S = [row[:] for row in mat.rows]
    U = Matrix.identity(ring, nr).rows if "U" in factors else [()] * nr
    Uinv = Matrix.identity(ring, nr).rows if "Uinv" in factors else []
    V = Matrix.identity(ring, nc).rows if "V" in factors else []
    Vinv = Matrix.identity(ring, nc).rows if "Vinv" in factors else [()] * nc

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
            pi, pj = piv
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

    def normalize_diag(t):  # positive over Z, 1 over a field
        d = S[t][t]
        if ring.kind == "Z":
            if d < 0:
                row_scale(t, -1)
        elif d:
            row_scale(t, ring.inv(d))

    t = 0
    limit = min(nr, nc)
    while t < limit:
        if not eliminate_at(t):
            break
        normalize_diag(t)
        t += 1
    rank = t

    # enforce the divisibility chain d_i | d_{i+1}: over a field every
    # diagonal entry is 1 already
    changed = ring.kind == "Z"
    while changed:
        changed = False
        for t in range(rank - 1):
            if S[t + 1][t + 1] % S[t][t]:
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


def _self_checked(nrows: int, ncols: int) -> bool:
    """Whether smith_normal_form checks U * M * V == S on an input of this
    shape: a cheap check on small inputs, where the property suite covers
    the rest.  An empty input has nothing to check."""
    return 0 < nrows * ncols <= 2500


def smith_normal_form(mat: Matrix, *, factors=("U", "V", "Uinv", "Vinv")) -> SmithDecomposition:
    """Smith decomposition over Z, Q or GF(p).

    factors names the transforms the caller reads, among U, V, Uinv and
    Vinv; S is always built, and a transform not named is None.
    Deterministic: pivot of smallest measure, ties row-major, and a built
    factor does not depend on which others are built.  Raises
    UnsupportedRingError over every Z/m: eliminate lift_with_modulus(mat)
    over Z instead.
    """
    ring = mat.ring
    if ring.kind == "Zmod":
        raise UnsupportedRingError(
            f"Smith normal form runs over Z and fields; over Z/{ring.modulus} "
            "eliminate lift_with_modulus(M) over Z"
        )
    nr, nc = mat.nrows, mat.ncols
    factors = frozenset(factors)
    check = __debug__ and _self_checked(nr, nc)
    U, Uinv, S, V, Vinv = _smith_engine(ring, mat, factors | {"U", "V"} if check else factors)
    if check and Matrix._canonical(ring, U, nr).mul(mat).mul(Matrix._canonical(ring, V, nc)).rows != S:
        raise InternalInvariantError("Smith decomposition failed U*M*V == S")
    return SmithDecomposition(
        U=Matrix._canonical(ring, U, nr) if "U" in factors else None,
        S=Matrix._canonical(ring, S, nc),
        V=Matrix._canonical(ring, V, nc) if "V" in factors else None,
        Uinv=Matrix._canonical(ring, Uinv, nr) if "Uinv" in factors else None,
        Vinv=Matrix._canonical(ring, Vinv, nc) if "Vinv" in factors else None,
    )


def smith_cells(rows: range, ncols: int, factors) -> int:
    """Dense cells smith_normal_form(M, factors=factors) builds for an M with
    ncols columns and a row count in rows: exact for one row count, an upper
    bound for several.

    They are S, an n x n square for each transform built (n is the row count
    for U and Uinv, ncols for V and Vinv), and U and V where the input is
    small enough to be self-checked, even with assertions off.  The most rows
    cost the most, and the fewest nonzero rows are the likeliest checked.
    """
    k = rows[-1]
    fewest = rows[0] or 1
    built = set(factors)
    if fewest in rows and _self_checked(fewest, ncols):
        built |= {"U", "V"}
    side = {"U": k, "Uinv": k, "V": ncols, "Vinv": ncols}
    return k * ncols + sum(side[name] ** 2 for name in built)


def symmetric_lift(values: Sequence, m: int) -> list[int]:
    """The integers in (-m/2, m/2] that the residues mod m lift to.

    Every elimination over Z of a matrix over Z/m starts from this lift.
    Entries of absolute value at most m/2, rather than below m, keep the
    integer transforms small: V and V^-1 of the 27 x 81 boundary d_4 of
    the bar complex of C4 over Z/4 hold 2-digit entries from this lift and
    16-digit ones from the lift in [0, m).
    """
    return [x - m if 2 * x > m else x for x in map(int, values)]


def lift_with_modulus(mat: Matrix) -> Matrix:
    """The integer matrix [lift(M) | m*I] of a matrix M over Z/m.

    Its column image in Z^r is the preimage of the column image of M, so
    eliminating it over Z answers image questions over Z/m for every m.
    Column order is fixed: the columns of M, lifted by symmetric_lift, then
    m*e_i in row order.
    """
    m, n = mat.ring.modulus, mat.nrows
    rows = [symmetric_lift(row, m) + [m if i == j else 0 for j in range(n)] for i, row in enumerate(mat.rows)]
    return Matrix._canonical(ZZ, rows, mat.ncols + n)


def is_onto(mat: Matrix) -> bool:
    """Whether mat maps R^ncols onto R^nrows: every invariant factor is 1
    and there are nrows of them.  Over Z/m this is read off the lift."""
    if mat.ring.kind == "Zmod":
        mat = lift_with_modulus(mat)
    return smith_normal_form(mat, factors=()).onto
