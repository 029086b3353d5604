"""Finite-rank associative unital algebras given by structure constants.

An Algebra is a free module of finite rank over a BaseRing together with a
multiplication table on basis vectors and a distinguished unit vector.
Elements are plain coefficient tuples.  Nothing is assumed about the table:
validate_algebra checks associativity and unitality exhaustively and names
the failing triple when there is one.

Constructors: group algebras R[G], matrix algebras M_n(A), truncated
polynomial rings R[x]/x^n.  general_linear_group enumerates GL_n(A) for a
finite base ring by testing bijectivity of left multiplication on A^n over
the base ring (determinants over a possibly noncommutative A are never
used), and returns the group together with the algebra embedding
R[GL_n(A)] -> M_n(A).
"""

from __future__ import annotations

import itertools

from .errors import CapExceededError, NotInvertibleError
from .linalg import Matrix, lift_with_modulus, smith_normal_form, solve_membership
from .rings import BaseRing
from .validation import ValidationReport
from .values import Value

__all__ = [
    "Algebra",
    "AlgebraHom",
    "FiniteGroup",
    "NonUnitCertificate",
    "validate_algebra",
    "validate_group",
    "trivial_group",
    "cyclic_group",
    "group_algebra",
    "group_algebra_hom",
    "matrix_algebra",
    "truncated_polynomial",
    "base_algebra",
    "general_linear_group",
    "GeneralLinearData",
    "unit_inverse",
    "unit_first_presentation",
]

ENUMERATION_CAP = 65536


class Algebra(Value):
    """Structure-constant algebra; table[i][j] is the sparse product e_i e_j."""

    __slots__ = ("ring", "basis_names", "unit", "table", "name")
    _fields = __slots__

    def __init__(
        self,
        ring: BaseRing,
        basis_names: tuple[str, ...],
        unit: tuple,
        table: tuple[tuple[tuple[tuple[int, object], ...], ...], ...],
        name: str = "",
    ) -> None:
        self.ring = ring
        self.basis_names = basis_names
        self.unit = unit
        self.table = table
        self.name = name

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    @property
    def zero_vec(self) -> tuple:
        return (self.ring.zero,) * self.rank

    def basis_vector(self, i: int) -> tuple:
        return tuple(self.ring.one if j == i else self.ring.zero for j in range(self.rank))

    def mul_vec(self, u, v) -> tuple:
        """Product of two coefficient vectors."""
        ring = self.ring
        out = [ring.zero] * self.rank
        for i, a in enumerate(u):
            if ring.is_zero(a):
                continue
            for j, b in enumerate(v):
                if ring.is_zero(b):
                    continue
                ab = ring.mul(a, b)
                for k, c in self.table[i][j]:
                    out[k] = ring.add(out[k], ring.mul(ab, c))
        return tuple(out)

    def add_vec(self, u, v) -> tuple:
        ring = self.ring
        return tuple(ring.add(a, b) for a, b in zip(u, v))

    def sub_vec(self, u, v) -> tuple:
        ring = self.ring
        return tuple(ring.sub(a, b) for a, b in zip(u, v))

    def scale_vec(self, c, u) -> tuple:
        ring = self.ring
        c = ring.normalize(c)
        return tuple(ring.mul(c, a) for a in u)

    def normalize_vec(self, u) -> tuple:
        if len(u) != self.rank:
            raise ValueError(f"element has {len(u)} coefficients, algebra rank is {self.rank}")
        return tuple(self.ring.normalize(a) for a in u)

    def left_mult_matrix(self, u) -> Matrix:
        """Matrix of a -> u*a over the base ring."""
        return Matrix.from_cols(
            self.ring, [self.mul_vec(u, self.basis_vector(j)) for j in range(self.rank)], self.rank
        )

    def element_str(self, u) -> str:
        ring = self.ring
        parts = [
            f"{ring.format_element(a)}*{name}" if a != ring.one else name
            for a, name in zip(u, self.basis_names)
            if not ring.is_zero(a)
        ]
        return " + ".join(parts) if parts else "0"

    def enumerate_elements(self):
        """All coefficient vectors; finite base rings only."""
        m = self.ring.modulus
        if m is None:
            raise CapExceededError(f"cannot enumerate elements over infinite ring {self.ring}")
        return itertools.product(range(m), repeat=self.rank)

    def __repr__(self) -> str:
        label = self.name or "Algebra"
        return f"{label}(rank {self.rank} over {self.ring})"


def _sparse_product(ring: BaseRing, vec) -> tuple:
    return tuple((k, ring.normalize(c)) for k, c in vec if not ring.is_zero(ring.normalize(c)))


def make_algebra(ring: BaseRing, basis_names, unit, products: dict, name: str = "") -> Algebra:
    """Build an Algebra from {(i, j): {k: coeff}} sparse products."""
    rank = len(basis_names)
    table = []
    for i in range(rank):
        row = []
        for j in range(rank):
            prod = products.get((i, j), {})
            row.append(_sparse_product(ring, sorted(prod.items())))
        table.append(tuple(row))
    return Algebra(
        ring=ring,
        basis_names=tuple(basis_names),
        unit=tuple(ring.normalize(c) for c in unit),
        table=tuple(table),
        name=name,
    )


def validate_algebra(A: Algebra) -> ValidationReport:
    """Exhaustive associativity and unit check on basis triples/pairs."""
    report = ValidationReport(subject=A.name or "algebra")
    names = A.basis_names
    for i in range(A.rank):
        e_i = A.basis_vector(i)
        left = A.mul_vec(A.unit, e_i)
        right = A.mul_vec(e_i, A.unit)
        report.checks_run += 2
        if left != e_i:
            report.record(f"unit fails on the left of {names[i]}")
        if right != e_i:
            report.record(f"unit fails on the right of {names[i]}")
    basis = [A.basis_vector(i) for i in range(A.rank)]
    for i, j, k in itertools.product(range(A.rank), repeat=3):
        lhs = A.mul_vec(A.mul_vec(basis[i], basis[j]), basis[k])
        rhs = A.mul_vec(basis[i], A.mul_vec(basis[j], basis[k]))
        report.checks_run += 1
        if lhs != rhs:
            report.record(f"associativity fails on ({names[i]}, {names[j]}, {names[k]})")
    return report


class AlgebraHom(Value):
    """Base-linear map between algebras, expected to be unital multiplicative."""

    __slots__ = ("source", "target", "matrix", "name")
    _fields = __slots__

    def __init__(self, source: Algebra, target: Algebra, matrix: Matrix, name: str = "") -> None:
        self.source = source
        self.target = target
        self.matrix = matrix  # target.rank x source.rank
        self.name = name

    def apply(self, u) -> tuple:
        return self.matrix.apply(self.source.normalize_vec(u))

    def validate(self) -> ValidationReport:
        report = ValidationReport(subject=self.name or "algebra hom")
        report.checks_run += 1
        if self.apply(self.source.unit) != self.target.unit:
            report.record("unit is not preserved")
        for i in range(self.source.rank):
            for j in range(self.source.rank):
                e_i, e_j = self.source.basis_vector(i), self.source.basis_vector(j)
                lhs = self.apply(self.source.mul_vec(e_i, e_j))
                rhs = self.target.mul_vec(self.apply(e_i), self.apply(e_j))
                report.checks_run += 1
                if lhs != rhs:
                    report.record(
                        f"multiplicativity fails on ({self.source.basis_names[i]}, "
                        f"{self.source.basis_names[j]})"
                    )
        return report

    def compose(self, inner: "AlgebraHom") -> "AlgebraHom":
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("hom composition mismatch")
        return AlgebraHom(inner.source, self.target, self.matrix.mul(inner.matrix))


# -- finite groups ---------------------------------------------------------


class FiniteGroup(Value):
    """Multiplication table group; element 0..order-1, table[i][j] = i*j."""

    __slots__ = ("table", "identity", "names", "name")
    _fields = __slots__

    def __init__(
        self, table: tuple[tuple[int, ...], ...], identity: int, names: tuple[str, ...], name: str = ""
    ) -> None:
        self.table = table
        self.identity = identity
        self.names = names
        self.name = name

    @property
    def order(self) -> int:
        return len(self.table)

    def multiply(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        for j in range(self.order):
            if self.table[i][j] == self.identity:
                return j
        raise NotInvertibleError(f"group element {self.names[i]} has no inverse")

    def elements(self):
        return range(self.order)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name or 'order ' + str(self.order)})"


def validate_group(G: FiniteGroup) -> ValidationReport:
    report = ValidationReport(subject=G.name or "group")
    n = G.order
    for i in range(n):
        report.checks_run += 2
        if G.table[G.identity][i] != i:
            report.record(f"identity fails on the left of {G.names[i]}")
        if G.table[i][G.identity] != i:
            report.record(f"identity fails on the right of {G.names[i]}")
        report.checks_run += 1
        if all(G.table[i][j] != G.identity for j in range(n)):
            report.record(f"{G.names[i]} has no inverse")
    for i, j, k in itertools.product(range(n), repeat=3):
        report.checks_run += 1
        if G.table[G.table[i][j]][k] != G.table[i][G.table[j][k]]:
            report.record(f"associativity fails on ({G.names[i]}, {G.names[j]}, {G.names[k]})")
    for row in G.table:
        for v in row:
            if not (0 <= v < n):
                report.record(f"table entry {v} outside the group")
    return report


def trivial_group() -> FiniteGroup:
    return FiniteGroup(table=((0,),), identity=0, names=("e",), name="trivial")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    names = tuple("e" if k == 0 else ("t" if k == 1 else f"t^{k}") for k in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(table=table, identity=0, names=names, name=f"C{n}")


def group_algebra(G: FiniteGroup, ring: BaseRing, name: str = "") -> Algebra:
    products = {(i, j): {G.table[i][j]: ring.one} for i in range(G.order) for j in range(G.order)}
    unit = [ring.one if i == G.identity else ring.zero for i in range(G.order)]
    return make_algebra(
        ring, G.names, unit, products, name or f"{ring}[{G.name or 'G'}]"
    )


def group_algebra_hom(f: dict[int, int], G: FiniteGroup, H: FiniteGroup, ring: BaseRing) -> AlgebraHom:
    """Algebra map R[G] -> R[H] induced by a group homomorphism f."""
    source = group_algebra(G, ring)
    target = group_algebra(H, ring)
    cols = [[ring.one if k == f[i] else ring.zero for k in range(H.order)] for i in range(G.order)]
    return AlgebraHom(source, target, Matrix.from_cols(ring, cols, H.order), name="group hom")


# -- standard constructions ------------------------------------------------


def base_algebra(ring: BaseRing, name: str = "") -> Algebra:
    """The base ring as a rank-1 algebra."""
    return make_algebra(ring, ("1",), (ring.one,), {(0, 0): {0: ring.one}}, name or str(ring))


def truncated_polynomial(ring: BaseRing, n: int, name: str = "") -> Algebra:
    """R[x]/x^n with basis 1, x, ..., x^(n-1)."""
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    names = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(n))
    products = {
        (i, j): ({i + j: ring.one} if i + j < n else {})
        for i in range(n)
        for j in range(n)
    }
    unit = [ring.one] + [ring.zero] * (n - 1)
    return make_algebra(ring, names, unit, products, name or f"{ring}[x]/x^{n}")


def matrix_algebra(A: Algebra, n: int, name: str = "") -> Algebra:
    """M_n(A) on the basis E_(i,j) tensor (basis of A), ordered (i, j, t)."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    ring = A.ring
    r = A.rank

    def idx(i: int, j: int, t: int) -> int:
        return (i * n + j) * r + t

    names = tuple(
        f"E[{i},{j}]{A.basis_names[t]}" if A.rank > 1 else f"E[{i},{j}]"
        for i in range(n)
        for j in range(n)
        for t in range(r)
    )
    products: dict = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if j != k:
            continue
        for s, t in itertools.product(range(r), repeat=2):
            prod = {idx(i, l, u): c for u, c in A.table[s][t]}
            products[(idx(i, j, s), idx(k, l, t))] = prod
    unit = [ring.zero] * (n * n * r)
    for i in range(n):
        for t in range(r):
            unit[idx(i, i, t)] = A.unit[t]
    return make_algebra(ring, names, unit, products, name or f"M{n}({A.name or A.ring})")


def matrix_entries_to_vec(A: Algebra, n: int, entries) -> tuple:
    """Flatten an n x n matrix of A-elements to an M_n(A) coefficient vector."""
    out = []
    for i in range(n):
        for j in range(n):
            out.extend(A.normalize_vec(entries[i][j]))
    return tuple(out)


def vec_to_matrix_entries(A: Algebra, n: int, vec):
    r = A.rank
    return tuple(
        tuple(tuple(vec[(i * n + j) * r : (i * n + j) * r + r]) for j in range(n)) for i in range(n)
    )


# -- GL_n over a finite base -------------------------------------------------


class GeneralLinearData(Value):
    """GL_n(A) with its elements and the embedding R[GL_n(A)] -> M_n(A)."""

    __slots__ = ("group", "elements", "n", "algebra", "embedding")
    _fields = __slots__

    def __init__(
        self, group: FiniteGroup, elements: tuple, n: int, algebra: Algebra, embedding: AlgebraHom
    ) -> None:
        self.group = group
        self.elements = elements  # element g -> n x n tuple of A coefficient tuples
        self.n = n
        self.algebra = algebra
        self.embedding = embedding


def _matrix_over_A_mul(A: Algebra, n: int, g, h):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = A.zero_vec
            for k in range(n):
                acc = A.add_vec(acc, A.mul_vec(g[i][k], h[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _left_mult_on_An(A: Algebra, n: int, g) -> Matrix:
    """Base-ring matrix of v -> g*v acting on column vectors in A^n."""
    ring = A.ring
    r = A.rank
    cols = []
    for j in range(n):
        for t in range(r):
            e = A.basis_vector(t)
            col = []
            for i in range(n):
                col.extend(A.mul_vec(g[i][j], e))
            cols.append(col)
    return Matrix.from_cols(ring, cols, n * r)


def _bijective_over_base(L: Matrix) -> bool:
    """Whether the square matrix L is invertible over its base ring."""
    if L.ring.kind == "Zmod":
        L = lift_with_modulus(L)
    dec = smith_normal_form(L)
    return dec.rank == L.nrows and all(d == 1 for d in dec.invariant_factors)


def general_linear_group(A: Algebra, n: int, cap: int = ENUMERATION_CAP) -> GeneralLinearData:
    """Enumerate GL_n(A) over a finite base ring.

    Invertibility of a candidate matrix g is decided by bijectivity of left
    multiplication by g on A^n as a base-ring linear map.  The number of
    candidates |A|^(n^2) must stay within cap.
    """
    ring = A.ring
    m = ring.modulus
    if m is None:
        raise CapExceededError(f"GL_n over infinite base ring {ring} is not enumerable")
    count = (m ** A.rank) ** (n * n)
    if count > cap:
        raise CapExceededError(f"|A|^(n^2) = {count} exceeds the enumeration cap {cap}")

    elements = []
    single = list(itertools.product(range(m), repeat=A.rank))
    for flat in itertools.product(single, repeat=n * n):
        g = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        if _bijective_over_base(_left_mult_on_An(A, n, g)):
            elements.append(g)
    elements.sort()
    index = {g: i for i, g in enumerate(elements)}

    unit_mat = tuple(
        tuple(A.unit if i == j else A.zero_vec for j in range(n)) for i in range(n)
    )
    if unit_mat not in index:
        raise CapExceededError("identity matrix not detected as invertible; base ring unusable")
    table = []
    for g in elements:
        row = []
        for h in elements:
            gh = _matrix_over_A_mul(A, n, g, h)
            if gh not in index:
                raise CapExceededError("GL_n(A) is not closed under multiplication; invertibility test broken")
            row.append(index[gh])
        table.append(tuple(row))
    names = tuple(f"g{i}" for i in range(len(elements)))
    group = FiniteGroup(
        table=tuple(table), identity=index[unit_mat], names=names, name=f"GL{n}({A.name or A.ring})"
    )

    mat_alg = matrix_algebra(A, n)
    cols = [matrix_entries_to_vec(A, n, g) for g in elements]
    embedding = AlgebraHom(
        source=group_algebra(group, ring),
        target=mat_alg,
        matrix=Matrix.from_cols(ring, cols, mat_alg.rank),
        name=f"{ring}[{group.name}] -> {mat_alg.name}",
    )
    return GeneralLinearData(group=group, elements=tuple(elements), n=n, algebra=A, embedding=embedding)


class NonUnitCertificate(Value):
    """Witness that an element is not invertible."""

    __slots__ = ("reason",)
    _fields = __slots__

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __bool__(self) -> bool:
        return False


def unit_inverse(A: Algebra, u):
    """Two-sided inverse of u, or a NonUnitCertificate.

    Solves the left-multiplication linear system L_u x = 1 over the base
    ring and then confirms both u*x = 1 and x*u = 1.
    """
    u = A.normalize_vec(u)
    res = solve_membership(A.left_mult_matrix(u), A.unit)
    if not res.found:
        return NonUnitCertificate(f"1 is not in the image of left multiplication: {res.reason}")
    x = tuple(res.witness)
    if A.mul_vec(u, x) != A.unit:
        return NonUnitCertificate("left system solved but u*x != 1")
    if A.mul_vec(x, u) != A.unit:
        return NonUnitCertificate("right inverse is not a left inverse")
    return x


# -- unit-first change of basis ---------------------------------------------


def unit_first_presentation(A: Algebra) -> tuple[Algebra, Matrix, Matrix]:
    """Isomorphic copy of A whose basis vector 0 is the unit.

    Returns (B, T, Tinv) with T invertible over the base ring, T e_0 = unit
    of A, and B the structure constants transported along T.  Needed to give
    normalized Hochschild complexes an honest basis.  Exists because the
    coefficients of the unit generate the unit ideal.
    """
    ring = A.ring
    e0 = A.basis_vector(0)
    if A.unit == e0:
        ident = Matrix.identity(ring, A.rank)
        return A, ident, ident
    from .errors import InternalInvariantError, ValidationError

    col = Matrix.from_cols(ring, [A.unit], A.rank)
    dec = smith_normal_form(col)
    g = dec.S.rows[0][0]
    if not ring.is_unit(g):
        raise ValidationError("unit coefficients do not generate the unit ideal; not a unital algebra")
    s = ring.mul(g, dec.Vinv.rows[0][0])
    T = dec.Uinv.copy()
    s_inv = ring.inv(s)
    for i in range(A.rank):
        T.rows[i][0] = ring.mul(T.rows[i][0], s)
    Tinv = dec.U.copy()
    for j in range(A.rank):
        Tinv.rows[0][j] = ring.mul(Tinv.rows[0][j], s_inv)
    if T.apply(e0) != A.unit:
        raise InternalInvariantError("unit-first change of basis failed")

    products = {}
    for i in range(A.rank):
        for j in range(A.rank):
            w = Tinv.apply(A.mul_vec(T.col(i), T.col(j)))
            products[(i, j)] = {k: c for k, c in enumerate(w) if not ring.is_zero(c)}
    names = tuple("1" if i == 0 else f"b{i}" for i in range(A.rank))
    unit = [ring.one] + [ring.zero] * (A.rank - 1)
    B = make_algebra(ring, names, unit, products, name=f"{A.name or 'A'}~")
    return B, T, Tinv
