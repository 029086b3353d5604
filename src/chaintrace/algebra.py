"""Finite-rank associative unital algebras given by structure constants.

An Algebra is a free module of finite rank over a BaseRing together with a
multiplication table on basis vectors and a distinguished unit vector.
Elements are plain coefficient tuples.  Nothing is assumed about the table:
the exhaustive validators of tables given by hand (validate_algebra,
validate_group) live with the file parsers in chaintrace.tables, because
only file inputs need them.

Constructors: group algebras R[G] of the finite groups of
chaintrace.groups, matrix algebras M_n(A), truncated polynomial rings
R[x]/x^n.  general_linear_group, GL_n(A) as the unit group of M_n(A), stays
here as the public entry point, but the enumeration and GeneralLinearData
live in chaintrace.general_linear, which it imports when it runs: only
``trace-homology`` enters them, so no other algebra job compiles them.

Linear maps between algebras (AlgebraHom, the embedding, the unit-first
change of basis) are SparseMaps.  A dense Matrix is built only where it is
eliminated: left multiplication, whose Smith form decides invertibility.
"""

from __future__ import annotations

import itertools

from .errors import ValidationError
from .linalg import Matrix, SparseMap, smith_normal_form, solve_membership
from .rings import BaseRing
from .values import Value

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .general_linear import GeneralLinearData
    from .groups import FiniteGroup
    from .validation import ValidationReport

__all__ = [
    "Algebra",
    "AlgebraHom",
    "NonUnitCertificate",
    "group_algebra",
    "group_algebra_hom",
    "matrix_algebra",
    "truncated_polynomial",
    "base_algebra",
    "general_linear_group",
    "unit_inverse",
    "unit_first_presentation",
]

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

    def normalize_vec(self, u) -> tuple:
        if len(u) != self.rank:
            raise ValueError(f"element has {len(u)} coefficients, algebra rank is {self.rank}")
        return tuple(self.ring.normalize(a) for a in u)

    def left_mult_matrix(self, u) -> Matrix:
        """Matrix of a -> u*a over the base ring; column j is u*e_j."""
        ring, r = self.ring, self.rank
        rows = [[ring.zero] * r for _ in range(r)]
        for i, a in enumerate(u):
            if ring.is_zero(a):
                continue
            for j, prod in enumerate(self.table[i]):
                for k, c in prod:
                    rows[k][j] = ring.add(rows[k][j], ring.mul(a, c))
        return Matrix._canonical(ring, rows, r)

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


class AlgebraHom(Value):
    """Base-linear map between algebras, expected to be unital multiplicative."""

    __slots__ = ("source", "target", "matrix", "name")
    _fields = __slots__

    def __init__(self, source: Algebra, target: Algebra, matrix: SparseMap, name: str = "") -> None:
        self.source = source
        self.target = target
        self.matrix = matrix  # target.rank x source.rank
        self.name = name

    def apply(self, u) -> tuple:
        return self.matrix.apply(self.source.normalize_vec(u))

    def validate(self) -> ValidationReport:
        from .validation import ValidationReport

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
        return AlgebraHom(inner.source, self.target, self.matrix.compose(inner.matrix))


def group_algebra(G: FiniteGroup, ring: BaseRing) -> Algebra:
    products = {(i, j): {G.table[i][j]: ring.one} for i in range(G.order) for j in range(G.order)}
    unit = [ring.one if i == G.identity else ring.zero for i in range(G.order)]
    return make_algebra(ring, G.names, unit, products, f"{ring}[{G.name or 'G'}]")


def group_algebra_hom(f: dict[int, int], G: FiniteGroup, H: FiniteGroup, ring: BaseRing) -> AlgebraHom:
    """Algebra map R[G] -> R[H] induced by a group homomorphism f."""
    source = group_algebra(G, ring)
    target = group_algebra(H, ring)
    cols = [{f[i]: ring.one} for i in range(G.order)]
    return AlgebraHom(source, target, SparseMap.from_col_dicts(ring, H.order, cols), name="group hom")


# -- standard constructions ------------------------------------------------


def base_algebra(ring: BaseRing) -> Algebra:
    """The base ring as a rank-1 algebra."""
    return make_algebra(ring, ("1",), (ring.one,), {(0, 0): {0: ring.one}}, str(ring))


def truncated_polynomial(ring: BaseRing, n: int) -> Algebra:
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
    return make_algebra(ring, names, unit, products, f"{ring}[x]/x^{n}")


def matrix_algebra(A: Algebra, n: int) -> Algebra:
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
    return make_algebra(ring, names, unit, products, f"M{n}({A.name or A.ring})")


def matrix_entries_to_vec(A: Algebra, n: int, entries) -> tuple:
    """Flatten an n x n matrix of A-elements to an M_n(A) coefficient vector."""
    out = []
    for i in range(n):
        for j in range(n):
            out.extend(A.normalize_vec(entries[i][j]))
    return tuple(out)


# -- GL_n over a finite base -------------------------------------------------


def general_linear_group(A: Algebra, n: int) -> GeneralLinearData:
    """GL_n(A), the units of M_n(A) over a finite base ring, as a finite
    group with the embedding R[GL_n(A)] -> M_n(A); see general_linear.unit_group, which
    this imports when it runs, so that only ``trace-homology`` compiles it.
    Refuses past ENUMERATION_CAP candidates and GROUP_ORDER_CAP units."""
    from .general_linear import unit_group

    return unit_group(A, n)


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


def unit_first_presentation(A: Algebra) -> tuple[Algebra, SparseMap, SparseMap]:
    """Isomorphic copy of A whose basis vector 0 is the unit.

    Returns (B, T, Tinv) with T invertible over the base ring, T e_0 = unit
    of A, and B the structure constants transported along T.  Needed to give
    normalized Hochschild complexes an honest basis.  Exists because the
    coefficients of the unit generate the unit ideal.

    Where some coefficient u_j of the unit u is a unit, j the first such,
    T e_0 = u and T e_i = e_s(i) for the transposition s of 0 and j.  Over
    a field or Z/p^k one always is.  Over Z only a unit such as (-3, 0, 4)
    has none, and T is U^-1 for the Smith form U u = e_0 of the column u.
    """
    ring, r = A.ring, A.rank
    u = A.unit
    if u == A.basis_vector(0):
        ident = SparseMap.identity(ring, r)
        return A, ident, ident
    j = next((i for i, c in enumerate(u) if ring.is_unit(c)), None)
    if j is None:
        dec = smith_normal_form(Matrix.from_cols(ring, [u], r), factors=("U", "Uinv"))
        if not ring.is_unit(dec.S.rows[0][0]):
            raise ValidationError("unit coefficients do not generate the unit ideal; not a unital algebra")
        t_cols = [dict(enumerate(dec.Uinv.col(i))) for i in range(r)]
        tinv_cols = [dict(enumerate(dec.U.col(i))) for i in range(r)]
    else:

        def s(i):
            return j if i == 0 else 0 if i == j else i

        # T^-1 e_j = c (e_0 - sum_{i != j} u_i e_s(i)) for c = u_j^-1
        c = ring.inv(u[j])
        t_cols = [dict(enumerate(u))] + [{s(i): ring.one} for i in range(1, r)]
        tinv_cols = [{s(i): ring.one} for i in range(r)]
        tinv_cols[j] = {s(i): ring.mul(ring.neg(c), x) for i, x in enumerate(u)} | {0: c}
    T = SparseMap.from_col_dicts(ring, r, t_cols)
    Tinv = SparseMap.from_col_dicts(ring, r, tinv_cols)
    basis = [T.apply(A.basis_vector(i)) for i in range(r)]
    products = {}
    for i in range(r):
        for j in range(r):
            w = Tinv.apply(A.mul_vec(basis[i], basis[j]))
            products[(i, j)] = {k: c for k, c in enumerate(w) if not ring.is_zero(c)}
    names = tuple("1" if i == 0 else f"b{i}" for i in range(r))
    unit = [ring.one] + [ring.zero] * (r - 1)
    B = make_algebra(ring, names, unit, products, name=f"{A.name or 'A'}~")
    return B, T, Tinv
