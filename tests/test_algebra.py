"""Structure-constant algebras, finite groups, GL_n, and units."""

import hashlib

import pytest

from chaintrace import algebra
from chaintrace.algebra import (
    Algebra,
    NonUnitCertificate,
    base_algebra,
    cyclic_group,
    general_linear_group,
    group_algebra,
    group_algebra_hom,
    make_algebra,
    matrix_algebra,
    matrix_entries_to_vec,
    trivial_group,
    truncated_polynomial,
    unit_first_presentation,
    unit_inverse,
)
from chaintrace.errors import CapExceededError, UnsupportedRingError, ValidationError
from chaintrace.linalg import SparseMap
from chaintrace.rings import GF, QQ, ZZ, Zmod
from chaintrace.tables import validate_algebra, validate_group


def test_base_algebra_is_valid():
    for ring in (ZZ, QQ, GF(2), Zmod(4)):
        A = base_algebra(ring)
        assert A.rank == 1
        assert validate_algebra(A).ok


def test_group_algebra_structure():
    A = group_algebra(cyclic_group(2), ZZ)
    assert A.rank == 2
    assert A.unit == (1, 0)
    g = (0, 1)
    assert A.mul_vec(g, g) == (1, 0)
    assert validate_algebra(A).ok


def test_unit_failure_is_reported():
    # e1*e1 = e2 and e2 absorbed to zero cannot have e1 as a unit
    A = make_algebra(ZZ, ("a", "b"), (1, 0), {(0, 0): {1: 1}})
    report = validate_algebra(A)
    assert not report.ok
    assert any("unit fails" in msg for msg in report.issues)


def test_associativity_failure_names_triple():
    # (a*a)*a = b*a = a while a*(a*a) = a*b = e
    products = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (0, 2): {2: 1},
        (1, 0): {1: 1},
        (2, 0): {2: 1},
        (1, 1): {2: 1},
        (1, 2): {0: 1},
        (2, 1): {1: 1},
    }
    B = make_algebra(ZZ, ("e", "a", "b"), (1, 0, 0), products)
    report = validate_algebra(B)
    assert not report.ok
    assert any("associativity fails on (a, a, a)" in msg for msg in report.issues)


def test_truncated_polynomial():
    A = truncated_polynomial(GF(2), 2)
    assert A.rank == 2
    x = (0, 1)
    assert A.mul_vec(x, x) == (0, 0)
    assert validate_algebra(A).ok


def test_matrix_algebra_products():
    A = matrix_algebra(base_algebra(GF(2)), 2)
    assert A.basis_names == ("E[0,0]", "E[0,1]", "E[1,0]", "E[1,1]")
    e01 = A.basis_vector(1)
    e10 = A.basis_vector(2)
    assert A.mul_vec(e01, e10) == (1, 0, 0, 0)
    assert A.mul_vec(e10, e01) == (0, 0, 0, 1)
    assert A.mul_vec(e01, e01) == (0, 0, 0, 0)
    assert validate_algebra(A).ok


def test_iterated_matrix_algebra_is_valid():
    A = matrix_algebra(matrix_algebra(base_algebra(GF(2)), 2), 2)
    assert A.rank == 16
    assert validate_algebra(A).ok


def test_matrix_entry_roundtrip():
    # the basis of M_n(A) is ordered (i, j, t), so entry (i, j) is the slice
    # of r coefficients starting at (i n + j) r
    A = group_algebra(cyclic_group(2), ZZ)
    entries = (((1, 0), (0, 2)), ((3, 0), (0, 4)))
    vec = matrix_entries_to_vec(A, 2, entries)
    assert tuple(tuple(vec[(i * 2 + j) * 2 : (i * 2 + j) * 2 + 2] for j in range(2)) for i in range(2)) == entries


def test_cyclic_group_table():
    G = cyclic_group(4)
    assert G.order == 4
    assert G.identity == 0
    assert G.multiply(1, 3) == 0
    assert G.inverse(1) == 3
    assert validate_group(G).ok
    assert validate_group(trivial_group()).ok


def test_group_validator_names_bad_triple():
    from chaintrace.algebra import FiniteGroup

    # left translations are bijections but (1*1)*2 != 1*(1*2)
    table = (
        (0, 1, 2),
        (1, 2, 0),
        (2, 1, 0),
    )
    G = FiniteGroup(table=table, identity=0, names=("e", "a", "b"), name="bad")
    report = validate_group(G)
    assert not report.ok
    assert any("associativity" in msg or "(" in msg for msg in report.issues)


def test_group_algebra_hom_quotient():
    G4, G2 = cyclic_group(4), cyclic_group(2)
    f = group_algebra_hom({0: 0, 1: 1, 2: 0, 3: 1}, G4, G2, ZZ)
    assert f.validate().ok
    image = f.apply((0, 1, 0, 0))
    assert image == (0, 1)


def test_general_linear_group_orders():
    A = base_algebra(GF(2))
    gl2 = general_linear_group(A, 2)
    assert gl2.group.order == 6
    assert validate_group(gl2.group).ok
    assert gl2.embedding.validate().ok
    dual = truncated_polynomial(GF(2), 2)
    gl1 = general_linear_group(dual, 1)
    assert gl1.group.order == 2


@pytest.mark.parametrize(
    "make, n, order, digest",
    [
        pytest.param(lambda: base_algebra(GF(2)), 2, 6, "fe20aa68bc39ede5", id="GF(2)-n2"),
        pytest.param(lambda: base_algebra(GF(3)), 2, 48, "68d41c7ba8eefac4", id="GF(3)-n2"),
        pytest.param(lambda: base_algebra(Zmod(4)), 2, 96, "75756666175a7538", id="Z/4-n2"),
        pytest.param(lambda: base_algebra(Zmod(8)), 1, 4, "03d97d28cb9a89a5", id="Z/8-n1"),
        pytest.param(lambda: group_algebra(cyclic_group(2), GF(2)), 2, 96, "08660a06422de2bc", id="GF(2)[C2]-n2"),
        pytest.param(lambda: truncated_polynomial(GF(2), 2), 2, 96, "5277dec3f1563dab", id="GF(2)[x]/x^2-n2"),
        # noncommutative A; the same vectors as GF(2) with n = 2
        pytest.param(lambda: matrix_algebra(base_algebra(GF(2)), 2), 1, 6, "fe20aa68bc39ede5", id="M2(GF(2))-n1"),
    ],
)
def test_general_linear_group_is_pinned(monkeypatch, make, n, order, digest):
    # the digests were recorded when GL_n(A) was enumerated as nested n x n
    # tuples of A-vectors, tested on A^n and multiplied entry by entry, and
    # when the order cap was checked after the table, by the Dennis trace
    monkeypatch.setattr(algebra, "GROUP_ORDER_CAP", order)
    gl = general_linear_group(make(), n)
    key = (gl.group.table, gl.group.identity, gl.embedding.matrix.cols)
    assert gl.group.order == order
    assert hashlib.sha256(repr(key).encode()).hexdigest()[:16] == digest


def test_general_linear_group_refuses_at_the_first_unit_past_the_order_cap(monkeypatch):
    # GL_2(GF(2)) has 6 elements, so a cap of 5 refuses at the sixth unit
    monkeypatch.setattr(algebra, "GROUP_ORDER_CAP", 6)
    assert general_linear_group(base_algebra(GF(2)), 2).group.order == 6
    monkeypatch.setattr(algebra, "GROUP_ORDER_CAP", 5)
    products = []
    monkeypatch.setattr(Algebra, "mul_vec", lambda self, u, v: products.append((u, v)))
    with pytest.raises(CapExceededError, match=r"^\|GL_2\| > 5, above the group order cap 5$"):
        general_linear_group(base_algebra(GF(2)), 2)
    assert products == []  # no product of the group table was taken


def test_general_linear_group_skips_candidates_with_a_zero_row(monkeypatch):
    # of the 16 matrices over GF(2), 7 have a zero row; the other 9 are
    # tested and 6 of them are units
    tested = []
    onto = algebra.is_onto
    monkeypatch.setattr(algebra, "is_onto", lambda M: tested.append(M) or onto(M))
    assert general_linear_group(base_algebra(GF(2)), 2).group.order == 6
    assert len(tested) == 9


def test_unit_inverse_dual_numbers():
    A = truncated_polynomial(GF(2), 2)
    inv = unit_inverse(A, (1, 1))
    assert inv == (1, 1)
    cert = unit_inverse(A, (0, 1))
    assert isinstance(cert, NonUnitCertificate)
    assert cert.reason


def test_unit_inverse_group_algebra():
    A = group_algebra(cyclic_group(2), ZZ)
    assert unit_inverse(A, (0, 1)) == (0, 1)
    assert unit_inverse(A, (-1, 0)) == (-1, 0)
    assert isinstance(unit_inverse(A, (1, 1)), NonUnitCertificate)
    B = group_algebra(cyclic_group(2), QQ)
    u = B.normalize_vec((2, 1))
    inv = unit_inverse(B, u)
    assert B.mul_vec(u, inv) == B.unit
    assert B.mul_vec(inv, u) == B.unit
    assert isinstance(unit_inverse(B, B.normalize_vec((1, 1))), NonUnitCertificate)


def test_unit_first_presentation():
    G = cyclic_group(3)
    A = group_algebra(G, ZZ)
    reduced, T, Tinv = unit_first_presentation(A)
    assert reduced.unit == (1, 0, 0)
    assert T.compose(Tinv) == SparseMap.identity(ZZ, 3)
    assert validate_algebra(reduced).ok


# Basis changes of R[C3] as pairs (M, Minv) of integer matrices, unimodular
# over Z: the new basis is f_i = M e_i, and the unit, e_0, has coordinates
# Minv e_0 in it.
# Minv swaps rows 0 and 2, adds 2 and 3 times row 2 to rows 0 and 1, and
# negates row 2.  Its first column (2, 3, -1) has its first unit at index 2
# over Z, 1 over GF(2) and Z/2^k, and 0 over Q, GF(3), GF(5) and Z/3^k.
SHUFFLE = ([[0, 0, -1], [0, 1, 3], [1, 0, 2]], [[2, 0, 1], [3, 1, 0], [-1, 0, 0]])
# first column (-3, 0, 4): a unit of Z^3 with no coefficient +-1
NO_PLUS_MINUS_ONE = ([[1, 0, 1], [0, 1, 0], [-4, 0, -3]], [[-3, 0, -1], [0, 1, 0], [4, 0, 1]])
# first column (2, 3, 0): no coefficient is a unit mod 6
NO_UNIT_MOD_6 = ([[2, -1, 0], [-3, 2, 0], [0, 0, 1]], [[2, 1, 0], [3, 2, 0], [0, 0, 1]])


def moved_unit(ring, change):
    """R[C3] in the basis f_i = M e_i, with structure constants transported."""
    A = group_algebra(cyclic_group(3), ring)
    M, Minv = (
        SparseMap.from_col_dicts(ring, 3, [{i: ring.normalize(row[j]) for i, row in enumerate(X)} for j in range(3)])
        for X in change
    )
    assert Minv.compose(M) == SparseMap.identity(ring, 3)
    basis = [M.apply(A.basis_vector(i)) for i in range(3)]
    products = {(i, j): dict(enumerate(Minv.apply(A.mul_vec(basis[i], basis[j])))) for i in range(3) for j in range(3)}
    return make_algebra(ring, ("f0", "f1", "f2"), Minv.apply(A.unit), products, name="moved")


def transform_digest(T, Tinv) -> str:
    """Digest of both transforms, entry types included (Fraction over Q)."""
    return hashlib.sha256(repr((T.cols, Tinv.cols)).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "ring, change, digest",
    [
        pytest.param(ZZ, SHUFFLE, "7924d82ddf1f45f5", id="Z"),
        pytest.param(QQ, SHUFFLE, "ad591e913e7addfb", id="Q"),
        pytest.param(GF(2), SHUFFLE, "4c01e4dc1b2d5ad4", id="GF(2)"),
        pytest.param(GF(3), SHUFFLE, "be43e382125a8455", id="GF(3)"),
        pytest.param(GF(5), SHUFFLE, "ca3145d13f1144f1", id="GF(5)"),
        pytest.param(Zmod(4), SHUFFLE, "cab79fd4ff0dbb1f", id="Z/4"),
        pytest.param(Zmod(8), SHUFFLE, "9a176c44408bc54b", id="Z/8"),
        pytest.param(Zmod(9), SHUFFLE, "dce5cb7aed21bd64", id="Z/9"),
        pytest.param(Zmod(27), SHUFFLE, "20faff5f2335d21e", id="Z/27"),
        pytest.param(ZZ, NO_PLUS_MINUS_ONE, "cad88cb742b920a5", id="Z-no-plus-minus-one"),
    ],
)
def test_unit_first_presentation_transforms_are_pinned(ring, change, digest):
    # the digests were recorded when every unit column went through Smith
    # elimination, before a unit coefficient gave the transform directly
    A = moved_unit(ring, change)
    reduced, T, Tinv = unit_first_presentation(A)
    assert T.apply(reduced.unit) == A.unit
    assert T.compose(Tinv) == SparseMap.identity(ring, 3)
    assert validate_algebra(reduced).ok
    assert transform_digest(T, Tinv) == digest


def test_unit_first_presentation_refuses_without_a_unit_coefficient_mod_6():
    with pytest.raises(UnsupportedRingError):
        unit_first_presentation(moved_unit(Zmod(6), NO_UNIT_MOD_6))
