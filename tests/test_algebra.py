"""Structure-constant algebras, finite groups, GL_n, and units."""

import pytest

from chaintrace.algebra import (
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
from chaintrace.errors import ValidationError
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
    from chaintrace.linalg import SparseMap

    reduced, T, Tinv = unit_first_presentation(A)
    assert reduced.unit == (1, 0, 0)
    assert T.compose(Tinv) == SparseMap.identity(ZZ, 3)
    assert validate_algebra(reduced).ok
