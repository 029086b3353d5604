"""Smith normal form, kernels, onto maps, and chain complex homology."""

import pytest

from chaintrace import chain, linalg
from chaintrace.algebra import base_algebra, group_algebra
from chaintrace.chain import ChainComplex, FPAbelianGroup, FPModule, homology, predicted_dense_cells
from chaintrace.errors import (
    CapExceededError,
    DegreeOutOfRangeError,
    InternalInvariantError,
    UnsupportedRingError,
    ValidationError,
)
from chaintrace.groups import cyclic_group
from chaintrace.hochschild import HochschildHomology
from chaintrace.linalg import (
    Matrix,
    SparseMap,
    is_onto,
    lift_with_modulus,
    smith_normal_form,
    symmetric_lift,
)
from chaintrace.rings import GF, QQ, ZZ, Zmod


def diag(dec):
    S = dec.S
    n = min(S.nrows, S.ncols)
    return [S.rows[i][i] for i in range(n) if not S.ring.is_zero(S.rows[i][i])]


def assert_decomposition(M):
    dec = smith_normal_form(M)
    assert dec.S.rows == dec.U.mul(M).mul(dec.V).rows
    assert dec.U.mul(dec.Uinv).rows == Matrix.identity(M.ring, M.nrows).rows
    assert dec.V.mul(dec.Vinv).rows == Matrix.identity(M.ring, M.ncols).rows
    d = diag(dec)
    for a, b in zip(d, d[1:]):
        assert M.ring.is_field or b % a == 0
    return dec


def test_snf_identity():
    M = Matrix.identity(ZZ, 3)
    dec = assert_decomposition(M)
    assert dec.S.rows == M.rows


def test_snf_frozen_integer_chain():
    M = Matrix(ZZ, [[2, 4], [6, 8]])
    dec = assert_decomposition(M)
    assert diag(dec) == [2, 4]


def test_snf_rectangular():
    M = Matrix(ZZ, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    dec = assert_decomposition(M)
    assert diag(dec) == [2, 2, 156]


def test_snf_over_field_counts_rank():
    M = Matrix(QQ, [[QQ.normalize(1), QQ.normalize(2)], [QQ.normalize(2), QQ.normalize(4)]])
    dec = assert_decomposition(M)
    assert diag(dec) == [QQ.one]
    M2 = Matrix(GF(2), [[1, 1], [1, 0]])
    assert diag(assert_decomposition(M2)) == [1, 1]


def test_snf_frozen_chain_after_refold():
    # the divisibility fix-up swaps a finished entry out of place; its sign
    # must still come out canonical
    M = Matrix(ZZ, [[0, 0, 3], [4, 0, 0], [0, 4, 0]])
    dec = assert_decomposition(M)
    assert diag(dec) == [1, 4, 12]
    d = SparseMap.from_col_dicts(ZZ, 3, [{1: 4}, {2: 4}, {0: 3}])
    assert d.to_matrix().rows == M.rows
    cx = ChainComplex(ZZ, (3, 3), {1: d})
    assert homology(cx, 0).group == FPAbelianGroup(0, (4, 12))


def test_snf_prime_power_modulus():
    # Smith runs over Z and fields only; over Z/4 the cokernel of M is read
    # off the integer lift [M | 4I], here (Z/2)^2
    M = Matrix(Zmod(4), [[2, 0], [0, 2]])
    with pytest.raises(
        UnsupportedRingError,
        match=r"^Smith normal form runs over Z and fields; over Z/4 eliminate lift_with_modulus\(M\) over Z$",
    ):
        smith_normal_form(M)
    dec = assert_decomposition(lift_with_modulus(M))
    assert diag(dec) == [2, 2]


def test_is_onto_over_z_fields_and_z_mod_m():
    assert is_onto(Matrix(ZZ, [[2, 3]]))
    assert not is_onto(Matrix(ZZ, [[2, 4]]))
    assert is_onto(Matrix(QQ, [[QQ.normalize(2), QQ.zero]]))
    # det 3 is a unit mod 4 and mod 8, not mod 6 or mod 9
    for m, onto in ((4, True), (8, True), (6, False), (9, False)):
        assert is_onto(Matrix(Zmod(m), [[1, 2], [0, 3]])) is onto, m
    assert not is_onto(Matrix(Zmod(4), [[2, 0], [0, 2]]))
    assert not is_onto(Matrix(Zmod(4), [[], []], 0))  # 0 -> (Z/4)^2
    assert is_onto(Matrix(Zmod(4), [], 3))  # (Z/4)^3 -> 0


def test_snf_rejects_composite_modulus():
    M = Matrix(Zmod(6), [[2]])
    with pytest.raises(UnsupportedRingError, match="over Z/6 eliminate lift_with_modulus"):
        smith_normal_form(M)


def test_snf_deterministic():
    M = Matrix(ZZ, [[3, 1, 4], [1, 5, 9], [2, 6, 5]])
    a = smith_normal_form(M)
    b = smith_normal_form(M)
    assert a.S.rows == b.S.rows
    assert a.U.rows == b.U.rows
    assert a.V.rows == b.V.rows


def test_lift_with_modulus_composite_modulus():
    # diag(2, 3) over Z/6 misses (1, 0); diag(5, 1) is onto
    M = Matrix(Zmod(6), [[2, 0], [0, 3]])
    assert lift_with_modulus(M).rows == [[2, 0, 6, 0], [0, 3, 0, 6]]
    assert not is_onto(M)
    assert is_onto(Matrix(Zmod(6), [[5, 0], [0, 1]]))


def test_residues_lift_to_symmetric_representatives():
    assert symmetric_lift(range(4), 4) == [0, 1, 2, -1]
    assert symmetric_lift(range(9), 9) == [0, 1, 2, 3, 4, -4, -3, -2, -1]
    assert lift_with_modulus(Matrix(Zmod(4), [[3, 2], [1, 0]])).rows == [[-1, 2, 4, 0], [1, 0, 0, 4]]


def test_sparse_map_roundtrip():
    cols = [{0: 1, 2: -1}, {}, {1: 5}]
    sm = SparseMap.from_col_dicts(ZZ, 3, cols)
    M = sm.to_matrix()
    assert M.rows == [[1, 0, 0], [0, 0, 5], [-1, 0, 0]]
    assert SparseMap.from_col_dicts(ZZ, 3, [dict(enumerate(M.col(j))) for j in range(3)]) == sm
    assert sm.apply((1, 1, 1)) == (1, 5, -1)


def test_homology_circle():
    cx = ChainComplex(ZZ, (1, 1, 0), {1: SparseMap.zero(ZZ, 1, 1)})
    assert homology(cx, 0).group == FPAbelianGroup(1)
    assert homology(cx, 1).group == FPAbelianGroup(1)


def test_homology_mod2_moore_space():
    cx = ChainComplex(ZZ, (1, 1, 0), {1: SparseMap.from_col_dicts(ZZ, 1, [{0: 2}])})
    assert homology(cx, 0).group == FPAbelianGroup(0, (2,))
    assert homology(cx, 1).group == FPAbelianGroup(0)


def test_homology_projective_plane():
    # cell structure: one cell in each degree, d2 = 2, d1 = 0
    cx = ChainComplex(
        ZZ,
        (1, 1, 1, 0),
        {1: SparseMap.zero(ZZ, 1, 1), 2: SparseMap.from_col_dicts(ZZ, 1, [{0: 2}])},
    )
    assert homology(cx, 0).group == FPAbelianGroup(1)
    assert homology(cx, 1).group == FPAbelianGroup(0, (2,))
    assert homology(cx, 2).group == FPAbelianGroup(0)


def test_homology_over_field_gives_module():
    cx = ChainComplex(
        GF(2),
        (1, 1, 1, 0),
        {1: SparseMap.zero(GF(2), 1, 1), 2: SparseMap.from_col_dicts(GF(2), 1, [{0: 0}])},
    )
    assert homology(cx, 1).group == FPModule(GF(2), 1)
    assert homology(cx, 2).group == FPModule(GF(2), 1)


def test_homology_class_arithmetic():
    cx = ChainComplex(
        ZZ,
        (1, 1, 1, 0),
        {1: SparseMap.zero(ZZ, 1, 1), 2: SparseMap.from_col_dicts(ZZ, 1, [{0: 2}])},
    )
    data = homology(cx, 1)
    gen = data.generators[0]
    assert data.coordinates(gen) == (1,)
    doubled = tuple(2 * c for c in gen)
    assert data.is_boundary(doubled)
    assert data.classes_equal(gen, tuple(3 * c for c in gen))


def test_coordinates_rejects_non_cycles():
    cx = ChainComplex(ZZ, (1, 2, 0), {1: SparseMap.from_col_dicts(ZZ, 1, [{0: 1}, {}])})
    data = homology(cx, 1)
    with pytest.raises(ValidationError):
        data.coordinates((1, 0))


@pytest.mark.parametrize(
    "ring, message",
    [
        (ZZ, "boundary column escaped the kernel lattice"),
        (Zmod(4), "relation escaped the mod-m kernel lattice"),
    ],
    ids=str,
)
def test_boundary_outside_the_kernel_is_an_internal_error(ring, message):
    # d_1 d_2 = 2: the constructor refuses this, so the fields are set
    # directly, as a faulty builder would leave them
    cx = ChainComplex.__new__(ChainComplex)
    cx.ring, cx.ranks = ring, (1, 1, 1)
    cx.differentials = {1: SparseMap.from_col_dicts(ring, 1, [{0: 2}]), 2: SparseMap.identity(ring, 1)}
    with pytest.raises(InternalInvariantError, match=message):
        homology(cx, 1)


def test_chain_complex_rejects_bad_composite():
    one = SparseMap.from_col_dicts(ZZ, 1, [{0: 1}])
    with pytest.raises(ValidationError):
        ChainComplex(ZZ, (1, 1, 1), {1: one, 2: one})


def test_homology_needs_next_degree():
    cx = ChainComplex(ZZ, (1, 1), {1: SparseMap.zero(ZZ, 1, 1)})
    with pytest.raises(DegreeOutOfRangeError):
        homology(cx, 1)


def _engine_cells(monkeypatch):
    """Record the dense cells of S and of the transforms built by every Smith elimination."""
    cells = []
    engine = linalg._smith_engine

    def counting_engine(ring, mat, factors):
        r, c = mat.nrows, mat.ncols
        side = {"U": r, "Uinv": r, "V": c, "Vinv": c}
        cells.append(r * c + sum(side[name] ** 2 for name in factors))
        return engine(ring, mat, factors)

    monkeypatch.setattr(linalg, "_smith_engine", counting_engine)
    return cells


@pytest.mark.parametrize("ring", (ZZ, QQ, GF(2), Zmod(4), Zmod(9)), ids=str)
def test_predicted_dense_cells_bound_the_eliminations(ring, monkeypatch):
    cx = HochschildHomology(group_algebra(cyclic_group(2), ring), 3).complex
    cells = _engine_cells(monkeypatch)
    for n in range(cx.top_degree):
        cells.clear()
        homology(cx, n)
        assert len(cells) == 2
        predicted = predicted_dense_cells(ring, cx.rank(n - 1), cx.rank(n), cx.rank(n + 1))
        assert sum(cells) <= predicted
        if n == 0:  # d_0 = 0, so the kernel is all of C_0 and the bound is met
            assert sum(cells) == predicted


def test_homology_refuses_past_the_dense_cell_cap_before_eliminating(monkeypatch):
    cx = HochschildHomology(base_algebra(GF(2)), 3).complex
    ranks = (cx.rank(0), cx.rank(1), cx.rank(2))
    predicted = predicted_dense_cells(GF(2), *ranks)
    cells = _engine_cells(monkeypatch)
    monkeypatch.setattr(chain, "DENSE_CELL_CAP", predicted - 1)
    with pytest.raises(CapExceededError, match=f"needs {predicted} dense cells.* above the cap {predicted - 1}"):
        homology(cx, 1)
    assert cells == []
    monkeypatch.setattr(chain, "DENSE_CELL_CAP", predicted)
    homology(cx, 1)
    assert len(cells) == 2
