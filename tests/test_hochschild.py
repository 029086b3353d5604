"""Cyclic bar construction, Hochschild homology, Connes B, cyclic homology.

The cyclic homology values are cross-checked against an independently built
Connes coinvariant complex: over Q the cyclic group Z/(q+1) acting on level
q by the signed cyclic operator splits the level into invariants plus the
image of (1 - t), homology of the invariant subcomplex with the averaged
boundary equals HC.  That path never touches the (b, B)-bicomplex code.
"""

from fractions import Fraction

import pytest

from chaintrace import hochschild
from chaintrace.algebra import (
    base_algebra,
    cyclic_group,
    group_algebra,
    group_algebra_hom,
    matrix_algebra,
    truncated_polynomial,
    unit_first_presentation,
)
from chaintrace.chain import ChainComplex, FPAbelianGroup, FPModule, homology, reduce_complex
from chaintrace.cli import algebra_from_selector
from chaintrace.errors import (
    CapExceededError,
    DegreeOutOfRangeError,
    InternalInvariantError,
    UnsupportedRingError,
)
from chaintrace.hochschild import (
    B_CONVENTION,
    HochschildHomology,
    NormalizedComplex,
    cyclic_bar,
    cyclic_homology,
    cyclic_total_complex,
    hochschild_homology,
    induced_chain_map,
    table_grading,
    tensor_power_map,
    tuple_index,
)
from chaintrace.linalg import Matrix, SparseMap, smith_normal_form, solve_membership
from chaintrace.rings import GF, QQ, ZZ, Zmod
from chaintrace.selftest import validate_cyclic_module
from chaintrace.trace import GroupHomology


def test_cyclic_bar_levels_and_identities():
    A = group_algebra(cyclic_group(2), ZZ)
    cm = cyclic_bar(A, 1)
    assert cm.max_level == 2
    assert [cm.level_rank(q) for q in range(3)] == [2, 4, 8]
    assert validate_cyclic_module(cm).ok


def test_cyclic_identities_on_matrix_algebra():
    M = matrix_algebra(base_algebra(GF(2)), 2)
    assert validate_cyclic_module(cyclic_bar(M, 1)).ok


def test_cyclic_bar_cap():
    A = group_algebra(cyclic_group(12), ZZ)
    with pytest.raises(CapExceededError):
        cyclic_bar(A, 4)


def test_cyclic_bar_cap_bounds_the_normalized_level():
    # HH_11 eliminates normalized levels of rank 3*2^q (12288 at q = 12),
    # far inside the cap, although the full level 12 has 3^13 tuples
    A = group_algebra(cyclic_group(3), ZZ)
    work = HochschildHomology(A, 11)
    assert work.group(11) == FPAbelianGroup(0, (3, 3, 3))
    # the coordinate paths build full levels, and 3^12 is over the cap
    with pytest.raises(CapExceededError):
        work.to_normalized(11)
    with pytest.raises(CapExceededError):
        work.from_normalized(11)
    with pytest.raises(CapExceededError):
        work.cyclic_module.face(12, 0)
    assert work.to_normalized(2).ncols == 3**3


def test_b_convention_is_pinned():
    assert B_CONVENTION == (
        "B = (1 - (-1)^q t) s_e N on the normalized complex; "
        "b = sum (-1)^i d_i; d_q merges last onto first"
    )


def test_boundary_squares_to_zero():
    # the chain complex constructor rejects any nonzero composite
    A = truncated_polynomial(GF(2), 2)
    cm = cyclic_bar(A, 2)
    ranks = [cm.level_rank(q) for q in range(cm.max_level + 1)]
    diffs = {q: cm.boundary(q) for q in range(1, cm.max_level + 1)}
    cx = ChainComplex(cm.ring, ranks, diffs)
    assert cx.top_degree == 3


def test_connes_b_identities():
    for A in (group_algebra(cyclic_group(2), QQ), truncated_polynomial(GF(2), 2)):
        norm = HochschildHomology(A, 2).normalized
        for q in range(2):
            bb = norm.connes_b(q + 1).compose(norm.connes_b(q))
            assert bb.is_zero_map()
        for q in range(1, 3):
            anti = norm.boundary(q + 1).compose(norm.connes_b(q)).add(
                norm.connes_b(q - 1).compose(norm.boundary(q))
            )
            assert anti.is_zero_map()


@pytest.mark.parametrize(
    "sel", ["Z[C3]", "GF:2[x]/x^2", "M2(GF:2)", "Zmod:4[C2]", "Q[C3]", "Z[x]/x^3"]
)
def test_normalized_operators_match_full_level_composites(sel):
    # oracle: projection . operator . inclusion through the full levels, with
    # b summed from the faces and B = (1 - t_s) s_e N built here as pinned in
    # B_CONVENTION
    A, _, _ = unit_first_presentation(algebra_from_selector(sel))
    ring = A.ring
    cm = cyclic_bar(A, 2)
    norm = NormalizedComplex(cm)
    for q in range(1, 4):
        b = cm.face(q, 0)
        for i in range(1, q + 1):
            b = b.add(cm.face(q, i).neg() if i % 2 else cm.face(q, i))
        assert norm.boundary(q) == norm.projection(q - 1).compose(b).compose(norm.inclusion(q))
    for q in range(3):
        ts = cm.signed_cyclic(q)
        n = power = SparseMap.identity(ring, cm.level_rank(q))
        for _ in range(q):
            power = ts.compose(power)
            n = n.add(power)
        se = SparseMap.from_col_dicts(
            ring,
            cm.level_rank(q + 1),
            [
                {tuple_index(A.rank, (k,) + tup): c for k, c in enumerate(A.unit) if c != 0}
                for tup in cm.tuples(q)
            ],
        )
        one_minus_ts = SparseMap.identity(ring, cm.level_rank(q + 1)).sub(cm.signed_cyclic(q + 1))
        full = one_minus_ts.compose(se).compose(n)
        assert norm.connes_b(q) == norm.projection(q + 1).compose(full).compose(norm.inclusion(q))
    with pytest.raises(DegreeOutOfRangeError):
        norm.boundary(cm.max_level + 1)
    with pytest.raises(DegreeOutOfRangeError):
        norm.connes_b(cm.max_level)


def test_hh_frozen_tables():
    cases = {
        "Z": (base_algebra(ZZ), ["Z", "0", "0", "0"]),
        "Q": (base_algebra(QQ), ["Q", "0", "0", "0"]),
        "F2": (base_algebra(GF(2)), ["GF(2)", "0", "0", "0"]),
        "Z[C2]": (
            group_algebra(cyclic_group(2), ZZ),
            ["Z^2", "Z/2 x Z/2", "0", "Z/2 x Z/2"],
        ),
        "Q[C2]": (group_algebra(cyclic_group(2), QQ), ["Q^2", "0", "0", "0"]),
        "F2[x]/x^2": (
            truncated_polynomial(GF(2), 2),
            ["GF(2)^2", "GF(2)^2", "GF(2)^2", "GF(2)^2"],
        ),
    }
    for label, (A, expected) in cases.items():
        work = HochschildHomology(A, 3)
        got = [str(work.group(d)) for d in range(4)]
        assert got == expected, label


def test_hh_matrix_algebra_matches_base():
    A = base_algebra(GF(2))
    M = matrix_algebra(A, 2)
    for d in range(3):
        assert hochschild_homology(M, d) == hochschild_homology(A, d)


def direct_power(group, m):
    """The direct sum of m copies of a group, in canonical form."""
    if isinstance(group, FPModule):
        return FPModule(group.field, m * group.dimension)
    return FPAbelianGroup(m * group.free_rank, tuple(sorted(group.invariant_factors * m)))


@pytest.mark.parametrize("ring", [ZZ, GF(5), Zmod(4)], ids=str)
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_hh_burghelea_splitting_of_cyclic_group_algebras(ring, m):
    # Burghelea (Comment. Math. Helv. 1985): for abelian G the conjugacy
    # classes are the elements, each with centralizer G, so
    # HH_n(R[C_m]) = H_n(C_m; R)^m
    G = cyclic_group(m)
    work = HochschildHomology(group_algebra(G, ring), 4)
    oracle = GroupHomology(G, ring, 4)
    for n in range(5):
        assert work.group(n) == direct_power(oracle.group_at(n), m), n


@pytest.mark.parametrize("ring", [ZZ, GF(5), Zmod(4)], ids=str)
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_hh_weight_blocks_are_burghelea_summands(ring, m):
    # the weight of a tuple (g_0, ..., g_q) is the product g_0...g_q, and
    # the block of weight g is Burghelea's summand H_*(C_G(g); R), which is
    # H_*(C_m; R) for every g
    G = cyclic_group(m)
    work = HochschildHomology(group_algebra(G, ring), 3)
    oracle = [GroupHomology(G, ring, 3).group_at(n) for n in range(4)]
    weights = []
    for weight, block in work.normalized.weight_blocks():
        weights.append(weight)
        core = reduce_complex(block.chain_complex(4))
        assert [homology(core, n).group for n in range(4)] == oracle, weight
    assert weights == [(g,) for g in range(m)]


@pytest.mark.parametrize(
    "sel, grading",
    [
        ("Z[C2]", ((2,), ((0,), (1,)))),
        ("Z[C5]", ((5,), ((0,), (1,), (2,), (3,), (4,)))),
        ("Z[C6]", ((6,), tuple((g,) for g in range(6)))),
        ("Z[x]/x^2", ((0,), ((0,), (1,)))),
        ("GF:3[x]/x^3", ((0,), ((0,), (1,), (2,)))),
        ("M2(GF:2)", ((0,), ((0,), (-1,), (1,), (0,)))),
        ("Z", ((), ((),))),
    ],
)
def test_table_grading(sel, grading):
    # Z[C_n] is graded by Z/n, R[x]/x^n by Z, and M_2 (after the unit-first
    # rebasing) by Z with two basis vectors of weights -1 and 1; Z is ungraded
    A = unit_first_presentation(algebra_from_selector(sel, None))[0]
    assert table_grading(A) == grading
    moduli, weights = grading
    for i, row in enumerate(A.table):
        for j, product in enumerate(row):
            for k, _ in product:
                total = [a + b for a, b in zip(weights[i], weights[j])]
                assert [(t - w) % d if d else t - w for t, w, d in zip(total, weights[k], moduli)] == [0] * len(moduli)
    # the blocks come in sorted weight order and partition each level,
    # keeping its order
    blocks = list(HochschildHomology(A, 1).normalized.weight_blocks())
    assert [w for w, _ in blocks] == sorted({w for w, _ in blocks})
    assert len(blocks) == 1 or moduli
    full = NormalizedComplex(cyclic_bar(A, 1))
    for q in range(3):
        position = {t: i for i, t in enumerate(full.level_tuples(q))}
        rows = [[position[t] for t in b.level_tuples(q)] for _, b in blocks]
        assert all(r == sorted(r) for r in rows)
        assert sorted(sum(rows, [])) == list(range(len(position)))


def test_weight_block_guard_raises_on_a_face_leaving_its_block(monkeypatch):
    # g1 g2 = g0, so under the tampered weights (0, 1, 1) the face of
    # (g1, g2) lands on the non-degenerate tuple (g0,) of another block
    monkeypatch.setattr(hochschild, "table_grading", lambda A: ((3,), ((0,), (1,), (1,))))
    with pytest.raises(InternalInvariantError, match="left its weight block"):
        HochschildHomology(group_algebra(cyclic_group(3), ZZ), 1).group(0)
    with pytest.raises(InternalInvariantError, match="left its weight block"):
        cyclic_homology(group_algebra(cyclic_group(3), QQ), 1)


@pytest.mark.parametrize("ring", [QQ, GF(5), ZZ], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_hh_truncated_polynomial_closed_form(n, ring):
    # the 2-periodic resolution of A = R[x]/x^n gives HH_0 = A,
    # HH_(2i-1) = A/(n x^(n-1)) and HH_(2i) = Ann_A(n x^(n-1)) for i >= 1
    work = HochschildHomology(truncated_polynomial(ring, n), 4)
    for m in range(5):
        if ring == ZZ:
            expected = FPAbelianGroup(n if m == 0 else n - 1, (n,) if m % 2 else ())
        else:
            expected = FPModule(ring, n if m == 0 else n - 1)
        assert work.group(m) == expected, m


def test_hh_truncated_polynomial_in_dividing_characteristic():
    # n x^(n-1) = 0 when the characteristic divides n: both quotient and
    # annihilator are all of A
    work = HochschildHomology(truncated_polynomial(GF(3), 3), 4)
    assert [work.group(m) for m in range(5)] == [FPModule(GF(3), 3)] * 5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hc_truncated_polynomial_closed_form(n):
    # over Q: HC_even = Q^n and HC_odd = 0; the B of this total complex is
    # the direct one, on an algebra with nilpotents
    core = reduce_complex(cyclic_total_complex(truncated_polynomial(QQ, n), 4))
    got = [homology(core, m).group for m in range(5)]
    assert got == [FPModule(QQ, 0 if m % 2 else n) for m in range(5)]


def test_hh_class_coordinates_roundtrip():
    A = truncated_polynomial(GF(2), 2)
    work = HochschildHomology(A, 1)
    data = work.generators(1)
    for gen in data:
        coords = work.coordinates(1, gen)
        assert any(c != 0 for c in coords)


def test_induced_chain_map_is_chain_map():
    G4, G2 = cyclic_group(4), cyclic_group(2)
    f = group_algebra_hom({0: 0, 1: 1, 2: 0, 3: 1}, G4, G2, ZZ)
    src = cyclic_bar(f.source, 2)
    dst = cyclic_bar(f.target, 2)
    for q in (1, 2):
        lhs = dst.boundary(q).compose(induced_chain_map(f, q))
        rhs = induced_chain_map(f, q - 1).compose(src.boundary(q))
        assert lhs.sub(rhs).is_zero_map()


def test_tensor_power_indexing_is_big_endian():
    f = SparseMap.from_col_dicts(ZZ, 2, [{1: 1}, {0: 1}])  # swap basis of rank 2
    sq = tensor_power_map(f, 2)
    # basis element 0 = (0, 0) -> (1, 1) = index 3
    assert sq.apply((1, 0, 0, 0)) == (0, 0, 0, 1)
    # basis element 1 = (0, 1) -> (1, 0) = index 2
    assert sq.apply((0, 1, 0, 0)) == (0, 0, 1, 0)


def connes_lambda_complex(A, N):
    """Invariant-subcomplex model of the Connes coinvariant complex over Q."""
    assert A.ring.kind == "Q"
    cm = cyclic_bar(A, N)
    bases = []
    for q in range(N + 2):
        r = cm.level_rank(q)
        t = cm.signed_cyclic(q)
        one_minus_t = SparseMap.identity(QQ, r).sub(t)
        kernel = smith_normal_form(one_minus_t.to_matrix(), factors=("V",))
        inv = [kernel.V.col(j) for j in range(kernel.rank, r)]
        avg = SparseMap.zero(QQ, r, r)
        power = SparseMap.identity(QQ, r)
        for _ in range(q + 1):
            avg = avg.add(power)
            power = power.compose(t)
        avg = avg.scale(Fraction(1, q + 1))
        bases.append((inv, avg))
    ranks = [len(bases[q][0]) for q in range(N + 2)]
    diffs = {}
    for q in range(1, N + 2):
        inv_q, _ = bases[q]
        inv_p, avg_p = bases[q - 1]
        basis_mat = Matrix.from_cols(QQ, list(inv_p), cm.level_rank(q - 1))
        cols = []
        for v in inv_q:
            w = avg_p.apply(cm.boundary(q).apply(v))
            res = solve_membership(basis_mat, w)
            assert res.found
            cols.append({i: c for i, c in enumerate(res.witness) if c != 0})
        diffs[q] = SparseMap.from_col_dicts(QQ, len(inv_p), cols)
    return ChainComplex(QQ, ranks, diffs)


def test_cyclic_homology_frozen_and_oracle():
    A = base_algebra(QQ)
    got = [str(cyclic_homology(A, n)) for n in range(7)]
    assert got == ["Q", "0", "Q", "0", "Q", "0", "Q"]
    oracle = connes_lambda_complex(A, 4)
    for n in range(4):
        assert homology(oracle, n).group == cyclic_homology(A, n)


def test_cyclic_homology_group_algebra_oracle():
    A = group_algebra(cyclic_group(2), QQ)
    got = [str(cyclic_homology(A, n)) for n in range(5)]
    assert got == ["Q^2", "0", "Q^2", "0", "Q^2"]
    tot = cyclic_total_complex(A, 4)
    assert [str(homology(tot, n).group) for n in range(5)] == got
    oracle = connes_lambda_complex(A, 3)
    for n in range(3):
        assert homology(oracle, n).group == cyclic_homology(A, n)


def test_cyclic_homology_matrix_algebra_morita():
    M = matrix_algebra(base_algebra(QQ), 2)
    for n in range(3):
        assert cyclic_homology(M, n) == cyclic_homology(base_algebra(QQ), n)


def test_cyclic_homology_requires_q():
    with pytest.raises(UnsupportedRingError):
        cyclic_homology(base_algebra(ZZ), 0)
