"""Tests for the S-construction: grids, iteration, the diagonal, and K_0."""

import pytest

from chaintrace.errors import CapExceededError
from chaintrace.waldhausen import (
    SCategory,
    grothendieck_k0,
    k0_presentation,
    k0_retract_holds,
    k0_via_sdot,
    reindex_s_object,
    s_k_objects,
    validate_s_object,
    ws_diagonal,
)
from chaintrace.wcat import (
    finite_modules,
    pointed_sets,
    trivial_category,
    validate_waldhausen,
    vect_gf,
)


def groups_equal(g, h):
    return g.free_rank == h.free_rank and g.invariant_factors == h.invariant_factors


def test_s_k_object_counts():
    v22 = vect_gf(2, 2)
    assert [len(s_k_objects(v22, k)) for k in range(3)] == [1, 3, 18]
    assert [len(s_k_objects(vect_gf(2, 1), k)) for k in range(3)] == [1, 2, 3]
    assert [len(s_k_objects(pointed_sets(2), k)) for k in range(3)] == [1, 3, 9]
    assert len(s_k_objects(finite_modules(2, 4), 2)) == 23


def test_s_1_is_the_object_set():
    for C in (vect_gf(2, 2), pointed_sets(2), finite_modules(2, 4)):
        assert len(s_k_objects(C, 1)) == C.object_count()


def test_s_objects_validate():
    v22 = vect_gf(2, 2)
    for obj in s_k_objects(v22, 2):
        report = validate_s_object(v22, obj)
        assert report.ok
        # Every grid starts at the zero object.
        assert obj.entry(0, 0) == v22.zero_index()


def test_s_3_grids_validate_and_restrict_to_s_2():
    # every triple of a grid on [3] x [3] is a pushout square, and each
    # coface restriction lands on an enumerated grid on [2] x [2]
    for C in (vect_gf(2, 1), pointed_sets(2), vect_gf(2, 2), finite_modules(2, 4)):
        for obj in s_k_objects(C, 3):
            assert validate_s_object(C, obj).ok
        S3, S2 = SCategory(C, 3), SCategory(C, 2)
        for a in range(S3.object_count()):
            for i in range(4):
                reindex_s_object(S3, S2, tuple(t for t in range(4) if t != i), a)


def test_k_cap():
    with pytest.raises(CapExceededError):
        s_k_objects(vect_gf(2, 2), 4)


def test_s_category_is_again_waldhausen():
    S1 = SCategory(vect_gf(2, 1), 1)
    assert S1.object_count() == 2
    assert validate_waldhausen(S1).ok
    S2 = SCategory(pointed_sets(1), 2)
    assert S2.object_count() == 3
    assert validate_waldhausen(S2).ok


def test_s_construction_iterates():
    S2 = SCategory(vect_gf(2, 2), 2)
    assert S2.object_count() == 18
    assert len(s_k_objects(S2, 2)) == 950


def test_reindex_round_trip():
    v22 = vect_gf(2, 2)
    S1 = SCategory(v22, 1)
    S2 = SCategory(v22, 2)
    for a in range(S1.object_count()):
        # Degenerate along s_0, then restrict back along the section.
        s = reindex_s_object(S1, S2, (0, 0, 1), a)
        assert reindex_s_object(S2, S1, (0, 2), s) == a
    for a in range(S2.object_count()):
        # The (0, 1) face keeps the top-left entry of the staircase.
        b = reindex_s_object(S2, S1, (0, 1), a)
        assert S1.s_object(b).entry(0, 1) == S2.s_object(a).entry(0, 1)


def test_ws_diagonal_levels_and_identities():
    ps = ws_diagonal(vect_gf(2, 2), 2)
    assert [len(level) for level in ps.levels] == [1, 8, 15663]
    report = ps.validate()
    assert report.ok
    assert report.checks_run == 47048


def test_ws_diagonal_trivial():
    ps = ws_diagonal(trivial_category(), 2)
    assert [len(level) for level in ps.levels] == [1, 1, 1]
    assert ps.validate().ok


def test_ws_diagonal_string_cap():
    with pytest.raises(CapExceededError):
        ws_diagonal(vect_gf(2, 2), 2, string_cap=100)


@pytest.mark.parametrize(
    "make, rank",
    [
        (trivial_category, 0),
        (lambda: vect_gf(2, 1), 1),
        (lambda: vect_gf(2, 2), 1),
        (lambda: pointed_sets(2), 1),
        (lambda: finite_modules(2, 4), 1),
    ],
)
def test_k0_methods_agree(make, rank):
    C = make()
    direct = grothendieck_k0(C)
    simplicial = k0_via_sdot(C)
    assert groups_equal(direct, simplicial)
    assert direct.free_rank == rank
    assert direct.invariant_factors == ()


def classify(pres, label):
    C = pres.category
    by_label = {C.object_label(a): a for a in range(C.object_count())}
    return pres.homology.coordinates(pres.class_vector(by_label[label]))


def test_k0_class_vectors_vect():
    pres = k0_presentation(vect_gf(2, 2))
    assert classify(pres, "0") == (0,)
    assert classify(pres, "F2^1") == (1,)
    assert classify(pres, "F2^2") == (2,)


def test_k0_class_vectors_modules():
    pres = k0_presentation(finite_modules(2, 4))
    # In K_0 of finite abelian 2-groups of order <= 4 every extension
    # splits the class, so [Z/4] = 2 [Z/2] = [Z/2 + Z/2].
    assert classify(pres, "Z/2") == (1,)
    assert classify(pres, "Z/4") == (2,)
    assert classify(pres, "Z/2+Z/2") == (2,)


def test_k0_retract():
    for C in (
        trivial_category(),
        vect_gf(2, 1),
        vect_gf(2, 2),
        pointed_sets(2),
        finite_modules(2, 4),
    ):
        assert k0_retract_holds(C)
