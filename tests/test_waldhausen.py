"""Tests for the S-construction: grids, iteration, the diagonal, and K_0."""

import pytest

from chaintrace import waldhausen
from chaintrace.endo import EndCategory, end_category, k0_retract_holds
from chaintrace.errors import CapExceededError, InternalInvariantError
from chaintrace.tables import parse_category_text, serialize_category
from chaintrace.waldhausen import (
    SCategory,
    _enumerate_s_payloads,
    _total_complex_relations,
    grothendieck_k0,
    k0_presentation,
    k0_via_diagonal,
    k0_via_sdot,
    payload_functor,
    reindex_functor,
    s_k_objects,
    validate_s_object,
    ws_diagonal,
)
from chaintrace.wcat import (
    WCategory,
    category_from_selector,
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
        assert obj[0][0][0] == v22.zero_index()


def test_s_3_grids_validate_and_restrict_to_s_2():
    # every triple of a grid on [3] x [3] is a pushout square, and each
    # coface restriction lands on an enumerated grid on [2] x [2]
    for C in (vect_gf(2, 1), pointed_sets(2), vect_gf(2, 2), finite_modules(2, 4)):
        for obj in s_k_objects(C, 3):
            assert validate_s_object(C, obj).ok
        S3, S2 = SCategory(C, 3), SCategory(C, 2)
        for a in range(S3.object_count()):
            for i in range(4):
                reindex_functor(S3, S2, tuple(t for t in range(4) if t != i))[0](a)


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
        s = reindex_functor(S1, S2, (0, 0, 1))[0](a)
        assert reindex_functor(S2, S1, (0, 2))[0](s) == a
    for a in range(S2.object_count()):
        # The (0, 1) face keeps the top-left entry of the staircase.
        b = reindex_functor(S2, S1, (0, 1))[0](a)
        assert S1.object_payload(b)[0][0][1] == S2.object_payload(a)[0][0][1]


def test_payload_functor_refuses_an_object_outside_the_target():
    C = vect_gf(2, 1)
    S1 = SCategory(C, 1)
    # every object of C sent to the payload of the zero grid, except F2^1
    obj, mor = payload_functor(
        C, S1, lambda a: S1.object_payload(0) if a == 0 else ("no", "such", "grid"), None
    )
    assert obj(0) == 0
    with pytest.raises(InternalInvariantError, match=r"not an enumerated object of S_1\(vect_gf\(2,1\)\)"):
        obj(1)


def test_ws_diagonal_levels_and_identities():
    ps = ws_diagonal(vect_gf(2, 2))
    assert [len(level) for level in ps.levels] == [1, 8, 15663]
    report = ps.validate()
    assert report.ok
    assert report.checks_run == 47048


def test_ws_diagonal_trivial():
    ps = ws_diagonal(trivial_category())
    assert [len(level) for level in ps.levels] == [1, 1, 1]
    assert ps.validate().ok


def test_ws_diagonal_string_cap(monkeypatch):
    monkeypatch.setattr(waldhausen, "STRING_CAP", 100)
    with pytest.raises(CapExceededError):
        ws_diagonal(vect_gf(2, 2))


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


def family(sel):
    """A built-in category; "End X" is the endomorphism category of X, and
    "weq-lines" is vect_gf(2,2) with its injections F2 >-> F2^2 also
    flagged as weak equivalences (it fails the gluing axiom, which the
    K_0 computations do not use)."""
    if sel.startswith("End "):
        return end_category(category_from_selector(sel[4:]))[0]
    if sel == "weq-lines":
        C = vect_gf(2, 2)
        # the serializer names morphisms m0, m1, ... in hom order
        homs = [m for a in range(3) for b in range(3) for m in C.hom_ids(a, b)]
        names = {m: f"m{t}" for t, m in enumerate(homs)}
        flags = "".join(f"weq {names[m]}\n" for m in C.hom_ids(1, 2) if C.is_cofibration_id(m))
        return parse_category_text(serialize_category(C) + flags, where=sel, validate=False)
    return category_from_selector(sel)


# every built-in family whose diagonal fits under STRING_CAP at level 2.  In
# a valid category an invertible weak equivalence a -> b gives the same
# relation as the grid 0 >-> a >-> b, so only "weq-lines", whose new weak
# equivalences are not invertible, needs the columns of w_1 S_1
DIAGONAL_FITS = [
    "trivial",
    "vect_gf:2:1",
    "vect_gf:2:2",
    "vect_gf:3:1",
    "vect_gf:5:1",
    "pointed_sets:0",
    "pointed_sets:1",
    "pointed_sets:2",
    "pointed_sets:3",
    "finite_modules:2:1",
    "finite_modules:2:2",
    "finite_modules:2:3",
    "finite_modules:2:4",
    "finite_modules:3:2",
    "End vect_gf:2:1",
    "End pointed_sets:2",
    "weq-lines",
]


@pytest.mark.parametrize(
    "sel", ["trivial", "vect_gf:2:2", "vect_gf:3:1", "pointed_sets:3", "finite_modules:2:4", "End vect_gf:2:1"]
)
def test_grid_payloads_are_indexed_by_position(sel):
    # a grid on [k] x [k] is (entries, harr, varr) with X(i, j) at
    # entries[i][j], X(i, j) -> X(i, j+1) at harr[i][j] and
    # X(i, j) -> X(i+1, j) at varr[i][j]
    C = family(sel)
    z = C.zero_index()
    for k in range(4):
        for entries, harr, varr in s_k_objects(C, k):
            assert [len(row) for row in entries] == [k + 1] * (k + 1)
            assert [len(row) for row in harr] == [k] * (k + 1)
            assert [len(row) for row in varr] == [k + 1] * k
            assert all(entries[i][j] == z for i in range(k + 1) for j in range(i + 1))
            for i, row in enumerate(harr):
                for j, m in enumerate(row):
                    assert (C.mor_source(m), C.mor_target(m)) == (entries[i][j], entries[i][j + 1])
            for i, row in enumerate(varr):
                for j, m in enumerate(row):
                    assert (C.mor_source(m), C.mor_target(m)) == (entries[i][j], entries[i + 1][j])


@pytest.mark.parametrize("sel", DIAGONAL_FITS)
def test_total_complex_equals_diagonal(sel):
    C = family(sel)
    assert k0_via_sdot(C) == k0_via_diagonal(C)


def up_to_sign(col):
    return max(col, tuple((r, -c) for r, c in col))


@pytest.mark.parametrize("sel", DIAGONAL_FITS + ["End vect_gf:2:2"])
def test_total_complex_relations_are_the_presentation(sel):
    # S_1 is C through the entry at (0, 1); the total complex takes faces
    # of S_2 by reindexing grids, the presentation reads their slots
    C = family(sel)
    S1, gens, cols, _ = _total_complex_relations(C)
    pres = k0_presentation(C)
    pos = {a: t for t, a in enumerate(pres.generators)}
    to_pres = [pos[S1.object_payload(a)[0][0][1]] for a in gens]
    assert sorted(to_pres) == list(range(len(pres.generators)))
    mapped = {up_to_sign(tuple(sorted((to_pres[r], c) for r, c in col))) for col in cols}
    assert mapped == {up_to_sign(col) for col in pres.relations}


def test_total_complex_string_cap(monkeypatch):
    # w_1 S_1 of vect_gf(2, 2) holds the basepoint and 7 automorphisms
    monkeypatch.setattr(waldhausen, "STRING_CAP", 7)
    with pytest.raises(CapExceededError, match="w_1 S_1"):
        k0_via_sdot(vect_gf(2, 2))
    monkeypatch.setattr(waldhausen, "STRING_CAP", 8)
    assert k0_via_sdot(vect_gf(2, 2)).free_rank == 1


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


def test_k0_routes_share_one_flag_grid_enumeration(monkeypatch):
    calls = []
    build = waldhausen._build_s_payloads

    def counting_build(base, k):
        calls.append(k)
        return build(base, k)

    monkeypatch.setattr(waldhausen, "_build_s_payloads", counting_build)
    C = vect_gf(2, 2)
    direct = grothendieck_k0(C)
    simplicial = k0_via_sdot(C)
    assert groups_equal(direct, simplicial)
    assert sorted(calls) == [0, 1, 2]


def test_refused_flag_grid_enumeration_is_raised_every_time(monkeypatch):
    C = vect_gf(2, 2)
    monkeypatch.setattr(waldhausen, "S_OBJECT_CAP", 2)
    for _ in range(2):
        with pytest.raises(CapExceededError):
            _enumerate_s_payloads(C, 2)
    monkeypatch.undo()
    assert len(_enumerate_s_payloads(C, 2)) == 18




def identity_pushouts(X):
    """Ask X for the pushout of every identity along itself."""
    for a in range(X.object_count()):
        X.pushout_witness(X.identity_id(a), X.identity_id(a))


def cofibration_flags(X):
    """Ask X for the cofibration flag of every morphism."""
    for a in range(X.object_count()):
        X.cofibs_from(a)


# In the table of vect_gf(2,1), o0 is 0 and o1 is F2; m0 is the identity of
# 0, m1 the map 0 -> F2, m2 the map F2 -> 0, m3 the zero endomorphism of F2
# and m4 its identity.  Each case replaces one recorded witness by a square
# that is not a pushout, then runs a build that must notice.
# - the cokernel of id_0 becomes F2, out of which two endomorphisms of F2
#   mediate; the first quotient row of S_3 asks for one
ZERO_COKERNEL_OF_ID_0 = ("pushout m0 m0 o0 m0 m0", "pushout m0 m0 o1 m1 m1")
# - the pushout of id_F2 along itself gets two zero legs
ZERO_LEGS_ON_ID_F2 = ("pushout m4 m4 o1 m4 m4", "pushout m4 m4 o1 m3 m3")
# - the cokernel of id_F2 becomes F2 under the identity, a square that does
#   not commute, so S_2 itself is assembled with a square that fails
NONCOMMUTING_COKERNEL_OF_ID_F2 = ("pushout m4 m2 o0 m2 m0", "pushout m4 m2 o1 m4 m1")
# - the cokernel of id_F2 becomes F2 under the zero map: the square commutes
#   and every grid of S_2 passes its checks, so without a check of the
#   witness itself both K_0 routes would return 0
ZERO_MAP_COKERNEL_OF_ID_F2 = ("pushout m4 m2 o0 m2 m0", "pushout m4 m2 o1 m3 m1")
NOT_A_PUSHOUT = "recorded witness for (m4, m2) is not a pushout"


@pytest.mark.parametrize(
    "witness, build, message",
    [
        (ZERO_COKERNEL_OF_ID_0, lambda C: SCategory(C, 3), "quotient row admits no unique induced arrow"),
        (ZERO_LEGS_ON_ID_F2, lambda C: cofibration_flags(SCategory(C, 2)), "top-row comparison map is not unique"),
        (
            ZERO_LEGS_ON_ID_F2,
            lambda C: identity_pushouts(SCategory(C, 2)),
            "pushout grid admits no unique induced arrow",
        ),
        (
            ZERO_LEGS_ON_ID_F2,
            lambda C: identity_pushouts(EndCategory(C)),
            "base pushout witness does not induce a unique endomorphism",
        ),
        (
            NONCOMMUTING_COKERNEL_OF_ID_F2,
            lambda C: SCategory(C, 2),
            "assembled grid violates 'square at (0,1) does not commute'",
        ),
        (ZERO_MAP_COKERNEL_OF_ID_F2, grothendieck_k0, NOT_A_PUSHOUT),
        (ZERO_MAP_COKERNEL_OF_ID_F2, k0_via_sdot, NOT_A_PUSHOUT),
    ],
    ids=[
        "quotient-row",
        "top-row",
        "pushout-grid",
        "endomorphism",
        "assembled-grid",
        "k0-presentation",
        "k0-sdot",
    ],
)
def test_a_witness_that_is_not_a_pushout_is_refused(witness, build, message):
    text = serialize_category(vect_gf(2, 1), labels=False)
    old, new = witness
    assert old in text
    C = parse_category_text(text.replace(old, new), validate=False)
    assert not validate_waldhausen(C).ok
    with pytest.raises(InternalInvariantError) as exc:
        build(C)
    assert str(exc.value) == f"{message}; is the base category valid?"


@pytest.mark.parametrize("validate", [True, False], ids=["validated-table", "unvalidated-table"])
def test_only_an_unvalidated_table_has_its_witnesses_checked(monkeypatch, validate):
    built = vect_gf(2, 2)
    C = parse_category_text(serialize_category(built, labels=False), validate=validate)
    checked = []
    is_pushout = WCategory.is_pushout
    monkeypatch.setattr(WCategory, "is_pushout", lambda X, *span: checked.append(X) or is_pushout(X, *span))
    for X in (built, C):
        assert str(grothendieck_k0(X)) == str(k0_via_sdot(X)) == "Z"
    # S_2 reads the cokernel of each of the 13 cofibrations, checked once
    assert checked == ([] if validate else [C] * 13)
