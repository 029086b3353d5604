"""Group homology, the multitrace, and the chain-level Dennis trace."""

import itertools
import re

import pytest

from chaintrace.algebra import (
    base_algebra,
    cyclic_group,
    general_linear_group,
    group_algebra,
    matrix_algebra,
    trivial_group,
    truncated_polynomial,
)
from chaintrace.errors import CapExceededError, NotInvertibleError
from chaintrace.hochschild import cyclic_bar, tuple_index
from chaintrace.linalg import SparseMap
from chaintrace.rings import GF, QQ, ZZ
from chaintrace.trace import (
    GroupHomology,
    bar_complex,
    dennis_trace_homology,
    dennis_trace_k1,
    fp_map_is_iso,
    group_homology,
    group_to_hh,
    morita_map,
    multitrace,
)


def test_group_homology_frozen_tables():
    expected = {
        2: ["Z", "Z/2", "0", "Z/2", "0"],
        3: ["Z", "Z/3", "0", "Z/3", "0"],
        4: ["Z", "Z/4", "0", "Z/4", "0"],
    }
    for n, table in expected.items():
        work = GroupHomology(cyclic_group(n), ZZ, 4)
        assert [str(work.group(d)) for d in range(5)] == table


def test_group_homology_core_is_minimal_below_the_top():
    # Z, Z/6, 0, Z/6 need one generator each; the top degree is not pinned,
    # since the truncated complex computes no homology there
    core = GroupHomology(cyclic_group(6), ZZ, 3).core
    assert core.ranks[:4] == (1, 1, 1, 1)


def test_group_homology_mod_2_coefficients():
    work = GroupHomology(cyclic_group(2), GF(2), 3)
    assert [str(work.group(d)) for d in range(4)] == ["GF(2)"] * 4


def test_group_homology_trivial_group():
    assert str(group_homology(trivial_group(), ZZ, 0)) == "Z"
    assert str(group_homology(trivial_group(), ZZ, 3)) == "0"


def test_group_homology_cap():
    with pytest.raises(CapExceededError):
        GroupHomology(cyclic_group(30), ZZ, 4)


def forbidden(*args, **kwargs):
    raise AssertionError("a boundary was built")


def test_group_homology_construction_builds_no_boundary(monkeypatch):
    from chaintrace import trace

    monkeypatch.setattr(trace, "basis_map_columns", forbidden)
    work = GroupHomology(cyclic_group(5), ZZ, 3)
    assert "complex" not in vars(work) and "core" not in vars(work)


def test_group_homology_dense_cell_cap_refuses_from_ranks(monkeypatch):
    # degree 3 of C24 has ranks 23^2, 23^3, 23^4; the refusal reads only
    # them, so no level is enumerated and no boundary is built before it
    from chaintrace import trace

    monkeypatch.setattr(trace, "basis_map_columns", forbidden)
    monkeypatch.setattr(trace, "LevelRows", forbidden)
    work = GroupHomology(cyclic_group(24), ZZ, 3)
    message = "homology in degree 3 (ranks 529, 12167, 279841) needs 4003405346 dense cells"
    with pytest.raises(CapExceededError, match=re.escape(message)):
        work.homology_data(3)


def test_bar_complex_boundary_shapes():
    G = cyclic_group(3)
    cx = bar_complex(G, ZZ, 3)
    for q in (1, 2, 3):
        d = cx.differential(q)
        assert (d.nrows, d.ncols) == (3 ** (q - 1), 3**q)


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=str)
@pytest.mark.parametrize(
    "G",
    [cyclic_group(m) for m in range(2, 6)] + [general_linear_group(base_algebra(GF(2)), 2).group],
    ids=["C2", "C3", "C4", "C5", "GL2(F2)"],
)
def test_normalized_bar_boundary_matches_full_level_composite(G, ring):
    # oracle: projection . full bar boundary . inclusion, with the projection
    # dropping every tuple that holds the identity and the inclusion sending
    # each normalized tuple to itself; GL_2(F_2) = S_3 is not abelian, so a
    # product g_i g_{i+1} taken in the wrong order shows there
    normalized = GroupHomology(G, ring, 3)
    full = bar_complex(G, ring, 4)
    for q in range(1, 5):
        below = list(itertools.product(range(G.order), repeat=q - 1))
        position = {t: i for i, t in enumerate(t for t in below if G.identity not in t)}
        projection = SparseMap.from_col_dicts(
            ring, len(position), [{position[t]: ring.one} if t in position else {} for t in below]
        )
        inclusion = SparseMap.from_col_dicts(
            ring, G.order**q, [{tuple_index(G.order, t): ring.one} for t in normalized.level(q)]
        )
        composite = projection.compose(full.differential(q)).compose(inclusion)
        assert normalized.complex.differential(q) == composite


def test_group_to_hh_is_chain_map():
    for n in (2, 3):
        G = cyclic_group(n)
        A = group_algebra(G, ZZ)
        cm = cyclic_bar(A, 2)
        bar = bar_complex(G, ZZ, 2)
        for q in (1, 2):
            lhs = cm.boundary(q).compose(group_to_hh(G, ZZ, q))
            rhs = group_to_hh(G, ZZ, q - 1).compose(bar.differential(q))
            assert lhs.sub(rhs).is_zero_map()


def test_multitrace_is_chain_map():
    A = base_algebra(GF(2))
    M = matrix_algebra(A, 2)
    cm_m = cyclic_bar(M, 2)
    cm_a = cyclic_bar(A, 2)
    for q in (1, 2):
        lhs = cm_a.boundary(q).compose(multitrace(A, 2, q))
        rhs = multitrace(A, 2, q - 1).compose(cm_m.boundary(q))
        assert lhs.sub(rhs).is_zero_map()


def test_multitrace_level_zero_is_matrix_trace():
    A = base_algebra(ZZ)
    tr = multitrace(A, 2, 0)
    # E[0,0] + E[1,1] |-> 2
    assert tr.apply((1, 0, 0, 1)) == (2,)
    assert tr.apply((0, 1, 0, 0)) == (0,)


def test_multitrace_refuses_a_source_level_above_the_cap(monkeypatch):
    # level 1 of M_2(Z[C2]) has rank (2 * 2 * 2)^2 = 64; the full-level
    # check is hochschild.check_full_level, which reads its module's cap
    from chaintrace import hochschild

    A = group_algebra(cyclic_group(2), ZZ)
    monkeypatch.setattr(hochschild, "LEVEL_CAP", 64)
    assert multitrace(A, 2, 1).ncols == 64
    monkeypatch.setattr(hochschild, "LEVEL_CAP", 63)
    with pytest.raises(CapExceededError, match=r"rank 8\^2 = 64 > cap 63"):
        multitrace(A, 2, 1)


def test_dennis_trace_k1_frozen_values():
    A = truncated_polynomial(GF(2), 2)
    cls = dennis_trace_k1(A, (((1, 1),),))
    assert str(cls.group) == "GF(2)^2"
    assert cls.coordinates == (1, 1)
    assert not cls.is_zero

    B = group_algebra(cyclic_group(2), ZZ)
    cls_g = dennis_trace_k1(B, (((0, 1),),))
    assert str(cls_g.group) == "Z/2 x Z/2"
    assert cls_g.coordinates == (0, 1)


def test_dennis_trace_k1_identity_is_zero():
    for A in (group_algebra(cyclic_group(2), ZZ), truncated_polynomial(GF(2), 2)):
        zero, one = (A.ring.zero,) * A.rank, A.unit
        assert dennis_trace_k1(A, ((one,),)).is_zero
        ident2 = ((one, zero), (zero, one))
        assert dennis_trace_k1(A, ident2).is_zero


def test_dennis_trace_k1_rejects_non_units():
    A = truncated_polynomial(GF(2), 2)
    with pytest.raises(NotInvertibleError):
        dennis_trace_k1(A, (((0, 1),),))


def test_dennis_trace_k1_conjugation_invariant():
    A = truncated_polynomial(GF(2), 2)
    one, zero, opx = A.unit, (A.ring.zero,) * A.rank, (1, 1)
    g = ((opx, zero), (zero, one))
    conj = ((one, zero), (zero, opx))  # swap * g * swap
    c1, c2 = dennis_trace_k1(A, g), dennis_trace_k1(A, conj)
    assert c1.coordinates == c2.coordinates == (1, 1)


def test_dennis_trace_k1_additive_on_products():
    from chaintrace.hochschild import HochschildHomology

    A = group_algebra(cyclic_group(2), QQ)
    work = HochschildHomology(A, 1)
    pairs = [((2, 1), (1, 2)), ((3, -1), (0, 2)), ((1, 2), (2, -1))]
    for u_raw, v_raw in pairs:
        u, v = A.normalize_vec(u_raw), A.normalize_vec(v_raw)
        uv = A.mul_vec(u, v)
        c_uv = dennis_trace_k1(A, ((uv,),), work=work)
        c_u = dennis_trace_k1(A, ((u,),), work=work)
        c_v = dennis_trace_k1(A, ((v,),), work=work)
        diff = dict(c_uv.representative)
        for x, c in c_u.representative + c_v.representative:
            diff[x] = A.ring.sub(diff.get(x, A.ring.zero), c)
        assert work.is_boundary(1, diff)


def test_morita_map_on_base_field():
    results = morita_map(base_algebra(GF(2)), 2, 3)
    assert len(results) == 4
    for r in results:
        assert r.isomorphism
        assert str(r.source) == str(r.target)


def test_morita_map_over_integers():
    results = morita_map(base_algebra(ZZ), 2, 2)
    assert [str(r.source) for r in results] == ["Z", "0", "0"]
    assert all(r.isomorphism for r in results)


def test_morita_map_refuses_before_any_elimination(monkeypatch):
    # degrees 0-2 fit under DENSE_CELL_CAP and degree 3 does not: the
    # refusal comes before degree 0 is eliminated
    from chaintrace import chain

    calls = []
    smith = chain.smith_normal_form

    def counted(mat, **kwargs):
        calls.append((mat.nrows, mat.ncols))
        return smith(mat, **kwargs)

    monkeypatch.setattr(chain, "smith_normal_form", counted)
    with pytest.raises(CapExceededError, match="homology in degree 3 .* above the cap"):
        morita_map(truncated_polynomial(GF(2), 2), 2, 3)
    assert calls == []


@pytest.mark.parametrize(
    "run",
    [
        lambda: morita_map(group_algebra(cyclic_group(3), ZZ), 2, 3),
        lambda: dennis_trace_homology(truncated_polynomial(GF(5), 2), 1, 3),
    ],
    ids=["morita", "dennis"],
)
def test_cap_refusals_come_before_any_complex_is_built(monkeypatch, run):
    # both refuse on DENSE_CELL_CAP; the decision reads ranks only, so no
    # boundary, no group homology and no elimination may precede it
    from chaintrace import chain, hochschild, trace

    def forbidden(*args, **kwargs):
        raise AssertionError("built before the refusal")

    monkeypatch.setattr(hochschild.NormalizedComplex, "boundary", forbidden)
    monkeypatch.setattr(hochschild.CyclicModule, "boundary", forbidden)
    monkeypatch.setattr(trace, "GroupHomology", forbidden)
    monkeypatch.setattr(chain, "smith_normal_form", forbidden)
    with pytest.raises(CapExceededError, match=r"homology in degree \d .* above the cap"):
        run()


def test_fp_map_iso_on_trivial_groups():
    from chaintrace.chain import FPAbelianGroup
    from chaintrace.linalg import Matrix

    zero = FPAbelianGroup(0)
    surj, iso = fp_map_is_iso(zero, zero, Matrix.zeros(ZZ, 0, 0), ())
    assert surj and iso


def test_dennis_trace_homology_dual_numbers():
    A = truncated_polynomial(GF(2), 2)
    res = dennis_trace_homology(A, 1, 1)
    assert res.gl.group.order == 2
    assert str(res.source) == "GF(2)"
    assert str(res.target) == "GF(2)^2"
    assert [c.coordinates for c in res.classes] == [(1, 1)]
    direct = dennis_trace_k1(A, (((1, 1),),))
    assert res.classes[0].coordinates == direct.coordinates


def test_dennis_trace_homology_gl2_f2():
    res = dennis_trace_homology(base_algebra(GF(2)), 2, 1)
    assert res.gl.group.order == 6
    assert str(res.source) == "GF(2)"
    assert str(res.target) == "0"
    assert all(c.is_zero for c in res.classes)


def test_dennis_trace_homology_caps():
    with pytest.raises(CapExceededError):
        dennis_trace_homology(base_algebra(GF(2)), 3, 1)
    with pytest.raises(CapExceededError):
        dennis_trace_homology(base_algebra(ZZ), 1, 1)


def test_pipelines_enumerate_no_full_level(monkeypatch):
    # the trace and Morita pipelines push generators through image rules:
    # no full cyclic bar level and no whole-level matrix of phi or of the
    # multitrace may be built
    from chaintrace import hochschild, trace

    def forbidden(*args, **kwargs):
        raise AssertionError("full level enumerated")

    monkeypatch.setattr(hochschild.CyclicModule, "tuples", forbidden)
    monkeypatch.setattr(trace, "multitrace", forbidden)
    monkeypatch.setattr(trace, "group_to_hh", forbidden)
    res = dennis_trace_homology(base_algebra(GF(2)), 2, 3)
    assert (str(res.source), str(res.target)) == ("GF(2)", "0")
    assert [c.coordinates for c in res.classes] == [()]
    dual = truncated_polynomial(GF(2), 2)
    results = morita_map(dual, 2, 2)
    assert [str(r.source) for r in results] == ["GF(2)^2"] * 3
    assert all(r.isomorphism for r in results)
    one, zero, opx = dual.unit, (0, 0), (1, 1)
    cls = dennis_trace_k1(dual, ((opx, one), (zero, one)))
    assert cls.coordinates == (1, 1)
    assert cls.representative == (((0, 1), 1), ((1, 0), 1), ((1, 1), 1))


def ones(length, first=1):
    """The basis tuple (first, 1, ..., 1) of the given length."""
    return (first,) + (1,) * (length - 1)


@pytest.mark.parametrize(
    "algebra, n, d, source, target, classes",
    [
        (base_algebra(GF(2)), 2, 4, "GF(2)", "0", [((), ())]),
        (group_algebra(cyclic_group(2), GF(2)), 1, 4, "GF(2)", "GF(2)^2", [((1, 0), ((ones(5, 0), 1),))]),
        (group_algebra(cyclic_group(2), GF(2)), 1, 5, "GF(2)", "GF(2)^2", [((0, 1), ((ones(6), 1),))]),
        (truncated_polynomial(GF(2), 2), 1, 4, "GF(2)", "GF(2)^2", [((1, 0), ((ones(5, 0), 1),))]),
        (truncated_polynomial(GF(2), 2), 1, 5, "GF(2)", "GF(2)^2", [((1, 1), ((ones(6, 0), 1), (ones(6), 1)))]),
    ],
    ids=["GL2(F2)-4", "F2[C2]-4", "F2[C2]-5", "F2[x]/x^2-4", "F2[x]/x^2-5"],
)
def test_dennis_trace_homology_beyond_the_degree_cap(monkeypatch, algebra, n, d, source, target, classes):
    # H_4(S_3; F_2) = H_4(C_2; F_2) = F_2 and HH_4(F_2) = 0; H_d(C_2; F_2) =
    # F_2 and HH_d(F_2[C_2]) = HH_d(F_2[x]/x^2) = F_2^2 (Burghelea); the
    # coordinates and representatives are those of the whole-level composite
    from chaintrace import trace

    monkeypatch.setattr(trace, "DEGREE_CAP", d)
    res = dennis_trace_homology(algebra, n, d)
    assert (str(res.source), str(res.target)) == (source, target)
    assert [(c.coordinates, c.representative) for c in res.classes] == classes


@pytest.mark.parametrize("d, coordinates", [(18, (1, 0)), (19, (0, 1)), (24, (1, 0))])
def test_dennis_trace_homology_reaches_past_the_full_level_cap(monkeypatch, d, coordinates):
    # the full cyclic bar level d of F_2[C_2] has 2^(d+1) > LEVEL_CAP
    # tuples, but the class is one tuple pushed through the chain maps and
    # its normalized level has rank 2: H_d(C_2; F_2) = F_2 goes to the
    # generator of HH_d(F_2[C_2]) = F_2^2 of the degree's parity
    from chaintrace import trace

    monkeypatch.setattr(trace, "DEGREE_CAP", d)
    res = dennis_trace_homology(group_algebra(cyclic_group(2), GF(2)), 1, d)
    assert (str(res.source), str(res.target)) == ("GF(2)", "GF(2)^2")
    assert [(c.coordinates, c.representative) for c in res.classes] == [
        (coordinates, ((ones(d + 1, d % 2), 1),))
    ]


def boundary(A, n, chain):
    """b of a chain (tuple, coeff) pairs of A's cyclic bar level n, as
    {tuple: coeff}, by the whole-level matrix of the Hochschild boundary."""
    b, ring = cyclic_bar(A, n).boundary(n), A.ring
    vec = [ring.zero] * b.ncols
    for x, c in chain:
        vec[tuple_index(A.rank, x)] = c
    targets = itertools.product(range(A.rank), repeat=n)
    return {y: c for y, c in zip(targets, b.apply(vec)) if not ring.is_zero(c)}


@pytest.mark.parametrize(
    "algebra, n, d, lifted",
    [
        (group_algebra(cyclic_group(2), GF(2)), 1, 2, 1),
        (group_algebra(cyclic_group(2), GF(2)), 1, 3, 1),
        (group_algebra(cyclic_group(2), GF(2)), 1, 4, 1),
        (group_algebra(cyclic_group(3), GF(3)), 1, 2, 3),
    ],
    ids=["F2[C2]-2", "F2[C2]-3", "F2[C2]-4", "F3[C3]-2"],
)
def test_trace_representatives_are_normalized_cycles(monkeypatch, algebra, n, d, lifted):
    # the representatives are cycles of the normalized complex lifted by
    # chain_of: their boundary is degenerate, and here not zero
    from chaintrace import trace
    from chaintrace.hochschild import HochschildHomology

    monkeypatch.setattr(trace, "DEGREE_CAP", d)
    work = HochschildHomology(algebra, d)
    reps = [c.representative for c in dennis_trace_homology(algebra, n, d).classes]
    assert len(reps) == lifted
    for rep in reps:
        b_rep = boundary(algebra, d, rep)
        assert b_rep
        assert not any(work.normalize(d - 1, b_rep))


def test_hh_generators_are_normalized_cycles():
    # every generator of HH_2, HH_3 of F_2[C_2] and of HH_3(Z[C_3]) has a
    # nonzero, degenerate boundary
    from chaintrace.hochschild import HochschildHomology

    for algebra, n, count in [
        (group_algebra(cyclic_group(2), GF(2)), 2, 2),
        (group_algebra(cyclic_group(2), GF(2)), 3, 2),
        (group_algebra(cyclic_group(3), ZZ), 3, 3),
    ]:
        work = HochschildHomology(algebra, n)
        gens = work.generators(n)
        assert len(gens) == count
        for k, gen in enumerate(gens):
            b_gen = boundary(algebra, n, gen.items())
            assert b_gen
            assert not any(work.normalize(n - 1, b_gen))
            assert work.coordinates(n, gen) == tuple(int(i == k) for i in range(count))


@pytest.mark.parametrize(
    "algebra, g",
    [
        (truncated_polynomial(GF(2), 2), (((1, 1),),)),
        (truncated_polynomial(GF(2), 2), (((1, 1), (1, 0)), ((0, 0), (1, 0)))),
        (group_algebra(cyclic_group(2), QQ), (((2, 1),),)),
        (group_algebra(cyclic_group(3), ZZ), (((0, 1, 0),),)),
    ],
)
def test_k1_representatives_are_cycles(algebra, g):
    cls = dennis_trace_k1(algebra, g)
    assert boundary(algebra, 1, cls.representative) == {}


def test_class_paths_enumerate_no_full_level(monkeypatch):
    # generators, coordinates and is_boundary take and give sparse chains,
    # and selftest's additivity suite subtracts them: none of them may
    # enumerate a full cyclic bar level
    from chaintrace import hochschild, selftest

    def forbidden(*args, **kwargs):
        raise AssertionError("full level enumerated")

    monkeypatch.setattr(hochschild.CyclicModule, "tuples", forbidden)
    for algebra, n in [(group_algebra(cyclic_group(3), ZZ), 3), (truncated_polynomial(ZZ, 2), 19)]:
        work = hochschild.HochschildHomology(algebra, n)
        gens = work.generators(n)
        assert [work.coordinates(n, gen) for gen in gens] == [
            tuple(int(i == k) for i in range(len(gens))) for k in range(len(gens))
        ]
        assert not any(work.is_boundary(n, gen) for gen in gens)
        assert work.is_boundary(n, {})
    report = selftest._suite_trace_additivity(0)
    assert report.ok and report.checks_run == 10


@pytest.mark.parametrize(
    "chain, bad",
    [
        ({(0, 1, 1): 1}, r"\(0, 1, 1\)"),
        ({(0, 5): 1}, r"\(0, 5\)"),
        ({(0, -1): 1}, r"\(0, -1\)"),
        ({(1,): 1, (0, 1): 1}, r"\(1,\)"),
        ({"01": 1}, "'01'"),
    ],
    ids=["long", "index-above-rank", "negative-index", "short", "not-a-tuple"],
)
def test_coordinates_refuse_a_key_off_the_level(chain, bad):
    # level 1 of Z[x]/x^2 holds the pairs over range(2); the refusal names
    # the key instead of reading it as the zero class or an IndexError
    from chaintrace.hochschild import HochschildHomology

    work = HochschildHomology(truncated_polynomial(ZZ, 2), 1)
    with pytest.raises(ValueError, match=bad + " is not a basis tuple of level 1: 2 indices in range\\(2\\)"):
        work.coordinates(1, chain)
    with pytest.raises(ValueError, match=bad):
        work.is_boundary(1, chain)
