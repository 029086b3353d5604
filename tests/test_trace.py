"""Group homology, the multitrace, and the chain-level Dennis trace."""

import itertools

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
from chaintrace.hochschild import cyclic_bar
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
        assert [str(work.group_at(d)) for d in range(5)] == table


def test_group_homology_core_is_minimal_below_the_top():
    # Z, Z/6, 0, Z/6 need one generator each; the top degree is not pinned,
    # since the truncated complex computes no homology there
    core = GroupHomology(cyclic_group(6), ZZ, 3).core
    assert core.ranks[:4] == (1, 1, 1, 1)


def test_group_homology_mod_2_coefficients():
    work = GroupHomology(cyclic_group(2), GF(2), 3)
    assert [str(work.group_at(d)) for d in range(4)] == ["GF(2)"] * 4


def test_group_homology_trivial_group():
    assert str(group_homology(trivial_group(), ZZ, 0)) == "Z"
    assert str(group_homology(trivial_group(), ZZ, 3)) == "0"


def test_group_homology_cap():
    with pytest.raises(CapExceededError):
        GroupHomology(cyclic_group(30), ZZ, 4)


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
    # dropping every tuple that holds the identity; GL_2(F_2) = S_3 is not
    # abelian, so a product g_i g_{i+1} taken in the wrong order shows there
    normalized = GroupHomology(G, ring, 3)
    full = bar_complex(G, ring, 4)
    for q in range(1, 5):
        below = list(itertools.product(range(G.order), repeat=q - 1))
        position = {t: i for i, t in enumerate(t for t in below if G.identity not in t)}
        projection = SparseMap.from_col_dicts(
            ring, len(position), [{position[t]: ring.one} if t in position else {} for t in below]
        )
        composite = projection.compose(full.differential(q)).compose(normalized.inclusion(q))
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
    # level 1 of M_2(Z[C2]) has rank (2 * 2 * 2)^2 = 64
    from chaintrace import trace

    A = group_algebra(cyclic_group(2), ZZ)
    monkeypatch.setattr(trace, "LEVEL_CAP", 64)
    assert multitrace(A, 2, 1).ncols == 64
    monkeypatch.setattr(trace, "LEVEL_CAP", 63)
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
        diff = tuple(
            A.ring.sub(A.ring.sub(a, b), c)
            for a, b, c in zip(c_uv.representative, c_u.representative, c_v.representative)
        )
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
