"""reduce_complex against the dense homology() oracle.

Random complexes are direct sums of elementary ones (R alone in degree n,
or R --x--> R from degree n to n-1) seen through random invertible changes
of basis P_n, so d_n = P_{n-1} D_n P_n^-1 and d o d = 0 holds by
construction while the boundaries look generic.  The reduced core must have
the same homology group as the complex in every degree.  The conftest
fixture runs the same check on every complex the rest of the suite builds.
"""

import pytest

from chaintrace.chain import (
    ChainComplex,
    FPAbelianGroup,
    FPModule,
    homology,
    rank_over_field,
    reduce_complex,
)
from chaintrace.errors import UnsupportedRingError
from chaintrace.linalg import Matrix, SparseMap, smith_normal_form
from chaintrace.rings import GF, QQ, ZZ, Zmod

from conftest import assert_core_matches

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RINGS = (ZZ, QQ, GF(2), GF(3), GF(5), Zmod(4), Zmod(8), Zmod(9))


def sparse(M):
    return SparseMap.from_col_dicts(M.ring, M.nrows, [dict(enumerate(M.col(j))) for j in range(M.ncols)])


def elements(ring):
    if ring.modulus is not None:
        return st.integers(0, ring.modulus - 1)
    return st.integers(-6, 6)


@st.composite
def basis_change(draw, ring, n):
    """(P, P^-1) for a product of random elementary operations on R^n."""
    P, Pinv = Matrix.identity(ring, n), Matrix.identity(ring, n)
    steps = draw(st.integers(0, 3 * n)) if n > 1 else 0
    for _ in range(steps):
        a, b = draw(st.permutations(range(n)))[:2]
        c = ring.normalize(draw(elements(ring)))
        # P <- E P with E = I + c e_a e_b^T; P^-1 <- P^-1 E^-1
        P.rows[a] = [ring.add(x, ring.mul(c, y)) for x, y in zip(P.rows[a], P.rows[b])]
        for row in Pinv.rows:
            row[b] = ring.sub(row[b], ring.mul(c, row[a]))
    return P, Pinv


@st.composite
def complexes(draw, ring):
    top = draw(st.integers(1, 4))
    pieces = draw(
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, top)),
                st.tuples(st.integers(1, top), elements(ring)),
            ),
            max_size=7,
        )
    )
    ranks = [0] * (top + 1)
    entries = {n: [] for n in range(1, top + 1)}
    for piece in pieces:
        n = piece[0]
        if len(piece) == 1:
            ranks[n] += 1
        else:
            entries[n].append((ranks[n - 1], ranks[n], piece[1]))
            ranks[n - 1] += 1
            ranks[n] += 1
    changes = [draw(basis_change(ring, r)) for r in ranks]
    diffs = {}
    for n in range(1, top + 1):
        D = Matrix.zeros(ring, ranks[n - 1], ranks[n])
        for i, j, x in entries[n]:
            D.rows[i][j] = ring.normalize(x)
        d = changes[n - 1][0].mul(D).mul(changes[n][1])
        diffs[n] = sparse(d)
    return ChainComplex(ring, ranks, diffs)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@hypothesis.given(data=st.data())
def test_core_has_the_homology_of_the_complex(ring, data):
    C = data.draw(complexes(ring), label="complex")
    hypothesis.note(f"ranks = {C.ranks}")
    assert_core_matches(C)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@hypothesis.given(data=st.data())
def test_core_has_no_unit_entry(ring, data):
    # cancellation is exhaustive in every degree: a unit left in any
    # differential of the core is a pair that could still be cancelled
    core = reduce_complex(data.draw(complexes(ring), label="complex"))
    for d in core.differentials.values():
        assert not any(ring.is_unit(x) for col in d.cols for _, x in col)


@pytest.mark.parametrize("ring", [r for r in RINGS if r.is_field], ids=str)
@hypothesis.given(data=st.data())
def test_rank_over_field_matches_smith(ring, data):
    nrows, ncols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    rows = [[data.draw(elements(ring)) for _ in range(ncols)] for _ in range(nrows)]
    M = Matrix(ring, rows, ncols)
    assert rank_over_field(sparse(M)) == smith_normal_form(M).rank


def test_unit_pivots_cancel_and_zero_top_columns_drop():
    # d_1 = [1 2] over Z: the unit 1 cancels against the only vertex and
    # leaves the cycle (-2, 1), whose double is the one nonzero boundary of
    # d_2; the zero top column bounds nothing.  H_0 = 0, H_1 = Z/2.
    d1 = SparseMap.from_col_dicts(ZZ, 1, [{0: 1}, {0: 2}])
    d2 = SparseMap.from_col_dicts(ZZ, 2, [{0: -4, 1: 2}, {}])
    C = ChainComplex(ZZ, [1, 2, 2], {1: d1, 2: d2})
    core = reduce_complex(C)
    assert core.ranks == (0, 1, 1)
    assert core.differential(2).cols == (((0, 2),),)
    assert_core_matches(C)


def test_rank_over_field_refuses_other_rings():
    with pytest.raises(UnsupportedRingError):
        rank_over_field(SparseMap.identity(ZZ, 2))


def test_core_group_types_follow_the_ring():
    C = ChainComplex(GF(2), [1, 1], {1: SparseMap.zero(GF(2), 1, 1)})
    core = reduce_complex(C)
    assert core.ranks == (1, 0)
    assert homology(core, 0).group == FPModule(GF(2), 1)
    C = ChainComplex(ZZ, [1, 1], {1: SparseMap.from_col_dicts(ZZ, 1, [{0: 3}])})
    assert homology(reduce_complex(C), 0).group == FPAbelianGroup(0, (3,))
