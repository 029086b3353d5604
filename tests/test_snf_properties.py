"""Property test of smith_normal_form on small random matrices.

Over Z, Q and GF(p) it checks the decomposition U*M*V = S with U, V
invertible, that S is diagonal with the divisibility chain, and that every
nonzero diagonal entry is canonical: positive over Z, 1 over a field.  A
matrix drawn over Z/p^k is checked through the two integer matrices
homology() eliminates for it, its symmetric lift and lift_with_modulus of it.
Besides dense matrices it draws monomial ones (one nonzero per row and
column), whose diagonal is usually out of divisibility order and so
exercises the fix-up of the chain.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from chaintrace.linalg import Matrix  # noqa: E402
from chaintrace.rings import GF, QQ, ZZ, Zmod  # noqa: E402

from smith_reference import smith_inputs  # noqa: E402
from test_linalg import assert_decomposition  # noqa: E402

RINGS = (ZZ, QQ, GF(2), GF(3), GF(5), Zmod(4), Zmod(8), Zmod(9), Zmod(25))


@st.composite
def matrices(draw, ring):
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 4))
    hi = 12 if ring.modulus is None else ring.modulus - 1
    entries = st.integers(-hi, hi)
    if draw(st.booleans()):
        rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    else:
        rows = [[0] * ncols for _ in range(nrows)]
        cols = draw(st.permutations(range(max(nrows, ncols))))
        for i, j in enumerate(cols):
            if i < nrows and j < ncols:
                rows[i][j] = draw(entries)
    return Matrix(ring, rows, ncols)


def assert_smith_form(M):
    dec = assert_decomposition(M)
    ring, S = M.ring, dec.S.rows
    for i in range(M.nrows):
        for j in range(M.ncols):
            if i != j:
                assert ring.is_zero(S[i][j]), (i, j)
    diagonal = [S[i][i] for i in range(min(M.nrows, M.ncols))]
    rank = dec.rank
    assert all(not ring.is_zero(d) for d in diagonal[:rank])
    assert all(ring.is_zero(d) for d in diagonal[rank:])
    for d in diagonal[:rank]:
        assert d > 0 if ring.kind == "Z" else d == 1, diagonal


@pytest.mark.parametrize("ring", RINGS, ids=str)
@hypothesis.given(data=st.data())
def test_smith_normal_form_properties(ring, data):
    M = data.draw(matrices(ring), label="M")
    hypothesis.note(f"rows = {M.rows}")
    for mat in smith_inputs(M):
        assert_smith_form(mat)
