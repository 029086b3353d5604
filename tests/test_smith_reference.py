"""smith_normal_form against the reference engine of tests/smith_reference.py.

The kernel visits only nonzero entries; the reference walks whole rows and
columns.  With the same pivot rule and the same order of operations, all
five factors U, S, V, Uinv and Vinv must agree entry for entry, and so must
the Python type of every entry (Fraction over Q, int elsewhere).  Each of
the sixteen subsets of the transforms is requested in turn: S and every
factor requested must equal the reference's, and every other transform
must be None.  Random matrices are dense, monomial (one nonzero per row
and column, which drives the divisibility fix-up) or sparse at 10-20 %
density; the boundary matrices of a Dennis trace run are checked as well.
Over Z/m the drawn matrix is not eliminated itself, since Smith runs over Z
and fields only; its two integer lifts are, as homology() eliminates them.
"""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from chaintrace import linalg  # noqa: E402
from chaintrace.algebra import base_algebra  # noqa: E402
from chaintrace.linalg import Matrix  # noqa: E402
from chaintrace.rings import GF, QQ, ZZ, Zmod  # noqa: E402
from chaintrace.tracehomology import dennis_trace_homology  # noqa: E402

from smith_reference import TRANSFORMS, assert_same_factors, smith_inputs  # noqa: E402

SUBSETS = [f for n in range(len(TRANSFORMS) + 1) for f in combinations(TRANSFORMS, n)]
RINGS = (ZZ, QQ, GF(2), GF(3), GF(5), Zmod(4), Zmod(8), Zmod(9), Zmod(25))


@st.composite
def matrices(draw, ring):
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    hi = 12 if ring.modulus is None else ring.modulus - 1
    entries = st.integers(-hi, hi)
    shape = draw(st.sampled_from(("dense", "monomial", "sparse")))
    rows = [[0] * ncols for _ in range(nrows)]
    if shape == "dense":
        rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    elif shape == "monomial":
        cols = draw(st.permutations(range(max(nrows, ncols))))
        for i, j in enumerate(cols):
            if i < nrows and j < ncols:
                rows[i][j] = draw(entries)
    else:
        density = draw(st.integers(10, 20))
        for i in range(nrows):
            for j in range(ncols):
                if draw(st.integers(0, 99)) < density:
                    rows[i][j] = draw(entries.filter(bool))
    return Matrix(ring, rows, ncols)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@hypothesis.given(data=st.data())
def test_factors_match_the_reference(ring, data):
    M = data.draw(matrices(ring), label="M")
    hypothesis.note(f"rows = {M.rows}")
    for mat in smith_inputs(M):
        assert_same_factors(mat, SUBSETS)


def test_trace_homology_eliminations_match_the_reference(monkeypatch):
    # every matrix that trace-homology GF:2 --size 2 --degree 2 eliminates
    seen = []
    engine = linalg._smith_engine

    def recording_engine(ring, mat, factors):
        seen.append(Matrix._canonical(ring, [row[:] for row in mat.rows], mat.ncols))
        return engine(ring, mat, factors)

    monkeypatch.setattr(linalg, "_smith_engine", recording_engine)
    dennis_trace_homology(base_algebra(GF(2)), 2, 2)
    monkeypatch.undo()
    assert len(seen) >= 2
    assert max(m.nrows * m.ncols for m in seen) >= 1000
    for mat in seen:
        assert_same_factors(mat, SUBSETS)
