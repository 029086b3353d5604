"""homology() generators and class coordinates on random complexes.

The complexes are those of tests/test_reduce_complex.py, over the same eight
rings.  In every degree below the top: each generator is a cycle whose
coordinates are the unit vector e_j; a boundary has zero coordinates; a
combination of generators plus a boundary has the combination's
coefficients as coordinates, reduced modulo the generator orders, so
coordinates are additive; and the generators match the group, one per
free summand and one per invariant factor.
"""

import pytest

from chaintrace.chain import FPModule, homology

from test_reduce_complex import RINGS, complexes, elements

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _reduced(x, order):
    return x % order if order else x


def _combination(ring, coeffs, vectors, start):
    out = list(start)
    for c, vec in zip(coeffs, vectors):
        out = [ring.add(a, ring.mul(c, b)) for a, b in zip(out, vec)]
    return tuple(out)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@hypothesis.given(data=st.data())
def test_generators_and_coordinates(ring, data):
    C = data.draw(complexes(ring), label="complex")
    hypothesis.note(f"ranks = {C.ranks}")
    for n in range(C.top_degree):
        H = homology(C, n)
        gens, orders = H.generators, H.orders
        if isinstance(H.group, FPModule):
            assert len(gens) == H.group.dimension
            assert set(orders) <= {0}
        else:
            assert orders.count(0) == H.group.free_rank
            assert tuple(sorted(o for o in orders if o)) == H.group.invariant_factors
            assert len(gens) == len(orders)
        d_n, d_np1 = C.differential(n), C.differential(n + 1)
        for j, gen in enumerate(gens):
            assert all(ring.is_zero(x) for x in d_n.apply(gen))
            assert H.coordinates(gen) == tuple(int(i == j) for i in range(len(gens)))

        def draw_vector(size, label):
            entries = data.draw(st.lists(elements(ring), min_size=size, max_size=size), label=label)
            return tuple(map(ring.normalize, entries))

        boundary = d_np1.apply(draw_vector(C.rank(n + 1), f"chain in degree {n + 1}"))
        assert H.coordinates(boundary) == tuple(0 for _ in gens)

        cycles, coords = [], []
        for label in ("a", "b"):
            coeffs = draw_vector(len(gens), f"coefficients {label}")
            shift = d_np1.apply(draw_vector(C.rank(n + 1), f"boundary {label}"))
            z = _combination(ring, coeffs, gens, shift)
            c = H.coordinates(z)
            assert c == tuple(_reduced(a, o) for a, o in zip(coeffs, orders))
            cycles.append(z)
            coords.append(c)
        total = tuple(ring.add(a, b) for a, b in zip(*cycles))
        assert H.coordinates(total) == tuple(
            _reduced(ring.add(a, b), o) for a, b, o in zip(*coords, orders)
        )
