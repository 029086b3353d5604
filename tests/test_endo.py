"""End(C) refuses before it enumerates when its zero maps alone pass the cap."""

import time

import pytest

from chaintrace import wcat
from chaintrace.endo import EndCategory
from chaintrace.errors import CapExceededError
from chaintrace.waldhausen import grothendieck_k0
from chaintrace.wcat import category_from_selector


# object counts of End(C): every endomorphism of every object of C
@pytest.mark.parametrize(
    "sel, objects",
    [("vect_gf:2:3", 531), ("pointed_sets:4", 701), ("finite_modules:2:8", 575), ("vect_gf:5:2", 631)],
)
def test_end_refuses_before_enumerating(sel, objects):
    assert objects * objects > wcat.MORPHISM_CAP
    C = category_from_selector(sel)
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=rf"End\(.*\) has more than {wcat.MORPHISM_CAP} morphisms"):
        grothendieck_k0(EndCategory(C))
    assert time.perf_counter() - start < 1.0
    # the refusal came from the object count, not from interning morphisms
    assert len(C._mor_payload) == sum(len(C.hom_ids(a, a)) for a in range(C.object_count()))


@pytest.mark.parametrize(
    "sel, objects, k0",
    [
        ("vect_gf:2:2", 19, "Z^3"),
        ("vect_gf:3:2", 85, "Z^6"),
        ("pointed_sets:3", 76, "Z^4"),
        ("finite_modules:2:4", 23, "Z^3"),
    ],
)
def test_end_below_the_cap_keeps_its_k0(sel, objects, k0):
    E = EndCategory(category_from_selector(sel))
    assert E.object_count() == objects
    assert str(grothendieck_k0(E)) == k0


def test_end_refusal_reads_the_cap_at_construction(monkeypatch):
    C = category_from_selector("vect_gf:2:1")  # End has 3 objects
    monkeypatch.setattr(wcat, "MORPHISM_CAP", 8)
    with pytest.raises(CapExceededError, match="more than 8 morphisms"):
        EndCategory(C)
    monkeypatch.setattr(wcat, "MORPHISM_CAP", 9)
    assert EndCategory(C).object_count() == 3
