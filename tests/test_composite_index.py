"""The composite-indexed searches against plain scans.

SCategory finds hom sets and weak-equivalence sets, and WCategory finds
mediating maps, by reading candidates grouped by their composite with a
fixed arrow.  The oracles here are the nested loops those searches
replaced: compose every candidate and compare.
"""

import pytest

from chaintrace.waldhausen import SCategory
from chaintrace.wcat import WCategory, finite_modules, pointed_sets, trivial_category, vect_gf


def scan_nat_search(S: SCategory, Xp, Yp, weq_only: bool) -> list:
    """Component tuples of the natural maps X -> Y, slot by slot, by scanning."""
    base, n = S.base, S.k + 1
    Xe, Xh, Xv = Xp
    Ye, Yh, Yv = Yp
    slots = [(i, j) for i in range(n) for j in range(n) if i < j]
    slot_pos = {s: t for t, s in enumerate(slots)}
    comps = [0] * len(slots)
    out = []

    def pick(t: int):
        if t == len(slots):
            out.append(tuple(comps))
            return
        i, j = slots[t]
        xs, ys = Xe[i][j], Ye[i][j]
        cands = base.weq_ids(xs, ys) if weq_only else base.hom_ids(xs, ys)
        for c in cands:
            if i < j - 1:
                left = comps[slot_pos[(i, j - 1)]]
                if base.compose_ids(c, Xh[i][j - 1]) != base.compose_ids(Yh[i][j - 1], left):
                    continue
            if i >= 1:
                up = comps[slot_pos[(i - 1, j)]]
                if base.compose_ids(c, Xv[i - 1][j]) != base.compose_ids(Yv[i - 1][j], up):
                    continue
            comps[t] = c
            pick(t + 1)

    pick(0)
    return out


BASES = {
    "trivial": trivial_category,
    "vect_gf(2,1)": lambda: vect_gf(2, 1),
    "vect_gf(2,2)": lambda: vect_gf(2, 2),
    "pointed_sets(2)": lambda: pointed_sets(2),
    "finite_modules(2,2)": lambda: finite_modules(2, 2),
}


# k = 3 is the first width with a slot, (1, 3), that closes two squares;
# S_3 of vect_gf(2,2) has 1.3 M morphisms, too many for a scan oracle
CASES = [(name, k) for name in BASES for k in (1, 2)] + [
    (name, 3) for name in BASES if name != "vect_gf(2,2)"
]


@pytest.mark.parametrize("name, k", CASES)
def test_nat_search_matches_the_scan(name, k):
    S = SCategory(BASES[name](), k)
    for a in range(S.object_count()):
        for b in range(S.object_count()):
            Xp, Yp = S.object_payload(a), S.object_payload(b)
            assert [S.mor_payload(m) for m in S.hom_ids(a, b)] == scan_nat_search(S, Xp, Yp, False)
            assert [S.mor_payload(m) for m in S.weq_ids(a, b)] == scan_nat_search(S, Xp, Yp, True)


@pytest.mark.parametrize("name", ["vect_gf(2,2)", "pointed_sets(2)"])
def test_mediating_ids_matches_the_scan(name):
    C = BASES[name]()
    n = C.object_count()
    witnesses = 0
    for a in range(n):
        for b in range(n):
            for i in C.hom_ids(a, b):
                if not C.is_cofibration_id(i):
                    continue
                for c in range(n):
                    for f in C.hom_ids(a, c):
                        w = C.pushout_witness(i, f)
                        if w is None:
                            continue
                        witnesses += 1
                        d, u, v = w
                        for e in range(n):
                            for p in C.hom_ids(b, e):
                                for q in C.hom_ids(c, e):
                                    if C.compose_ids(p, i) != C.compose_ids(q, f):
                                        continue
                                    scan = tuple(
                                        h
                                        for h in C.hom_ids(d, e)
                                        if C.compose_ids(h, u) == p and C.compose_ids(h, v) == q
                                    )
                                    assert C.mediating_ids(u, v, p, q) == scan
    assert witnesses > 0


def test_hom_search_composes_few_times(monkeypatch):
    # all-pairs hom_ids on S_2(pointed_sets(3)): 1,311,102 compose_ids calls
    # when every candidate is composed at every search node, 36,708 with the
    # composite index
    S = SCategory(pointed_sets(3), 2)
    calls = [0]
    compose = WCategory.compose_ids

    def counted(self, g, f):
        calls[0] += 1
        return compose(self, g, f)

    monkeypatch.setattr(WCategory, "compose_ids", counted)
    total = sum(len(S.hom_ids(a, b)) for a in range(S.object_count()) for b in range(S.object_count()))
    assert total == 27874
    assert calls[0] < 200_000, calls[0]
