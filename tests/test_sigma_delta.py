"""Tests for multidirection flag diagrams and their operator actions."""

import gc
import hashlib
import tracemalloc
from array import array
from itertools import chain, combinations_with_replacement, permutations, product

import pytest

from chaintrace.errors import CapExceededError, InputParseError
from chaintrace.nerve import PointedSimplicialSet
from chaintrace.sigma_delta import (
    SigmaDeltaDiagram,
    free_sigma_delta,
    ktheory_sigma_delta,
    sigma_delta_validate,
    weq_nerve,
)
from chaintrace.waldhausen import FlatLevel, ws_diagonal
from chaintrace.wcat import finite_modules, pointed_sets, trivial_category, vect_gf

ALL_KEYS = (
    (0, ()),
    (1, (0,)),
    (1, (1,)),
    (1, (2,)),
    (2, (0, 0)),
    (2, (0, 1)),
    (2, (0, 2)),
    (2, (1, 0)),
    (2, (1, 1)),
    (2, (1, 2)),
    (2, (2, 0)),
    (2, (2, 1)),
    (2, (2, 2)),
)


@pytest.fixture(scope="module")
def vect_diagram():
    return ktheory_sigma_delta(vect_gf(2, 2))


def test_key_grid(vect_diagram):
    assert vect_diagram.keys == ALL_KEYS
    assert free_sigma_delta(2).keys == ALL_KEYS


def test_entry_level_sizes(vect_diagram):
    sizes = {
        key: [len(level) for level in vect_diagram.entry(key).levels]
        for key in vect_diagram.keys
    }
    # A zero flag width forces a single basepoint.
    for key in ((1, (0,)), (2, (0, 0)), (2, (0, 2)), (2, (2, 0))):
        assert sizes[key] == [1, 1, 1]
    # One direction of width k is the nerve of S_k.
    assert sizes[(0, ())] == [3, 8, 38]
    assert sizes[(1, (1,))] == [3, 8, 38]
    assert sizes[(1, (2,))] == [18, 453, 15663]
    # Width-1 directions change nothing up to isomorphism.
    assert sizes[(2, (1, 2))] == [18, 453, 15663]
    assert sizes[(2, (2, 1))] == [18, 453, 15663]


def test_large_entry_is_truncated_with_recorded_skip(vect_diagram):
    assert [len(level) for level in vect_diagram.entry((2, (2, 2))).levels] == [950]
    assert len(vect_diagram.skips) == 1
    assert "not materialized" in vect_diagram.skips[0]
    assert "950" in vect_diagram.skips[0]


def test_flag_diagram_keeps_its_strings_in_flat_levels():
    # three levels hold 15,663 strings each; kept as tuples of handles, the
    # strings held the built diagram at 6.7 MB
    gc.collect()
    tracemalloc.start()
    try:
        d = ktheory_sigma_delta(vect_gf(2, 2))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(len(level) for key in d.keys for level in d.entry(key).levels)[-3:] == [15663] * 3
    assert kept < 5 * 2**20, f"{kept / 2**20:.2f} MB kept"


def test_vect_diagram_validates(vect_diagram):
    report = sigma_delta_validate(vect_diagram)
    assert report.ok
    assert report.checks_run == 395467
    assert len(report.skipped) == 1


def test_building_and_validating_a_diagram_leaves_no_reference_cycles():
    # the structure maps are built by loops, not by closures that call
    # themselves, so a dropped diagram is freed by reference counting
    C = vect_gf(2, 2)
    gc.collect()
    gc.disable()
    try:
        assert sigma_delta_validate(ktheory_sigma_delta(C)).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_broken_image_table_is_reported_per_operator(monkeypatch):
    # no table outlives its reader, so the break goes in where tables are built
    d = ktheory_sigma_delta(vect_gf(2, 1))
    ident = (0, 1)
    args = ((1, (1,)), (2, (1, 1)), (1,), (ident, ident))
    act_level = SigmaDeltaDiagram.act_level
    assert list(act_level(d, *args, 1)) == [0, 1]

    def broken_act_level(self, *call):
        table = act_level(self, *call)
        if call == (*args, 1):
            table[1] = 0
        return table

    monkeypatch.setattr(SigmaDeltaDiagram, "act_level", broken_act_level)
    report = sigma_delta_validate(d)
    assert report.checks_run == 855
    name = "map (1, (1,)) -> (2, (1, 1))"
    assert report.issues == [
        f"{name} is not a bijection at level 1",
        f"{name} does not commute with d_0 at level 1",
        f"{name} does not commute with d_1 at level 1",
        f"{name} does not commute with d_0 at level 2",
        f"{name} does not commute with d_1 at level 2",
        f"{name} does not commute with d_2 at level 2",
        f"{name} does not commute with s_0 at level 0",
        f"{name} does not commute with s_0 at level 1",
        f"{name} does not commute with s_1 at level 1",
        "structure maps (0, ()) -> (1, (1,)) -> (2, (1, 1)) do not compose functorially at level 1",
    ]


def test_trivial_diagram():
    d = ktheory_sigma_delta(trivial_category())
    assert not d.skips
    for key in d.keys:
        assert [len(level) for level in d.entry(key).levels] == [1, 1, 1]
    assert sigma_delta_validate(d).ok


@pytest.mark.parametrize(
    "build",
    [lambda: pointed_sets(2), lambda: vect_gf(3, 1), lambda: finite_modules(2, 4)],
    ids=["pointed_sets(2)", "vect_gf(3,1)", "finite_modules(2,4)"],
)
def test_more_flag_diagrams_validate(build):
    assert sigma_delta_validate(ktheory_sigma_delta(build())).ok


def _morphisms(src_key, dst_key):
    """Every (f, phis) from src_key to dst_key: each injection f and each
    tuple of monotone operators into the widths it leaves."""
    (m, js), (n, ks) = src_key, dst_key
    for f in permutations(range(1, n + 1), m):
        widths = [js[f.index(i)] if i in f else 1 for i in range(1, n + 1)]
        choices = [
            tuple(combinations_with_replacement(range(w + 1), k + 1)) for w, k in zip(widths, ks)
        ]
        for phis in product(*choices):
            yield f, phis


def test_every_structure_map_matches_its_recorded_tables():
    # an exhaustive oracle: the image table of every morphism between the
    # 13 keys at every nerve level both entries hold, hashed in key order;
    # the digest was recorded from an earlier construction that built each
    # (m, n, f) shape of structure map separately
    d = ktheory_sigma_delta(vect_gf(2, 1))
    digest = hashlib.sha256()
    tables = 0
    for src in d.keys:
        for dst in d.keys:
            top = min(d.entry(src).top_level, d.entry(dst).top_level)
            for f, phis in _morphisms(src, dst):
                for level in range(top + 1):
                    table = d.act_level(src, dst, f, phis, level)
                    digest.update(repr((src, dst, f, phis, level, tuple(table))).encode())
                    tables += 1
    assert tables == 7806
    assert digest.hexdigest() == "e6522c8c6e43e17cc3794d328485fe1cd7ba6f538e4c54024551377ae04e5e1a"


def test_free_diagrams_validate():
    for points in (1, 2):
        d = free_sigma_delta(points)
        assert not d.skips
        report = sigma_delta_validate(d)
        assert report.ok
        assert not report.skipped


def test_free_entry_sizes():
    d = free_sigma_delta(2)
    # One nondegenerate cell per point and cut position, plus a basepoint.
    assert [len(level) for level in d.entry((1, (2,))).levels] == [5, 5, 5]
    assert [len(level) for level in d.entry((2, (2, 2))).levels] == [9, 9, 9]


def test_identity_operator_acts_as_identity():
    d = free_sigma_delta(1)
    key = (1, (1,))
    for level in range(3):
        size = len(d.entry(key).levels[level])
        images = [d.act_index(key, key, (1,), ((0, 1),), level, i) for i in range(size)]
        assert images == list(range(size))
        assert tuple(d.act_level(key, key, (1,), ((0, 1),), level)) == tuple(images)


def test_collapsing_operator_hits_the_basepoint():
    d = free_sigma_delta(1)
    key = (1, (1,))
    # phi constant at 0 restricts every flag to its zero slice.
    images = {d.act_index(key, key, (1,), ((0, 0),), 0, i) for i in range(2)}
    assert images == {0}


def test_width_one_insertion_is_a_bijection(vect_diagram):
    src, dst = (1, (2,)), (2, (1, 2))
    for level in range(2):
        size = len(vect_diagram.entry(src).levels[level])
        assert len(vect_diagram.entry(dst).levels[level]) == size
        images = sorted(
            vect_diagram.act_index(src, dst, (2,), ((0, 1), (0, 1, 2)), level, i)
            for i in range(size)
        )
        assert images == list(range(size))


def test_unknown_entry_key(vect_diagram):
    with pytest.raises(InputParseError):
        vect_diagram.entry((3, (1, 1, 1)))


def test_acting_on_truncated_level(vect_diagram):
    key = (2, (2, 2))
    with pytest.raises(CapExceededError):
        vect_diagram.act_index(key, key, (1, 2), ((0, 1, 2), (0, 1, 2)), 1, 0)


@pytest.mark.parametrize(
    "build",
    [lambda: free_sigma_delta(2), lambda: ktheory_sigma_delta(trivial_category())],
    ids=["free", "ktheory"],
)
def test_acting_above_the_top_level(build):
    # both diagrams keep nerve levels 0..2; level 3 is a cap, not an index
    d = build()
    key = (1, (2,))
    with pytest.raises(CapExceededError, match="nerve level 3 is not materialized"):
        d.act_index(key, key, (1,), ((0, 1, 2),), 3, len(d.entry(key).levels[0]) - 1)


def test_weq_nerve_of_trivial_category():
    ps = weq_nerve(trivial_category(), 2)
    assert [len(level) for level in ps.levels] == [1, 1, 1]
    assert ps.validate().ok


def test_weq_nerve_strings_are_flat():
    C = vect_gf(2, 1)
    z, line = 0, 1  # the objects 0 and F2^1
    idz, idl = C.identity_id(z), C.identity_id(line)
    ps = weq_nerve(C, 2)
    # F2^1 has no automorphism but its identity, so level 2 holds two strings
    assert ps.levels[2] == ((z, idz, idz), (line, idl, idl))
    assert ps.levels[1] == ((z, idz), (line, idl))
    x = ps.index(2, (line, idl, idl))
    # d_0 drops the first map, d_1 composes the two, d_2 drops the last
    assert [ps.levels[1][ps.face(2, i, x)] for i in range(3)] == [(line, idl)] * 3
    y = ps.index(1, (line, idl))
    assert [ps.levels[2][ps.degeneracy(1, i, y)] for i in range(2)] == [(line, idl, idl)] * 2
    assert ps.validate().ok


def test_simplicial_sets_keep_no_position_lookup(vect_diagram):
    # tabulate and act_level build a lookup for each table and drop it;
    # index() scans the level
    same = (lambda n, i: lambda level: level,) * 2
    free = PointedSimplicialSet.tabulate("free", [FlatLevel.pack([(0,), (1,), (2,)])] * 3, *same)
    sets = [free, weq_nerve(vect_gf(2, 2), 2), ws_diagonal(vect_gf(2, 1))]
    sets += [vect_diagram.entry(key) for key in vect_diagram.keys]
    src, dst, f, phis = (1, (2,)), (2, (1, 2)), (2,), ((0, 1), (0, 1, 2))
    table = vect_diagram.act_level(src, dst, f, phis, 1)
    assert [vect_diagram.act_index(src, dst, f, phis, 1, x) for x in (0, 452)] == [table[0], table[452]]
    for ps in sets:
        assert not [name for name, value in vars(ps).items() if isinstance(value, dict)]
        for n, level in enumerate(ps.levels):
            for x in {0, len(level) // 2, len(level) - 1}:
                assert ps.index(n, level[x]) == x
    # every table is a 4-byte array of positions
    tables = [table] + [t for ps in sets for t in chain(*ps.faces, *ps.degens)]
    assert all(isinstance(t, array) and t.itemsize == 4 for t in tables)


def test_nerve_operators_on_flat_strings():
    C = vect_gf(2, 2)
    plane = 2  # F2^2
    idp = C.identity_id(plane)
    g, h = [m for m in C.weq_ids(plane, plane) if m != idp][:2]
    assert C.compose_ids(h, g) not in (g, h, idp)
    ps = weq_nerve(C, 2)
    x = ps.index(2, (plane, g, h))
    faces = [ps.levels[1][ps.face(2, i, x)] for i in range(3)]
    assert faces == [(plane, h), (plane, C.compose_ids(h, g)), (plane, g)]
    y = ps.index(1, (plane, g))
    degens = [ps.levels[2][ps.degeneracy(1, i, y)] for i in range(2)]
    assert degens == [(plane, idp, g), (plane, g, idp)]


@pytest.mark.parametrize(
    "build",
    [lambda: free_sigma_delta(2), lambda: ktheory_sigma_delta(trivial_category())],
    ids=["free", "ktheory"],
)
@pytest.mark.parametrize(
    "f, phis",
    [
        ((1,), ((1, 0, 2),)),  # not monotone
        ((1,), ()),  # too few operators
        ((1,), ((0, 3, 3),)),  # leaves [2]
        ((2,), ((0, 1, 1),)),  # not an injection into {1}
    ],
    ids=["non-monotone", "short-phis", "out-of-range", "bad-injection"],
)
def test_structure_maps_reject_non_morphisms(build, f, phis):
    d = build()
    key = (1, (2,))
    last = len(d.entry(key).levels[0]) - 1
    with pytest.raises(InputParseError):
        d.act_index(key, key, f, phis, 0, last)
