"""Tests for the finite cofibration-category tables and their validator."""

import hashlib
import itertools
import json
import operator
import os
import pathlib
import subprocess
import sys
import time

import pytest

from chaintrace import axioms, wcat
from chaintrace.axioms import axiom5_bound, check_axioms
from chaintrace.cli import main
from chaintrace.endo import end_category, validate_exact_functor
from chaintrace.errors import CapExceededError, InputParseError, ValidationError
from chaintrace.nerve import weq_nerve
from chaintrace.tables import parse_category_file, serialize_category
from chaintrace.waldhausen import SCategory, s_k_objects
from chaintrace.wcat import (
    category_from_selector,
    finite_modules,
    pointed_sets,
    trivial_category,
    validate_waldhausen,
    vect_gf,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_trivial_category_valid():
    C = trivial_category()
    assert C.object_count() == 1
    report = validate_waldhausen(C)
    assert report.ok
    assert report.checks_run == 9


def test_vect_objects_and_labels():
    C = vect_gf(2, 2)
    assert [C.object_label(i) for i in range(C.object_count())] == [
        "0",
        "F2^1",
        "F2^2",
    ]
    # hom(F2, F2^2) is the set of linear maps F2 -> F2^2.
    assert len(C.hom_ids(1, 2)) == 4
    # The three nonzero maps are injective, hence cofibrations.
    assert sum(1 for m in C.hom_ids(1, 2) if C.is_cofibration_id(m)) == 3


def test_vect_validator_check_count():
    report = validate_waldhausen(vect_gf(2, 2))
    assert report.ok
    assert report.checks_run == 22794


def test_vect21_validator():
    report = validate_waldhausen(vect_gf(2, 1))
    assert report.ok
    assert report.checks_run == 48


def test_pointed_sets_valid():
    C = pointed_sets(2)
    assert [C.object_label(i) for i in range(C.object_count())] == ["S0", "S1", "S2"]
    report = validate_waldhausen(C)
    assert report.ok
    assert report.checks_run == 602


def test_finite_modules_labels_and_validator():
    C = finite_modules(2, 4)
    assert [C.object_label(i) for i in range(C.object_count())] == [
        "0",
        "Z/2",
        "Z/2+Z/2",
        "Z/4",
    ]
    report = validate_waldhausen(C)
    assert report.ok
    assert report.checks_run == 25322


def test_finite_modules_requires_prime():
    with pytest.raises(ValidationError):
        finite_modules(4, 4)


def digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()


# recorded when vect_gf enumerated, composed and flagged its own matrices and
# built its witnesses by Smith elimination over GF(q)
S2_DIGESTS = {
    "trivial": "0cf2a5766e0f3a900f6ec02653aa0982a1b3ae9b84ac396fe5b080c4e1cb4c4d",
    "vect_gf:2:1": "04d45de4d2e0d4ff4c46ce5fde566d7ab5c6e54f16ace32d63e8357de2608197",
    "vect_gf:2:2": "e9b3b7a5d2348c05a31cb5b0cdc0b830adac4e436cba422e76eb52254105ef72",
    "vect_gf:2:3": "f0d52639fc5f93f6dfd72d15042cb93126f9cfeb83a90ffb2b88242c13ce2dfb",
    "vect_gf:3:1": "66c1079c11035dc1ccecdd1d376ecbc7bd320946f93847f5cd60baa99e9ff27e",
    "vect_gf:3:2": "e03c7de4c51fd197bfe5fd833febbbb4dae17f247e6b98b6b9a2dbf675f51f84",
    "vect_gf:5:1": "2c17e75f727a2e1a35be4c09ea03b6e9af24ca23463a8be0ab8c0fae80c7322f",
}
TABLE_DIGESTS = {
    "trivial": "8bd28ad0e01af0bf15b92fa945ddc3f36cd3f0f3a27c018415b97b592beaf001",
    "vect_gf:2:1": "2371156e39ac62c12ba8d4cb0c1e2f7385025f243980202b1352b6b68f341239",
    "vect_gf:2:2": "e8bed785433676ea2d2da996db1488c2427ce799a6c8a4d4f3dcf3629002f72a",
}


@pytest.mark.parametrize("selector", sorted(S2_DIGESTS))
def test_vect_flag_grids_are_pinned(selector):
    assert digest(repr(s_k_objects(category_from_selector(selector), 2))) == S2_DIGESTS[selector]


@pytest.mark.parametrize("selector", sorted(TABLE_DIGESTS))
def test_vect_tables_are_pinned(selector):
    text = serialize_category(category_from_selector(selector), labels=False)
    assert digest(text) == TABLE_DIGESTS[selector]


# one character per morphism, "1" for a weak equivalence, hom sets in
# object order; recorded when each family flagged its weak equivalences
# with its own rule
WEQ_DIGESTS = {
    "vect_gf:2:2": "a6be78eb09f92abfbaeb193abc9205570b4408736e52becf2a5c6ff9dad020cc",
    "vect_gf:3:1": "8162e509861bf0b9ccdb512d6abb780ed03beacb777c62b761562a9c2458de5d",
    "pointed_sets:3": "c6b89bf3885a037c37de2dd10381a195e419c59aa1c9fdf76ab7446e4016dceb",
    "finite_modules:2:8": "bf37969b4c840625fed389b9e443f7a9c07ab816fb03832050dd95acf3af3953",
}


@pytest.mark.parametrize("selector", sorted(WEQ_DIGESTS))
def test_weak_equivalence_flags_are_pinned(selector):
    C = category_from_selector(selector)
    objects = range(C.object_count())
    flags = "".join(
        "1" if C.is_weq_id(m) else "0" for a in objects for b in objects for m in C.hom_ids(a, b)
    )
    assert digest(flags) == WEQ_DIGESTS[selector]


@pytest.mark.parametrize("q, bound", [(2, 2), (3, 1), (5, 1)])
def test_vect_gf_is_finite_modules_on_elementary_objects(q, bound):
    V, M = vect_gf(q, bound), finite_modules(q, q**bound)
    into = [M.object_index((q,) * n) for n in range(bound + 1)]
    assert [V.object_payload(a) for a in range(V.object_count())] == [M.object_payload(a) for a in into]
    for a, b in itertools.product(range(V.object_count()), repeat=2):
        vs, ms = V.hom_ids(a, b), M.hom_ids(into[a], into[b])
        assert [V.mor_payload(m) for m in vs] == [M.mor_payload(m) for m in ms]
        assert [V.is_cofibration_id(m) for m in vs] == [M.is_cofibration_id(m) for m in ms]
        assert [V.is_weq_id(m) for m in vs] == [M.is_weq_id(m) for m in ms]
        for c in range(V.object_count()):
            after = zip(V.hom_ids(b, c), M.hom_ids(into[b], into[c]))
            for (vf, mf), (vg, mg) in itertools.product(zip(vs, ms), after):
                assert V.mor_payload(V.compose_ids(vg, vf)) == M.mor_payload(M.compose_ids(mg, mf))


@pytest.mark.parametrize("q", [3, 5])
def test_vect_gf_witnesses_are_pushouts(q):
    C = vect_gf(q, 1)
    spans = [(i, f) for a in range(2) for i in C.cofibs_from(a) for c in range(2) for f in C.hom_ids(a, c)]
    witnesses = [(i, f, C.pushout_witness(i, f)) for i, f in spans]
    assert sum(w is not None for *_, w in witnesses) == len(spans) - 1  # F_q + F_q over 0 is too big
    assert all(C.is_pushout(i, f, *w) for i, f, w in witnesses if w is not None)


@pytest.mark.parametrize("p, bound", [(2, 16), (3, 9)])
def test_socle_test_matches_the_elements(p, bound):
    # a map is a cofibration iff it is injective: no nonzero element of the
    # source maps to zero
    C = finite_modules(p, bound)
    for a, b in itertools.product(range(C.object_count()), repeat=2):
        src, dst = C.object_payload(a), C.object_payload(b)
        elements = [x for x in itertools.product(*map(range, src)) if any(x)]
        for m in C.hom_ids(a, b):
            rows = C.mor_payload(m)
            image = (tuple(sum(map(operator.mul, row, x)) % d for row, d in zip(rows, dst)) for x in elements)
            injective = all(map(any, image))
            assert C.is_cofibration_id(m) == injective


def test_cofibs_from_counts():
    C = vect_gf(2, 2)
    assert [len(C.cofibs_from(a)) for a in range(3)] == [3, 4, 6]


def test_iso_ids():
    C = vect_gf(2, 2)
    assert len(C.iso_ids(2, 2)) == 6
    assert len(C.iso_ids(1, 2)) == 0
    for m in C.iso_ids(2, 2):
        assert C.is_weq_id(m)


def test_compose_memo_is_keyed_by_the_first_map_and_skips_failures():
    C = vect_gf(2, 2)
    f = C.hom_ids(1, 2)[1]  # F2^1 -> F2^2, onto the second coordinate
    g = C.hom_ids(2, 1)[1]  # F2^2 -> F2^1, the second coordinate
    for _ in range(2):
        with pytest.raises(ValidationError, match="cannot compose"):
            C.compose_ids(f, f)
    assert f not in C._compose_cache
    assert C.compose_ids(g, f) == C.identity_id(1)
    fg = C.compose_ids(f, g)
    assert C.mor_payload(fg) == ((0, 0), (0, 1))
    assert C._compose_cache[f] == {g: C.identity_id(1)}
    assert C._compose_cache[g] == {f: fg}


def nested_iso_scan(C, a, b):
    """Isomorphisms a -> b by trying every weak equivalence b -> a as an inverse."""
    ida, idb = C.identity_id(a), C.identity_id(b)
    return tuple(
        m
        for m in C.weq_ids(a, b)
        if any(C.compose_ids(n, m) == ida and C.compose_ids(m, n) == idb for n in C.weq_ids(b, a))
    )


@pytest.mark.parametrize(
    "make",
    [
        trivial_category,
        lambda: vect_gf(2, 1),
        lambda: vect_gf(2, 2),
        lambda: vect_gf(2, 3),
        lambda: pointed_sets(2),
        lambda: pointed_sets(3),
        lambda: finite_modules(2, 4),
        lambda: SCategory(vect_gf(2, 2), 1),
        lambda: SCategory(vect_gf(2, 2), 2),
        # flags every endomorphism of F2^2 as a weak equivalence, so not
        # every weak equivalence is invertible
        lambda: parse_category_file(os.path.join(DATA, "corrupt_axiom5.txt"), validate=False),
    ],
    ids=[
        "trivial", "vect21", "vect22", "vect23", "pointed2", "pointed3", "mod24",
        "S1vect22", "S2vect22", "noninvertible-weqs",
    ],
)
def test_iso_ids_match_the_nested_inverse_scan(make):
    C = make()
    pairs = [(a, b) for a in range(C.object_count()) for b in range(C.object_count())]
    # both orders of asking: automorphisms first, and a torsor before its Aut(a)
    for order in (pairs, pairs[::-1]):
        fresh = make()
        for a, b in order:
            assert fresh.iso_ids(a, b) == nested_iso_scan(fresh, a, b), (a, b)


@pytest.mark.parametrize(
    "make",
    [lambda: vect_gf(2, 2), lambda: pointed_sets(2), lambda: finite_modules(2, 4)],
    ids=["vect22", "pointed2", "mod24"],
)
def test_iso_inverse_is_the_first_two_sided_inverse_in_hom_order(make):
    C = make()
    n = C.object_count()
    for a in range(n):
        for b in range(n):
            ida, idb = C.identity_id(a), C.identity_id(b)
            for m in C.hom_ids(a, b):
                inverses = [
                    x for x in C.hom_ids(b, a) if C.compose_ids(x, m) == ida and C.compose_ids(m, x) == idb
                ]
                assert C.iso_inverse(m) == (inverses[0] if inverses else None), C.mor_label(m)


def report_digest(report) -> str:
    data = json.dumps([report.subject, report.checks_run, report.issues, report.skipped])
    return hashlib.sha256(data.encode()).hexdigest()[:16]


# checks_run and a digest of (subject, checks_run, issues, skipped), recorded
# before axiom 5 looked up the related witnesses once per corner triple
PINNED_REPORTS = {
    "trivial": (9, "0b9329843a8282d7"),
    "pointed_sets:0": (9, "4de0992384870823"),
    "pointed_sets:1": (48, "5bc8f73de12cb6ac"),
    "pointed_sets:2": (602, "de8da4b5ec2fee9f"),
    "vect_gf:2:1": (48, "b2ca6ef72618f9ce"),
    "vect_gf:2:2": (22794, "9a2943675adf792b"),
    "vect_gf:3:1": (122, "2257c396dc1a4822"),
    "vect_gf:5:1": (1470, "50a6eeee5b980173"),
    "finite_modules:2:3": (48, "c184c4e7f496e38a"),
    "finite_modules:2:4": (25322, "a4261cae8722989b"),
    "finite_modules:2:5": (25322, "1577c4f68f2c0be7"),
    "finite_modules:3:2": (9, "7ef4ad6bcc46453e"),
    "corrupt_axiom1.txt": (16086, "5f13f3a66377e3a1"),
    "corrupt_axiom2.txt": (22784, "536f430d13737818"),
    "corrupt_axiom3.txt": (22792, "fdc13b7643412798"),
    "corrupt_axiom4.txt": (22754, "f30be6111acc93e9"),
    "corrupt_axiom5.txt": (237828, "553193aadcc84805"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_validator_reports_are_pinned(name):
    if name.endswith(".txt"):
        C = parse_category_file(os.path.join(DATA, name), validate=False)
    else:
        C = category_from_selector(name)
    report = validate_waldhausen(C)
    assert (report.checks_run, report_digest(report)) == PINNED_REPORTS[name]


def test_pushout_witness_of_two_lines():
    C = vect_gf(2, 2)
    i = [m for m in C.hom_ids(0, 1) if C.is_cofibration_id(m)][0]
    d, u, v = C.pushout_witness(i, i)
    assert C.object_label(d) == "F2^2"
    for leg in (u, v):
        assert C.mor_source(leg) == 1
        assert C.mor_target(leg) == 2
    # The cobase change of a cofibration is a cofibration.
    assert C.is_cofibration_id(u)


def test_pushout_search_stops_at_its_step_cap(monkeypatch, capsys):
    # corrupt_axiom3 drops the witness of (m1, m1), so the validator's
    # brute-force search runs and finds the pushout.  One step is one
    # mediating-map test of a candidate square against a commuting square.
    path = os.path.join(DATA, "corrupt_axiom3.txt")
    C = parse_category_file(path, validate=False)
    n = C.object_count()
    (m1,) = [m for a in range(n) for b in range(n) for m in C.hom_ids(a, b) if C.mor_label(m) == "m1"]
    steps = []
    mediating = wcat.WCategory.mediating_ids

    def counted(self, *args):
        steps.append(args)
        return mediating(self, *args)

    monkeypatch.setattr(wcat.WCategory, "mediating_ids", counted)
    found = C.find_pushout(m1, m1)
    assert found is not None and len(steps) == 48

    monkeypatch.setattr(wcat, "PUSHOUT_SEARCH_CAP", 48)
    assert C.find_pushout(m1, m1) == found
    monkeypatch.setattr(wcat, "PUSHOUT_SEARCH_CAP", 47)
    with pytest.raises(CapExceededError, match=r"\(m1, m1\) over \d+ commuting squares passed 47 steps"):
        C.find_pushout(m1, m1)
    with pytest.raises(CapExceededError):
        validate_waldhausen(C)
    assert main(["validate", path]) == 4
    assert "error (cap): pushout search" in capsys.readouterr().err


def composable_triples(C) -> int:
    """h∘g∘f counted by walking the hom sets, as the associativity scan does."""
    n = C.object_count()
    mors = [m for a in range(n) for b in range(n) for m in C.hom_ids(a, b)]
    out_of = {}
    for m in mors:
        out_of.setdefault(C.mor_source(m), []).append(m)
    return sum(
        len(out_of.get(C.mor_target(g), ())) for f in mors for g in out_of.get(C.mor_target(f), ())
    )


@pytest.mark.parametrize(
    "make, triples",
    [(lambda: pointed_sets(2), 2457), (lambda: vect_gf(2, 2), 8507), (lambda: finite_modules(2, 4), 15418)],
    ids=["pointed2", "vect22", "mod24"],
)
def test_triple_cap_is_checked_on_the_predicted_count(monkeypatch, make, triples):
    assert composable_triples(make()) == triples
    monkeypatch.setattr(wcat, "TRIPLE_CAP", triples)
    assert validate_waldhausen(make()).ok
    monkeypatch.setattr(wcat, "TRIPLE_CAP", triples - 1)
    with pytest.raises(CapExceededError, match=f"has {triples} composable triples .* above {triples - 1}"):
        validate_waldhausen(make())


def test_morphism_cap_counts_interned_morphisms(monkeypatch):
    # pointed_sets(2) has 23 morphisms: (n + 1)^m from m to n points
    C = pointed_sets(2)
    n = C.object_count()
    assert sum(len(C.hom_ids(a, b)) for a in range(n) for b in range(n)) == len(C._mor_payload) == 23
    monkeypatch.setattr(wcat, "MORPHISM_CAP", 23)
    assert validate_waldhausen(pointed_sets(2)).ok
    monkeypatch.setattr(wcat, "MORPHISM_CAP", 22)
    with pytest.raises(CapExceededError, match="more than 22 morphisms"):
        validate_waldhausen(pointed_sets(2))


def axiom5_work(monkeypatch, C) -> tuple[int, int]:
    """(axiom5_bound, checks the axiom-5 scan runs) for one validation of C.

    The axiom-5 scan closes check_axioms, the body of validate_waldhausen,
    and only it asks for mediating maps straight from check_axioms; axioms
    3 and 4 ask through is_pushout and find_pushout.  Its first check always asks, as
    each witness starts an empty memo, so the scan's checks are the
    report's checks from that one on.
    """
    bounds = []
    first = []
    mediating = wcat.WCategory.mediating_ids

    def recorded_bound(*args):
        bounds.append(axiom5_bound(*args))
        return bounds[-1]

    def counted(self, *args):
        frame = sys._getframe(1)
        if frame.f_code is check_axioms.__code__ and not first:
            first.append(frame.f_locals["report"].checks_run)
        return mediating(self, *args)

    with monkeypatch.context() as m:
        m.setattr(axioms, "axiom5_bound", recorded_bound)
        m.setattr(wcat.WCategory, "mediating_ids", counted)
        report = validate_waldhausen(C)
    (bound,) = bounds
    return bound, (report.checks_run - first[0] + 1 if first else 0)


@pytest.mark.parametrize(
    "make",
    [
        trivial_category,
        lambda: vect_gf(2, 1),
        lambda: vect_gf(2, 2),
        lambda: pointed_sets(2),
        lambda: finite_modules(2, 4),
        lambda: end_category(vect_gf(2, 1))[0],
        lambda: SCategory(vect_gf(2, 1), 2),
        lambda: parse_category_file(os.path.join(DATA, "corrupt_axiom5.txt"), validate=False),
    ],
    ids=["trivial", "vect21", "vect22", "pointed2", "mod24", "end-vect21", "s2-vect21", "corrupt-axiom5"],
)
def test_axiom5_bound_covers_the_scan(monkeypatch, make):
    bound, checks = axiom5_work(monkeypatch, make())
    assert 0 < checks <= bound


@pytest.mark.parametrize(
    "make, bound",
    [(lambda: pointed_sets(2), 2935), (lambda: vect_gf(2, 2), 2013075)],
    ids=["pointed2", "vect22"],
)
def test_axiom5_cap_refuses_exactly_above_the_bound(monkeypatch, make, bound):
    monkeypatch.setattr(wcat, "AXIOM5_CAP", bound)
    assert validate_waldhausen(make()).ok
    monkeypatch.setattr(wcat, "AXIOM5_CAP", bound - 1)
    with pytest.raises(CapExceededError, match=f"has {bound} weak-equivalence triples .* above {bound - 1}"):
        validate_waldhausen(make())


def test_caps_sit_above_the_largest_tested_categories(monkeypatch):
    # the composite-index test enumerates every hom set of S_2(pointed_sets(3))
    assert wcat.MORPHISM_CAP > 27874
    assert wcat.TRIPLE_CAP > composable_triples(pointed_sets(3)) == 704836
    corrupt = parse_category_file(os.path.join(DATA, "corrupt_axiom5.txt"), validate=False)
    assert wcat.AXIOM5_CAP > axiom5_work(monkeypatch, corrupt)[0] == 37906425


def scan_asks(monkeypatch, C) -> list:
    """The mediating_ids calls the axiom-5 scan makes in one validation of C."""
    asks = []
    mediating = wcat.WCategory.mediating_ids

    def counted(self, *args):
        if sys._getframe(1).f_code is check_axioms.__code__:
            asks.append(args)
        return mediating(self, *args)

    with monkeypatch.context() as m:
        m.setattr(wcat.WCategory, "mediating_ids", counted)
        assert validate_waldhausen(C).ok
    return asks


def test_axiom5_scan_memoizes_squares_per_witness(monkeypatch):
    # vect_gf(2, 2): the scan's 21,913 checks ask mediating_ids once per
    # distinct square of a witness, 661 times; only 156 squares and 43
    # pairs of legs are distinct in all, since witnesses share legs and
    # each witness starts an empty memo
    assert axiom5_work(monkeypatch, vect_gf(2, 2)) == (2013075, 21913)
    asks = scan_asks(monkeypatch, vect_gf(2, 2))
    assert (len(asks), len(set(asks))) == (661, 156)


@pytest.mark.parametrize(
    "make",
    [
        lambda: vect_gf(2, 2),
        lambda: pointed_sets(2),
        lambda: SCategory(vect_gf(2, 1), 2),
        lambda: parse_category_file(os.path.join(DATA, "corrupt_axiom5.txt"), validate=False),
    ],
    ids=["vect22", "pointed2", "s2-vect21", "corrupt-axiom5"],
)
def test_validation_leaves_no_mediating_memo(make):
    C = make()
    validate_waldhausen(C)
    assert C._mediating_cache == {}


def test_grid_builders_keep_their_mediating_memo():
    C = vect_gf(2, 2)
    S = SCategory(C, 2)
    # S_2's cofibrations read the top-row comparison maps of C
    cofibs = [S.cofibs_from(a) for a in range(S.object_count())]
    kept = dict(C._mediating_cache)
    assert kept
    assert validate_waldhausen(C).ok
    assert C._mediating_cache == kept
    assert [S.cofibs_from(a) for a in range(S.object_count())] == cofibs


@pytest.mark.parametrize("make", [lambda: vect_gf(2, 2), lambda: SCategory(vect_gf(2, 1), 1)], ids=["vect22", "s1-vect21"])
def test_nerve_faces_leave_the_composition_memo_alone(make):
    # each string of a nerve below level 3 asks for its own composite, so
    # the faces compose outside C's memo
    C = make()
    before = {f: dict(row) for f, row in C._compose_cache.items()}
    X = weq_nerve(C, 2)
    assert C._compose_cache == before
    assert X.validate().ok


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_limited(argv, address_space):
    """The CLI in a subprocess whose address space is capped, with its wall time."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "chaintrace.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit,
    )
    return proc, time.perf_counter() - start


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize(
    "argv, cap",
    [
        (["validate", "pointed_sets:4"], "TRIPLE_CAP"),
        (["validate", "vect_gf:2:3"], "TRIPLE_CAP"),
        (["validate", "pointed_sets:7"], "MORPHISM_CAP"),
        (["validate", "pointed_sets", "--bound", "9"], "MORPHISM_CAP"),
        (["validate", "vect_gf:2:5"], "MORPHISM_CAP"),
        (["validate", "vect_gf:3:2"], "AXIOM5_CAP"),
        (["validate", "finite_modules:3:9"], "AXIOM5_CAP"),
        # hom sets of up to 3^25 maps: refused only if they stream into the cap
        (["validate", "finite_modules:3:243"], "MORPHISM_CAP"),
    ],
)
def test_validate_refuses_large_categories_quickly(argv, cap):
    proc, seconds = run_limited(argv, address_space=200 << 20)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error (cap): category ") and f"({cap})" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert seconds < 5, seconds


def test_cokernel_candidate_counts():
    C = vect_gf(2, 2)
    line_into_plane = [m for m in C.hom_ids(1, 2) if C.is_cofibration_id(m)][0]
    assert len(C.cokernel_candidates(line_into_plane)) == 1
    zero_into_plane = C.hom_ids(0, 2)[0]
    # Quotients of F2^2 by 0: one per automorphism of F2^2.
    assert len(C.cokernel_candidates(zero_into_plane)) == 6


def test_end_category_and_functors():
    C = vect_gf(2, 1)
    E, iota0, iota1, forget = end_category(C)
    # Objects of End(C) are pairs (object, endomorphism).
    assert E.object_count() == 3
    assert validate_waldhausen(E).ok
    for name, S, T, functor in (
        ("iota_0", C, E, iota0), ("iota_1", C, E, iota1), ("forget", E, C, forget)
    ):
        assert validate_exact_functor(name, S, T, functor).ok
    # forget is a retraction of both sections on objects.
    for a in range(C.object_count()):
        assert forget[0](iota0[0](a)) == a
        assert forget[0](iota1[0](a)) == a


def test_validate_exact_functor_records_each_failure():
    C = vect_gf(2, 1)
    (to_zero,) = C.hom_ids(1, 0)
    zero, ident = C.hom_ids(1, 1)
    # the identity functor, except that F2 -> 0 goes to a map F2 -> F2 and
    # the identity and zero endomorphisms of F2 trade places
    swap = {to_zero: ident, zero: ident, ident: zero}
    report = validate_exact_functor("broken", C, C, (lambda a: a, lambda m: swap.get(m, m)))
    assert not report.ok
    for failure in (
        "endpoints of Hom(F2^1,0)[0] are not preserved",
        "cofibration flag of Hom(F2^1,F2^1)[1] is not preserved",
        "composition Hom(F2^1,F2^1)[1] ∘ Hom(F2^1,F2^1)[0] is not preserved",
    ):
        assert failure in report.issues


def test_category_from_selector():
    assert category_from_selector("vect_gf:2:2").object_count() == 3
    assert category_from_selector("trivial").object_count() == 1
    assert category_from_selector("pointed_sets:2").object_count() == 3
    assert category_from_selector("finite_modules:2:4").object_count() == 4
    with pytest.raises(InputParseError):
        category_from_selector("nope(3)")


@pytest.mark.parametrize(
    "filename, axiom",
    [
        ("corrupt_axiom1.txt", "axiom 1"),
        ("corrupt_axiom2.txt", "axiom 2"),
        ("corrupt_axiom3.txt", "axiom 3"),
        ("corrupt_axiom4.txt", "axiom 4"),
        ("corrupt_axiom5.txt", "axiom 5"),
    ],
)
def test_corrupted_tables_fail_their_axiom(filename, axiom):
    C = parse_category_file(os.path.join(DATA, filename), validate=False)
    report = validate_waldhausen(C)
    assert not report.ok
    assert report.issues
    assert all(axiom in issue for issue in report.issues)
