"""Tests for the finite cofibration-category tables and their validator."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from chaintrace import wcat
from chaintrace.cli import main
from chaintrace.errors import CapExceededError, InputParseError, ValidationError
from chaintrace.formats import parse_category_file
from chaintrace.waldhausen import SCategory
from chaintrace.wcat import (
    category_from_selector,
    end_category,
    finite_modules,
    pointed_sets,
    trivial_category,
    validate_exact_functor,
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


def test_cofibs_from_counts():
    C = vect_gf(2, 2)
    assert [len(C.cofibs_from(a)) for a in range(3)] == [3, 4, 6]


def test_iso_ids():
    C = vect_gf(2, 2)
    assert len(C.iso_ids(2, 2)) == 6
    assert len(C.iso_ids(1, 2)) == 0
    for m in C.iso_ids(2, 2):
        assert C.is_weq_id(m)


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
    found = C.pushout_candidates(m1, m1, first_only=True)
    assert len(found) == 1 and len(steps) == 48

    monkeypatch.setattr(wcat, "PUSHOUT_SEARCH_CAP", 48)
    assert C.pushout_candidates(m1, m1, first_only=True) == found
    monkeypatch.setattr(wcat, "PUSHOUT_SEARCH_CAP", 47)
    with pytest.raises(CapExceededError, match=r"\(m1, m1\) over \d+ commuting squares passed 47 steps"):
        C.pushout_candidates(m1, m1, first_only=True)
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


def test_caps_sit_above_the_largest_tested_categories():
    # the composite-index test enumerates every hom set of S_2(pointed_sets(3))
    assert wcat.MORPHISM_CAP > 27874
    assert wcat.TRIPLE_CAP > composable_triples(pointed_sets(3)) == 704836


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_limited(argv, address_space=1 << 30):
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
    ],
)
def test_validate_refuses_large_categories_quickly(argv, cap):
    proc, seconds = run_limited(argv)
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
    for functor in (iota0, iota1, forget):
        assert validate_exact_functor(functor).ok
    # forget is a retraction of both sections on objects.
    for a in range(C.object_count()):
        assert forget.apply_obj(iota0.apply_obj(a)) == a
        assert forget.apply_obj(iota1.apply_obj(a)) == a


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
