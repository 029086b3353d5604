"""Tests for the text file formats and the command-line interface."""

import builtins
import json
import os
import time

import pytest

from chaintrace import cli, wcat
from chaintrace.algebra import group_algebra
from chaintrace.cli import main
from chaintrace.errors import InputParseError, ValidationError
from chaintrace.formats import parse_matrix_literal
from chaintrace.groups import cyclic_group
from chaintrace.rings import ZZ
from chaintrace.selectors import ring_from_spec
from chaintrace.tables import (
    parse_algebra_text,
    parse_category_file,
    parse_category_text,
    parse_group_text,
    serialize_category,
)
from chaintrace.wcat import validate_waldhausen, vect_gf

DATA = os.path.join(os.path.dirname(__file__), "data")

MINIMAL_ALGEBRA = """\
# the initial ring as an algebra over itself
algebra Zalg
base Z
basis e
unit 1
mul 0 0 0:1
"""

GROUP_C3 = """\
group C3
elements e a b
table
e a b
a b e
b e a
"""


def test_ring_from_spec():
    assert str(ring_from_spec("Z")) == "Z"
    assert str(ring_from_spec("Q")) == "Q"
    assert str(ring_from_spec("Zmod:6")) == "Z/6"
    assert str(ring_from_spec("GF:5")) == "GF(5)"
    with pytest.raises(InputParseError):
        ring_from_spec("GF:6")
    with pytest.raises(InputParseError):
        ring_from_spec("R")


def test_parse_minimal_algebra():
    A = parse_algebra_text(MINIMAL_ALGEBRA)
    assert A.name == "Zalg"
    assert A.rank == 1
    assert A.unit == (1,)
    assert A.mul_vec((1,), (1,)) == (1,)


def test_algebra_parse_errors_are_located():
    with pytest.raises(InputParseError, match="<algebra>:4"):
        parse_algebra_text("algebra A\nbase Z\nbasis e\nunit e\nmul 0 0 0:1\n")
    with pytest.raises(InputParseError, match="bad.alg:5"):
        parse_algebra_text(
            "algebra A\nbase Z\nbasis e\nunit 1\nmul 0 x 0:1\n", where="bad.alg"
        )
    with pytest.raises(InputParseError, match="missing"):
        parse_algebra_text("algebra A\nbase Z\n")


def test_algebra_validation_failure():
    # e*e = 0 makes the named unit fail.
    text = "algebra A\nbase Z\nbasis e\nunit 1\n"
    with pytest.raises(ValidationError, match="unit fails"):
        parse_algebra_text(text)
    # Parsing without validation still yields the raw table.
    A = parse_algebra_text(text, validate=False)
    assert A.mul_vec((1,), (1,)) == (0,)


def test_parse_group():
    G = parse_group_text(GROUP_C3)
    assert G.order == 3
    assert G.identity == 0
    assert G.multiply(1, 2) == 0


def test_group_identity_is_derived_not_positional():
    # The identity element is b, listed second.
    G = parse_group_text("group C2\nelements a b\ntable\nb a\na b\n")
    assert G.identity == 1


def test_group_associativity_failure_names_triples():
    bad = "group bad\nelements e a b\ntable\ne a b\na e a\nb a e\n"
    with pytest.raises(ValidationError, match=r"associativity fails on \(a, a, b\)"):
        parse_group_text(bad)


def test_group_without_identity():
    text = "group none\nelements a b\ntable\nb a\nb a\n"
    with pytest.raises(ValidationError, match="no identity"):
        parse_group_text(text)


def test_parse_category_family_selector():
    C = parse_category_text("category V\nfamily vect_gf:2:2\n")
    assert C.object_count() == 3
    assert validate_waldhausen(C).ok


def test_category_family_and_table_lines_conflict():
    text = "category V\nfamily trivial\nbound 1\n"
    with pytest.raises(InputParseError, match="family"):
        parse_category_text(text)


def test_serialize_round_trip_is_byte_stable():
    C = vect_gf(2, 2)
    text = serialize_category(C, labels=False)
    D = parse_category_text(text)
    assert D.object_count() == C.object_count()
    assert validate_waldhausen(D).ok
    assert serialize_category(D, labels=False) == text


def test_serialized_table_keeps_structure():
    C = vect_gf(2, 1)
    D = parse_category_text(serialize_category(C))
    n = C.object_count()
    assert [D.object_size(a) for a in range(D.object_count())] == [
        C.object_size(a) for a in range(n)
    ]
    for a in range(n):
        for b in range(n):
            assert len(D.weq_ids(a, b)) == len(C.weq_ids(a, b))


def test_parse_matrix_literal():
    A = group_algebra(cyclic_group(2), ZZ)
    rows = parse_matrix_literal(A, "1,0 0,0; 0,0 1,0")
    assert rows == (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    with pytest.raises(InputParseError, match="square"):
        parse_matrix_literal(A, "1,0; 1,0 0,1")
    with pytest.raises(InputParseError, match="coefficients"):
        parse_matrix_literal(A, "1,0,0")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fixture_files_parse_but_fail_validation(n):
    path = os.path.join(DATA, f"corrupt_axiom{n}.txt")
    C = parse_category_file(path, validate=False)
    assert C.object_count() == 3
    with pytest.raises(ValidationError, match=f"axiom {n}"):
        parse_category_file(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_hh_table(capsys):
    code, out, err = run_cli(capsys, "hh", "Z", "--max-degree", "4")
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "algebra Z: rank 1 over Z",
        "HH_0 = Z",
        "HH_1 = 0",
        "HH_2 = 0",
        "HH_3 = 0",
        "HH_4 = 0",
    ]


def test_cli_hh_ring_override(capsys):
    code, out, _ = run_cli(capsys, "hh", "Z[x]/x^2", "--ring", "GF:2", "--max-degree", "2")
    assert code == 0
    assert "algebra GF(2)[x]/x^2" in out
    for line in ("HH_0 = GF(2)^2", "HH_1 = GF(2)^2", "HH_2 = GF(2)^2"):
        assert line in out


def test_cli_hc_table(capsys):
    code, out, _ = run_cli(capsys, "hc", "Q", "--max-degree", "4")
    assert code == 0
    assert out.splitlines()[1:] == ["HC_0 = Q", "HC_1 = 0", "HC_2 = Q", "HC_3 = 0", "HC_4 = Q"]


def test_cli_group_homology(capsys):
    code, out, _ = run_cli(capsys, "group-homology", "C2", "--max-degree", "3")
    assert code == 0
    assert out.splitlines() == [
        "group C2: order 2, coefficients Z",
        "H_0(BG) = Z",
        "H_1(BG) = Z/2",
        "H_2(BG) = 0",
        "H_3(BG) = Z/2",
    ]


def test_cli_trace_k1(capsys):
    code, out, _ = run_cli(capsys, "trace-k1", "Z[C2]", "0,1")
    assert code == 0
    assert "HH_1 = Z/2 x Z/2" in out
    assert "trace class coordinates: (0, 1)" in out
    assert "zero class: no" in out


def test_cli_morita(capsys):
    code, out, _ = run_cli(capsys, "morita", "GF:2", "--size", "2", "--max-degree", "2")
    assert code == 0
    assert out.strip().endswith("verdict: ISO")


def test_cli_k0(capsys):
    code, out, _ = run_cli(capsys, "k0", "vect_gf:2:2")
    assert code == 0
    assert "K0 via Grothendieck presentation: Z" in out
    assert "K0 via w.S-construction diagonal: Z" in out
    assert out.strip().endswith("verdict: AGREE")


@pytest.mark.parametrize("axiom", [1, 2, 3, 4, 5])
def test_cli_k0_validates_a_category_file(capsys, axiom):
    path = os.path.join(DATA, f"corrupt_axiom{axiom}.txt")
    code, out, err = run_cli(capsys, "k0", path)
    assert code == 3 and out == ""
    assert err.startswith("error (validation)") and f"axiom {axiom}" in err


def test_cli_k0_family_file_computes_what_its_selector_computes(tmp_path, capsys, monkeypatch):
    # a built-in family is valid by construction, so no validation cap may
    # refuse its file where the selector is computed
    monkeypatch.setattr(wcat, "TRIPLE_CAP", 0)
    path = tmp_path / "family.txt"
    path.write_text("category V\nfamily vect_gf:2:2\n")
    assert run_cli(capsys, "k0", str(path)) == run_cli(capsys, "k0", "vect_gf:2:2")


@pytest.mark.parametrize(
    "omitted, full",
    [
        (("finite_modules:2", "--bound", "4"), "finite_modules:2:4"),
        (("vect_gf:2", "--bound", "1"), "vect_gf:2:1"),
        (("pointed_sets", "--bound", "2"), "pointed_sets:2"),
    ],
)
def test_cli_bound_supplies_an_omitted_selector_bound(capsys, omitted, full):
    code, out, _ = run_cli(capsys, "k0", *omitted)
    assert code == 0
    assert (code, out) == run_cli(capsys, "k0", full)[:2]


@pytest.mark.parametrize("command", ["k0", "validate"])
def test_cli_bound_rejected_for_files(tmp_path, capsys, command):
    path = tmp_path / "family.txt"
    path.write_text("category V\nfamily vect_gf:2:2\n")
    code, out, err = run_cli(capsys, command, str(path), "--bound", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error (parse)") and "--bound" in err


@pytest.mark.parametrize("command", ["hh", "group-homology", "k0", "validate"])
def test_cli_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error (parse): cannot read"), err


@pytest.mark.parametrize("text", [GROUP_C3, MINIMAL_ALGEBRA, "category V\nfamily vect_gf:2:1\n"])
def test_cli_validate_reads_its_file_once(tmp_path, capsys, monkeypatch, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    assert run_cli(capsys, "validate", str(path))[0] == 0
    assert opened.count(str(path)) == 1


def test_cli_validate_family(capsys):
    code, out, _ = run_cli(capsys, "validate", "finite_modules:2:4")
    assert code == 0
    assert "ok" in out


def test_cli_validate_rejects_fixture(capsys):
    path = os.path.join(DATA, "corrupt_axiom3.txt")
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 3
    assert "axiom 3" in err


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "hh", "Mn(2")
    assert code == 2
    assert err.startswith("error (parse)")
    code, _, err = run_cli(capsys, "trace-k1", "Q[C2]", "0,0")
    assert code == 3
    assert err.startswith("error (validation)")
    code, _, err = run_cli(capsys, "hh", "Z[C12]")
    assert code == 4
    assert err.startswith("error (cap)")


@pytest.mark.parametrize(
    "argv",
    [
        ("hh", "Zmod:6"),
        ("hh", "M2(Zmod:6)", "--max-degree", "1"),
        ("trace-k1", "M2(Zmod:6)", "1,0,0,1"),
    ],
    ids=["hh", "hh-matrix", "trace-k1-matrix"],
)
def test_cli_refuses_a_composite_modulus_in_one_message(capsys, argv):
    # a matrix algebra reaches the unit-first Smith elimination before any
    # homology, so the refusal must come before it too
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error (parse): homology over Z/6 is supported for prime powers only\n"


def test_cli_out_of_memory_exits_on_the_cap_code(capsys, monkeypatch):
    # a job that passes every cap can still exhaust the memory it may use,
    # as hh Z[C3] --max-degree 16 does under a 600 MB address-space limit
    def exhausted(config):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "hh", exhausted)
    code, out, err = run_cli(capsys, "hh", "Z")
    assert code == 4
    assert out == ""
    assert err == "error (cap): out of memory running hh\n"


def test_cli_trace_k1_refuses_a_matrix_above_the_level_cap(capsys):
    # level 1 of M_22(Z[C2]) has 968^2 = 937,024 basis tensors
    identity = "; ".join(" ".join("1,0" if i == j else "0,0" for j in range(22)) for i in range(22))
    start = time.monotonic()
    code, out, err = run_cli(capsys, "trace-k1", "Z[C2]", identity)
    elapsed = time.monotonic() - start
    assert code == 4
    assert out == ""
    assert "968^2 = 937024 > cap 500000" in err
    assert elapsed < 2.0, elapsed


@pytest.mark.parametrize(
    "argv, ranks, cells",
    [
        (("trace-homology", "GF:5[x]/x^2", "--size", "1", "--degree", "3"), "3 (ranks 361, 6859, 130321)", 1084531362),
        (("trace-homology", "GF:23", "--size", "1", "--degree", "3"), "3 (ranks 441, 9261, 194481)", 2148237126),
        (("morita", "Z[C3]", "--size", "2", "--max-degree", "3"), "2 (ranks 132, 1452, 15972)", 31816224),
    ],
    ids=["trace-homology-dual-numbers", "trace-homology-GF23", "morita"],
)
def test_cli_refuses_dense_cells_before_building_a_complex(capsys, argv, ranks, cells):
    # the group-homology or M_2 complex would be built in full before the
    # refusal if the cap were read off the complex and not off its ranks
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.monotonic() - start
    assert code == 4
    assert out == ""
    assert err == (
        f"error (cap): homology in degree {ranks} needs {cells} dense cells of Smith "
        f"elimination, above the cap 30000000\n"
    )
    assert elapsed < 2.0, elapsed


def test_cli_ring_override_rejected_for_files(tmp_path, capsys):
    path = tmp_path / "zalg.txt"
    path.write_text(MINIMAL_ALGEBRA)
    code, out, _ = run_cli(capsys, "hh", str(path), "--max-degree", "1")
    assert code == 0
    assert "HH_0 = Z" in out
    code, _, err = run_cli(capsys, "hh", str(path), "--ring", "Q")
    assert code == 2
    assert "--ring" in err


def test_cli_structured_output_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "hh", "Z", "--format", "structured")
    assert code == 0
    code, second, _ = run_cli(capsys, "hh", "Z", "--format", "structured")
    assert first == second
    payload = json.loads(first)
    assert payload["tool"] == "chaintrace"
    assert payload["command"] == "hh"
    assert payload["config"]["inputs"] == ["Z"]
    assert set(payload["conventions"]) == {"caps", "connes_b", "smith_pivot_rule"}
    groups = payload["result"]["groups"]
    assert [g["display"] for g in groups] == ["Z", "0", "0", "0", "0"]


def test_cli_selftest_deterministic(capsys):
    code, first, _ = run_cli(capsys, "selftest", "--seed", "7")
    assert code == 0
    assert "all suites passed" in first
    code, second, _ = run_cli(capsys, "selftest", "--seed", "7")
    assert first == second


@pytest.mark.parametrize("command", ["k0", "validate"])
@pytest.mark.parametrize(
    "selector, reason",
    [
        ("vect_gf:4:1", "GF needs a prime modulus"),
        ("finite_modules:4:2", "finite_modules requires a prime p"),
        ("pointed_sets:-1", "size bound must be nonnegative"),
        ("vect_gf:2:-1", "size bound must be nonnegative"),
        ("finite_modules:2:-3", "size bound must be nonnegative"),
    ],
)
def test_bad_category_parameters_are_parse_errors(capsys, command, selector, reason):
    code, out, err = run_cli(capsys, command, selector)
    assert code == 2 and out == ""
    assert f"bad category selector {selector!r}: {reason}" in err
