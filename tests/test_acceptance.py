"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; under plain ``pytest -v`` each criterion is still one PASSED or
FAILED row.  Every criterion carries an explicit wall-clock budget.
"""

import contextlib
import os
import random
import subprocess
import sys
import time

import pytest

from chaintrace.algebra import base_algebra, cyclic_group, group_algebra, truncated_polynomial
from chaintrace.chain import DENSE_CELL_CAP, homology
from chaintrace.cli import main
from chaintrace.conventions import GROUP_ORDER_CAP
from chaintrace.hochschild import HochschildHomology, cyclic_homology
from chaintrace.rings import GF, QQ, ZZ, Zmod
from chaintrace.tables import parse_category_file
from chaintrace.trace import GroupHomology, dennis_trace_homology, dennis_trace_k1, morita_map
from chaintrace.waldhausen import grothendieck_k0, k0_via_sdot
from chaintrace.wcat import (
    finite_modules,
    trivial_category,
    validate_waldhausen,
    vect_gf,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@contextlib.contextmanager
def criterion(n, label, limit_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {label}")
        raise
    elapsed = time.monotonic() - start
    if elapsed > limit_s:
        print(f"FAIL criterion {n}: {label} ({elapsed:.2f}s over the {limit_s}s budget)")
        raise AssertionError(f"criterion {n} exceeded its {limit_s}s budget: {elapsed:.2f}s")
    print(f"PASS criterion {n}: {label} ({elapsed:.2f}s, budget {limit_s}s)")


def test_criterion_1_hochschild_of_z_via_cli(capsys):
    with criterion(1, "CLI hh table for Z is exactly Z, 0, 0, 0, 0", 1.0):
        assert main(["hh", "Z", "--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == [
            "HH_0 = Z",
            "HH_1 = 0",
            "HH_2 = 0",
            "HH_3 = 0",
            "HH_4 = 0",
        ]


def test_criterion_2_morita_invariance():
    with criterion(2, "M_2(F_2) -> F_2 multitrace is an isomorphism up to degree 3", 30.0):
        results = morita_map(base_algebra(GF(2)), 2, 3)
        assert len(results) == 4
        for r in results:
            assert r.isomorphism
            assert str(r.source) == str(r.target)


def test_criterion_3_cyclic_homology_of_q():
    with criterion(3, "HC_n(Q) is Q for even n <= 6 and 0 for odd n <= 5", 10.0):
        A = base_algebra(QQ)
        table = [str(cyclic_homology(A, n)) for n in range(7)]
        assert table == ["Q", "0", "Q", "0", "Q", "0", "Q"]


def test_criterion_4_k0_brute_force_agreement():
    with criterion(4, "K_0 via the S-construction matches the Grothendieck group", 60.0):
        expected = {
            "trivial": (0, ()),
            "vect_gf(2,1)": (1, ()),
            "vect_gf(2,2)": (1, ()),
            "finite_modules(2,4)": (1, ()),
        }
        categories = [
            trivial_category(),
            vect_gf(2, 1),
            vect_gf(2, 2),
            finite_modules(2, 4),
        ]
        for C in categories:
            direct = grothendieck_k0(C)
            simplicial = k0_via_sdot(C)
            assert direct.free_rank == simplicial.free_rank
            assert direct.invariant_factors == simplicial.invariant_factors
            assert (direct.free_rank, direct.invariant_factors) == expected[C.name]


def test_criterion_5_dennis_trace_pipeline():
    with criterion(5, "trace through BGL matches K_1 trace; additivity on 20 random pairs", 30.0):
        dual = truncated_polynomial(GF(2), 2)
        res = dennis_trace_homology(dual, 1, 1)
        direct = dennis_trace_k1(dual, (((1, 1),),))
        assert [c.coordinates for c in res.classes] == [direct.coordinates]
        assert direct.coordinates == (1, 1)

        rng = random.Random(20260814)

        def q_unit(A):
            while True:
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                if a + b != 0 and a - b != 0:
                    return A.normalize_vec((a, b))

        def check_pairs(A, draw):
            work = HochschildHomology(A, 1)
            for _ in range(10):
                u, v = draw(A), draw(A)
                c_uv = dennis_trace_k1(A, ((A.mul_vec(u, v),),), work=work)
                c_u = dennis_trace_k1(A, ((u,),), work=work)
                c_v = dennis_trace_k1(A, ((v,),), work=work)
                diff = dict(c_uv.representative)
                for x, c in c_u.representative + c_v.representative:
                    diff[x] = A.ring.sub(diff.get(x, A.ring.zero), c)
                assert work.is_boundary(1, diff)

        check_pairs(group_algebra(cyclic_group(2), QQ), q_unit)
        units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        check_pairs(
            group_algebra(cyclic_group(2), ZZ),
            lambda A: A.normalize_vec(rng.choice(units)),
        )


def test_criterion_6_structural_suites(capsys):
    with criterion(6, "identity suites, diagram axioms, and validators all pass", 120.0):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out
        assert out.count("ok   ") == 7
        for n in range(1, 6):
            path = os.path.join(DATA, f"corrupt_axiom{n}.txt")
            report = validate_waldhausen(parse_category_file(path, validate=False))
            assert not report.ok
            assert all(f"axiom {n}" in issue for issue in report.issues)


def test_criterion_7_spectrum_level_results_out_of_scope():
    with criterion(7, "no spectrum-level API is exposed and the boundary is documented", 1.0):
        import chaintrace

        for name in ("thh", "THH", "tc", "TC", "tr", "TR", "topological_hochschild"):
            assert not hasattr(chaintrace, name)
        with open(README, encoding="utf-8") as handle:
            readme = handle.read()
        assert "spectrum-level" in readme.lower()
        assert "THH" in readme


def test_criterion_8_hochschild_of_z_c5_via_cli(capsys):
    with criterion(8, "CLI hh table for Z[C5] is Z^5, (Z/5)^5, 0, (Z/5)^5, 0", 10.0):
        assert main(["hh", "Z[C5]", "--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        five = " x ".join(["Z/5"] * 5)
        assert out.splitlines()[1:] == [
            "HH_0 = Z^5",
            f"HH_1 = {five}",
            "HH_2 = 0",
            f"HH_3 = {five}",
            "HH_4 = 0",
        ]


def test_criterion_9_k0_of_families_past_the_diagonal_cap(capsys):
    # level 2 of the diagonal of vect_gf(2,3) holds about 2.7e11 strings;
    # the total complex needs only S_1, the grids of S_2 and w_1 S_1
    with criterion(9, "CLI k0 prints Z both ways and AGREE past the diagonal's STRING_CAP", 10.0):
        for sel in ("vect_gf:2:3", "finite_modules:3:9", "pointed_sets:4", "vect_gf:3:2"):
            assert main(["k0", sel]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[1:] == [
                "K0 via Grothendieck presentation: Z",
                "K0 via w.S-construction diagonal: Z",
                "verdict: AGREE",
            ]


def test_criterion_10_morita_through_the_sparse_smith_kernel(capsys):
    # the full normalized complex of M_2(GF(2)[x]/x^2) has 2744 columns at level 3
    with criterion(10, "CLI morita GF:2[x]/x^2 --size 2 --max-degree 2 prints ISO", 8.0):
        assert main(["morita", "GF:2[x]/x^2", "--size", "2", "--max-degree", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == [
            f"degree {n}: HH_{n}(M_2(A)) = GF(2)^2 -> HH_{n}(A) = GF(2)^2  [ISO]" for n in range(3)
        ] + ["verdict: ISO"]


@pytest.mark.parametrize(
    "argv",
    (
        ["morita", "Z[C3]", "--size", "2", "--max-degree", "2"],
        ["morita", "GF:2[x]/x^2", "--size", "2", "--max-degree", "3"],
    ),
    ids=("Z[C3]-2", "GF:2[x]/x^2-3"),
)
def test_criterion_11_dense_cell_cap_refuses_quickly(argv, capsys):
    # the Smith factors homology() builds would need 3.18e7 and 8.39e7 dense cells
    with criterion(11, f"CLI {' '.join(argv)} exits 4 on the dense cell cap", 5.0):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"above the cap {DENSE_CELL_CAP}" in err


# Runs the command in its arguments and prints the command's peak RSS in
# kilobytes (Linux) and its exit code on stderr.  A child's peak counts the
# address space it was spawned from, so the job is spawned from this small
# interpreter rather than from the test process.
PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status), file=sys.stderr)
"""


# Runs the CLI on its arguments with trace.DEGREE_CAP lifted to the last
# argument, the degree asked for.
LIFT_DEGREE_CAP = (
    "import sys; from chaintrace import cli, trace; "
    "trace.DEGREE_CAP = int(sys.argv[-1]); sys.exit(cli.main(sys.argv[1:]))"
)


def run_with_peak_rss(argv, launch=("-m", "chaintrace.cli")):
    """Run the CLI on argv through PEAK_RSS, started by the interpreter
    arguments launch; return (stdout, peak RSS in kB) after checking that
    the spawner and the job both exited 0."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, *launch, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    rss_kb, code = map(int, proc.stderr.split()[-2:])
    assert (proc.returncode, code) == (0, 0), proc.stderr
    return proc.stdout, rss_kb


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_criterion_12_morita_within_its_memory_budget():
    # its largest elimination is 344 x 2744; building all five Smith
    # factors of every elimination took this job to 162 MB
    argv = ["morita", "GF:2[x]/x^2", "--size", "2", "--max-degree", "2"]
    with criterion(12, f"CLI {' '.join(argv)} prints ISO with a peak RSS below 60 MB", 8.0):
        out, rss_kb = run_with_peak_rss(argv)
        assert out.splitlines()[2:] == [
            f"degree {n}: HH_{n}(M_2(A)) = GF(2)^2 -> HH_{n}(A) = GF(2)^2  [ISO]" for n in range(3)
        ] + ["verdict: ISO"]
        assert rss_kb < 60 * 1024, f"peak RSS {rss_kb / 1024:.1f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_criterion_13_hochschild_one_weight_block_at_a_time():
    # Z[C6] splits into six weight blocks; building and reducing the whole
    # normalized complex at once took this job to 80.9 MB
    argv = ["hh", "Z[C6]", "--max-degree", "4"]
    with criterion(13, f"CLI {' '.join(argv)} prints its groups with a peak RSS below 45 MB", 15.0):
        out, rss_kb = run_with_peak_rss(argv)
        six = " x ".join(["Z/6"] * 6)
        assert out.splitlines()[1:] == [
            "HH_0 = Z^6",
            f"HH_1 = {six}",
            "HH_2 = 0",
            f"HH_3 = {six}",
            "HH_4 = 0",
        ]
        assert rss_kb < 45 * 1024, f"peak RSS {rss_kb / 1024:.1f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_criterion_14_hochschild_reduced_from_the_bottom_up():
    # cancelling unit pivots from the top degree down eliminated d_4
    # against rows that reducing d_3 then deleted: 62.1 MB and 8 s
    argv = ["hh", "Z[C7]", "--max-degree", "4"]
    with criterion(14, f"CLI {' '.join(argv)} prints its groups with a peak RSS below 45 MB", 15.0):
        out, rss_kb = run_with_peak_rss(argv)
        seven = " x ".join(["Z/7"] * 7)
        assert out.splitlines()[1:] == [
            "HH_0 = Z^7",
            f"HH_1 = {seven}",
            "HH_2 = 0",
            f"HH_3 = {seven}",
            "HH_4 = 0",
        ]
        assert rss_kb < 45 * 1024, f"peak RSS {rss_kb / 1024:.1f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_criterion_15_selftest_nerves_in_little_memory():
    # a weak-equivalence string stored as (x0, (g_1, ..., g_n)) and a
    # composition memo keyed by (g, f) pairs took selftest 17.1-17.8 MB
    # above the interpreter's own floor, position lookups kept for each
    # entry's life with one-shot face composites memoized took it 10.9 MB
    # above, and a ProcessPoolExecutor's imports in every worker with nerve
    # tables as tuples of shared ints 7.89-8.05 MB above, and workers forked
    # with os alone with 4-byte tables 4.98-5.29 MB above; nerve levels as
    # flat 4-byte rows, with each image table dropped after its last check,
    # measure 3.10-3.46 MB above.  The floor is read from `validate trivial`
    # on the same interpreter, so the bound holds on every Python version
    label = "CLI selftest --seed 0 passes within 6 MB of validate trivial's peak RSS"
    with criterion(15, label, 30.0):
        out, rss_kb = run_with_peak_rss(["selftest", "--seed", "0"])
        lines = out.splitlines()
        assert lines[-1] == "selftest: all suites passed (7 suites, seed 0)"
        assert sum(line.startswith("ok   ") for line in lines) == 7
        _, floor_kb = run_with_peak_rss(["validate", "trivial"])
        excess = (rss_kb - floor_kb) / 1024
        assert excess < 6, f"peak RSS {rss_kb / 1024:.1f} MB, {excess:.1f} MB above {floor_kb / 1024:.1f} MB"


@pytest.mark.parametrize(
    "argv",
    (
        ["trace-homology", "GF:7", "--size", "2", "--degree", "1"],
        ["trace-homology", "GF:2", "--size", "4", "--degree", "1"],
        ["trace-homology", "Zmod:9", "--size", "2", "--degree", "1"],
    ),
    ids=("GF:7-2", "GF:2-4", "Zmod:9-2"),
)
def test_criterion_16_group_order_cap_refuses_before_the_table(argv, capsys):
    # GL has 2,016, 20,160 and 3,888 elements; refusing after the
    # multiplication table took more than 60 s for each
    with criterion(16, f"CLI {' '.join(argv)} exits 4 on the group order cap", 5.0):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"above the group order cap {GROUP_ORDER_CAP}" in err


def test_criterion_17_group_homology_over_z_mod_4_lifts_symmetrically():
    # from the lift in [0, 4) the integer transforms of the 81 x 243 and
    # 243 x 729 boundaries grew past 100 digits, and H_5 took over 150 s
    with criterion(17, "H_5(C4; Z/4) = Z/4 on the whole bar complex", 10.0):
        assert str(homology(GroupHomology(cyclic_group(4), Zmod(4), 5).complex, 5).group) == "Z/4"


def test_criterion_18_trace_homology_over_z_mod_4_c2(capsys):
    # GL_1(Z/4[C2]) = C2^3; H_3(C2^3; Z/4) = (Z/2)^10 by Kunneth and
    # universal coefficients, and HH_3(Z/4[C2]) = (Z/2)^2 (Burghelea)
    argv = ["trace-homology", "Zmod:4[C2]", "--size", "1", "--degree", "3"]
    with criterion(18, f"CLI {' '.join(argv)} prints its closed forms", 10.0):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == [
            "GL_1(A): order 8",
            "H_3(BGL_1(A)) = " + " x ".join(["Z/2"] * 10),
            "HH_3(A) = Z/2 x Z/2",
        ]
        assert len(lines) == 14 and all(line.startswith("generator ") for line in lines[4:])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_criterion_19_pointed_sets_3_validates_in_little_memory():
    # keeping every distinct mediating square of the axiom-3 and axiom-5
    # scans for the category's life took this job 8.9 MB above the floor
    label = "CLI validate pointed_sets:3 passes within 3 MB of validate trivial's peak RSS"
    with criterion(19, label, 10.0):
        out, rss_kb = run_with_peak_rss(["validate", "pointed_sets:3"])
        assert out == "waldhausen category pointed_sets(3): 111174 checks, ok\n"
        _, floor_kb = run_with_peak_rss(["validate", "trivial"])
        excess = (rss_kb - floor_kb) / 1024
        assert excess <= 3, f"peak RSS {rss_kb / 1024:.1f} MB, {excess:.1f} MB above {floor_kb / 1024:.1f} MB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_criterion_20_trace_homology_past_the_degree_cap():
    # H_4(GL_2(F_2); F_2) = H_4(S_3; F_2) = H_4(C_2; F_2) = F_2 by Swan's
    # theorem (the 2-Sylow subgroup C_2 is abelian and self-normalizing),
    # and HH_4(F_2) = 0; building phi, the embedding and the multitrace as
    # whole-level matrices took this job to 174 MB
    argv = ["trace-homology", "GF:2", "--size", "2", "--degree", "4"]
    label = f"CLI {' '.join(argv)}, past DEGREE_CAP, prints its closed forms with a peak RSS below 110 MB"
    with criterion(20, label, 15.0):
        out, rss_kb = run_with_peak_rss(argv, ("-c", LIFT_DEGREE_CAP))
        assert out.splitlines() == [
            "algebra GF(2): rank 1 over GF(2)",
            "GL_2(A): order 6",
            "H_4(BGL_2(A)) = GF(2)",
            "HH_4(A) = 0",
            "generator 0 |-> ()  (zero)",
        ]
        assert rss_kb < 110 * 1024, f"peak RSS {rss_kb / 1024:.1f} MB"
