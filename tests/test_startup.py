"""Each command loads only the modules it runs.

Every job is a fresh ``python -m chaintrace.cli`` process, so the modules
it imports are part of its run time.  These tests run the real command in
a subprocess under ``-X importtime``, which lists every module the process
imports, and check the package's modules against what the command needs.
Standard-library modules are checked too, against a bare interpreter
started the same way: whatever ``site`` loads there is not the package's.
Without a bytecode cache a job compiles every package module it loads, so
the source each command compiles is held to a budget as well.
"""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = {p.stem for p in (SRC / "chaintrace").glob("*.py") if p.stem != "__init__"} - {"cli"}

# Modules of the algebra and group commands; no category job loads any of
# them but chain, and --help none.  No command loads trace: its whole-level
# chain maps are for selftest's checks.
ALGEBRA_SIDE = {"algebra", "chain", "hochschild", "selectors", "groups", "trace", "tracemaps"}
CATEGORY_SIDE = {"wcat", "waldhausen", "sigma_delta", "axioms", "nerve"}
# The module of each algebra-side command, which only that command (and
# selftest) loads: the output function and the code no other command runs.
# trace-homology runs group homology too, so it loads grouphomology.
COMMAND_MODULE = {
    "hh": "weights",
    "hc": "cyclic",
    "group-homology": "grouphomology",
    "trace-k1": "tracek1",
    "trace-homology": "tracehomology",
    "morita": "morita",
}
# The invariants-only path: unit-pivot reduction, which no job that reads
# class coordinates (the trace commands) runs; and GL_n(A), which only
# trace-homology enumerates.
REDUCTION = {"reduction", "pivots"}
GL = "general_linear"
# Code that only some category jobs run: the axiom checks (validate, category
# files, selftest) and the simplicial sets of strings (the diagonal, the
# Sigma-Delta diagrams, selftest).
AXIOM_CHECKS = "axioms"
NERVE = "nerve"
# All that --help loads of the package: the output of formats, the
# selectors and ring specs, and rings under them, are for computing jobs
# only.
FRONT_END = {"errors", "values"}
# dataclasses loads inspect (and with it ast, dis, tokenize); fractions
# loads decimal.  No command needs them unless it computes over Q.
HEAVY_STDLIB = {"dataclasses", "inspect", "fractions", "decimal"}
# No command loads these packages: selftest forks its children with os alone.
POOL_PACKAGES = {"concurrent", "multiprocessing"}
# Code that few jobs run: the file parsers (only file inputs), the
# explicit-table category (only category files) and End(C) (only
# selftest's retract check).
FILE_TABLES = {"tables", "tablecat"}
END_CATEGORY = "endo"


def pool_modules(names: set[str]) -> set[str]:
    return {n for n in names if n.split(".", 1)[0] in POOL_PACKAGES}


def imported(args: list[str], returncode: int = 0) -> set[str]:
    """Every module that ``python -X importtime *args`` imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == returncode, proc.stderr
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@functools.lru_cache(maxsize=None)
def bare_interpreter() -> frozenset:
    return frozenset(imported(["-c", "pass"]))


def command_imports(argv: list[str], returncode: int = 0) -> tuple[set[str], set[str]]:
    """(chaintrace submodules, other modules beyond a bare interpreter's)."""
    names = imported(["-m", "chaintrace.cli", *argv], returncode)
    ours = {n.split(".", 1)[1] for n in names if n.startswith("chaintrace.")}
    others = {n for n in names - bare_interpreter() if not n.startswith("chaintrace")}
    return ours, others


def loaded_modules(argv: list[str]) -> set[str]:
    """Submodules of chaintrace that ``python -m chaintrace.cli argv`` imports."""
    return command_imports(argv)[0]


def modules_of_others(command: str) -> set[str]:
    """The modules of the algebra-side commands other than command."""
    return {m for c, m in COMMAND_MODULE.items() if c != command}


# command: (modules it must load, modules it must not load)
EXPECTED = {
    "hh Z --max-degree 1": (
        {"hochschild", "weights"} | REDUCTION,
        CATEGORY_SIDE | modules_of_others("hh") | {"validation", "trace", GL},
    ),
    "hc Q --max-degree 1": (
        {"hochschild", "cyclic", "weights"} | REDUCTION,
        CATEGORY_SIDE | modules_of_others("hc") - {"weights"} | {"trace", GL},
    ),
    # group homology is a table computation: no algebra code
    "group-homology C2 --max-degree 1": (
        {"grouphomology", "groups", "reduction"},
        CATEGORY_SIDE | modules_of_others("group-homology") | {"algebra", "hochschild", "trace", "tracemaps", GL},
    ),
    # no trace command loads another trace command's module, hh's block-wise
    # core or hc's cyclic complex
    "trace-k1 Z[C2] 0,1": (
        {"tracek1", "tracemaps"},
        CATEGORY_SIDE | modules_of_others("trace-k1") | REDUCTION | {"trace", GL},
    ),
    "trace-homology GF:2 --size 1 --degree 1": (
        {"tracehomology", "tracemaps", "grouphomology", GL},
        CATEGORY_SIDE | modules_of_others("trace-homology") - {"grouphomology"} | REDUCTION | {"trace"},
    ),
    "morita GF:2 --size 1 --max-degree 1": (
        {"morita", "tracemaps"},
        CATEGORY_SIDE | modules_of_others("morita") | REDUCTION | {"trace", GL},
    ),
    # k0 reads w_1 S_1 as flat strings and checks no axiom of a built-in
    # family; the Waldhausen structure of S_k C itself is sigma_delta's
    "k0 trivial": (
        {"waldhausen"},
        ALGEBRA_SIDE - {"chain"} | set(COMMAND_MODULE.values()) | {"sigma_delta", AXIOM_CHECKS, NERVE, "validation"},
    ),
    # the injectivity test of finite modules runs on the pivots kernel, not
    # on chain, and pointed sets do not load even that
    "validate pointed_sets:1": (
        {"wcat", AXIOM_CHECKS},
        ALGEBRA_SIDE | REDUCTION | set(COMMAND_MODULE.values()) | {"sigma_delta", "waldhausen", NERVE},
    ),
    "--help": (FRONT_END, ALGEBRA_SIDE | CATEGORY_SIDE | REDUCTION | {"formats", "rings"}),
}


@pytest.mark.parametrize("command", EXPECTED)
def test_command_loads_only_its_modules(command):
    needed, absent = EXPECTED[command]
    loaded = loaded_modules(command.split())
    assert needed <= loaded, sorted(loaded)
    assert not loaded & absent, sorted(loaded & absent)
    assert "selftest" not in loaded


@pytest.mark.parametrize(
    "command",
    [
        "hh Z --max-degree 1",
        "group-homology C2 --max-degree 1",
        "k0 trivial",
        "validate pointed_sets:1",
        "trace-k1 Z[C2] 0,1",
        "--help",
    ],
)
def test_command_skips_heavy_stdlib_modules(command):
    _, others = command_imports(command.split())
    assert not others & HEAVY_STDLIB, sorted(others & HEAVY_STDLIB)
    assert not pool_modules(others), sorted(pool_modules(others))


def test_rational_coefficients_load_fractions():
    _, others = command_imports("hc Q --max-degree 1".split())
    assert "fractions" in others


@pytest.mark.parametrize(
    "command",
    [
        "--help",
        "hh Z --max-degree 1",
        "hc Q --max-degree 1",
        "group-homology C2 --max-degree 1",
        "trace-k1 Z[C2] 0,1",
        "trace-homology GF:2 --size 1 --degree 1",
        "morita GF:2 --size 1 --max-degree 1",
        "k0 vect_gf:2:1",
        "validate pointed_sets:1",
    ],
)
def test_selector_jobs_skip_file_tables_and_end_category(command):
    loaded = loaded_modules(command.split())
    assert not loaded & FILE_TABLES, sorted(loaded & FILE_TABLES)
    assert END_CATEGORY not in loaded


def test_category_file_loads_file_tables():
    table = str(ROOT / "tests" / "data" / "corrupt_axiom1.txt")
    ours, _ = command_imports(["validate", table], returncode=3)
    assert FILE_TABLES | {"wcat"} <= ours, sorted(ours)
    assert END_CATEGORY not in ours


@pytest.mark.parametrize(
    "command, text",
    [
        ("hh", "algebra A\nbase Z\nbasis e\nunit 1\nmul 0 0 0:1\n"),
        ("group-homology", "group C1\nelements e\ntable\ne\n"),
    ],
)
def test_algebra_and_group_files_skip_the_category_modules(tmp_path, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    loaded = loaded_modules([command, str(path), "--max-degree", "1"])
    assert "tables" in loaded
    assert not loaded & (CATEGORY_SIDE | {"tablecat", END_CATEGORY}), sorted(loaded)


def test_selftest_loads_every_module_but_dataclasses():
    # selftest reads no file and enumerates no GL_n(A), so the file tables
    # and general_linear are the modules it skips
    ours, others = command_imports(["selftest"])
    assert ours == PACKAGE - FILE_TABLES - {GL}, sorted((PACKAGE - FILE_TABLES - {GL}) ^ ours)
    assert "dataclasses" not in others
    assert not pool_modules(others), sorted(pool_modules(others))


# Source a command compiles, in ast nodes (a count that does not change
# across Python 3.10-3.13, where tokenize's does): the chaintrace modules it
# loads and cli.py, which runs as __main__.  Pinned about 1% above the
# counts when each algebra-side command got a module of its own and the
# group, GL_n, reduction, cyclic and selector code left the modules every
# algebra job loads (18,239, 18,981, 13,709, 17,716, 18,771, 17,386,
# 21,758 and 15,609; before it 19,818, 19,818, 22,922 for each of the
# three trace commands and group-homology, 23,623 and 16,662).  --help
# compiles 2,300 (2,275 before: the package's table of public names grew).
# A command that starts compiling code it never runs fails here first.
COMPILED_BUDGET = {
    "--help": 2_300,
    "hh Z --max-degree 1": 18_400,
    "hc Q --max-degree 1": 19_150,
    "group-homology C2 --max-degree 1": 13_850,
    "trace-k1 Z[C2] 0,1": 17_900,
    "trace-homology GF:2 --size 1 --degree 1": 18_950,
    "morita GF:2 --size 1 --max-degree 1": 17_550,
    "k0 trivial": 21_950,
    "validate pointed_sets:1": 15_750,
}


def compiled_nodes(modules: set[str]) -> int:
    paths = [SRC / "chaintrace" / f"{m}.py" for m in modules | {"__init__", "cli"}]
    return sum(sum(1 for _ in ast.walk(ast.parse(p.read_text(encoding="utf-8")))) for p in paths)


@pytest.mark.parametrize("command", COMPILED_BUDGET)
def test_command_compiles_within_its_budget(command):
    nodes = compiled_nodes(loaded_modules(command.split()))
    assert nodes <= COMPILED_BUDGET[command], nodes
