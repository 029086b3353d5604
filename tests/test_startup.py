"""Each command loads only the modules it runs.

Every job is a fresh ``python -m chaintrace.cli`` process, so the modules
it imports are part of its run time.  These tests run the real command in
a subprocess under ``-X importtime``, which lists every module the process
imports, and check the package's modules against what the command needs.
Standard-library modules are checked too, against a bare interpreter
started the same way: whatever ``site`` loads there is not the package's.
"""

import functools
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = {p.stem for p in (SRC / "chaintrace").glob("*.py") if p.stem != "__init__"} - {"cli"}

HOCHSCHILD_SIDE = {"algebra", "chain", "hochschild", "trace"}
CATEGORY_SIDE = {"wcat", "waldhausen", "sigma_delta"}
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


# command: (modules it must load, modules it must not load)
EXPECTED = {
    "hh Z --max-degree 1": ({"hochschild"}, CATEGORY_SIDE),
    "hc Q --max-degree 1": ({"hochschild"}, CATEGORY_SIDE),
    "group-homology C2 --max-degree 1": ({"trace"}, CATEGORY_SIDE),
    "k0 trivial": ({"waldhausen"}, {"hochschild", "trace", "sigma_delta"}),
    "validate pointed_sets:1": ({"wcat"}, {"hochschild", "trace", "sigma_delta"}),
    "--help": ({"formats"}, HOCHSCHILD_SIDE | CATEGORY_SIDE),
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
    # selftest reads no file, so the file tables are the modules it skips
    ours, others = command_imports(["selftest"])
    assert ours == PACKAGE - FILE_TABLES, sorted((PACKAGE - FILE_TABLES) ^ ours)
    assert "dataclasses" not in others
    assert not pool_modules(others), sorted(pool_modules(others))
