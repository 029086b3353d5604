"""Each command loads only the modules it runs.

Every job is a fresh ``python -m chaintrace.cli`` process, so the modules
it imports are part of its run time.  These tests run the real command in
a subprocess under ``-X importtime``, which lists every module the process
imports, and check the package's modules against what the command needs.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

HOCHSCHILD_SIDE = {"algebra", "chain", "hochschild", "trace"}
CATEGORY_SIDE = {"wcat", "waldhausen", "sigma_delta"}


def loaded_modules(argv: list[str]) -> set[str]:
    """Submodules of chaintrace that ``python -m chaintrace.cli argv`` imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "chaintrace.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[-1].strip()
            if name.startswith("chaintrace."):
                names.add(name.split(".", 1)[1])
    return names


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
