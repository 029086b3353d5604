"""Every benchmark pool job pinned by sha256 prints exactly its recorded bytes.

``perfbench/expected.json`` records the exit code and the sha256 of the
structured stdout of each pool job that succeeded when it was recorded.
Here each such job runs in-process through ``cli.main`` with
``--format structured`` and must exit 0 with those bytes, so a change that
alters any output of the benchmark fails tier-1, not only a benchmark run.
Run it under two hash seeds (as CI does with ``PYTHONHASHSEED=0``) to check
that output does not depend on the hash seed.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from chaintrace import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import jobs  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
# each distinct job once: two trace-k1 draws repeat a matrix
PINNED = list(
    {
        jobs.job_key(argv): argv
        for workload in jobs.WORKLOADS
        for argv in jobs.pool(workload)
        if "sha256" in EXPECTED[jobs.job_key(argv)]
    }.values()
)
# a trace-k1 job's last argument is a long matrix literal
IDS = [f"trace-k1 {a[1]} #{i}" if a[0] == "trace-k1" else jobs.job_key(a) for i, a in enumerate(PINNED)]


@pytest.mark.parametrize("argv", PINNED, ids=IDS)
def test_pinned_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([*argv, "--format", "structured"])
    assert status == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == EXPECTED[jobs.job_key(argv)]["sha256"]
