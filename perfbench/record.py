"""Record the expected outcome of every pool job in ``expected.json``.

Run from the root of the repository, after a change that is meant to alter
output bytes (never to make a failing check pass):

    python3 perfbench/record.py

Each pool job runs once through the plain CLI under its workload's
deadline.  A job that exits 0 is pinned by exit code and sha256 of its
structured stdout.  A job that fails must have an oracle (see checks.py);
its outcome is stored next to the oracle's name.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import jobs  # noqa: E402
from proc import run_job  # noqa: E402


def outcome(run) -> str:
    if run.timed_out:
        return "deadline"
    exc = run.exception_type()
    return f"crash:{exc}" if exc else f"exit {run.exit_code}"


def main() -> int:
    root = os.getcwd()
    expected = {}
    for workload in jobs.WORKLOADS:
        for argv in jobs.pool(workload):
            key = jobs.job_key(argv)
            run = run_job(root, argv, jobs.DEADLINE_S[workload])
            if run.exit_code == 0 and not run.timed_out:
                entry = {"exit": 0, "sha256": checks.sha256(run.stdout)}
            else:
                oracle = checks.oracle_for(argv)
                if oracle is None:
                    print(f"error: {key} fails ({outcome(run)}) and has no oracle", file=sys.stderr)
                    return 1
                entry = {"seed_outcome": outcome(run), "oracle": oracle}
            expected[key] = entry
            print(f"{run.wall_s:7.2f}s {key[:90]}: {entry.get('seed_outcome', 'ok')}", flush=True)
    with open(checks.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
