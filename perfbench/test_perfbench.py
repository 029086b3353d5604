"""Tests of the benchmark itself; run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402
from proc import run_job  # noqa: E402

EXPECTED = checks.load_expected()
POOL = [(w, argv) for w in jobs.WORKLOADS for argv in jobs.pool(w)]
# Jobs that finish, plus the crash; the within-cap non-finisher only ever
# reaches its deadline, so it has no output to compare.
FINISHING = [(w, argv) for w, argv in POOL if EXPECTED[jobs.job_key(argv)].get("seed_outcome") != "deadline"]


def test_expected_covers_exactly_the_pool():
    assert set(EXPECTED) == {jobs.job_key(argv) for _, argv in POOL}


def test_every_job_failing_when_recorded_has_its_oracle():
    for _, argv in POOL:
        entry = EXPECTED[jobs.job_key(argv)]
        if "sha256" not in entry:
            assert entry["oracle"] == checks.oracle_for(argv)


def test_known_failures_are_exactly_the_documented_ones():
    failing = {k: e["seed_outcome"] for k, e in EXPECTED.items() if "seed_outcome" in e}
    assert failing == {
        "hh Zmod:4[C4] --max-degree 3": "crash:ValueError",
        "hh Z[C5] --max-degree 4": "deadline",
        "k0 vect_gf:2:3": "exit 4",
        "k0 finite_modules:3:9": "exit 4",
        "k0 pointed_sets:4": "exit 4",
        "k0 vect_gf:3:2": "exit 4",
    }


def test_batches_depend_only_on_the_seed():
    for w in jobs.WORKLOADS:
        assert jobs.generate(w, 7) == jobs.generate(w, 7)
        assert len(jobs.generate(w, 7)) == len(jobs.generate(w, 8))
        assert {jobs.job_key(a) for a in jobs.generate(w, 7)} <= set(EXPECTED)


def test_oracle_formulas():
    burghelea = checks.expected_groups("burghelea", ("hh", "Z[C3]", "--max-degree", "3"))
    assert burghelea == [(3, []), (0, [3, 3, 3]), (0, []), (0, [3, 3, 3])]
    uct = checks.expected_groups("uct", ("hh", "Zmod:9[C3]", "--max-degree", "2"))
    assert uct == [(0, [9, 9, 9]), (0, [3, 3, 3]), (0, [3, 3, 3])]
    uct4 = checks.expected_groups("uct", ("hh", "Zmod:4[C4]", "--max-degree", "3"))
    assert uct4 == [(0, [4] * 4), (0, [4] * 4), (0, [4] * 4), (0, [4] * 4)]


def test_pinned_job_that_stops_succeeding_is_wrong():
    pinned = {"exit": 0, "sha256": checks.sha256(b"out")}
    assert checks.verdict(pinned, ("hh", "Z"), 0, b"out") == "ok"
    assert checks.verdict(pinned, ("hh", "Z"), 0, b"other") == "wrong"
    assert checks.verdict(pinned, ("hh", "Z"), 1, b"") == "wrong"
    assert checks.verdict(pinned, ("hh", "Z"), 4, b"") == "wrong"
    by_oracle = {"seed_outcome": "exit 4", "oracle": "k0_agree"}
    assert checks.verdict(by_oracle, ("k0", "x"), 4, b"") == "failed"
    assert checks.verdict(by_oracle, ("k0", "x"), 0, b'{"result": {"agree": false}}') == "wrong"
    assert checks.verdict(by_oracle, ("k0", "x"), 0, b'{"result": {"agree": true}}') == "ok"


ORACLE_SEED_JOBS = [
    argv for _, argv in POOL
    if checks.oracle_for(argv) and "sha256" in EXPECTED[jobs.job_key(argv)]
]


@pytest.mark.parametrize("argv", ORACLE_SEED_JOBS, ids=jobs.job_key)
def test_oracle_accepts_recorded_output(argv):
    run = run_job(ROOT, argv, 30.0)
    entry = EXPECTED[jobs.job_key(argv)]
    assert run.exit_code == 0
    assert checks.sha256(run.stdout) == entry["sha256"], "output differs from the recorded bytes"
    assert checks.oracle_accepts(checks.oracle_for(argv), argv, run.stdout)


def test_oracles_reject_altered_output():
    argv = ("hh", "Z[C3]", "--max-degree", "3")
    run = run_job(ROOT, argv, 30.0)
    doc = json.loads(run.stdout)
    doc["result"]["groups"][1]["invariant_factors"] = [3, 3]
    assert not checks.oracle_accepts("burghelea", argv, json.dumps(doc).encode())
    assert not checks.oracle_accepts("k0_agree", ("k0", "x"), b'{"result": {"agree": false}}')


@pytest.mark.parametrize("workload,argv", FINISHING, ids=lambda v: v if isinstance(v, str) else jobs.job_key(v))
def test_tracing_leaves_output_alone(workload, argv):
    deadline = jobs.DEADLINE_S[workload] * 3
    plain = run_job(ROOT, argv, deadline)
    traced = run_job(ROOT, argv, deadline, traced=True)
    assert not plain.timed_out and not traced.timed_out
    assert traced.exit_code == plain.exit_code
    assert traced.stdout == plain.stdout
    trace = json.loads(traced.trace)
    assert trace["status"] in ("exit", "exception")
    assert trace["spans"]["cli.main"][0] == 1
