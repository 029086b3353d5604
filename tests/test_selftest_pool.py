"""``selftest`` runs each suite in a child process and prints what a serial loop printed.

The digests were recorded from the serial loop that ran the suites one
after another in the command's own process.  The fake suites keep the
real names (``LONGEST_FIRST`` orders them by name) and run in well under
a second.  The process tests start the command in a session of its own
and look for any process of that session still alive afterwards.
"""

import hashlib
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from chaintrace import selftest
from chaintrace.cli import main
from chaintrace.errors import CapExceededError, InternalInvariantError
from chaintrace.validation import ValidationReport

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
NAMES = [name for name, _ in selftest.SUITES]

# sha256 of stdout of ``selftest --seed S --format F`` from the serial loop
SERIAL_DIGESTS = {
    (0, "table"): "b9a5cc311791376685469ede20fe32bbd1f0aad1e7d340bc652e075c9262629a",
    (0, "structured"): "1854e3c934361d317424a0e3c32a83bd449be2840ea3250f0e4d976c4fc11b1c",
    (7, "table"): "b61ddbcef6e5f5b4e97099c2faac1bbaf1c0f6d1133dc79ca02b78a812cf84ea",
    (7, "structured"): "9e399cc4a1ad87e78914ecd67d471be090dba5ad1bc7f6ddf45b04f0cdd8c555",
}


def test_longest_first_orders_every_suite_once():
    assert sorted(selftest.LONGEST_FIRST) == sorted(NAMES)


@pytest.mark.parametrize("seed, fmt", sorted(SERIAL_DIGESTS))
def test_output_matches_the_serial_loop(capsys, seed, fmt):
    assert main(["selftest", "--seed", str(seed), "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SERIAL_DIGESTS[seed, fmt]


def test_workers_return_the_reports_of_a_serial_loop():
    # run here too, the suites' complexes also meet the conftest oracles
    serial = [fn(3) for _, fn in selftest.SUITES]
    assert selftest.run_suites(3) == serial
    assert all(report.ok for report in serial)


def fake_suites(monkeypatch, failing=(), before=None):
    """Replace each suite by a fast one that reports its index + 1 checks.

    A suite named in ``failing`` records an issue; ``before[name]``, if
    given, runs first.
    """
    before = before or {}

    def make(index, name):
        def suite(seed):
            if name in before:
                before[name]()
            report = ValidationReport(subject=f"fake {name}", checks_run=index + 1)
            if name in failing:
                report.record("a recorded issue")
            return report

        return suite

    monkeypatch.setattr(selftest, "SUITES", tuple((n, make(i, n)) for i, n in enumerate(NAMES)))


def test_a_failing_suite_prints_its_fail_line_in_place(monkeypatch, capsys):
    fake_suites(monkeypatch, failing={"chain-maps"})
    assert main(["selftest", "--seed", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    expected = []
    for i, name in enumerate(NAMES):
        flag = "FAIL" if name == "chain-maps" else "ok  "
        expected.append(f"{flag} {name}: {i + 1} checks")
        if name == "chain-maps":
            expected.append("     issue: a recorded issue")
    expected.append(f"selftest: FAILED ({len(NAMES)} suites, seed 2)")
    assert err.splitlines() == expected


def raising(exc, delay=0.0):
    def run():
        time.sleep(delay)
        raise exc

    return run


@pytest.mark.parametrize(
    "first, later, expected",
    [
        (CapExceededError("b-and-B refused"), InternalInvariantError("sigma-delta broke"),
         (4, "error (cap): b-and-B refused\n")),
        (InternalInvariantError("b-and-B broke"), CapExceededError("sigma-delta refused"),
         (5, "error (internal): b-and-B broke\n")),
    ],
    ids=["cap-first", "internal-first"],
)
def test_the_first_raising_suite_in_suites_order_wins(monkeypatch, capsys, first, later, expected):
    # sigma-delta is submitted first and raises first; b-and-B comes first in SUITES
    assert NAMES.index("b-and-B") < NAMES.index("sigma-delta")
    fake_suites(monkeypatch, before={"b-and-B": raising(first, delay=0.3), "sigma-delta": raising(later)})
    code = main(["selftest"])
    out, err = capsys.readouterr()
    assert (code, err) == expected
    assert out == ""


def most_at_once(runs) -> int:
    """The largest number of (pid, start, end) runs that overlap at one moment."""
    return max(sum(start <= t < end for _, start, end in runs) for _, t, _ in runs)


def test_at_most_one_child_per_cpu_runs_at_a_time(monkeypatch):
    def runs(seed):
        """(pid, start, end) of each suite's run, in SUITES order."""
        return [(int(pid), float(start), float(end))
                for pid, start, end in (r.subject.split() for r in selftest.run_suites(seed))]

    def report_run(seed):
        start = time.monotonic()
        time.sleep(0.05)
        return ValidationReport(subject=f"{os.getpid()} {start} {time.monotonic()}")

    monkeypatch.setattr(selftest, "SUITES", tuple((n, report_run) for n in NAMES))
    got = runs(0)
    assert os.getpid() not in {pid for pid, _, _ in got}
    if hasattr(os, "sched_getaffinity"):
        assert most_at_once(got) <= min(len(os.sched_getaffinity(0)), len(NAMES))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert most_at_once(runs(0)) == 1


def test_an_outcome_larger_than_a_pipe_buffer_arrives_whole(monkeypatch):
    # about 0.5 MB a report: a parent that reaped its children before it
    # read their pipes would wait forever, so the alarm ends the test
    def make(name):
        def suite(seed):
            report = ValidationReport(subject=name)
            for k in range(20_000):
                report.record(f"{name} issue {k}")
            return report

        return suite

    def expire(signum, frame):
        raise TimeoutError("run_suites did not return within 60 s")

    monkeypatch.setattr(selftest, "SUITES", tuple((n, make(n)) for n in NAMES))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        reports = selftest.run_suites(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert reports == [make(n)(0) for n in NAMES]


# ---------------------------------------------------------------------------
# no worker outlives the command
# ---------------------------------------------------------------------------

# runs selftest with the body of its first suite replaced by {body}
FIRST_SUITE_REPLACED = """
import os, signal, sys
from chaintrace import cli, selftest
from chaintrace.errors import CapExceededError

def first(seed):
    {body}

suites = list(selftest.SUITES)
suites[0] = ("cyclic-identities", first)
selftest.SUITES = tuple(suites)
sys.exit(cli.main(sys.argv[1:]))
"""
RAISING_SELFTEST = FIRST_SUITE_REPLACED.format(body='raise CapExceededError("cyclic-identities refused")')
# the worker running the suite is killed, as the OOM killer would kill it
KILLED_SELFTEST = FIRST_SUITE_REPLACED.format(body="os.kill(os.getpid(), signal.SIGKILL)")


def session_processes(sid: int) -> list:
    """Pids of the live processes of session ``sid`` (zombies are not live)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while the table was read
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def start_in_own_session(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, *args],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )


def settle(sid: int, seconds: float) -> list:
    """Live processes of the session once they are gone, or after ``seconds``."""
    deadline = time.monotonic() + seconds
    while True:
        left = session_processes(sid)
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.02)


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the process table in /proc")


@needs_proc
@pytest.mark.parametrize(
    "args, code, stderr",
    [
        (["-m", "chaintrace.cli", "selftest", "--seed", "1"], 0, b""),
        (["-c", RAISING_SELFTEST, "selftest"], 4, b"error (cap): cyclic-identities refused\n"),
        (["-c", KILLED_SELFTEST, "selftest"], 5,
         b"error (internal): the worker running suite cyclic-identities was killed by SIGKILL\n"),
    ],
    ids=["normal-exit", "suite-raises", "worker-killed"],
)
def test_no_worker_outlives_the_command(args, code, stderr):
    proc = start_in_own_session(args)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (code, stderr)
    assert session_processes(proc.pid) == []


@needs_proc
def test_workers_exit_soon_after_the_parent_is_killed():
    proc = start_in_own_session(["-m", "chaintrace.cli", "selftest"])
    try:
        time.sleep(0.5)
        deadline = time.monotonic() + 5
        while len(session_processes(proc.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)  # a slow host has not forked the workers yet
        assert proc.poll() is None, "selftest ended before it could be killed"
        assert len(session_processes(proc.pid)) >= 2
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        assert settle(proc.pid, 1.0) == []
    finally:
        for pid in session_processes(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.stderr.close()
