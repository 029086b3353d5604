"""Run one chaintrace CLI job in a child process and measure it.

Each job is its own ``python -m chaintrace.cli ... --format structured``
process (or the traced runner, ``perfbench/traced.py``), started from the
root of the checkout with ``src`` on ``PYTHONPATH``.  The parent waits for
the child without reaping it first (``waitid`` with ``WNOWAIT``), so a
deadline timer can never signal a recycled pid, then reaps it with
``os.wait4`` to read that child's own peak RSS.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

# A traced child gets this long after SIGTERM to write its open spans.
TERM_GRACE_S = 2.0


@dataclass
class JobRun:
    argv: tuple
    wall_s: float
    rss_kb: int
    exit_code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool
    trace: bytes = b""

    def exception_type(self) -> str | None:
        """Name of the uncaught exception, read from the traceback's last line."""
        if self.timed_out or self.exit_code != 1 or b"Traceback" not in self.stderr:
            return None
        last = self.stderr.decode("utf-8", "replace").strip().splitlines()[-1]
        return last.split(":", 1)[0].strip() or None


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_command(argv, structured: bool = True) -> list:
    cmd = [sys.executable, "-m", "chaintrace.cli", *argv]
    return cmd + ["--format", "structured"] if structured else cmd


def traced_command(root: str, argv, trace_fd: int) -> list:
    script = os.path.join(root, "perfbench", "traced.py")
    return [sys.executable, script, str(trace_fd), *argv, "--format", "structured"]


def _drain(stream, sink: list) -> None:
    sink.append(stream.read())
    stream.close()


def run_reference(root: str) -> float:
    """Wall time of one run of the fixed reference process (reference.py)."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "reference.py")]
    run = _run(root, cmd, ("reference",), 60.0)
    if run.exit_code != 0:
        raise RuntimeError(f"reference process failed: {run.stderr.decode(errors='replace')}")
    return run.wall_s


def run_job(root: str, argv, deadline_s: float, traced: bool = False, structured: bool = True) -> JobRun:
    """Run one job to completion or to its deadline; never leaves the child running."""
    if traced:
        rfd, wfd = os.pipe()
        return _run(root, traced_command(root, argv, wfd), argv, deadline_s, trace_pipe=(rfd, wfd))
    return _run(root, cli_command(argv, structured), argv, deadline_s)


def _run(root: str, cmd: list, argv, deadline_s: float, trace_pipe=None) -> JobRun:
    env = child_env(root)
    traced = trace_pipe is not None
    pass_fds = ()
    if traced:
        rfd, wfd = trace_pipe
        pass_fds = (wfd,)
    out: list = []
    err: list = []
    trace: list = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=pass_fds,
    )
    readers = [
        threading.Thread(target=_drain, args=(proc.stdout, out)),
        threading.Thread(target=_drain, args=(proc.stderr, err)),
    ]
    if traced:
        os.close(wfd)
        readers.append(threading.Thread(target=_drain, args=(os.fdopen(rfd, "rb"), trace)))
    for r in readers:
        r.start()

    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def signal_child(sig) -> None:
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(proc.pid, sig)

    timers = []
    if traced:
        timers.append(threading.Timer(deadline_s, signal_child, args=(signal.SIGTERM,)))
        timers.append(threading.Timer(deadline_s + TERM_GRACE_S, signal_child, args=(signal.SIGKILL,)))
    else:
        timers.append(threading.Timer(deadline_s, signal_child, args=(signal.SIGKILL,)))
    for t in timers:
        t.start()
    reaped = False
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            state["exited"] = True
        for t in timers:
            t.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        if not reaped:
            for t in timers:
                t.cancel()
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    return JobRun(
        argv=tuple(argv),
        wall_s=wall,
        rss_kb=usage.ru_maxrss,
        exit_code=proc.returncode,
        stdout=out[0] if out else b"",
        stderr=err[0] if err else b"",
        timed_out=state["timed_out"],
        trace=trace[0] if trace else b"",
    )
