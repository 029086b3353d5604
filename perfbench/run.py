"""chaintrace CLI benchmark.

    python3 perfbench/run.py --workload {homology,trace,categories} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: it drives ``src/chaintrace`` through its
command line, one ``python -m chaintrace.cli ... --format structured``
process per job, one job at a time (closed loop, one client).  The seed
picks the batch of jobs (see jobs.py); the program only sees their argv.
Every job's output is checked (see checks.py) before it counts as done.

With ``--trace 0`` it measures, and prints as the last line of stdout:

* ``setup_s``: median wall time of ``chaintrace --help`` (import, argument
  parsing, exit), which every job pays; timed after one warm-up run;
* ``batch_s``: median over batches of the summed job wall times of a batch;
* ``job_p50_s``: median wall time of one job;
* ``job_tail_s``: wall time at the highest percentile of jobs that still
  has at least ten jobs above it (the percentile is on the detail line);
  both quantiles are Harrell-Davis estimates (see ``quantile``);
* ``peak_rss_mb``: largest peak RSS of any job process (``wait4``);
* ``done_frac``: jobs that exited 0 with verified output, over jobs run.
  One minus it is the failed share, which counts crashes, refusals, exit 5,
  deadline misses and wrong output.

A job that runs into its deadline counts as the deadline in these times,
not scaled (see below): that time is the benchmark's own timer, not the
program's, and a later fix that makes such a job end sooner lowers it.

The result is ``correct`` only if no job's output is wrong: a job whose
output bytes were recorded must end by itself with exactly those bytes (a
crash or refusal of such a job is wrong, not merely failed), and a job
checked by oracle must not exit 0 with output the oracle rejects.  A
deadline miss is not wrong: it counts only in ``done_frac``.

The speed this host gives a process drifts by up to 1.8x over minutes, and
every time above drifts with it.  So the times are reported in seconds of a
host on which ``reference.py`` (a fixed process the benchmark owns, which
starts Python, imports standard modules and eliminates a fixed matrix)
takes ``REFERENCE_NOMINAL_S``: each is multiplied by that constant over the
median wall time of the reference, run once before every job.  The times
as measured (``measured.batch_s`` sums every job, deadline misses too), the
reference time and the factor are on the detail line printed before the
result, with every job's wall time as measured, in the order run.

It runs ``round(seconds / 15)`` whole batches, at least one, each in
its own seeded order.

With ``--trace 1`` it runs the batch once plainly and once through
``traced.py``, which wraps each module's public functions from outside,
and prints per-layer self times and counts for that traced batch, with the
tracing overhead (traced over plain wall time, summed over the jobs
that ended before their deadline in both).  Only process-local
timing is used: no cache dropping and no system-wide tracing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import jobs  # noqa: E402
from proc import run_job, run_reference  # noqa: E402

SETUP_RUNS = 10
TAIL_BEYOND = 10
# Every workload's batch takes 12-17 s on a 2-core host, so --seconds buys
# the same whole number of batches in every run of a workload: the job
# sample count, and with it the tail percentile, does not move with host
# speed.
BATCH_NOMINAL_S = 15.0
# Median wall time of reference.py on a 2-core Xeon host at 2.0 GHz.
REFERENCE_NOMINAL_S = 0.12


def _job_outcome(run, entry) -> tuple[str, str]:
    """(verdict, outcome label) of one finished job."""
    if run.timed_out:
        return "failed", "deadline"
    verdict = checks.verdict(entry, run.argv, run.exit_code, run.stdout)
    if verdict == "ok":
        return verdict, "ok"
    if run.exit_code == 0:
        return verdict, "wrong output"
    exc = run.exception_type()
    label = f"crash {exc}" if exc else f"exit {run.exit_code}"
    return verdict, f"wrong: {label}" if verdict == "wrong" else label


class Tally:
    """Job results of one run."""

    def __init__(self) -> None:
        self.walls: list = []
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.outcomes: dict = {}
        self.by_job: dict = {}

    def add(self, run, entry) -> None:
        verdict, label = _job_outcome(run, entry)
        self.walls.append(run.wall_s)
        self.by_job.setdefault(jobs.job_key(run.argv), []).append(run.wall_s)
        self.rss_kb = max(self.rss_kb, run.rss_kb)
        self.attempted += 1
        if verdict != "ok":
            self.failed += 1
            key = f"{jobs.job_key(run.argv)}: {label}"
            self.outcomes[key] = self.outcomes.get(key, 0) + 1
        if verdict == "wrong":
            self.wrong += 1


def run_batch(root, batch, expected, deadline, tally, traced=False) -> tuple[float, list]:
    """Run each job once; returns the summed job wall time and the runs."""
    limit = deadline * jobs.TRACED_DEADLINE_X if traced else deadline
    runs = [run_job(root, argv, limit, traced=traced) for argv in batch]
    for run in runs:
        tally.add(run, expected[jobs.job_key(run.argv)])
    return sum(run.wall_s for run in runs), runs


def setup_time(root) -> float:
    run = run_job(root, ("--help",), 60.0, structured=False)
    if run.exit_code != 0 or not run.stdout.startswith(b"usage:"):
        raise RuntimeError(f"chaintrace --help failed: {run.stderr.decode(errors='replace')}")
    return run.wall_s


def quantile(values, p) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982).

    A mean of all the order statistics weighted by a Beta(p(n+1), (1-p)(n+1))
    distribution: with one job's time varying by about 20%, it is steadier
    from run to run than the single order statistic at that rank.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # the Beta distribution function at 0, 1/n, ..., 1 by the midpoint rule
    steps = 100
    cdf, mass = [0.0], 0.0
    for j in range(steps * n):
        x = (j + 0.5) / (steps * n)
        mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        if (j + 1) % steps == 0:
            cdf.append(mass)
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered)) / mass


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest rank with TAIL_BEYOND values above it."""
    n = len(values)
    p = max(1, n - TAIL_BEYOND) / n
    return quantile(values, p), 100.0 * p


def plain_metrics(root, batch, expected, deadline, seconds, seed) -> tuple[dict, dict, Tally]:
    passes = max(1, round(seconds / BATCH_NOMINAL_S))
    schedule = [(p, argv) for p in range(passes) for argv in jobs.reorder(batch, seed, p)]
    # A reference run goes before every job and --help runs are spread over
    # the whole run, so that both sample the host conditions the jobs meet;
    # the first ones only warm caches.  One process's time varies by about
    # 20% whatever its length, so the reference is short and run often.
    every = max(1, len(schedule) // SETUP_RUNS)
    setup_time(root)
    run_reference(root)
    setup, reference = [], []
    tally = Tally()
    runs = []
    for i, (p, argv) in enumerate(schedule):
        if i % every == 0 and len(setup) < SETUP_RUNS:
            setup.append(setup_time(root))
        reference.append(run_reference(root))
        run = run_job(root, argv, deadline)
        tally.add(run, expected[jobs.job_key(argv)])
        runs.append((p, run))
    while len(setup) < SETUP_RUNS:
        setup.append(setup_time(root))
    scale = REFERENCE_NOMINAL_S / statistics.median(reference)

    # a deadline miss lasts as long as the benchmark's own timer, not the
    # program, so it counts as the deadline and is not scaled
    job_s = [deadline if run.timed_out else run.wall_s * scale for _, run in runs]
    batch_times, batch_wall = [0.0] * passes, [0.0] * passes
    for (p, run), t in zip(runs, job_s):
        batch_times[p] += t
        batch_wall[p] += run.wall_s
    tail_s, tail_pct = tail(job_s)
    done_frac = (tally.attempted - tally.failed) / tally.attempted
    metrics = {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "batch_s": (statistics.median(batch_times), "s"),
        "job_p50_s": (quantile(job_s, 0.5), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (tally.rss_kb / 1024.0, "MB"),
        "done_frac": (done_frac, "ratio"),
    }
    detail = {
        "measured": {
            "setup_s": statistics.median(setup),
            "batch_s": statistics.median(batch_wall),
            "job_p50_s": quantile(tally.walls, 0.5),
            "job_tail_s": tail(tally.walls)[0],
        },
        "reference_s": statistics.median(reference),
        "host_scale": scale,
        "job_wall_s": [run.wall_s for _, run in runs],
        "samples": {
            "reference_s": len(reference),
            "setup_s": len(setup),
            "batch_s": len(batch_times),
            "job_p50_s": len(job_s),
            "job_tail_s": len(job_s),
            "peak_rss_mb": len(job_s),
            "done_frac": tally.attempted,
        },
        "job_tail_percentile": round(tail_pct, 1),
        "fail_frac": 1.0 - done_frac,
        "batch_times_s": batch_times,
        "deadline_misses": sum(run.timed_out for _, run in runs),
        "job_median_s": {k: statistics.median(v) for k, v in sorted(tally.by_job.items())},
    }
    return metrics, detail, tally


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _sum_spans(traces, names, field) -> float:
    return sum(t["spans"].get(n, [0, 0.0, 0.0])[field] for t in traces for n in names)


def _counter(traces, name) -> float:
    return sum(t["counters"].get(name, 0) for t in traces)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(traces, overhead) -> dict:
    """Per-layer metrics of one traced batch."""
    SELF, TOTAL, CALLS = 2, 1, 0

    def self_s(*names):
        return _sum_spans(traces, names, SELF)

    job_s = _sum_spans(traces, ["cli.main"], TOTAL)
    builds = [t["counters"].get("hochschild.builds", 0) for t in traces]
    hh_jobs = sum(1 for b in builds if b)
    full_cols = _counter(traces, "hochschild.full_cols")
    snf_cells = _counter(traces, "linalg.snf_cells")
    enum_s = self_s("wcat.category_build", "wcat.validate", "waldhausen.ws_diagonal",
                    "waldhausen.grothendieck")
    return {
        "cli.import_s": (sum(t["import_s"] for t in traces), "s"),
        "cli.resolve_s": (self_s("cli.resolve"), "s"),
        "formats.render_s": (self_s("formats.render"), "s"),
        "algebra.build_s": (self_s("algebra.build"), "s"),
        "algebra.gl_order": (_counter(traces, "algebra.gl_order"), "count"),
        "hochschild.build_s": (self_s("hochschild.build"), "s"),
        "hochschild.builds": (_ratio(sum(builds), hh_jobs), "count"),
        "hochschild.full_cols": (full_cols, "count"),
        "hochschild.normalized_cols": (_counter(traces, "hochschild.normalized_cols"), "count"),
        "hochschild.normalized_share": (
            _ratio(_counter(traces, "hochschild.normalized_cols"), full_cols), "ratio"),
        "chain.complex_check_s": (_sum_spans(traces, ["chain.complex_check"], TOTAL), "s"),
        "chain.homology_s": (self_s("chain.homology"), "s"),
        "chain.homology_calls": (_sum_spans(traces, ["chain.homology"], CALLS), "count"),
        "chain.coordinates_s": (self_s("chain.coordinates"), "s"),
        "linalg.snf_s": (self_s("linalg.snf"), "s"),
        "linalg.snf_calls": (_sum_spans(traces, ["linalg.snf"], CALLS), "count"),
        "linalg.snf_cells": (snf_cells, "count"),
        "linalg.snf_max_cells": (max([t["maxima"].get("linalg.snf_max_cells", 0) for t in traces] + [0]), "count"),
        "linalg.snf_density": (_ratio(_counter(traces, "linalg.snf_nnz"), snf_cells), "ratio"),
        "linalg.snf_share": (_ratio(self_s("linalg.snf"), job_s), "ratio"),
        "linalg.compose_s": (self_s("linalg.compose"), "s"),
        "trace.multitrace_s": (self_s("trace.multitrace"), "s"),
        "trace.group_to_hh_s": (self_s("trace.group_to_hh"), "s"),
        "trace.group_homology_build_s": (self_s("trace.group_homology_build"), "s"),
        "trace.iso_check_s": (self_s("trace.iso_check"), "s"),
        "wcat.category_build_s": (self_s("wcat.category_build"), "s"),
        "wcat.objects": (_counter(traces, "wcat.objects"), "count"),
        "wcat.morphisms": (_counter(traces, "wcat.morphisms"), "count"),
        "wcat.validate_s": (self_s("wcat.validate"), "s"),
        "waldhausen.ws_diagonal_s": (self_s("waldhausen.ws_diagonal"), "s"),
        "waldhausen.diag_strings": (_counter(traces, "waldhausen.diag_strings"), "count"),
        "waldhausen.nondegenerate_share": (
            _ratio(_counter(traces, "waldhausen.nondegenerate"),
                   _counter(traces, "waldhausen.level2_strings")), "ratio"),
        "waldhausen.grothendieck_s": (self_s("waldhausen.grothendieck"), "s"),
        "waldhausen.refusals": (_counter(traces, "waldhausen.ws_diagonal.errors"), "count"),
        "waldhausen.enum_share": (_ratio(enum_s, job_s), "ratio"),
        "sigma_delta.build_s": (self_s("sigma_delta.build"), "s"),
        "sigma_delta.validate_s": (self_s("sigma_delta.validate"), "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def traced_metrics(root, batch, expected, deadline) -> tuple[dict, dict, Tally]:
    tally = Tally()
    plain_s, plain_runs = run_batch(root, batch, expected, deadline, tally)
    traced_s, runs = run_batch(root, batch, expected, deadline, tally, traced=True)
    # overhead over the jobs that ended by themselves in both runs, since a
    # traced job is allowed a longer deadline
    ended = [(a, b) for a, b in zip(plain_runs, runs) if not (a.timed_out or b.timed_out)]
    overhead = _ratio(sum(b.wall_s for _, b in ended), sum(a.wall_s for a, _ in ended))
    traces, events = [], {}
    for run in runs:
        key = jobs.job_key(run.argv)
        try:
            t = json.loads(run.trace)
        except ValueError:
            events[key] = "no trace written"
            continue
        traces.append(t)
        if t["status"] == "deadline":
            events[key] = {"deadline": True, "open": t["open"]}
        elif t["status"] == "exception" and t["error"]:
            events[key] = {"exception": t["error"]["type"], "open": t["error"]["open"]}
        elif run.exit_code != 0 and t["error"]:
            events[key] = {"exit": run.exit_code, "error": t["error"]["type"], "open": t["error"]["open"]}
    detail = {"plain_batch_s": plain_s, "traced_batch_s": traced_s, "failures": events}
    return layer_metrics(traces, overhead), detail, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chaintrace", "cli.py")):
        print("error: run from the root of a chaintrace checkout (no src/chaintrace/cli.py here)",
              file=sys.stderr)
        return 2
    expected = checks.load_expected()
    batch = jobs.generate(args.workload, args.seed)
    deadline = jobs.DEADLINE_S[args.workload]
    if args.trace:
        metrics, detail, tally = traced_metrics(root, batch, expected, deadline)
    else:
        metrics, detail, tally = plain_metrics(root, batch, expected, deadline, args.seconds, args.seed)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_batch": len(batch),
        "deadline_s": deadline,
        "failed_jobs": tally.outcomes,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "timing": "process-local wall clock and wait4 rusage; no cache dropping, no system tracing",
        },
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
