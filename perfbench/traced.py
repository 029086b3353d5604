"""Traced runner: run one chaintrace CLI job with per-layer spans.

    python3 perfbench/traced.py FD <chaintrace CLI arguments>

Imports the package from ``PYTHONPATH``, wraps public functions and methods
of each module from outside (no edit to ``src/``), runs ``cli.main`` on the
arguments, and writes one JSON object with the spans and counters to file
descriptor FD.  Standard output and the exit status are those of the plain
CLI.  On SIGTERM (the benchmark's deadline) it writes the spans still open,
innermost last, and exits with status 143.

Spans are aggregated in memory per name: calls, inclusive time, and self
time (inclusive time minus the time of child spans).  A name bound in
several modules, such as ``smith_normal_form``, is replaced in every module
that binds it.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time

perf = time.perf_counter


class Recorder:
    """Spans and counters of one job; one instance per process."""

    def __init__(self) -> None:
        self.stack: list = []  # open spans: [name, start, child time, attrs]
        self.spans: dict = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict = {}
        self.maxima: dict = {}
        self.error = None  # (exception, spans open where it was raised)
        self.import_s = 0.0
        self.categories: list = []
        self._seen: set = set()

    def count(self, name: str, value=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def once(self, key) -> bool:
        """True the first time a key is seen in this job."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _hook(self, fn, *args) -> None:
        # Time spent counting is charged to no span: it is added to the
        # enclosing span's child time and reported as trace.hook_s.
        t0 = perf()
        fn(*args)
        dt = perf() - t0
        self.count("trace.hook_s", dt)
        if self.stack:
            self.stack[-1][2] += dt

    def wrap(self, fn, name: str, attrs=None, before=None, after=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                rec._hook(before, *args)
            frame = [name, perf(), 0.0, attrs(*args) if attrs else None]
            rec.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.count(f"{name}.errors")
                if rec.error is None or rec.error[0] is not exc:
                    rec.error = (exc, [[f[0], f[3]] for f in rec.stack])
                raise
            finally:
                dur = perf() - frame[1]
                rec.stack.pop()
                span = rec.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += dur
                span[2] += dur - frame[2]
                if rec.stack:
                    rec.stack[-1][2] += dur
            if after is not None:
                rec._hook(after, result, *args)
            return result

        return wrapper

    def snapshot(self, status: str) -> dict:
        for C in self.categories:
            self.count("wcat.objects", C.object_count())
            self.count("wcat.morphisms", len(C._mor_payload))
        return {
            "status": status,
            "import_s": self.import_s,
            "spans": self.spans,
            "counters": self.counters,
            "maxima": self.maxima,
            "error": None if self.error is None else {
                "type": type(self.error[0]).__name__,
                "open": self.error[1],
            },
            "open": [[f[0], f[3]] for f in self.stack],
        }


def _rebind(modules, owner, name: str, wrapper) -> None:
    """Replace ``owner.name`` in every module that binds the same object."""
    orig = getattr(owner, name)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def instrument(rec: Recorder) -> None:
    from chaintrace import algebra, chain, cli, formats, hochschild, linalg
    from chaintrace import sigma_delta, trace, waldhausen, wcat

    modules = [m for n, m in sorted(sys.modules.items()) if n == "chaintrace" or n.startswith("chaintrace.")]

    def fn(owner, name, span, **hooks):
        _rebind(modules, owner, name, rec.wrap(getattr(owner, name), span, **hooks))

    def method(cls, name, span, **hooks):
        setattr(cls, name, rec.wrap(cls.__dict__[name], span, **hooks))

    for name in ("_resolve_algebra", "_resolve_group", "_resolve_category"):
        fn(cli, name, "cli.resolve")
    fn(formats, "parse_matrix_literal", "cli.resolve")
    fn(formats, "render_structured", "formats.render")

    for name in ("matrix_algebra", "unit_first_presentation"):
        fn(algebra, name, "algebra.build")
    fn(algebra, "general_linear_group", "algebra.build",
       after=lambda gl, *a: rec.count("algebra.gl_order", gl.group.order))

    method(hochschild.HochschildHomology, "__init__", "hochschild.build",
           before=lambda *a: rec.count("hochschild.builds"))

    def boundary_cols(counter):
        def hook(d, obj, q):
            if rec.once((counter, id(obj), q)):
                rec.count(counter, d.ncols)
        return hook

    method(hochschild.CyclicModule, "boundary", "hochschild.full_boundary",
           after=boundary_cols("hochschild.full_cols"))
    method(hochschild.NormalizedComplex, "boundary", "hochschild.normalized_boundary",
           after=boundary_cols("hochschild.normalized_cols"))

    method(chain.ChainComplex, "__init__", "chain.complex_check")
    fn(chain, "homology", "chain.homology", attrs=lambda cx, n, *rest: {"degree": n, "ranks": list(cx.ranks)})
    method(chain.HomologyData, "coordinates", "chain.coordinates")

    def snf_shape(mat):
        cells = mat.nrows * mat.ncols
        rec.count("linalg.snf_cells", cells)
        rec.peak("linalg.snf_max_cells", cells)
        rec.count("linalg.snf_nnz", sum(1 for row in mat.rows for x in row if x))

    fn(linalg, "smith_normal_form", "linalg.snf", before=snf_shape,
       attrs=lambda mat: {"rows": mat.nrows, "cols": mat.ncols})
    method(linalg.SparseMap, "compose", "linalg.compose")

    fn(trace, "multitrace", "trace.multitrace")
    fn(trace, "group_to_hh", "trace.group_to_hh")
    method(trace.GroupHomology, "__init__", "trace.group_homology_build")
    fn(trace, "fp_map_is_iso", "trace.iso_check")

    fn(wcat, "category_from_selector", "wcat.category_build",
       after=lambda C, *a: rec.categories.append(C))
    fn(wcat, "validate_waldhausen", "wcat.validate")

    def diagonal_sizes(X, *a):
        rec.count("waldhausen.diag_strings", sum(len(level) for level in X.levels))
        if X.top_level >= 2:
            degenerate = set(X.degens[1][0]) | set(X.degens[1][1]) | {0}
            level2 = len(X.levels[2])
            rec.count("waldhausen.level2_strings", level2)
            rec.count("waldhausen.nondegenerate", level2 - len(degenerate))

    fn(waldhausen, "ws_diagonal", "waldhausen.ws_diagonal", after=diagonal_sizes)
    fn(waldhausen, "grothendieck_k0", "waldhausen.grothendieck")

    for name in ("ktheory_sigma_delta", "free_sigma_delta"):
        fn(sigma_delta, name, "sigma_delta.build")
    fn(sigma_delta, "sigma_delta_validate", "sigma_delta.validate")

    cli.main = rec.wrap(cli.main, "cli.main")


def _write(fd: int, payload: dict) -> None:
    data = json.dumps(payload, sort_keys=True).encode()
    while data:
        data = data[os.write(fd, data):]
    os.close(fd)


def main() -> int:
    fd = int(sys.argv[1])
    argv = sys.argv[2:]
    rec = Recorder()

    def on_deadline(signum, frame):
        _write(fd, rec.snapshot("deadline"))
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_deadline)
    t0 = perf()
    import chaintrace.cli as cli

    rec.import_s = perf() - t0
    instrument(rec)
    try:
        status = cli.main(argv)
    except BaseException:
        # a deadline that arrives now no longer interrupts the write
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        _write(fd, rec.snapshot("exception"))
        raise
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _write(fd, rec.snapshot("exit"))
    return status


if __name__ == "__main__":
    sys.exit(main())
