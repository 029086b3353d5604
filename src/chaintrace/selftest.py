"""The structural property suites that ``chaintrace selftest`` runs.

Each suite checks one family of identities by exhaustive or seeded
enumeration and returns a ValidationReport: the cyclic-module identities,
b^2 = B^2 = bB + Bb = 0, the chain maps of the trace pipeline, the
Waldhausen axioms on built-in families, K_0 three ways, the Sigma-Delta
diagram axioms, and additivity of the Dennis trace.  ``SUITES`` lists
them in the order the command prints them; each entry takes the run's
seed.  Only the ``selftest`` command imports this module, so the checks
that only a suite runs live here too: ``validate_cyclic_module`` (the
simplicial identities ``nerve.simplicial_identities`` lists, and the
cyclic ones), which would otherwise compile in every Hochschild job.

No suite reads another's result, so ``run_suites`` runs each suite in a
child process of its own, forked with ``os`` alone, so no job imports a
pool package (importing ``multiprocessing`` and ``concurrent.futures`` put
0.9 MB into every child).  At most one child per CPU this process may run
on is alive at a time; they start longest first (``LONGEST_FIRST``), and
each writes its pickled report or exception to its own pipe and exits.
The reports come back in ``SUITES`` order; if suites raise, it raises the
error of the first one in ``SUITES`` order, as a serial loop would, and a
child that dies mid-suite is an InternalInvariantError naming the suite
and the signal.
"""

from __future__ import annotations

import os
import pickle
import random
import select
import signal
import threading
import time

from .algebra import base_algebra, group_algebra, matrix_algebra, unit_inverse
from .cyclic import connes_b
from .endo import k0_retract_holds
from .errors import InternalInvariantError
from .formats import emit
from .groups import cyclic_group
from .hochschild import CyclicModule, HochschildHomology, cyclic_bar
from .linalg import SparseMap
from .rings import GF, QQ, ZZ
from .selectors import algebra_from_selector
from .sigma_delta import free_sigma_delta, ktheory_sigma_delta, sigma_delta_validate
from .trace import bar_complex, group_to_hh, multitrace
from .tracek1 import dennis_trace_k1
from .validation import ValidationReport
from .nerve import k0_via_diagonal, simplicial_identities
from .waldhausen import grothendieck_k0, k0_via_sdot
from .wcat import category_from_selector, validate_waldhausen

__all__ = ["SUITES", "LONGEST_FIRST", "run_suites", "validate_cyclic_module", "selftest_command"]

# The b-and-B suite checks its identities on the normalized Hochschild
# complex through this degree.
BB_MAX_DEGREE = 3


def validate_cyclic_module(C: CyclicModule) -> ValidationReport:
    """Exhaustively check the simplicial and cyclic operator identities: those
    ``nerve.simplicial_identities`` lists, labelled by its names, then
    those of t."""
    top = C.max_level
    report = ValidationReport(subject=f"cyclic module of {C.algebra.name or 'algebra'}")
    idents = [SparseMap.identity(C.ring, C.level_rank(q)) for q in range(top + 1)]
    operator = {"d": C.face, "s": C.degeneracy}

    def eq(lhs: SparseMap, rhs: SparseMap, label: str) -> None:
        report.checks_run += 1
        if lhs.cols != rhs.cols:
            report.record(label)

    def composite(q: int, side) -> SparseMap:
        if side is None:
            return idents[q]
        (k2, n2, i2), (k1, n1, i1) = side
        return operator[k2](n2, i2).compose(operator[k1](n1, i1))

    for name, q, lhs, rhs in simplicial_identities(top):
        eq(composite(q, lhs), composite(q, rhs), f"{name} failed at level {q}")
    for q in range(0, top + 1):
        t = C.cyclic(q)
        power = idents[q]
        for _ in range(q + 1):
            power = t.compose(power)
        eq(power, idents[q], f"t^{q + 1} != id at level {q}")
    for q in range(1, top + 1):
        t = C.cyclic(q)
        eq(C.face(q, 0).compose(t), C.face(q, q), f"d_0 t != d_q at level {q}")
        for i in range(1, q + 1):
            eq(
                C.face(q, i).compose(t),
                C.cyclic(q - 1).compose(C.face(q, i - 1)),
                f"d_{i} t != t d_{i - 1} at level {q}",
            )
        if q < top:
            eq(
                C.degeneracy(q, 0).compose(t),
                C.cyclic(q + 1).compose(C.cyclic(q + 1)).compose(C.degeneracy(q, q)),
                f"s_0 t != t^2 s_q at level {q}",
            )
            for i in range(1, q + 1):
                eq(
                    C.degeneracy(q, i).compose(t),
                    C.cyclic(q + 1).compose(C.degeneracy(q, i - 1)),
                    f"s_{i} t != t s_{i - 1} at level {q}",
                )
    return report


def _suite_cyclic_identities() -> ValidationReport:
    report = ValidationReport(subject="cyclic module identities")
    for sel in ("Z", "GF:2[x]/x^2", "Z[C2]", "M2(GF:2)"):
        A = algebra_from_selector(sel)
        report.merge(validate_cyclic_module(cyclic_bar(A, 1)))
    return report


def _suite_b_bb() -> ValidationReport:
    report = ValidationReport(subject="b^2 = 0, B^2 = 0, bB + Bb = 0")
    for sel in ("Q[C2]", "GF:2[x]/x^2", "Z[C2]"):
        A = algebra_from_selector(sel)
        norm = HochschildHomology(A, BB_MAX_DEGREE).normalized
        top = BB_MAX_DEGREE + 1
        for q in range(1, top):
            report.checks_run += 1
            if not norm.boundary(q + 1).compose(connes_b(norm, q)).add(
                connes_b(norm, q - 1).compose(norm.boundary(q))
            ).is_zero_map():
                report.record(f"{sel}: bB + Bb is nonzero at level {q}")
        for q in range(top - 1):
            report.checks_run += 1
            if not connes_b(norm, q + 1).compose(connes_b(norm, q)).is_zero_map():
                report.record(f"{sel}: B^2 is nonzero at level {q}")
        for q in range(2, top + 1):
            report.checks_run += 1
            if not norm.boundary(q - 1).compose(norm.boundary(q)).is_zero_map():
                report.record(f"{sel}: b^2 is nonzero at level {q}")
    return report


def _suite_chain_maps() -> ValidationReport:
    report = ValidationReport(subject="chain map identities")
    for n in (2, 3):
        G = cyclic_group(n)
        ring = ZZ
        A = group_algebra(G, ring)
        cm = cyclic_bar(A, 2)
        bar = bar_complex(G, ring, 2)
        for q in (1, 2):
            phi_q = group_to_hh(G, ring, q)
            phi_q1 = group_to_hh(G, ring, q - 1)
            report.checks_run += 1
            lhs = cm.boundary(q).compose(phi_q)
            if not lhs.sub(phi_q1.compose(bar.differential(q))).is_zero_map():
                report.record(f"group_to_hh is not a chain map for C{n} at q={q}")
    A = base_algebra(GF(2))
    M = matrix_algebra(A, 2)
    cm_m = cyclic_bar(M, 2)
    cm_a = cyclic_bar(A, 2)
    for q in (1, 2):
        report.checks_run += 1
        lhs = cm_a.boundary(q).compose(multitrace(A, 2, q))
        rhs = multitrace(A, 2, q - 1).compose(cm_m.boundary(q))
        if not lhs.sub(rhs).is_zero_map():
            report.record(f"multitrace is not a chain map for M2(F2) at q={q}")
    return report


def _suite_waldhausen_families() -> ValidationReport:
    report = ValidationReport(subject="Waldhausen axiom validator on built-in families")
    for sel in ("trivial", "vect_gf:2:1", "vect_gf:2:2", "pointed_sets:2", "finite_modules:2:4"):
        report.merge(validate_waldhausen(category_from_selector(sel)))
    return report


def _suite_k0() -> ValidationReport:
    report = ValidationReport(subject="K0 three ways and the retract property")
    for sel in ("trivial", "vect_gf:2:2", "finite_modules:2:4"):
        C = category_from_selector(sel)
        report.checks_run += 2
        if not grothendieck_k0(C) == k0_via_sdot(C) == k0_via_diagonal(C):
            report.record(f"K0 methods disagree on {sel}")
        if not k0_retract_holds(C):
            report.record(f"K0 retract property fails on {sel}")
    return report


def _suite_sigma_delta() -> ValidationReport:
    report = ValidationReport(subject="Sigma-Delta diagram axioms")
    report.merge(sigma_delta_validate(ktheory_sigma_delta(category_from_selector("vect_gf:2:2"))))
    report.merge(sigma_delta_validate(free_sigma_delta(2)))
    return report


def _suite_trace_additivity(seed: int) -> ValidationReport:
    report = ValidationReport(subject="Dennis trace additivity on random unit pairs")
    rng = random.Random(seed)

    def random_unit(A, sampler):
        while True:
            u = tuple(sampler() for _ in range(A.rank))
            if not isinstance(unit_inverse(A, u), tuple):
                continue
            return u

    for sel, sampler in (
        ("Q[C2]", lambda: QQ.normalize(rng.randint(-4, 4))),
        ("Z[C2]", None),
    ):
        A = algebra_from_selector(sel)
        work = HochschildHomology(A, 1)
        units = None
        if sampler is None:
            units = [u for u in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        for _ in range(5):
            if units is None:
                u, v = random_unit(A, sampler), random_unit(A, sampler)
            else:
                u, v = rng.choice(units), rng.choice(units)
                u = A.normalize_vec(u)
                v = A.normalize_vec(v)
            uv = A.mul_vec(u, v)
            c_uv = dennis_trace_k1(A, ((uv,),), work=work)
            c_u = dennis_trace_k1(A, ((u,),), work=work)
            c_v = dennis_trace_k1(A, ((v,),), work=work)
            diff = dict(c_uv.representative)
            for x, c in c_u.representative + c_v.representative:
                diff[x] = A.ring.sub(diff.get(x, A.ring.zero), c)
            report.checks_run += 1
            if not work.is_boundary(1, diff):
                report.record(f"{sel}: trace of a product is not additive on {u}, {v}")
    return report


SUITES = (
    ("cyclic-identities", lambda seed: _suite_cyclic_identities()),
    ("b-and-B", lambda seed: _suite_b_bb()),
    ("chain-maps", lambda seed: _suite_chain_maps()),
    ("waldhausen-families", lambda seed: _suite_waldhausen_families()),
    ("k0-agreement", lambda seed: _suite_k0()),
    ("sigma-delta", lambda seed: _suite_sigma_delta()),
    ("trace-additivity", _suite_trace_additivity),
)


# The order run_suites starts the suites in: longest first, so the long
# suites start at once and the short ones fill in behind them.  Seconds of
# one run in a fresh process, five runs each, Python 3.11 on a 2-core
# x86-64 host: sigma-delta 0.48-0.83, k0-agreement 0.44-0.65,
# waldhausen-families 0.16-0.23, trace-additivity 0.016-0.025,
# cyclic-identities 0.005-0.008, b-and-B 0.004-0.006, chain-maps
# 0.002-0.003.  On two CPUs, k0-agreement then waldhausen-families
# takes about as long as sigma-delta.
LONGEST_FIRST = (
    "sigma-delta",
    "k0-agreement",
    "waldhausen-families",
    "trace-additivity",
    "cyclic-identities",
    "b-and-B",
    "chain-maps",
)

# How often a child checks that the process that started it is alive.
_PARENT_POLL_S = 0.1


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _run_in_child(index: int, seed: int, parent: int, out: int) -> None:
    """Run suite ``index`` and write its pickled report or exception to ``out``.

    A parent killed outright (SIGKILL) cannot stop its children, so each
    child watches its parent pid and exits within _PARENT_POLL_S of the
    parent's death.  SIGTERM takes its default action whatever handler the
    parent installed, and Ctrl-C is left to the parent.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()
    name, suite = SUITES[index]
    try:
        outcome = suite(seed)
    except Exception as exc:
        outcome = exc
    try:
        payload = pickle.dumps(outcome)
    except Exception as exc:
        payload = pickle.dumps(InternalInvariantError(f"suite {name}: its outcome cannot be pickled: {exc}"))
    with open(out, "wb") as pipe:
        pipe.write(payload)


def _fork(index: int, seed: int, siblings) -> tuple:
    """Fork the child that runs suite ``index``: its pid and the read end of
    its pipe.  The child closes ``siblings``, the read ends of the pipes of
    the children still running."""
    read, write = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd in (read, *siblings):
                os.close(fd)
            _run_in_child(index, seed, parent, write)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _outcome(index: int, status: int, payload: bytes):
    """What suite ``index`` gave, from its child's wait status and all it
    sent: the report or exception, or an InternalInvariantError naming the
    signal or status if the child did not exit cleanly."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return pickle.loads(payload)
    if code < 0:
        how = "was killed by " + {s.value: s.name for s in signal.Signals}.get(-code, f"signal {-code}")
    else:
        how = f"exited with status {code}"
    return InternalInvariantError(f"the worker running suite {SUITES[index][0]} {how}")


def run_suites(seed: int) -> list:
    """The report of every suite, in SUITES order, each computed in a child
    process of its own.

    The children are forked with ``os`` alone, so they inherit the loaded
    modules (and ``SUITES`` as it is at the call) and the job imports no
    pool package.  Forking is safe because this process starts no thread.
    Spawned children would each start an interpreter and import the
    package again: ``selftest --seed 3`` then took 2.3 s and 38 MB, against
    1.8 s and 34 MB forked (2-core host, Python 3.11, through
    ProcessPoolExecutor).  A child exits once its suite is done, so no
    suite runs among the objects, or the reference cycles, of another.

    Children start longest first, at most one per CPU this process may run
    on at a time.  The parent reads every pipe as data arrives, so a child
    never waits on a full pipe, and reaps each child once its pipe closes.
    The first suite in SUITES order whose outcome is an exception raises
    it here, as a serial loop would: once one has raised, no suite after it
    in SUITES order starts, and running suites finish.  A child that does
    not exit cleanly (killed by the OOM killer, say) gives its suite an
    InternalInvariantError naming the signal.  Every child is reaped before
    this returns or raises, after the suite it is running has finished.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    queue = sorted(range(len(SUITES)), key=lambda i: LONGEST_FIRST.index(SUITES[i][0]))
    outcomes: dict = {}
    running: dict = {}  # read end of a child's pipe -> (suite index, pid, chunks read)
    try:
        while True:
            raised = min((i for i, out in outcomes.items() if isinstance(out, Exception)), default=len(SUITES))
            queue = [i for i in queue if i < raised]
            while queue and len(running) < cpus:
                index = queue.pop(0)
                pid, fd = _fork(index, seed, running)
                running[fd] = (index, pid, [])
            if not running:
                break
            for fd in select.select(list(running), [], [])[0]:
                index, pid, chunks = running[fd]
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                del running[fd]
                os.close(fd)
                outcomes[index] = _outcome(index, os.waitpid(pid, 0)[1], b"".join(chunks))
    finally:
        # the children finish their suites, fail to write, and exit
        for fd, (_, pid, _) in running.items():
            os.close(fd)
            os.waitpid(pid, 0)
    for index in sorted(outcomes):
        if isinstance(outcomes[index], Exception):
            raise outcomes[index]
    return [outcomes[i] for i in range(len(SUITES))]


def selftest_command(config) -> tuple[bool, str]:
    """``chaintrace selftest``: one line per suite, in SUITES order, and a verdict."""
    lines = []
    suites = []
    all_ok = True
    for (name, _), report in zip(SUITES, run_suites(config.seed)):
        ok = report.ok
        all_ok = all_ok and ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {report.checks_run} checks")
        lines += [f"     issue: {msg}" for msg in report.issues]
        suites.append(
            {
                "name": name,
                "ok": ok,
                "checks_run": report.checks_run,
                "issues": list(report.issues),
                "skipped": list(report.skipped),
            }
        )
    lines.append(
        f"selftest: {'all suites passed' if all_ok else 'FAILED'} "
        f"({len(SUITES)} suites, seed {config.seed})"
    )
    result = {"seed": config.seed, "suites": suites, "ok": all_ok}
    return all_ok, emit(config, lines, result)
