"""The structural property suites that ``chaintrace selftest`` runs.

Each suite checks one family of identities by exhaustive or seeded
enumeration and returns a ValidationReport: the cyclic-module identities,
b^2 = B^2 = bB + Bb = 0, the chain maps of the trace pipeline, the
Waldhausen axioms on built-in families, K_0 three ways, the Sigma-Delta
diagram axioms, and additivity of the Dennis trace.  ``SUITES`` lists
them in the order the command prints them; each entry takes the run's
seed.  Only the ``selftest`` command imports this module, so the checks
that only a suite runs live here too: ``validate_cyclic_module`` (the
simplicial and cyclic operator identities), which would otherwise compile
in every Hochschild job.

No suite reads another's result, so ``run_suites`` runs them in worker
processes, one per CPU this process may run on and never more than there
are suites.  It submits them longest first (``LONGEST_FIRST``) and returns
the reports in ``SUITES`` order; if suites raise, it raises the error of
the first one in ``SUITES`` order, as a serial loop would.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

from .algebra import base_algebra, cyclic_group, group_algebra, matrix_algebra, unit_inverse
from .endo import k0_retract_holds
from .formats import algebra_from_selector
from .hochschild import CyclicModule, HochschildHomology, cyclic_bar
from .linalg import SparseMap
from .rings import GF, QQ, ZZ
from .sigma_delta import free_sigma_delta, ktheory_sigma_delta, sigma_delta_validate
from .trace import bar_complex, dennis_trace_k1, group_to_hh, multitrace
from .validation import ValidationReport
from .waldhausen import grothendieck_k0, k0_via_diagonal, k0_via_sdot
from .wcat import category_from_selector, validate_waldhausen

__all__ = ["SUITES", "LONGEST_FIRST", "run_suites", "validate_cyclic_module"]

# The b-and-B suite checks its identities on the normalized Hochschild
# complex through this degree.
BB_MAX_DEGREE = 3


def validate_cyclic_module(C: CyclicModule) -> ValidationReport:
    """Exhaustively check the simplicial and cyclic operator identities."""
    top = C.max_level
    report = ValidationReport(subject=f"cyclic module of {C.algebra.name or 'algebra'}")

    def eq(lhs: SparseMap, rhs: SparseMap, label: str) -> None:
        report.checks_run += 1
        if lhs.cols != rhs.cols:
            report.record(label)

    for q in range(2, top + 1):
        for j in range(q + 1):
            for i in range(j):
                eq(
                    C.face(q - 1, i).compose(C.face(q, j)),
                    C.face(q - 1, j - 1).compose(C.face(q, i)),
                    f"d_{i} d_{j} != d_{j - 1} d_{i} at level {q}",
                )
    for q in range(0, top - 1):
        for i in range(q + 1):
            for j in range(i, q + 1):
                eq(
                    C.degeneracy(q + 1, i).compose(C.degeneracy(q, j)),
                    C.degeneracy(q + 1, j + 1).compose(C.degeneracy(q, i)),
                    f"s_i s_j identity fails (i={i}, j={j}) at level {q}",
                )
    for q in range(0, top):
        ident = SparseMap.identity(C.ring, C.level_rank(q))
        for j in range(q + 1):
            for i in range(q + 2):
                lhs = C.face(q + 1, i).compose(C.degeneracy(q, j))
                if i < j:
                    eq(lhs, C.degeneracy(q - 1, j - 1).compose(C.face(q, i)), f"d_{i} s_{j} != s_{j-1} d_{i} at level {q}")
                elif i in (j, j + 1):
                    eq(lhs, ident, f"d_{i} s_{j} != id at level {q}")
                else:
                    eq(lhs, C.degeneracy(q - 1, j).compose(C.face(q, i - 1)), f"d_{i} s_{j} != s_{j} d_{i-1} at level {q}")
    for q in range(0, top + 1):
        t = C.cyclic(q)
        power = SparseMap.identity(C.ring, C.level_rank(q))
        for _ in range(q + 1):
            power = t.compose(power)
        eq(power, SparseMap.identity(C.ring, C.level_rank(q)), f"t^{q + 1} != id at level {q}")
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
            if not norm.boundary(q + 1).compose(norm.connes_b(q)).add(
                norm.connes_b(q - 1).compose(norm.boundary(q))
            ).is_zero_map():
                report.record(f"{sel}: bB + Bb is nonzero at level {q}")
        for q in range(top - 1):
            report.checks_run += 1
            if not norm.connes_b(q + 1).compose(norm.connes_b(q)).is_zero_map():
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
            diff = tuple(
                A.ring.sub(A.ring.sub(a, b), c)
                for a, b, c in zip(c_uv.representative, c_u.representative, c_v.representative)
            )
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


# The order run_suites submits the suites in: longest first, so the long
# suites start at once and the short ones fill in behind them.  Seconds of
# one run in a fresh process, five runs each, Python 3.11 on a 2-core
# x86-64 host: sigma-delta 0.73-0.91, k0-agreement 0.58-0.79,
# waldhausen-families 0.22-0.30, trace-additivity 0.019-0.028,
# cyclic-identities 0.009, b-and-B 0.007-0.008, chain-maps 0.003-0.004.
# With two workers, k0-agreement then waldhausen-families is the longer
# path.
LONGEST_FIRST = (
    "sigma-delta",
    "k0-agreement",
    "waldhausen-families",
    "trace-additivity",
    "cyclic-identities",
    "b-and-B",
    "chain-maps",
)

# How often a worker checks that the process that started it is alive.
_PARENT_POLL_S = 0.1


def _run_suite(index: int, seed: int) -> ValidationReport:
    return SUITES[index][1](seed)


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _worker_start(parent: int) -> None:
    """Worker set-up: default signal actions, and exit once the parent is gone.

    A parent killed outright (SIGKILL) cannot stop its workers, so each
    worker watches its parent pid and exits within _PARENT_POLL_S of the
    parent's death.  SIGTERM takes its default action whatever handler the
    parent installed, and Ctrl-C is left to the parent, which then shuts
    the pool down.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def run_suites(seed: int) -> list:
    """The report of every suite, in SUITES order, computed in worker processes.

    The workers are forked, so they inherit the loaded modules (and
    ``SUITES`` as it is at the call).  Forking is safe here because the
    process has one thread when the pool starts its workers (with fork,
    ProcessPoolExecutor starts them all before its own thread).  Spawned
    workers would each start an interpreter and import the package again:
    ``selftest --seed 3`` then took 2.3 s and 38 MB, against 1.8 s and
    34 MB forked (2-core host, Python 3.11).  The first suite in SUITES order
    whose result is an exception raises it here.  The pool is shut down
    before this returns or raises: queued suites are cancelled, running
    ones finish, and every worker is joined.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    pool = ProcessPoolExecutor(
        max_workers=min(cpus, len(SUITES)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_worker_start,
        initargs=(os.getpid(),),
    )
    try:
        order = sorted(range(len(SUITES)), key=lambda i: LONGEST_FIRST.index(SUITES[i][0]))
        futures = {i: pool.submit(_run_suite, i, seed) for i in order}
        return [futures[i].result() for i in range(len(SUITES))]
    finally:
        pool.shutdown(cancel_futures=True)
