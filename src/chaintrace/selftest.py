"""The structural property suites that ``chaintrace selftest`` runs.

Each suite checks one family of identities by exhaustive or seeded
enumeration and returns a ValidationReport: the cyclic-module identities,
b^2 = B^2 = bB + Bb = 0, the chain maps of the trace pipeline, the
Waldhausen axioms on built-in families, K_0 three ways, the Sigma-Delta
diagram axioms, and additivity of the Dennis trace.  ``SUITES`` lists
them in the order the command prints them; each entry takes the run's
seed.  Only the ``selftest`` command imports this module.
"""

from __future__ import annotations

import random

from .algebra import base_algebra, cyclic_group, group_algebra, matrix_algebra, unit_inverse
from .formats import algebra_from_selector
from .hochschild import HochschildHomology, cyclic_bar, validate_cyclic_module
from .rings import GF, QQ, ZZ
from .sigma_delta import free_sigma_delta, ktheory_sigma_delta, sigma_delta_validate
from .trace import bar_complex, dennis_trace_k1, group_to_hh, multitrace
from .validation import ValidationReport
from .waldhausen import grothendieck_k0, k0_retract_holds, k0_via_diagonal, k0_via_sdot
from .wcat import category_from_selector, validate_waldhausen

__all__ = ["SUITES"]


def _suite_cyclic_identities() -> ValidationReport:
    report = ValidationReport(subject="cyclic module identities")
    for sel in ("Z", "GF:2[x]/x^2", "Z[C2]", "M2(GF:2)"):
        A = algebra_from_selector(sel)
        report.merge(validate_cyclic_module(cyclic_bar(A, 1)))
    return report


def _suite_b_bb(max_degree: int = 3) -> ValidationReport:
    report = ValidationReport(subject="b^2 = 0, B^2 = 0, bB + Bb = 0")
    for sel in ("Q[C2]", "GF:2[x]/x^2", "Z[C2]"):
        A = algebra_from_selector(sel)
        norm = HochschildHomology(A, max_degree).normalized
        top = max_degree + 1
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
