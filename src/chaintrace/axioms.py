"""The bounded Waldhausen axioms, checked by exhaustive enumeration.

``check_axioms`` is the body of ``wcat.validate_waldhausen``, the public
entry point, which imports this module when it runs: only ``validate``
jobs, category files (validated as they are parsed) and selftest's
Waldhausen suite check the axioms, so no ``k0`` job over a built-in
family compiles them.  The caps the checks enforce, ``wcat.TRIPLE_CAP``
and ``wcat.AXIOM5_CAP``, stay in wcat with ``MORPHISM_CAP`` and are read
there when a check runs.
"""

from __future__ import annotations

from . import wcat
from .errors import CapExceededError, ValidationError
from .validation import ValidationReport

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .wcat import WCategory

__all__ = ["check_axioms", "axiom5_bound"]


def _structure_checks(C: WCategory, report: ValidationReport) -> None:
    n = C.object_count()
    z = C.zero_index()
    for a in range(n):
        report.checks_run += 2
        if len(C.hom_ids(z, a)) != 1:
            report.record(
                f"zero object: expected exactly one map 0 -> {C.object_label(a)}, "
                f"found {len(C.hom_ids(z, a))}"
            )
        if len(C.hom_ids(a, z)) != 1:
            report.record(
                f"zero object: expected exactly one map {C.object_label(a)} -> 0, "
                f"found {len(C.hom_ids(a, z))}"
            )
    all_mors = []
    sizes = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            homs = C.hom_ids(a, b)
            sizes[a][b] = len(homs)
            all_mors.extend(homs)
    # the associativity scan below visits every h∘g∘f with g: b -> c once
    into = [sum(row[b] for row in sizes) for b in range(n)]
    out_of = [sum(row) for row in sizes]
    triples = sum(into[b] * sizes[b][c] * out_of[c] for b in range(n) for c in range(n))
    if triples > wcat.TRIPLE_CAP:
        raise CapExceededError(
            f"category {C.name} has {triples} composable triples to check for "
            f"associativity, above {wcat.TRIPLE_CAP} (TRIPLE_CAP)"
        )
    for m in all_mors:
        report.checks_run += 1
        try:
            left = C.compose_ids(C.identity_id(C.mor_target(m)), m)
            right = C.compose_ids(m, C.identity_id(C.mor_source(m)))
        except ValidationError as exc:
            report.record(f"structure: {exc}")
            continue
        if left != m or right != m:
            report.record(f"structure: identity law fails at {C.mor_label(m)}")
    by_source = {}
    for m in all_mors:
        by_source.setdefault(C.mor_source(m), []).append(m)
    for f in all_mors:
        for g in by_source.get(C.mor_target(f), ()):
            report.checks_run += 1
            try:
                gf = C.compose_ids(g, f)
            except ValidationError as exc:
                report.record(f"structure: {exc}")
                continue
            for h in by_source.get(C.mor_target(g), ()):
                try:
                    if C.compose_ids(h, gf) != C.compose_ids(C.compose_ids(h, g), f):
                        report.record(
                            f"structure: associativity fails on "
                            f"{C.mor_label(h)} ∘ {C.mor_label(g)} ∘ {C.mor_label(f)}"
                        )
                except ValidationError as exc:
                    report.record(f"structure: {exc}")


def axiom5_bound(C: WCategory, spans) -> int:
    """Checks validate_waldhausen's axiom-5 scan may run over these witnesses.

    ``spans`` are the pairs (i, f) with a recorded pushout witness.  Two
    witnesses with corners (a, b, c) and (a2, b2, c2) cost the scan one
    check per (alpha, beta, gamma) in weq(a, a2) x weq(b, b2) x weq(c, c2)
    at most, and nothing unless all three are nonempty.  The bound sums
    that product over every ordered pair of witnesses, grouped by corners.
    """
    count = {}
    for i, f in spans:
        t = (C.mor_source(i), C.mor_target(i), C.mor_target(f))
        count[t] = count.get(t, 0) + 1
    return sum(
        k * k2 * len(C.weq_ids(a, a2)) * len(C.weq_ids(b, b2)) * len(C.weq_ids(c, c2))
        for (a, b, c), k in count.items()
        for (a2, b2, c2), k2 in count.items()
    )


def check_axioms(C: WCategory) -> ValidationReport:
    """The report of ``wcat.validate_waldhausen``: category laws first, then
    the five axioms, every violation recorded."""
    report = ValidationReport(subject=f"waldhausen category {C.name}")
    _structure_checks(C, report)
    n = C.object_count()
    z = C.zero_index()

    for a in range(n):
        for b in range(n):
            for m in C.hom_ids(a, b):
                report.checks_run += 1
                if C.iso_inverse(m) is None:
                    continue
                if not C.is_cofibration_id(m):
                    report.record(
                        f"axiom 1: isomorphism {C.mor_label(m)} is not flagged as a cofibration"
                    )
                if not C.is_weq_id(m):
                    report.record(
                        f"axiom 1: isomorphism {C.mor_label(m)} is not flagged as a weak equivalence"
                    )

    for a in range(n):
        report.checks_run += 1
        for m in C.hom_ids(z, a):
            if not C.is_cofibration_id(m):
                report.record(
                    f"axiom 2: the map 0 -> {C.object_label(a)} is not flagged as a cofibration"
                )

    cofibs = [i for a in range(n) for i in C.cofibs_from(a)]
    spans = [(i, f) for i in cofibs for c in range(n) for f in C.hom_ids(C.mor_source(i), c)]
    recorded = [C.pushout_witness(i, f) for i, f in spans]
    bound = axiom5_bound(C, [s for s, w in zip(spans, recorded) if w is not None])
    if bound > wcat.AXIOM5_CAP:
        raise CapExceededError(
            f"category {C.name} has {bound} weak-equivalence triples between pushout "
            f"witnesses to check for axiom 5, above {wcat.AXIOM5_CAP} (AXIOM5_CAP)"
        )

    witnesses = []
    for (i, f), w in zip(spans, recorded):
        report.checks_run += 1
        if w is None:
            if C.find_pushout(i, f) is not None:
                report.record(
                    f"axiom 3: pushout of ({C.mor_label(i)}, {C.mor_label(f)}) "
                    f"exists within the bound but no witness is recorded"
                )
            continue
        d, u, v = w
        if C.object_size(d) > C.bound:
            report.record(
                f"axiom 3: witness object {C.object_label(d)} exceeds the bound"
            )
        if not C.is_pushout(i, f, d, u, v):
            report.record(
                f"axiom 3: recorded witness for ({C.mor_label(i)}, {C.mor_label(f)}) "
                f"is not a pushout"
            )
            continue
        witnesses.append((i, f, d, u, v))
        report.checks_run += 1
        if not C.is_cofibration_id(v):
            report.record(
                f"axiom 4: cobase change {C.mor_label(v)} of cofibration "
                f"{C.mor_label(i)} is not flagged as a cofibration"
            )

    # corners (a, b, c) of each witness; for each distinct triple, the
    # witnesses whose corners are weakly equivalent to it, in witness order
    corners = [(C.mor_source(i), C.mor_target(i), C.mor_target(f)) for i, f, *_ in witnesses]
    triples = list(dict.fromkeys(corners))
    related = {}
    for t in triples:
        near = {t2 for t2 in triples if all(C.weq_ids(x, y) for x, y in zip(t, t2))}
        related[t] = [(w2, t2) for w2, t2 in zip(witnesses, corners) if t2 in near]

    # u and v are fixed for one witness, so its squares are memoized by
    # (p, q) until the scan moves on to the next witness
    for (i, f, d, u, v), t in zip(witnesses, corners):
        induced = {}
        for (i2, f2, d2, u2, v2), (a2, b2, c2) in related[t]:
            betas_by = C._by_composite(i, b2, weq_only=True)
            gammas_by = C._by_composite(f, c2, weq_only=True)
            for alpha in C.weq_ids(t[0], a2):
                ia = C.compose_ids(i2, alpha)
                gammas = gammas_by.get(C.compose_ids(f2, alpha), ())
                if not gammas:
                    continue
                for beta in betas_by.get(ia, ()):
                    ub = C.compose_ids(u2, beta)
                    for gamma in gammas:
                        report.checks_run += 1
                        key = (ub, C.compose_ids(v2, gamma))
                        med = induced.get(key)
                        if med is None:
                            med = induced[key] = C.mediating_ids(u, v, *key)
                        if len(med) != 1:
                            report.record(
                                f"axiom 5: no unique induced map between pushouts of "
                                f"({C.mor_label(i)},{C.mor_label(f)}) and "
                                f"({C.mor_label(i2)},{C.mor_label(f2)})"
                            )
                            continue
                        if not C.is_weq_id(med[0]):
                            report.record(
                                f"axiom 5: induced map {C.mor_label(med[0])} between "
                                f"weakly equivalent pushout data is not a weak equivalence"
                            )
    if report.ok:
        C._confirmed = None
    return report
