"""The endomorphism category End(C), its exact functors, and the K_0 retract.

End(C) is the source category of the paper's trace K End(C) -> THH(C).
Its objects are pairs (a, f: a -> a) of C and its morphisms are the maps
of C that commute with the endomorphisms; cofibrations, weak equivalences
and pushout witnesses come from C (``EndCategory``).  ``end_category``
builds it together with the exact functors iota_0 and iota_1 (zero and
identity endomorphism) and forget, and ``k0_retract_holds`` checks that
K_0(C) -> K_0(End C) -> K_0(C) through iota_1 and forget is the identity.
Each functor is an (object map, morphism map) pair, as in
chaintrace.waldhausen: the inclusions come from ``payload_functor``,
forget is the pair of payload projections, and
``validate_exact_functor`` checks any such pair.

Only the retract check uses End(C) so far, so no command but ``selftest``
compiles this module.

Every ordered pair of objects of End(C) has at least the zero map between
them, so a category with n objects has at least n^2 morphisms.
``EndCategory`` refuses with CapExceededError once its objects are known
and n^2 exceeds ``wcat.MORPHISM_CAP``, before it enumerates any hom set.
"""

from __future__ import annotations

from . import wcat
from .errors import CapExceededError, InternalInvariantError
from .validation import ValidationReport
from .waldhausen import k0_presentation, payload_functor
from .wcat import WCategory

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .waldhausen import K0Presentation

__all__ = [
    "EndCategory",
    "validate_exact_functor",
    "end_category",
    "k0_retract_holds",
]


class EndCategory(WCategory):
    """Endomorphisms of a bounded Waldhausen category.

    Objects are pairs (a, f: a -> a); morphisms (a, f) -> (b, g) are base
    morphisms i: a -> b with i∘f = g∘i.  Cofibration and weak-equivalence
    flags are inherited from i, and pushout witnesses are the base witnesses
    with the induced endomorphism on the pushout.
    """

    def __init__(self, base: WCategory):
        self.base = base
        super().__init__(f"End({base.name})", base.bound)
        # every ordered pair of objects has at least the zero map, so n
        # objects mean at least n^2 morphisms: refuse before any hom set
        n = self.object_count()
        cap = wcat.MORPHISM_CAP
        if n * n > cap:
            raise CapExceededError(
                f"category {self.name} has more than {cap} morphisms (MORPHISM_CAP)"
            )

    def _objects(self):
        out = []
        for a in range(self.base.object_count()):
            for f in self.base.hom_ids(a, a):
                out.append((a, f))
        return tuple(out)

    def _object_size(self, payload):
        return self.base.object_size(payload[0])

    def _zero_payload(self):
        z = self.base.zero_index()
        return (z, self.base.identity_id(z))

    def object_label(self, a: int) -> str:
        obj, endo = self._obj_payloads[a]
        return f"({self.base.object_label(obj)},{self.base.mor_label(endo)})"

    def _enumerate_hom(self, src_payload, dst_payload):
        a, f = src_payload
        b, g = dst_payload
        base = self.base
        return [
            i
            for i in base.hom_ids(a, b)
            if base.compose_ids(i, f) == base.compose_ids(g, i)
        ]

    def _compose(self, g, f, a, b, c):
        return self.base.compose_ids(g, f)

    def _identity(self, payload):
        return self.base.identity_id(payload[0])

    def _is_cofibration(self, payload, a, b):
        return self.base.is_cofibration_id(payload)

    def _is_weq(self, payload, a, b):
        return self.base.is_weq_id(payload)

    def _pushout_witness(self, i, f):
        base = self.base
        tgt_i = self._obj_payloads[self._mor_tgt[i]]
        tgt_f = self._obj_payloads[self._mor_tgt[f]]
        w = base.pushout_witness(self._mor_payload[i], self._mor_payload[f])
        if w is None:
            return None
        d, u, v = w
        endo = base.mediating_id(u, v, base.compose_ids(u, tgt_i[1]), base.compose_ids(v, tgt_f[1]))
        if endo is None:
            raise InternalInvariantError(
                "base pushout witness does not induce a unique endomorphism; "
                "is the base category valid?"
            )
        base.confirm_witness(self._mor_payload[i], self._mor_payload[f])
        return self._witness(i, f, (d, endo), u, v)


def validate_exact_functor(name: str, S: WCategory, T: WCategory, F: tuple) -> ValidationReport:
    """Check that the (object map, morphism map) pair ``F``: S -> T is exact.

    Functoriality and exactness are checked by exhaustive enumeration.
    Exactness means: the zero object, cofibration flags, weak-equivalence
    flags, and recorded pushout witnesses are preserved (witnesses on the
    nose, as produced by the constructions in this module).  A failure is
    recorded once: a morphism whose endpoints are not preserved is left out
    of the composition and pushout checks, and a cofibration whose image is
    not one out of the pushout checks, since T has pushouts only along
    cofibrations.
    """
    report = ValidationReport(subject=f"exact functor {name}")
    obj, mor = F
    report.checks_run += 1
    if obj(S.zero_index()) != T.zero_index():
        report.record("zero object is not preserved")
    all_mors = []
    for a in range(S.object_count()):
        for b in range(S.object_count()):
            all_mors.extend(S.hom_ids(a, b))
    for a in range(S.object_count()):
        report.checks_run += 1
        if mor(S.identity_id(a)) != T.identity_id(obj(a)):
            report.record(f"identity of {S.object_label(a)} is not preserved")
    misplaced = set()
    for m in all_mors:
        fm = mor(m)
        report.checks_run += 1
        if T.mor_source(fm) != obj(S.mor_source(m)) or T.mor_target(fm) != obj(S.mor_target(m)):
            report.record(f"endpoints of {S.mor_label(m)} are not preserved")
            misplaced.add(m)
            continue
        if S.is_cofibration_id(m) and not T.is_cofibration_id(fm):
            report.record(f"cofibration flag of {S.mor_label(m)} is not preserved")
        if S.is_weq_id(m) and not T.is_weq_id(fm):
            report.record(f"weak-equivalence flag of {S.mor_label(m)} is not preserved")
    placed = [m for m in all_mors if m not in misplaced]
    by_source = {}
    for m in placed:
        by_source.setdefault(S.mor_source(m), []).append(m)
    for f in placed:
        for g in by_source.get(S.mor_target(f), ()):
            report.checks_run += 1
            if mor(S.compose_ids(g, f)) != T.compose_ids(mor(g), mor(f)):
                report.record(
                    f"composition {S.mor_label(g)} ∘ {S.mor_label(f)} is not preserved"
                )
    for i in placed:
        if not (S.is_cofibration_id(i) and T.is_cofibration_id(mor(i))):
            continue
        for f in by_source[S.mor_source(i)]:
            w = S.pushout_witness(i, f)
            if w is None:
                continue
            report.checks_run += 1
            d, u, v = w
            tw = T.pushout_witness(mor(i), mor(f))
            if tw is None:
                report.record(
                    f"pushout witness of ({S.mor_label(i)},{S.mor_label(f)}) "
                    f"has no counterpart in the target"
                )
                continue
            if tw != (obj(d), mor(u), mor(v)):
                report.record(
                    f"pushout witness of ({S.mor_label(i)},{S.mor_label(f)}) "
                    f"is not preserved"
                )
    return report


def end_category(C: WCategory):
    """Build End(C) together with the functors iota_0, iota_1, and forget.

    iota_0 equips each object with its zero endomorphism, iota_1 with the
    identity endomorphism, and forget drops the endomorphism.  Each is an
    (object map, morphism map) pair; the two inclusions come from
    ``payload_functor`` and raise InternalInvariantError on a morphism
    that does not lift to End(C).  All three functors are checked to be
    exact, and a ValidationError is raised on failure.
    """
    E = EndCategory(C)

    def inclusion(endo):
        def lift(m: int, ea: int, eb: int) -> int:
            E.hom_ids(ea, eb)
            if (ea, eb, m) not in E._mor_handle:
                raise InternalInvariantError(
                    f"morphism {C.mor_label(m)} does not lift to End({C.name})"
                )
            return m

        return payload_functor(C, E, lambda a: (a, endo(a)), lift)

    iota0 = inclusion(lambda a: C.zero_map_id(a, a))
    iota1 = inclusion(C.identity_id)
    forget = (lambda a: E.object_payload(a)[0], E.mor_payload)
    for name, S, T, functor in (
        ("iota_0", C, E, iota0),
        ("iota_1", C, E, iota1),
        ("forget", E, C, forget),
    ):
        validate_exact_functor(name, S, T, functor).require_ok()
    return E, iota0, iota1, forget


# ---------------------------------------------------------------------------
# K_0 through End(C)
# ---------------------------------------------------------------------------


def _push_vector(F: tuple, src: K0Presentation, dst: K0Presentation, vec) -> tuple:
    out = [0] * len(dst.generators)
    dz = dst.category.zero_index()
    dpos = {a: t for t, a in enumerate(dst.generators)}
    for t, coeff in enumerate(vec):
        if coeff == 0:
            continue
        obj = F[0](src.generators[t])
        if obj != dz:
            out[dpos[obj]] += coeff
    return tuple(out)


def k0_retract_holds(C: WCategory) -> bool:
    """Whether K_0(C) -> K_0(End C) -> K_0(C) composes to the identity.

    The first map is induced by the identity-endomorphism inclusion, the
    second by forgetting the endomorphism; the middle class is reduced to
    canonical coordinates in K_0(End C) before coming back, so this
    exercises both presentations.
    """
    E, _iota0, iota1, forget = end_category(C)
    pres_c = k0_presentation(C)
    pres_e = k0_presentation(E)
    for gen in pres_c.homology.generators:
        mid = _push_vector(iota1, pres_c, pres_e, gen)
        coords = pres_e.homology.coordinates(mid)
        rep = [0] * len(pres_e.generators)
        for c, gv in zip(coords, pres_e.homology.generators):
            for t, x in enumerate(gv):
                rep[t] += c * x
        back = _push_vector(forget, pres_e, pres_c, tuple(rep))
        if not pres_c.homology.classes_equal(back, gen):
            return False
    return True
