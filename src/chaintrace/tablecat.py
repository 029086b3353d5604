"""Categories given by explicit finite tables, as in category files.

``TableCategory`` is the Waldhausen category an explicit-table category
file describes (grammar in chaintrace.tables): named objects with sizes,
named morphisms, a composition table, cofibration and weak-equivalence
flags, and recorded pushout witnesses.  It checks only that the tables
refer to what they list; the category laws and the five axioms are
``wcat.validate_waldhausen``'s job.

Only ``tables.parse_category_text`` builds one, so only jobs that read a
category file load this module.  It subclasses ``wcat.WCategory``, so it
cannot sit with the algebra and group parsers without making every
algebra or group file job compile wcat.
"""

from __future__ import annotations

import itertools

from .errors import InputParseError, ValidationError
from .wcat import WCategory

__all__ = ["TableCategory"]


class TableCategory(WCategory):
    """A Waldhausen-category presentation given by explicit finite tables.

    ``objects`` is a list of (name, size); ``morphisms`` a list of
    (name, src, dst); ``compose`` maps (g_name, f_name) to the name of g∘f;
    ``identities`` maps object names to morphism names; ``pushouts`` is a
    list of (i, f, d, u, v) name tuples.  Laws (associativity, axiom
    conformance) are deliberately not checked here: feed the instance to
    ``validate_waldhausen``.
    """

    def __init__(
        self,
        name: str,
        objects,
        zero: str,
        morphisms,
        identities,
        compose,
        cofibrations,
        weak_equivalences,
        pushouts,
        bound: int,
    ):
        obj_names = [nm for nm, _ in objects]
        if len(set(obj_names)) != len(obj_names):
            raise InputParseError("duplicate object name")
        self._tbl_sizes = {nm: int(sz) for nm, sz in objects}
        if zero not in self._tbl_sizes:
            raise InputParseError(f"zero object {zero!r} is not a listed object")
        self._tbl_zero = zero
        self._tbl_obj_names = tuple(obj_names)
        mor_names = [nm for nm, _, _ in morphisms]
        if len(set(mor_names)) != len(mor_names):
            raise InputParseError("duplicate morphism name")
        self._tbl_mor = {}
        self._tbl_hom = {}
        for nm, src, dst in morphisms:
            if src not in self._tbl_sizes or dst not in self._tbl_sizes:
                raise InputParseError(f"morphism {nm!r} references an unknown object")
            self._tbl_mor[nm] = (src, dst)
            self._tbl_hom.setdefault((src, dst), []).append(nm)
        for o, nm in identities.items():
            if o not in self._tbl_sizes:
                raise InputParseError(f"identity listed for unknown object {o!r}")
            if nm not in self._tbl_mor:
                raise InputParseError(f"identity {nm!r} is not a listed morphism")
            if self._tbl_mor[nm] != (o, o):
                raise InputParseError(f"identity {nm!r} must be an endomorphism of {o!r}")
        missing = set(obj_names) - set(identities)
        if missing:
            raise InputParseError(f"objects without identities: {sorted(missing)}")
        self._tbl_id = dict(identities)
        for (g, f), h in compose.items():
            for nm in (g, f, h):
                if nm not in self._tbl_mor:
                    raise InputParseError(f"compose table references unknown morphism {nm!r}")
            if self._tbl_mor[f][1] != self._tbl_mor[g][0]:
                raise InputParseError(f"compose entry ({g!r},{f!r}) is not composable")
            if self._tbl_mor[h] != (self._tbl_mor[f][0], self._tbl_mor[g][1]):
                raise InputParseError(f"compose entry ({g!r},{f!r}) has mismatched result")
        self._tbl_compose = dict(compose)
        for nm in itertools.chain(cofibrations, weak_equivalences):
            if nm not in self._tbl_mor:
                raise InputParseError(f"flag references unknown morphism {nm!r}")
        self._tbl_cof = frozenset(cofibrations)
        self._tbl_weq = frozenset(weak_equivalences)
        self._tbl_push = {}
        for i, f, d, u, v in pushouts:
            for nm in (i, f, u, v):
                if nm not in self._tbl_mor:
                    raise InputParseError(f"pushout line references unknown morphism {nm!r}")
            if d not in self._tbl_sizes:
                raise InputParseError(f"pushout line references unknown object {d!r}")
            if self._tbl_mor[i][0] != self._tbl_mor[f][0]:
                raise InputParseError(f"pushout legs {i!r}, {f!r} do not share a source")
            if self._tbl_mor[u] != (self._tbl_mor[i][1], d):
                raise InputParseError(f"pushout map {u!r} has wrong endpoints")
            if self._tbl_mor[v] != (self._tbl_mor[f][1], d):
                raise InputParseError(f"pushout map {v!r} has wrong endpoints")
            if (i, f) in self._tbl_push:
                raise InputParseError(f"duplicate pushout witness for ({i!r},{f!r})")
            self._tbl_push[(i, f)] = (d, u, v)
        # no witness is trusted before validate_waldhausen passes the table
        self._confirmed = set()
        super().__init__(name, bound)

    def _objects(self):
        return self._tbl_obj_names

    def _object_size(self, payload):
        return self._tbl_sizes[payload]

    def _zero_payload(self):
        return self._tbl_zero

    def object_label(self, a: int) -> str:
        return self._obj_payloads[a]

    def mor_label(self, m: int) -> str:
        return self._mor_payload[m]

    def _enumerate_hom(self, a_payload, b_payload):
        return list(self._tbl_hom.get((a_payload, b_payload), ()))

    def _compose(self, g, f, a, b, c):
        got = self._tbl_compose.get((g, f))
        if got is None:
            raise ValidationError(f"composition table has no entry for ({g!r},{f!r})")
        return got

    def _identity(self, a_payload):
        return self._tbl_id[a_payload]

    def _is_cofibration(self, payload, a, b):
        return payload in self._tbl_cof

    def _is_weq(self, payload, a, b):
        return payload in self._tbl_weq

    def _pushout_witness(self, i, f):
        key = (self._mor_payload[i], self._mor_payload[f])
        got = self._tbl_push.get(key)
        if got is None:
            return None
        d, u, v = got
        return self._witness(i, f, d, u, v)
