"""Categories given by explicit finite tables, as in category files.

``TableCategory`` is the Waldhausen category an explicit-table category
file describes (grammar in chaintrace.tables): named objects with sizes,
named morphisms, a composition table, cofibration and weak-equivalence
flags, and recorded pushout witnesses.  It only stores these lookup
tables: ``tables.parse_category_text``, its only builder, has checked
that they refer to what they list, each error located at its line, and
the category laws and the five axioms are ``wcat.validate_waldhausen``'s
job.

Only jobs that read a category file load this module.  It subclasses ``wcat.WCategory``, so it
cannot sit with the algebra and group parsers without making every
algebra or group file job compile wcat.
"""

from __future__ import annotations

from .errors import ValidationError
from .wcat import WCategory

__all__ = ["TableCategory"]


class TableCategory(WCategory):
    """A Waldhausen-category presentation given by explicit finite tables.

    ``sizes`` maps object names to sizes, in object order; ``hom`` maps
    each (src, dst) pair of object names to its morphism names in file
    order; ``compose`` maps (g_name, f_name) to the name of g∘f;
    ``identities`` maps object names to morphism names; ``pushouts`` maps
    (i, f) to a witness (d, u, v).  Laws (associativity, axiom
    conformance) are deliberately not checked here: feed the instance to
    ``validate_waldhausen``.
    """

    def __init__(
        self, name: str, bound: int, sizes: dict, zero: str, hom: dict, identities: dict,
        compose: dict, cofibrations: frozenset, weak_equivalences: frozenset, pushouts: dict,
    ):
        self._tbl_sizes = sizes
        self._tbl_zero = zero
        self._tbl_hom = hom
        self._tbl_id = identities
        self._tbl_compose = compose
        self._tbl_cof = cofibrations
        self._tbl_weq = weak_equivalences
        self._tbl_push = pushouts
        # no witness is trusted before validate_waldhausen passes the table
        self._confirmed = set()
        super().__init__(name, bound)

    def _objects(self):
        return tuple(self._tbl_sizes)

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
