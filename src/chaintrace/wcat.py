"""Bounded Waldhausen-category presentations.

A Waldhausen category is a pointed category with distinguished classes of
cofibrations and weak equivalences subject to five axioms: isomorphisms are
cofibrations and weak equivalences; every map out of the zero object is a
cofibration; pushouts along cofibrations exist; the pushout of a cofibration
is a cofibration; and weakly equivalent pushout data have weakly equivalent
pushouts.  Genuine examples are infinite, because they are closed under
pushouts, so this module works with size-bounded truncations: every object
carries a size measure, and pushout witnesses are recorded exactly when the
pushout itself fits within the bound.  ``validate_waldhausen`` checks the
five axioms in this bounded form by exhaustive enumeration.

Morphisms are interned behind integer handles with memoized composition so
that derived constructions (endomorphism categories, iterated flag
categories) stay fast.  Handles are allocation-order dependent; all public
output is phrased in terms of labels and canonical orderings, never raw
handles.

The universal property of a pushout is read in one place:
``mediating_ids(u, v, p, q)`` lists every h with h∘u = p and h∘v = q, and
``mediating_id`` is the unique one, or None.  A memo lives as long as the
scan that reads it: the witness builders of S_k and End(C) ask
``mediating_id``, whose memo lives as long as the category, while
``is_pushout`` and ``find_pushout`` ask ``mediating_ids`` afresh, and the
axiom-5 scan of ``validate_waldhausen`` keeps its answers for one witness
at a time.

A GF(q)-vector space is an elementary abelian q-group, so ``VectCategory``
is ``FiniteModulesCategory`` on the objects (q,)*n: one injectivity test (a
rank over GF(p) on the socles) and one pushout rule (the cokernel of an
integer relation matrix) serve both.  A table's witnesses are trusted only
once ``validate_waldhausen`` passes it; until then a builder checks each
witness it consumes, once, with ``confirm_witness``.

Every ``k0`` and ``validate`` job loads this module, so it holds only
what both run: the base class, the built-in families and their
selectors.  ``validate_waldhausen`` stays here as the public entry point,
but its checks (the category laws, the five axioms and ``axiom5_bound``)
live in chaintrace.axioms, which it imports when it runs, so no ``k0`` job
over a built-in family compiles them.  The caps they enforce stay here.
Two subclasses that few jobs run live elsewhere too: ``TableCategory``,
the explicit tables of category files, in chaintrace.tablecat, and
``EndCategory`` with its exact functors in chaintrace.endo.  The
injectivity test hands its socle columns straight to
``linalg.cancel_unit_pivots``, so no ``validate`` job loads chain.

Three caps bound what a category may cost before the work starts.  A
category refuses to intern more than ``MORPHISM_CAP`` morphisms, and hom
sets are interned as every family's ``_enumerate_hom`` streams them, so a
refusal never holds the whole hom set.  ``validate_waldhausen`` predicts
the composable triples of its associativity scan from the hom-set sizes
and refuses above ``TRIPLE_CAP`` before it composes anything; once the
pushout witnesses are recorded, it bounds the checks of its axiom-5 scan
(``axiom5_bound``) and refuses above ``AXIOM5_CAP`` before it checks any
witness.  All three raise CapExceededError (exit 4).  None is in the
structured ``conventions`` block: no result they let through depends on
them.
"""

from __future__ import annotations

import itertools
import math
import operator

from .conventions import PUSHOUT_SEARCH_CAP
from .errors import (
    CapExceededError,
    InputParseError,
    InternalInvariantError,
    ValidationError,
)
from .rings import GF, ZZ
from .linalg import Matrix, cancel_unit_pivots, smith_normal_form

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .validation import ValidationReport

__all__ = [
    "WCategory",
    "VectCategory",
    "PointedSetsCategory",
    "FiniteModulesCategory",
    "trivial_category",
    "vect_gf",
    "pointed_sets",
    "finite_modules",
    "CATEGORY_FAMILIES",
    "category_from_selector",
    "validate_waldhausen",
    "MORPHISM_CAP",
    "TRIPLE_CAP",
    "AXIOM5_CAP",
]

# Morphisms one category may intern.  The largest count among the tests is
# 27,874 (every hom set of S_2(pointed_sets(3))) and among the benchmark
# jobs 2,790 (selftest); pointed_sets(7) has 3.8e6 and would exhaust memory.
MORPHISM_CAP = 100_000

# Composable triples h∘g∘f that validate_waldhausen's associativity scan may
# visit, predicted from the hom-set sizes before the scan.  The largest
# among the tests and the benchmark jobs is 15,418 (finite_modules(2, 4));
# pointed_sets(3) has 7.0e5 and validates in about 1.5 s, pointed_sets(4)
# has 5.8e8.
TRIPLE_CAP = 1_000_000

# Weak-equivalence triples (alpha, beta, gamma) that validate_waldhausen's
# axiom-5 scan may visit, bounded by axiom5_bound from the recorded pushout
# witnesses before axiom 3 checks them.  The largest among the tests is
# 3.8e7 (the corrupt_axiom5 table) and among the benchmark jobs 2.1e6
# (finite_modules(2, 4)); pointed_sets(3) has 3.4e7 and validates in about
# 1.5 s, vect_gf(3, 2) and finite_modules(3, 9) have 1.7e12 and are refused
# in about 1.3 and 1.2 s (median of 5 runs on a 2-core host).
AXIOM5_CAP = 100_000_000


class WCategory:
    """Finite pointed category with cofibration and weak-equivalence flags.

    Subclasses provide object and morphism enumeration through the private
    hooks; this base class interns morphisms, memoizes composition, and
    implements generic pushout machinery (universal property by exhaustive
    cocone enumeration).

    Object handles are indices into the canonical object order.  Morphism
    handles are ints allocated as hom sets are first enumerated; within one
    category instance they are stable, but they are not meaningful across
    instances.
    """

    def __init__(self, name: str, bound: int):
        if bound < 0:
            raise ValidationError("size bound must be nonnegative")
        self.name = name
        self.bound = bound
        self._obj_payloads = tuple(self._objects())
        self._obj_index = {p: i for i, p in enumerate(self._obj_payloads)}
        if len(self._obj_index) != len(self._obj_payloads):
            raise ValidationError(f"category {name!r} lists a duplicate object")
        self._sizes = tuple(self._object_size(p) for p in self._obj_payloads)
        zero = self._zero_payload()
        if zero not in self._obj_index:
            raise ValidationError(f"category {name!r} is missing its zero object")
        self._zero = self._obj_index[zero]
        self._mor_payload: list = []
        self._mor_src: list[int] = []
        self._mor_tgt: list[int] = []
        self._mor_pos: list[int] = []
        self._mor_handle: dict = {}
        self._hom_cache: dict = {}
        self._weq_hom_cache: dict = {}
        self._iso_hom_cache: dict = {}
        self._compose_cache: dict = {}
        self._identity_cache: dict = {}
        self._cofib_cache: dict = {}
        self._weq_cache: dict = {}
        self._witness_cache: dict = {}
        self._composite_index: dict = {}
        self._mediating_cache: dict = {}
        self._s_payload_cache: dict = {}

    # -- hooks a subclass must implement ------------------------------------

    def _objects(self):
        raise NotImplementedError

    def _object_size(self, payload) -> int:
        raise NotImplementedError

    def _zero_payload(self):
        raise NotImplementedError

    def _enumerate_hom(self, a_payload, b_payload):
        """All morphism payloads a -> b, in a deterministic order.

        An iterable: hom_ids interns the payloads as they come, so a hom set
        above MORPHISM_CAP is refused before it is held in memory.
        """
        raise NotImplementedError

    def _compose(self, g_payload, f_payload, a: int, b: int, c: int):
        """Payload of g∘f for f: a -> b, g: b -> c."""
        raise NotImplementedError

    def _identity(self, a_payload):
        raise NotImplementedError

    def _is_cofibration(self, payload, a: int, b: int) -> bool:
        raise NotImplementedError

    def _is_weq(self, payload, a: int, b: int) -> bool:
        """By default the isomorphisms: in every built-in family the
        cofibrations are the injections, and an injection between objects
        of equal size is an isomorphism."""
        return self._sizes[a] == self._sizes[b] and self.is_cofibration_id(
            self._mor_handle[(a, b, payload)]
        )

    def _pushout_witness(self, i: int, f: int):
        """Canonical witness (d, u_id, v_id) for b <-i- a -f-> c, or None.

        None means the pushout does not fit within the size bound.  Every
        family builds its witness directly; ``find_pushout`` is the
        brute-force search that ``validate_waldhausen`` checks them against.
        """
        raise NotImplementedError

    def _witness(self, i: int, f: int, d_payload, u_payload, v_payload) -> tuple:
        """Intern the witness (d, u, v) of b <-i- a -f-> c given by payloads."""
        d = self.object_index(d_payload)
        return (
            d,
            self.intern_morphism(u_payload, self._mor_tgt[i], d),
            self.intern_morphism(v_payload, self._mor_tgt[f], d),
        )

    # -- objects -------------------------------------------------------------

    def object_count(self) -> int:
        return len(self._obj_payloads)

    def object_payload(self, a: int):
        return self._obj_payloads[a]

    def object_index(self, payload) -> int:
        """Index of the enumerated object with this payload.

        A payload outside the enumeration is an internal fault, not a key
        the caller may probe for.
        """
        got = self._obj_index.get(payload)
        if got is None:
            raise InternalInvariantError(f"{payload!r} is not an enumerated object of {self.name}")
        return got

    def object_size(self, a: int) -> int:
        return self._sizes[a]

    def zero_index(self) -> int:
        return self._zero

    def object_label(self, a: int) -> str:
        return str(self._obj_payloads[a])

    # -- morphisms -----------------------------------------------------------

    def _intern(self, payload, a: int, b: int, pos: int) -> int:
        key = (a, b, payload)
        handle = self._mor_handle.get(key)
        if handle is None:
            handle = len(self._mor_payload)
            if handle >= MORPHISM_CAP:
                raise CapExceededError(
                    f"category {self.name} has more than {MORPHISM_CAP} morphisms (MORPHISM_CAP)"
                )
            self._mor_handle[key] = handle
            self._mor_payload.append(payload)
            self._mor_src.append(a)
            self._mor_tgt.append(b)
            self._mor_pos.append(pos)
        return handle

    def hom_ids(self, a: int, b: int) -> tuple:
        got = self._hom_cache.get((a, b))
        if got is None:
            payloads = self._enumerate_hom(self._obj_payloads[a], self._obj_payloads[b])
            got = tuple(self._intern(p, a, b, pos) for pos, p in enumerate(payloads))
            self._hom_cache[(a, b)] = got
        return got

    def weq_ids(self, a: int, b: int) -> tuple:
        got = self._weq_hom_cache.get((a, b))
        if got is None:
            got = tuple(m for m in self.hom_ids(a, b) if self.is_weq_id(m))
            self._weq_hom_cache[(a, b)] = got
        return got

    def mor_source(self, m: int) -> int:
        return self._mor_src[m]

    def mor_target(self, m: int) -> int:
        return self._mor_tgt[m]

    def mor_payload(self, m: int):
        return self._mor_payload[m]

    def mor_label(self, m: int) -> str:
        a, b = self._mor_src[m], self._mor_tgt[m]
        pos = self._mor_pos[m]
        slot = f"[{pos}]" if pos >= 0 else f"@{m}"
        return f"Hom({self.object_label(a)},{self.object_label(b)}){slot}"

    def intern_morphism(self, payload, a: int, b: int) -> int:
        """Handle for a known-valid morphism payload, allocating if new.

        Callers must only pass payloads produced by the category's own
        structure maps; membership in the enumerated hom set is not
        re-checked here.
        """
        return self._intern(payload, a, b, -1)

    def identity_id(self, a: int) -> int:
        got = self._identity_cache.get(a)
        if got is None:
            payload = self._identity(self._obj_payloads[a])
            got = self._intern(payload, a, a, -1)
            self._identity_cache[a] = got
        return got

    def compose_ids(self, g: int, f: int) -> int:
        """The handle of g∘f, memoized as ``_compose_cache[f][g]``.

        One inner dict per first map f keeps the memo free of a pair key
        per composite.  A non-composable pair raises ValidationError before
        anything is stored, so it raises again on every call.
        """
        row = self._compose_cache.get(f)
        got = None if row is None else row.get(g)
        if got is None:
            got = self.composite_id(g, f)
            if row is None:
                row = self._compose_cache[f] = {}
            row[g] = got
        return got

    def composite_id(self, g: int, f: int) -> int:
        """The handle of g∘f, computed afresh and kept in no memo: for a
        scan that asks for most of its composites once."""
        a, b = self._mor_src[f], self._mor_tgt[f]
        if self._mor_src[g] != b:
            raise ValidationError(f"cannot compose {self.mor_label(g)} after {self.mor_label(f)}")
        c = self._mor_tgt[g]
        return self._intern(self._compose(self._mor_payload[g], self._mor_payload[f], a, b, c), a, c, -1)

    def is_cofibration_id(self, m: int) -> bool:
        got = self._cofib_cache.get(m)
        if got is None:
            got = self._is_cofibration(self._mor_payload[m], self._mor_src[m], self._mor_tgt[m])
            self._cofib_cache[m] = got
        return got

    def is_weq_id(self, m: int) -> bool:
        got = self._weq_cache.get(m)
        if got is None:
            got = self._is_weq(self._mor_payload[m], self._mor_src[m], self._mor_tgt[m])
            self._weq_cache[m] = got
        return got

    def iso_inverse(self, m: int, weq_only: bool = False):
        """The first two-sided inverse of ``m`` in hom order, or None; with
        ``weq_only``, the first among the weak equivalences."""
        a, b = self._mor_src[m], self._mor_tgt[m]
        ida, idb = self.identity_id(a), self.identity_id(b)
        for n in self.weq_ids(b, a) if weq_only else self.hom_ids(b, a):
            if self.compose_ids(n, m) == ida and self.compose_ids(m, n) == idb:
                return n
        return None

    def zero_map_id(self, a: int, b: int) -> int:
        """The composite a -> 0 -> b."""
        z = self._zero
        (to_zero,) = self.hom_ids(a, z)
        (from_zero,) = self.hom_ids(z, b)
        return self.compose_ids(from_zero, to_zero)

    def cofibs_from(self, a: int) -> tuple:
        out = []
        for b in range(self.object_count()):
            out.extend(m for m in self.hom_ids(a, b) if self.is_cofibration_id(m))
        return tuple(out)

    # -- pushout machinery -----------------------------------------------------

    def pushout_witness(self, i: int, f: int):
        """Canonical recorded pushout of b <-i- a -f-> c, or None.

        ``i`` and ``f`` must share their source.  The result is a triple
        ``(d, u, v)`` with u: b -> d and v: c -> d.  None means no pushout
        fits within the size bound.
        """
        if self._mor_src[i] != self._mor_src[f]:
            raise ValidationError("pushout legs must share their source")
        key = (i, f)
        if key not in self._witness_cache:
            self._witness_cache[key] = self._pushout_witness(i, f)
        return self._witness_cache[key]

    # the spans confirm_witness has checked, or None if every witness is
    # trusted: the built-in families compute theirs
    _confirmed = None

    def confirm_witness(self, i: int, f: int) -> None:
        """Raise InternalInvariantError unless the recorded witness of (i, f)
        is a pushout.  A builder calls this after its own checks on the
        witness, so a witness they refuse keeps their message."""
        if self._confirmed is None or (i, f) in self._confirmed:
            return
        w = self.pushout_witness(i, f)
        if w is not None and not self.is_pushout(i, f, *w):
            raise InternalInvariantError(
                f"recorded witness for ({self.mor_label(i)}, {self.mor_label(f)}) "
                f"is not a pushout; is the base category valid?"
            )
        self._confirmed.add((i, f))

    def _by_composite(self, f: int, e: int, weq_only: bool = False) -> dict:
        """Maps h: tgt(f) -> e grouped by h∘f, each group in hom order.

        With ``weq_only`` only the weak equivalences are grouped.  Built once
        per (f, e) and cached, so a search that asks "which candidates
        compose with f to a given map" reads one group instead of composing
        every candidate.
        """
        key = (f, e, weq_only)
        got = self._composite_index.get(key)
        if got is None:
            d = self._mor_tgt[f]
            got = {}
            for h in self.weq_ids(d, e) if weq_only else self.hom_ids(d, e):
                got.setdefault(self.compose_ids(h, f), []).append(h)
            self._composite_index[key] = got
        return got

    def mediating_ids(self, u: int, v: int, p: int, q: int) -> tuple:
        """All h out of the shared target of u, v with h∘u = p and h∘v = q.

        Candidates are the maps into the target e of p grouped by their
        composite with u (``_by_composite``, cached per (u, e)): only the
        group of p is read, in hom order, and filtered by h∘v = q.  Nothing
        is memoized here: a scan that asks for one square many times keeps
        its own memo for as long as it runs.
        """
        group = self._by_composite(u, self._mor_tgt[p]).get(p, ())
        return tuple(h for h in group if self.compose_ids(h, v) == q)

    def mediating_id(self, u: int, v: int, p: int, q: int):
        """The unique h with h∘u = p and h∘v = q, or None if there is none
        or more than one: the universal property of a pushout (d, u, v),
        read from one ``mediating_ids`` call.  Memoized per (u, v, p, q) for
        the life of the category: the grid builders ask for the same square
        many times."""
        key = (u, v, p, q)
        if key in self._mediating_cache:
            return self._mediating_cache[key]
        got = self.mediating_ids(u, v, p, q)
        got = self._mediating_cache[key] = got[0] if len(got) == 1 else None
        return got

    def _cocones(self, i: int, f: int):
        """Every commuting square (e, p, q) under b <-i- a -f-> c, p∘i = q∘f,
        by target object, then p in hom order, then q in hom order."""
        b = self._mor_tgt[i]
        for e in range(self.object_count()):
            legs = self._by_composite(f, e)
            for p in self.hom_ids(b, e):
                for q in legs.get(self.compose_ids(p, i), ()):
                    yield e, p, q

    def is_pushout(self, i: int, f: int, d: int, u: int, v: int) -> bool:
        """Universal-property check for the square (i, f, u, v) by enumeration."""
        if self.compose_ids(u, i) != self.compose_ids(v, f):
            return False
        return all(len(self.mediating_ids(u, v, p, q)) == 1 for _, p, q in self._cocones(i, f))

    def find_pushout(self, i: int, f: int):
        """The first (d, u, v) within the bound with the universal property, or None.

        Every commuting square is a candidate, tested against the squares in
        order until one lacks a unique mediating map.  One such test is a
        step; past PUSHOUT_SEARCH_CAP steps the search raises
        CapExceededError.
        """
        cocones = tuple(self._cocones(i, f))
        steps = 0
        for d, u, v in cocones:
            for _, p, q in cocones:
                steps += 1
                if steps > PUSHOUT_SEARCH_CAP:
                    raise CapExceededError(
                        f"pushout search for ({self.mor_label(i)}, {self.mor_label(f)}) over "
                        f"{len(cocones)} commuting squares passed {PUSHOUT_SEARCH_CAP} steps"
                    )
                if len(self.mediating_ids(u, v, p, q)) != 1:
                    break
            else:
                return d, u, v
        return None

    def iso_ids(self, a: int, b: int) -> tuple:
        """Isomorphisms a -> b, found among the weak equivalences.

        Complete whenever isomorphisms carry the weak-equivalence flag,
        which the first axiom guarantees in any valid category.  An
        endomorphism of a finite category is invertible iff one of its
        powers is the identity, so Aut(a) is found by iterating powers.
        Iso(a, b) is an Aut(a)-torsor: once one isomorphism e is found by
        an inverse search, the others are e after Aut(a).  Either way the
        result keeps ``weq_ids`` order.
        """
        got = self._iso_hom_cache.get((a, b))
        if got is None:
            if a == b:
                ida = self.identity_id(a)
                got = tuple(m for m in self.weq_ids(a, a) if self._has_identity_power(m, ida))
            else:
                weqs = self.weq_ids(a, b)
                e = next((m for m in weqs if self.iso_inverse(m, weq_only=True) is not None), None)
                orbit = {self.compose_ids(e, g) for g in self.iso_ids(a, a)} if e is not None else ()
                got = tuple(m for m in weqs if m in orbit)
            self._iso_hom_cache[(a, b)] = got
        return got

    def _has_identity_power(self, m: int, ida: int) -> bool:
        """Whether some power m^k (k >= 1) of the endomorphism m is ``ida``."""
        seen = set()
        p = m
        while p not in seen:
            if p == ida:
                return True
            seen.add(p)
            p = self.compose_ids(m, p)
        return False

    def cokernel_candidates(self, i: int) -> list:
        """All quotient data (q, p) making (i, a -> 0) -> q a pushout square.

        Returned as (d, u, v) triples with u: b -> d the projection and
        v: 0 -> d.  Any two pushouts of one cospan differ by a unique
        isomorphism, so this is the isomorphism orbit of the canonical
        witness.  The category is assumed valid: the recorded witness must
        be a genuine pushout and isomorphisms must be flagged as weak
        equivalences.
        """
        a = self._mor_src[i]
        (to_zero,) = self.hom_ids(a, self._zero)
        w = self.pushout_witness(i, to_zero)
        if w is None:
            return []
        d, u, v = w
        out = []
        for d2 in range(self.object_count()):
            for e in self.iso_ids(d, d2):
                out.append((d2, self.compose_ids(e, u), self.compose_ids(e, v)))
        return out

    def __str__(self) -> str:
        return f"{self.name} ({self.object_count()} objects, bound {self.bound})"


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


class PointedSetsCategory(WCategory):
    """Finite pointed sets with at most ``bound`` non-base points.

    Object n is {*, 1, .., n}; a morphism payload maps 1..m into 0..n with 0
    standing for the basepoint.  Cofibrations are the injections, weak
    equivalences the bijections.
    """

    def __init__(self, bound: int):
        super().__init__(f"pointed_sets({bound})", bound)

    def _objects(self):
        return tuple(range(self.bound + 1))

    def _object_size(self, n):
        return n

    def _zero_payload(self):
        return 0

    def object_label(self, a: int) -> str:
        return f"S{self._obj_payloads[a]}"

    def _enumerate_hom(self, m, n):
        return itertools.product(range(n + 1), repeat=m)

    def _compose(self, g, f, a, b, c):
        return tuple(g[x - 1] if x else 0 for x in f)

    def _identity(self, n):
        return tuple(range(1, n + 1))

    def _is_cofibration(self, payload, a, b):
        return 0 not in payload and len(set(payload)) == len(payload)

    def _pushout_witness(self, i, f):
        a = self._obj_payloads[self._mor_src[i]]
        b = self._obj_payloads[self._mor_tgt[i]]
        c = self._obj_payloads[self._mor_tgt[f]]
        d = c + b - a
        if d > self.bound:
            return None
        ip, fp = self._mor_payload[i], self._mor_payload[f]
        u = [0] * b
        for x in range(a):
            u[ip[x] - 1] = fp[x]
        fresh = c
        for y in range(1, b + 1):
            if y not in ip:
                fresh += 1
                u[y - 1] = fresh
        u_payload = tuple(u)
        v_payload = tuple(range(1, c + 1))
        return self._witness(i, f, d, u_payload, v_payload)


class FiniteModulesCategory(WCategory):
    """Finite abelian p-groups of order at most ``bound``.

    Objects are invariant-factor tuples (ascending prime powers); their size
    is the group order.  A morphism payload is a dst-rank x src-rank matrix
    of generator images, entries reduced mod the target orders, and hom sets
    stream in row-major order.  Cofibrations are the injective maps: no
    element of order p maps to zero, a rank test over GF(p) on the socles.
    Weak equivalences are the isomorphisms.  Pushouts are cokernels of
    integer relation matrices via Smith normal form, recorded within the
    bound.
    """

    def __init__(self, p: int, bound: int, name: str):
        if p < 2 or any(p % k == 0 for k in range(2, p)):
            raise ValidationError("finite_modules requires a prime p")
        self.p = p
        self.field = GF(p)
        super().__init__(name, bound)

    def _objects(self):
        p, bound = self.p, self.bound
        powers = [p**e for e in range(1, bound.bit_length() + 1) if p**e <= bound]
        found = [()]
        for base in found:  # read while it grows: each ascending tuple once
            order = math.prod(base)
            found.extend(
                base + (d,) for d in powers if (not base or d >= base[-1]) and order * d <= bound
            )
        return tuple(sorted(found, key=lambda t: (math.prod(t), t)))

    def _object_size(self, factors):
        return math.prod(factors)

    def _zero_payload(self):
        return ()

    def object_label(self, a: int) -> str:
        factors = self._obj_payloads[a]
        return "0" if not factors else "+".join(f"Z/{d}" for d in factors)

    def _enumerate_hom(self, src, dst):
        # entry (t, s) is a multiple of dt / gcd(dt, ds), read row by row
        cells = itertools.product(
            *(range(0, dt, dt // math.gcd(dt, ds)) for dt in dst for ds in src)
        )
        width = len(src)
        starts = [r * width for r in range(len(dst))]
        return (tuple(c[s : s + width] for s in starts) for c in cells)

    def _compose(self, g, f, a, b, c):
        cols = tuple(zip(*f)) if f else ((),) * len(self._obj_payloads[a])
        return tuple(
            tuple(sum(map(operator.mul, row, col)) % d for col in cols)
            for row, d in zip(g, self._obj_payloads[c])
        )

    def _identity(self, factors):
        n = len(factors)
        return tuple(tuple(1 if r == s else 0 for s in range(n)) for r in range(n))

    def _is_cofibration(self, payload, a, b):
        # column s: the image of (a_s/p) e_s, which generates the socle of
        # the summand Z/a_s, with coordinate t divided by b_t/p; nonzero
        # entries only, in the column and row dicts that the unit-pivot
        # cancellation runs on.  Over GF(p) it cancels every column exactly
        # when the socle map is injective
        p, src, dst = self.p, self._obj_payloads[a], self._obj_payloads[b]
        cols: dict = {}
        rows: dict = {}
        for s, ds in enumerate(src):
            col = cols[s] = {}
            for t, (row, dt) in enumerate(zip(payload, dst)):
                x = (ds // p) * row[s] % dt // (dt // p)
                if x:
                    col[t] = x
                    rows.setdefault(t, set()).add(s)
        return len(cancel_unit_pivots(self.field, cols, rows)) == len(src)

    def _pushout_witness(self, i, f):
        # generators: those of b, then of c; relations: their orders, then
        # i(e_s) - f(e_s) for each generator e_s of the shared source
        b, c = self._obj_payloads[self._mor_tgt[i]], self._obj_payloads[self._mor_tgt[f]]
        images = self._mor_payload[i] + tuple(tuple(-x for x in row) for row in self._mor_payload[f])
        gens = len(b) + len(c)
        rows = [
            [d if j == r else 0 for j in range(gens)] + list(row)
            for r, (d, row) in enumerate(zip(b + c, images))
        ]
        ncols = gens + len(self._obj_payloads[self._mor_src[i]])
        dec = smith_normal_form(Matrix(ZZ, rows, ncols=ncols), factors=("U",))
        diag = dec.diagonal
        if dec.rank != gens or any(d == 0 for d in diag):
            raise InternalInvariantError("pushout of finite groups must be finite")
        keep = [r for r in range(gens) if diag[r] != 1]
        factors = tuple(int(diag[r]) for r in keep)
        if self._object_size(factors) > self.bound:
            return None
        proj = [[int(x) % diag[r] for x in dec.U.rows[r]] for r in keep]
        u_payload = tuple(tuple(row[: len(b)]) for row in proj)
        v_payload = tuple(tuple(row[len(b) :]) for row in proj)
        return self._witness(i, f, factors, u_payload, v_payload)


class VectCategory(FiniteModulesCategory):
    """Finite-dimensional vector spaces over GF(q), dimensions 0..bound.

    A GF(q)-vector space is an elementary abelian q-group, so this is
    ``FiniteModulesCategory`` on the objects (q,)*n, with the finite
    modules' hom sets, composition, flags and pushout witnesses.  Only the
    size (the dimension, which ``bound`` bounds), the labels F{q}^n and the
    name differ.
    """

    def __init__(self, q: int, bound: int, name: str | None = None):
        GF(q)  # refuses a non-prime q with the field's own message
        super().__init__(q, bound, name if name is not None else f"vect_gf({q},{bound})")

    def _objects(self):
        return tuple((self.p,) * n for n in range(self.bound + 1))

    def _object_size(self, factors):
        return len(factors)

    def object_label(self, a: int) -> str:
        n = len(self._obj_payloads[a])
        return "0" if n == 0 else f"F{self.p}^{n}"


def trivial_category() -> WCategory:
    """The one-object Waldhausen category containing only the zero object."""
    return VectCategory(2, 0, name="trivial")


def vect_gf(q: int, bound: int) -> VectCategory:
    return VectCategory(q, bound)


def pointed_sets(bound: int) -> PointedSetsCategory:
    return PointedSetsCategory(bound)


def finite_modules(p: int, bound: int) -> FiniteModulesCategory:
    return FiniteModulesCategory(p, bound, f"finite_modules({p},{bound})")


# The selector grammar: family name -> (number of integer arguments, the
# last of them the bound, and the constructor taking them).
CATEGORY_FAMILIES = {
    "trivial": (0, trivial_category),
    "vect_gf": (2, vect_gf),
    "pointed_sets": (1, pointed_sets),
    "finite_modules": (2, finite_modules),
}


def category_from_selector(selector: str, bound: int | None = None) -> WCategory:
    """Build a built-in category from a selector like ``vect_gf:2:2``.

    Recognized forms (CATEGORY_FAMILIES): ``trivial``, ``vect_gf:q:bound``,
    ``pointed_sets:bound``, ``finite_modules:p:bound``.  A ``bound`` given
    apart sets the family's last argument, which the selector may then omit
    or give (the given one is replaced); messages quote the selector with
    the bound applied.
    """
    parts = selector.strip().split(":")
    head, args = parts[0], parts[1:]
    arity, build = CATEGORY_FAMILIES.get(head, (None, None))
    if bound is not None and build is not None:
        if arity == 0:
            raise InputParseError(f"--bound does not apply to the {head!r} category")
        if len(args) not in (arity - 1, arity):
            raise InputParseError(f"cannot apply --bound to malformed selector {selector!r}")
        args = [*args[: arity - 1], str(bound)]
        selector = ":".join([head, *args])
    try:
        if len(args) == arity:
            return build(*map(int, args))
    except (ValueError, ValidationError) as exc:
        raise InputParseError(f"bad category selector {selector!r}: {exc}") from exc
    raise InputParseError(
        f"unknown category selector {selector!r}; expected trivial, "
        f"vect_gf:q:bound, pointed_sets:bound, or finite_modules:p:bound"
    )


# ---------------------------------------------------------------------------
# the validator
# ---------------------------------------------------------------------------


def validate_waldhausen(C: WCategory) -> ValidationReport:
    """Exhaustively check the five Waldhausen axioms in bounded form.

    Returns a report listing every violation found: (1) isomorphisms are
    flagged as cofibrations and weak equivalences, (2) each map out of the
    zero object is a cofibration, (3) a pushout witness is recorded whenever
    a pushout exists within the bound, and every recorded witness satisfies
    the universal property, (4) the cobase-change leg of every witness is a
    cofibration, (5) weakly equivalent pushout data induce weakly equivalent
    pushouts.  Category laws (identities, associativity, zero-object
    uniqueness) are checked first; axiom checks proceed regardless so one
    report collects everything.  Raises CapExceededError above TRIPLE_CAP
    before the associativity scan and above AXIOM5_CAP before axiom 3.
    """
    from .axioms import check_axioms

    return check_axioms(C)
