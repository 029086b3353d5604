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

Two caps bound what a category may cost before the work starts.  A
category refuses to intern more than ``MORPHISM_CAP`` morphisms, and hom
sets are interned as they are enumerated, so a refusal never holds the
whole hom set.  ``validate_waldhausen`` predicts the composable triples of
its associativity scan from the hom-set sizes and refuses above
``TRIPLE_CAP`` before it composes anything.  Both raise CapExceededError
(exit 4).  Neither is in the structured ``conventions`` block: no result
they let through depends on them.
"""

from __future__ import annotations

import itertools

from .chain import rank_over_field
from .conventions import PUSHOUT_SEARCH_CAP
from .errors import (
    CapExceededError,
    InputParseError,
    InternalInvariantError,
    ValidationError,
)
from .rings import GF
from .linalg import Matrix, SparseMap, smith_normal_form
from .validation import ValidationReport
from .values import Value

__all__ = [
    "WCategory",
    "TableCategory",
    "VectCategory",
    "PointedSetsCategory",
    "FiniteModulesCategory",
    "trivial_category",
    "vect_gf",
    "pointed_sets",
    "finite_modules",
    "category_from_selector",
    "validate_waldhausen",
    "ExactFunctor",
    "validate_exact_functor",
    "EndCategory",
    "end_category",
    "MORPHISM_CAP",
    "TRIPLE_CAP",
]

# Morphisms one category may intern.  The largest count among the tests is
# 27,874 (every hom set of S_2(pointed_sets(3))) and among the benchmark
# jobs 2,790 (selftest); pointed_sets(7) has 3.8e6 and would exhaust memory.
MORPHISM_CAP = 100_000

# Composable triples h∘g∘f that validate_waldhausen's associativity scan may
# visit, predicted from the hom-set sizes before the scan.  The largest
# among the tests and the benchmark jobs is 15,418 (finite_modules(2, 4));
# pointed_sets(3) has 7.0e5 and validates in a few seconds, pointed_sets(4)
# has 5.8e8.
TRIPLE_CAP = 1_000_000


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
        self._inverse_cache: dict = {}
        self._witness_cache: dict = {}
        self._composite_index: dict = {}
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
        raise NotImplementedError

    def _pushout_witness(self, i: int, f: int):
        """Canonical witness (d, u_id, v_id) for b <-i- a -f-> c, or None.

        None means the pushout does not fit within the size bound.  The
        default searches by brute force; families override with a direct
        construction.
        """
        for cand in self.pushout_candidates(i, f, first_only=True):
            return cand
        return None

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
        return self._obj_index[payload]

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
        got = self._compose_cache.get((g, f))
        if got is None:
            a, b = self._mor_src[f], self._mor_tgt[f]
            if self._mor_src[g] != b:
                raise ValidationError(
                    f"cannot compose {self.mor_label(g)} after {self.mor_label(f)}"
                )
            c = self._mor_tgt[g]
            payload = self._compose(self._mor_payload[g], self._mor_payload[f], a, b, c)
            got = self._intern(payload, a, c, -1)
            self._compose_cache[(g, f)] = got
        return got

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

    def iso_inverse(self, m: int):
        """Two-sided inverse handle, or None if ``m`` is not an isomorphism."""
        if m in self._inverse_cache:
            return self._inverse_cache[m]
        a, b = self._mor_src[m], self._mor_tgt[m]
        ida, idb = self.identity_id(a), self.identity_id(b)
        found = None
        for n in self.hom_ids(b, a):
            if self.compose_ids(n, m) == ida and self.compose_ids(m, n) == idb:
                found = n
                break
        self._inverse_cache[m] = found
        return found

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
        group of p is read, in hom order, and filtered by h∘v = q.
        """
        group = self._by_composite(u, self._mor_tgt[p]).get(p, ())
        return tuple(h for h in group if self.compose_ids(h, v) == q)

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

    def pushout_candidates(self, i: int, f: int, first_only: bool = False) -> list:
        """All (d, u, v) within the bound satisfying the universal property.

        Every commuting square is a candidate, tested against the squares in
        order until one lacks a unique mediating map.  One such test is a
        step; past PUSHOUT_SEARCH_CAP steps the search raises
        CapExceededError.
        """
        cocones = tuple(self._cocones(i, f))
        out = []
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
                out.append((d, u, v))
                if first_only:
                    return out
        return out

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
                e = next((m for m in self.weq_ids(a, b) if self._inverse_among_weqs(m)), None)
                orbit = {self.compose_ids(e, g) for g in self.iso_ids(a, a)} if e is not None else ()
                got = tuple(m for m in self.weq_ids(a, b) if m in orbit)
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

    def _inverse_among_weqs(self, m: int) -> bool:
        """Whether some weak equivalence is a two-sided inverse of m."""
        a, b = self._mor_src[m], self._mor_tgt[m]
        ida, idb = self.identity_id(a), self.identity_id(b)
        return any(
            self.compose_ids(n, m) == ida and self.compose_ids(m, n) == idb
            for n in self.weq_ids(b, a)
        )

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


class VectCategory(WCategory):
    """Finite-dimensional vector spaces over GF(q), dimensions 0..bound.

    Cofibrations are the injective linear maps, weak equivalences the
    isomorphisms.  Morphism payloads are row tuples of a dst x src matrix
    with entries reduced mod q.  Pushouts along injections are cokernels of
    ``(i, -f)`` computed by Smith normal form, so witnesses are canonical.
    """

    def __init__(self, q: int, bound: int, name: str | None = None):
        self.q = q
        self.ring = GF(q)
        super().__init__(name if name is not None else f"vect_gf({q},{bound})", bound)

    def _objects(self):
        return tuple(range(self.bound + 1))

    def _object_size(self, n):
        return n

    def _zero_payload(self):
        return 0

    def object_label(self, a: int) -> str:
        n = self._obj_payloads[a]
        return "0" if n == 0 else f"F{self.q}^{n}"

    def _enumerate_hom(self, m, n):
        cells = itertools.product(range(self.q), repeat=n * m)
        return (tuple(tuple(c[r * m : (r + 1) * m]) for r in range(n)) for c in cells)

    def _compose(self, g, f, a, b, c):
        sa, sb, sc = self._obj_payloads[a], self._obj_payloads[b], self._obj_payloads[c]
        q = self.q
        return tuple(
            tuple(sum(g[r][k] * f[k][s] for k in range(sb)) % q for s in range(sa))
            for r in range(sc)
        )

    def _identity(self, n):
        return tuple(tuple(1 if r == s else 0 for s in range(n)) for r in range(n))

    def _is_cofibration(self, payload, a, b):
        src = self._obj_payloads[a]
        cols = [{r: row[s] for r, row in enumerate(payload)} for s in range(src)]
        return rank_over_field(SparseMap.from_col_dicts(self.ring, len(payload), cols)) == src

    def _is_weq(self, payload, a, b):
        return self._obj_payloads[a] == self._obj_payloads[b] and self._is_cofibration(payload, a, b)

    def _pushout_witness(self, i, f):
        a = self._obj_payloads[self._mor_src[i]]
        b = self._obj_payloads[self._mor_tgt[i]]
        c = self._obj_payloads[self._mor_tgt[f]]
        d = b + c - a
        if d > self.bound:
            return None
        ip, fp = self._mor_payload[i], self._mor_payload[f]
        stacked = [[ip[r][s] for s in range(a)] for r in range(b)]
        stacked += [[(-fp[r][s]) % self.q for s in range(a)] for r in range(c)]
        dec = smith_normal_form(Matrix(self.ring, stacked, ncols=a))
        rank = dec.rank
        if rank != a:
            raise InternalInvariantError("pushout leg expected to be injective")
        proj = [[dec.U.rows[r][s] for s in range(b + c)] for r in range(rank, b + c)]
        u_payload = tuple(tuple(int(x) % self.q for x in row[:b]) for row in proj)
        v_payload = tuple(tuple(int(x) % self.q for x in row[b:]) for row in proj)
        return self._witness(i, f, d, u_payload, v_payload)


class PointedSetsCategory(WCategory):
    """Finite pointed sets with at most ``bound`` non-base points.

    Object n is {*, 1, .., n}; a morphism payload maps 1..m into 0..n with 0
    standing for the basepoint.  Cofibrations are the injections, weak
    equivalences the bijections.
    """

    def __init__(self, bound: int, name: str | None = None):
        super().__init__(name if name is not None else f"pointed_sets({bound})", bound)

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

    def _is_weq(self, payload, a, b):
        return a == b and self._is_cofibration(payload, a, b)

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
    of generator images, entries reduced mod the target orders.
    Cofibrations are the injective homomorphisms, weak equivalences the
    isomorphisms.  Pushouts are cokernels of integer relation matrices via
    Smith normal form.
    """

    def __init__(self, p: int, bound: int, name: str | None = None):
        self.p = p
        if p < 2 or any(p % k == 0 for k in range(2, p)):
            raise ValidationError("finite_modules requires a prime p")
        super().__init__(name if name is not None else f"finite_modules({p},{bound})", bound)

    def _objects(self):
        p, bound = self.p, self.bound
        powers = []
        v = p
        while v <= bound:
            powers.append(v)
            v *= p
        found = {()}
        frontier = [()]
        while frontier:
            base = frontier.pop()
            order = 1
            for d in base:
                order *= d
            for d in powers:
                if (not base or d >= base[-1]) and order * d <= bound:
                    new = base + (d,)
                    if new not in found:
                        found.add(new)
                        frontier.append(new)
        return tuple(sorted(found, key=lambda t: (self._order(t), t)))

    @staticmethod
    def _order(factors) -> int:
        order = 1
        for d in factors:
            order *= d
        return order

    def _object_size(self, factors):
        return self._order(factors)

    def _zero_payload(self):
        return ()

    def object_label(self, a: int) -> str:
        factors = self._obj_payloads[a]
        return "0" if not factors else "+".join(f"Z/{d}" for d in factors)

    def _enumerate_hom(self, src, dst):
        if not src:
            return [tuple(() for _ in dst)] if dst else [()]
        cell_choices = []
        for dt in dst:
            row = []
            for ds in src:
                step = dt // self._gcd(dt, ds)
                row.append(tuple(range(0, dt, step)))
            cell_choices.append(row)
        flat = [vals for row in cell_choices for vals in row]
        out = []
        width = len(src)
        for combo in itertools.product(*flat):
            out.append(
                tuple(tuple(combo[r * width : (r + 1) * width]) for r in range(len(dst)))
            )
        return out

    @staticmethod
    def _gcd(x, y):
        while y:
            x, y = y, x % y
        return x

    def _compose(self, g, f, a, b, c):
        src = self._obj_payloads[a]
        mid = self._obj_payloads[b]
        dst = self._obj_payloads[c]
        return tuple(
            tuple(
                sum(g[r][k] * f[k][s] for k in range(len(mid))) % dst[r]
                for s in range(len(src))
            )
            for r in range(len(dst))
        )

    def _identity(self, factors):
        n = len(factors)
        return tuple(tuple(1 if r == s else 0 for s in range(n)) for r in range(n))

    def _elements(self, factors):
        return itertools.product(*(range(d) for d in factors))

    def _apply(self, payload, dst, vec):
        return tuple(
            sum(payload[r][s] * vec[s] for s in range(len(vec))) % dst[r]
            for r in range(len(dst))
        )

    def _is_cofibration(self, payload, a, b):
        src = self._obj_payloads[a]
        dst = self._obj_payloads[b]
        for vec in self._elements(src):
            if any(vec) and not any(self._apply(payload, dst, vec)):
                return False
        return True

    def _is_weq(self, payload, a, b):
        if self._sizes[a] != self._sizes[b]:
            return False
        return self._is_cofibration(payload, a, b)

    def _pushout_witness(self, i, f):
        from .rings import ZZ

        src = self._obj_payloads[self._mor_src[i]]
        b = self._obj_payloads[self._mor_tgt[i]]
        c = self._obj_payloads[self._mor_tgt[f]]
        ip, fp = self._mor_payload[i], self._mor_payload[f]
        rb, rc, ra = len(b), len(c), len(src)
        gens = rb + rc
        cols = []
        for t in range(rb):
            cols.append([b[t] if r == t else 0 for r in range(gens)])
        for t in range(rc):
            cols.append([c[t] if r == rb + t else 0 for r in range(gens)])
        for s in range(ra):
            col = [ip[t][s] for t in range(rb)] + [-fp[t][s] for t in range(rc)]
            cols.append(col)
        rel = Matrix(ZZ, [[cols[j][r] for j in range(len(cols))] for r in range(gens)], ncols=len(cols))
        dec = smith_normal_form(rel)
        diag = dec.diagonal
        if dec.rank != gens or any(d == 0 for d in diag):
            raise InternalInvariantError("pushout of finite groups must be finite")
        keep = [r for r in range(gens) if diag[r] != 1]
        factors = tuple(int(diag[r]) for r in keep)
        if self._order(factors) > self.bound:
            return None
        if factors not in self._obj_index:
            raise InternalInvariantError(
                f"pushout invariant factors {factors} missing from object list"
            )
        u_payload = tuple(
            tuple(int(dec.U.rows[r][t]) % diag[r] for t in range(rb)) for r in keep
        )
        v_payload = tuple(
            tuple(int(dec.U.rows[r][rb + t]) % diag[r] for t in range(rc)) for r in keep
        )
        return self._witness(i, f, factors, u_payload, v_payload)


def trivial_category() -> WCategory:
    """The one-object Waldhausen category containing only the zero object."""
    return VectCategory(2, 0, name="trivial")


def vect_gf(q: int, bound: int) -> VectCategory:
    return VectCategory(q, bound)


def pointed_sets(bound: int) -> PointedSetsCategory:
    return PointedSetsCategory(bound)


def finite_modules(p: int, bound: int) -> FiniteModulesCategory:
    return FiniteModulesCategory(p, bound)


def category_from_selector(selector: str) -> WCategory:
    """Build a built-in category from a selector like ``vect_gf:2:2``.

    Recognized forms: ``trivial``, ``vect_gf:q:bound``, ``pointed_sets:bound``,
    ``finite_modules:p:bound``.
    """
    parts = selector.strip().split(":")
    head, args = parts[0], parts[1:]
    try:
        if head == "trivial" and not args:
            return trivial_category()
        if head == "vect_gf" and len(args) == 2:
            return vect_gf(int(args[0]), int(args[1]))
        if head == "pointed_sets" and len(args) == 1:
            return pointed_sets(int(args[0]))
        if head == "finite_modules" and len(args) == 2:
            return finite_modules(int(args[0]), int(args[1]))
    except (ValueError, ValidationError) as exc:
        raise InputParseError(f"bad category selector {selector!r}: {exc}") from exc
    raise InputParseError(
        f"unknown category selector {selector!r}; expected trivial, "
        f"vect_gf:q:bound, pointed_sets:bound, or finite_modules:p:bound"
    )


# ---------------------------------------------------------------------------
# explicit tables
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the validator
# ---------------------------------------------------------------------------


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
    if triples > TRIPLE_CAP:
        raise CapExceededError(
            f"category {C.name} has {triples} composable triples to check for "
            f"associativity, above {TRIPLE_CAP} (TRIPLE_CAP)"
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
    report collects everything.
    """
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

    cofibs = []
    for a in range(n):
        for b in range(n):
            cofibs.extend(m for m in C.hom_ids(a, b) if C.is_cofibration_id(m))

    witnesses = []
    for i in cofibs:
        a = C.mor_source(i)
        for c in range(n):
            for f in C.hom_ids(a, c):
                report.checks_run += 1
                w = C.pushout_witness(i, f)
                if w is None:
                    if C.pushout_candidates(i, f, first_only=True):
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

    for (i, f, d, u, v), t in zip(witnesses, corners):
        for (i2, f2, d2, u2, v2), (a2, b2, c2) in related[t]:
            for alpha in C.weq_ids(t[0], a2):
                ia = C.compose_ids(i2, alpha)
                fa = C.compose_ids(f2, alpha)
                for beta in C._by_composite(i, b2, weq_only=True).get(ia, ()):
                    ub = C.compose_ids(u2, beta)
                    for gamma in C._by_composite(f, c2, weq_only=True).get(fa, ()):
                        report.checks_run += 1
                        med = C.mediating_ids(u, v, ub, C.compose_ids(v2, gamma))
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
    return report


# ---------------------------------------------------------------------------
# the endomorphism category and its exact functors
# ---------------------------------------------------------------------------


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
        src_i = self._obj_payloads[self._mor_src[i]]
        tgt_i = self._obj_payloads[self._mor_tgt[i]]
        tgt_f = self._obj_payloads[self._mor_tgt[f]]
        w = base.pushout_witness(self._mor_payload[i], self._mor_payload[f])
        if w is None:
            return None
        d, u, v = w
        med = base.mediating_ids(
            u,
            v,
            base.compose_ids(u, tgt_i[1]),
            base.compose_ids(v, tgt_f[1]),
        )
        if len(med) != 1:
            raise InternalInvariantError(
                "base pushout witness does not induce a unique endomorphism; "
                "is the base category valid?"
            )
        d_payload = (d, med[0])
        return self._witness(i, f, d_payload, u, v)


class ExactFunctor(Value):
    """A functor between bounded Waldhausen categories, stored pointwise.

    ``object_map[a]`` is the target object index for source object ``a``;
    ``mor_map`` maps source morphism handles to target handles (callable).
    """

    __slots__ = ("name", "source", "target", "object_map", "mor_map")
    _fields = __slots__

    def __init__(
        self, name: str, source: WCategory, target: WCategory, object_map: tuple, mor_map
    ) -> None:
        self.name = name
        self.source = source
        self.target = target
        self.object_map = object_map
        self.mor_map = mor_map

    def apply_obj(self, a: int) -> int:
        return self.object_map[a]

    def apply_mor(self, m: int) -> int:
        return self.mor_map(m)


def validate_exact_functor(F: ExactFunctor) -> ValidationReport:
    """Check functoriality and exactness of ``F`` by exhaustive enumeration.

    Exactness means: the zero object, cofibration flags, weak-equivalence
    flags, and recorded pushout witnesses are preserved (witnesses on the
    nose, as produced by the constructions in this module).
    """
    report = ValidationReport(subject=f"exact functor {F.name}")
    S, T = F.source, F.target
    report.checks_run += 1
    if F.apply_obj(S.zero_index()) != T.zero_index():
        report.record("zero object is not preserved")
    all_mors = []
    for a in range(S.object_count()):
        for b in range(S.object_count()):
            all_mors.extend(S.hom_ids(a, b))
    for a in range(S.object_count()):
        report.checks_run += 1
        if F.apply_mor(S.identity_id(a)) != T.identity_id(F.apply_obj(a)):
            report.record(f"identity of {S.object_label(a)} is not preserved")
    for m in all_mors:
        fm = F.apply_mor(m)
        report.checks_run += 1
        if T.mor_source(fm) != F.apply_obj(S.mor_source(m)) or T.mor_target(
            fm
        ) != F.apply_obj(S.mor_target(m)):
            report.record(f"endpoints of {S.mor_label(m)} are not preserved")
            continue
        if S.is_cofibration_id(m) and not T.is_cofibration_id(fm):
            report.record(f"cofibration flag of {S.mor_label(m)} is not preserved")
        if S.is_weq_id(m) and not T.is_weq_id(fm):
            report.record(f"weak-equivalence flag of {S.mor_label(m)} is not preserved")
    by_source = {}
    for m in all_mors:
        by_source.setdefault(S.mor_source(m), []).append(m)
    for f in all_mors:
        for g in by_source.get(S.mor_target(f), ()):
            report.checks_run += 1
            if F.apply_mor(S.compose_ids(g, f)) != T.compose_ids(
                F.apply_mor(g), F.apply_mor(f)
            ):
                report.record(
                    f"composition {S.mor_label(g)} ∘ {S.mor_label(f)} is not preserved"
                )
    for i in all_mors:
        if not S.is_cofibration_id(i):
            continue
        a = S.mor_source(i)
        for c in range(S.object_count()):
            for f in S.hom_ids(a, c):
                w = S.pushout_witness(i, f)
                if w is None:
                    continue
                report.checks_run += 1
                d, u, v = w
                tw = T.pushout_witness(F.apply_mor(i), F.apply_mor(f))
                if tw is None:
                    report.record(
                        f"pushout witness of ({S.mor_label(i)},{S.mor_label(f)}) "
                        f"has no counterpart in the target"
                    )
                    continue
                if tw != (F.apply_obj(d), F.apply_mor(u), F.apply_mor(v)):
                    report.record(
                        f"pushout witness of ({S.mor_label(i)},{S.mor_label(f)}) "
                        f"is not preserved"
                    )
    return report


def end_category(C: WCategory, validate: bool = True):
    """Build End(C) together with the functors iota_0, iota_1, and forget.

    iota_0 equips each object with its zero endomorphism, iota_1 with the
    identity endomorphism, and forget drops the endomorphism.  With
    ``validate`` set, all three functors are checked to be exact and a
    ValidationError is raised on failure.
    """
    E = EndCategory(C)

    def make_obj_maps():
        iota0_obj = []
        iota1_obj = []
        for a in range(C.object_count()):
            zero_endo = C.zero_map_id(a, a)
            iota0_obj.append(E.object_index((a, zero_endo)))
            iota1_obj.append(E.object_index((a, C.identity_id(a))))
        forget_obj = tuple(payload[0] for payload in E._obj_payloads)
        return tuple(iota0_obj), tuple(iota1_obj), forget_obj

    iota0_obj, iota1_obj, forget_obj = make_obj_maps()

    def lift(obj_map):
        def mor_map(m: int) -> int:
            a, b = C.mor_source(m), C.mor_target(m)
            ea, eb = obj_map[a], obj_map[b]
            E.hom_ids(ea, eb)
            got = E._mor_handle.get((ea, eb, m))
            if got is None:
                raise InternalInvariantError(
                    f"morphism {C.mor_label(m)} does not lift to End({C.name})"
                )
            return got

        return mor_map

    def drop(m: int) -> int:
        return E.mor_payload(m)

    iota0 = ExactFunctor("iota_0", C, E, iota0_obj, lift(iota0_obj))
    iota1 = ExactFunctor("iota_1", C, E, iota1_obj, lift(iota1_obj))
    forget = ExactFunctor("forget", E, C, forget_obj, drop)
    if validate:
        for functor in (iota0, iota1, forget):
            validate_exact_functor(functor).require_ok()
    return E, iota0, iota1, forget
