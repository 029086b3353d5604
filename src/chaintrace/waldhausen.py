"""Flag-grid combinatorics and K_0 for bounded Waldhausen categories.

The flag category S_k over a base category C has as objects staircase
grids on [k] x [k]: entries X(i,j) that are zero for i >= j, horizontal
cofibrations X(i,j) >-> X(i,j+1) above the diagonal, and for every
i < j < l a pushout square expressing X(j,l) as the quotient
X(i,l)/X(i,j).  Equivalently an object is a chain of cofibrations
0 >-> X(0,1) >-> ... >-> X(0,k) together with compatible choices of all
subquotients.  A grid is stored as the payload (entries, harr, varr) of
nested row tuples indexed by position: ``entries[i][j]`` is X(i,j),
``harr[i][j]`` the arrow X(i,j) -> X(i,j+1) and ``varr[i][j]`` the arrow
X(i,j) -> X(i+1,j), as object indices and morphism handles of the base.
Every arrow a grid takes from a universal property (a quotient row, a
top-row comparison map, an arrow of a pushout of grids) is the base's
``mediating_id``.  This module enumerates those grids over a bounded base,
packages S_k as a bounded category in its own right (so the construction
can be iterated), and extracts K_0 three ways:

* ``k0_via_sdot``: H_1 of |wS_.C| from the total complex of the
  bisimplicial set (p, q) |-> w_q S_p C.  By the generalized
  Eilenberg-Zilber theorem (Dold-Puppe 1961; Goerss-Jardine, Simplicial
  Homotopy Theory, IV.2) reduced chains on the diagonal are chain
  homotopy equivalent to the total complex of the normalized bicomplex.
  Every w_q S_0 C is the basepoint, so total degrees <= 2 need only the
  objects of S_1, the grids of S_2 and the weak equivalences of S_1: a
  few hundred generators where level 2 of the diagonal holds about
  2.7e11 strings for vect_gf(2,3).
* ``nerve.k0_via_diagonal``: H_1 of the diagonal simplicial set
  n |-> ob w_n S_n C itself, whose 1-simplices are weak-equivalence
  strings of flag grids.  The level-0 set is a single point, the
  fundamental group of the diagonal is K_0 and is abelian, so H_1
  computes it from levels <= 2.  Level 2 holds every pair of composable
  weak equivalences of S_2, so this is an oracle for small bases.
* ``grothendieck_k0``: the textbook presentation, free abelian on the
  nonzero objects modulo [a] = [a'] for every flagged weak equivalence
  and [b] = [a] + [b/a] for every enumerated cofiber sequence.

All three read the same enumerated grids on [2] x [2] and reduce by the
same integer Smith normal form, so their agreement does not test the grid
enumeration.  What it checks is the S_. structure: the simplicial routes
take faces by restricting grids along cofaces (and the diagonal also by
composing weak equivalences), while the presentation reads the slots of
each grid directly.  In total degrees <= 2 the relations of the total
complex are those of the presentation by theory, so that agreement checks
the face maps and not the Eilenberg-Zilber theorem; the diagonal, which
builds every 2-simplex, stays the stronger check where it fits.

A functor between bounded categories is an (object map, morphism map)
pair.  ``payload_functor`` builds one, memoized, from the payloads of the
images: it looks each image object up among the target's enumerated
objects and interns each image morphism between the mapped endpoints.
Restriction of grids along a monotone map (``reindex_functor``) is built
this way, as are the structure maps of ``sigma_delta`` and the inclusions
of C into End(C) in chaintrace.endo.

Every simplicial set of weak-equivalence strings (``nerve.weq_nerve``,
the diagonal ``ws_diagonal``, and the entries of ``sigma_delta``'s
diagrams) keeps each level a ``FlatLevel`` from its enumeration
(``weq_strings``) on.  ``k0_via_sdot`` reads w_1 S_1 C through the same
two, so they live here; the simplicial sets themselves
(``PointedSimplicialSet``, its operators and identities, the nerve maps
of whole levels) are built in chaintrace.nerve, which no ``k0`` job
loads: ``ws_diagonal`` stays the public entry point and imports it when
it runs.  So does the grid check ``validate_s_object``.

The endomorphism category End(C) and the retract check K_0(C) ->
K_0(End C) -> K_0(C) built on ``k0_presentation`` live in chaintrace.endo,
which no ``k0`` job loads.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import chain, product, repeat
from operator import itemgetter
from struct import Struct

from .chain import ChainComplex, FPAbelianGroup, HomologyData, basis_map_columns, homology
from .errors import CapExceededError, InternalInvariantError, ValidationError
from .linalg import SparseMap
from .rings import ZZ
from .values import Value
from .wcat import WCategory

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .nerve import PointedSimplicialSet

__all__ = [
    "DEFAULT_K_CAP",
    "STRING_CAP",
    "S_OBJECT_CAP",
    "s_k_objects",
    "s_payload_issues",
    "SCategory",
    "payload_functor",
    "reindex_functor",
    "coface",
    "FlatLevel",
    "column",
    "weq_strings",
    "ws_diagonal",
    "relation_cokernel",
    "k0_via_sdot",
    "K0Presentation",
    "k0_presentation",
    "grothendieck_k0",
    "k0_command",
]

# Each cap below is read where it is enforced; none is a parameter.
# Flag grids are enumerated exhaustively, so the column count k is capped.
DEFAULT_K_CAP = 3
# Largest set of weak-equivalence strings materialized at one level: a
# level of ws_diagonal or weq_nerve, or w_1 S_1 in k0_via_sdot.
STRING_CAP = 200_000
# Largest grid count s_k_objects will enumerate.
S_OBJECT_CAP = 200_000


# ---------------------------------------------------------------------------
# flag grids
# ---------------------------------------------------------------------------


def _grid_map(base: WCategory, payload: tuple, i1: int, j1: int, i2: int, j2: int) -> int:
    """The grid's map X(i1,j1) -> X(i2,j2), for i1 <= i2 and j1 <= j2.

    The composite along row i1 and then down column j2, starting from the
    identity of X(i1,j1), so it is that identity when the corners agree.
    """
    entries, harr, varr = payload
    m = base.identity_id(entries[i1][j1])
    for h in chain(harr[i1][j1:j2], (row[j2] for row in varr[i1:i2])):
        m = base.compose_ids(h, m)
    return m


def s_payload_issues(base: WCategory, payload: tuple, skip_built_triples: bool) -> list:
    """Violations of the grid axioms, as strings.

    ``skip_built_triples`` omits the pushout check for triples (j-1, j, l),
    which hold by construction when the grid came out of the enumerator.
    """
    entries, harr, varr = payload
    k = len(entries) - 1
    z = base.zero_index()
    issues = [
        f"entry ({i},{j}) must be the zero object"
        for i, row in enumerate(entries)
        for j, x in enumerate(row)
        if i >= j and x != z
    ]
    if issues:
        return issues
    for i, row in enumerate(harr):
        for j, m in enumerate(row):
            if base.mor_source(m) != entries[i][j] or base.mor_target(m) != entries[i][j + 1]:
                issues.append(f"horizontal arrow ({i},{j}) has wrong endpoints")
            elif j >= i and not base.is_cofibration_id(m):
                issues.append(f"horizontal arrow ({i},{j}) is not a cofibration")
    for i, row in enumerate(varr):
        for j, m in enumerate(row):
            if base.mor_source(m) != entries[i][j] or base.mor_target(m) != entries[i + 1][j]:
                issues.append(f"vertical arrow ({i},{j}) has wrong endpoints")
    if issues:
        return issues
    for i in range(k):
        for j in range(k):
            lhs = base.compose_ids(varr[i][j + 1], harr[i][j])
            rhs = base.compose_ids(harr[i + 1][j], varr[i][j])
            if lhs != rhs:
                issues.append(f"square at ({i},{j}) does not commute")
    if issues:
        return issues
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            for l in range(j + 1, k + 1):
                if skip_built_triples and j == i + 1:
                    continue
                top = _grid_map(base, payload, i, j, i, l)
                (to_zero,) = base.hom_ids(entries[i][j], z)
                u = _grid_map(base, payload, i, l, j, l)
                (v,) = base.hom_ids(z, entries[j][l])
                if not base.is_pushout(top, to_zero, entries[j][l], u, v):
                    issues.append(f"triple ({i},{j},{l}) is not a pushout square")
    return issues


def _enumerate_s_payloads(base: WCategory, k: int) -> list:
    """All valid grid payloads over the base, sorted; complete within the bound.

    Rows are built downward: the top row ranges over cofibration chains
    from zero, and row j is assembled from every quotient datum of
    X(j-1,j) >-> X(j-1,l) (any two pushouts of one cospan are uniquely
    isomorphic, so the isomorphism orbit of the canonical witness is the
    complete candidate set).  Horizontal arrows of the new row are the
    unique mediating maps, so the grid axioms for triples (j-1, j, l)
    hold by construction; the remaining triples are checked afterwards.
    Then every cokernel witness read goes through ``confirm_witness``,
    which checks those of a table not yet validated.

    The list is memoized on the base, so the presentation and the total
    complex read one enumeration; a refusal is not cached and is raised
    again on every call.
    """
    got = base._s_payload_cache.get(k)
    if got is None:
        got = base._s_payload_cache[k] = _build_s_payloads(base, k)
    return got


def _build_s_payloads(base: WCategory, k: int) -> list:
    z = base.zero_index()
    idz = base.identity_id(z)
    n = k + 1
    chains = [((z,), ())]
    for _ in range(k):
        nxt = []
        for objs, arrows in chains:
            for m in base.cofibs_from(objs[-1]):
                nxt.append((objs + (base.mor_target(m),), arrows + (m,)))
        chains = nxt
        if len(chains) > S_OBJECT_CAP:
            raise CapExceededError(f"more than {S_OBJECT_CAP} cofibration chains of length {k}")

    out = []
    quotients = {}  # the cofibrations whose cokernel witnesses were read
    for top_objs, top_arrows in chains:
        # grids[t] = (rows, hrows, vrows): the payload of the rows built so far
        grids = [((top_objs,), (top_arrows,), ())]
        for j in range(1, n):
            nxt = []
            for rows, hrows, vrows in grids:
                prev = rows[j - 1]
                prev_h = hrows[j - 1]
                cand_sets = []
                for l in range(j + 1, n):
                    i_comp = _grid_map(base, (rows, hrows, vrows), j - 1, j, j - 1, l)
                    quotients[i_comp] = base.hom_ids(prev[j], z)[0]
                    cand_sets.append(base.cokernel_candidates(i_comp))
                for combo in product(*cand_sets):
                    row = [z] * n
                    vrow = [idz] * j + [base.hom_ids(prev[j], z)[0]]
                    hrow = [idz] * min(j, k)
                    for t, (d, u, _v) in enumerate(combo):
                        row[j + 1 + t] = d
                        vrow.append(u)
                    if j < n - 1:
                        hrow.append(base.hom_ids(z, row[j + 1])[0])
                    for l in range(j + 1, n - 1):
                        d_l, u_l, v_l = combo[l - j - 1]
                        p = base.compose_ids(combo[l - j][1], prev_h[l])
                        (q,) = base.hom_ids(z, row[l + 1])
                        h = base.mediating_id(u_l, v_l, p, q)
                        if h is None:
                            raise InternalInvariantError(
                                "quotient row admits no unique induced arrow; "
                                "is the base category valid?"
                            )
                        if not base.is_cofibration_id(h):
                            break
                        hrow.append(h)
                    else:
                        nxt.append(
                            (rows + (tuple(row),), hrows + (tuple(hrow),), vrows + (tuple(vrow),))
                        )
            grids = nxt
            if len(grids) > S_OBJECT_CAP:
                raise CapExceededError(f"more than {S_OBJECT_CAP} flag grids over {base.name}")

        for payload in grids:
            issues = s_payload_issues(base, payload, skip_built_triples=True)
            if issues:
                raise InternalInvariantError(
                    f"assembled grid violates '{issues[0]}'; is the base category valid?"
                )
            out.append(payload)
    for i, to_zero in quotients.items():
        base.confirm_witness(i, to_zero)
    out.sort()
    if len(out) > S_OBJECT_CAP:
        raise CapExceededError(f"more than {S_OBJECT_CAP} flag grids over {base.name}")
    return out


def s_k_objects(C: WCategory, k: int) -> list:
    """The payload of every flag grid on [k] x [k] over C, validated, in canonical order."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if k > DEFAULT_K_CAP:
        raise CapExceededError(f"k = {k} exceeds the flag-grid cap {DEFAULT_K_CAP}")
    return list(_enumerate_s_payloads(C, k))


# ---------------------------------------------------------------------------
# the flag category S_k C
# ---------------------------------------------------------------------------


class SCategory(WCategory):
    """S_k over a bounded base, as a bounded category in its own right.

    Objects are the enumerated flag grids, each the payload (entries, harr,
    varr) with X(i,j) at ``entries[i][j]``, X(i,j) -> X(i,j+1) at
    ``harr[i][j]`` and X(i,j) -> X(i+1,j) at ``varr[i][j]``.  Morphisms
    are natural maps stored as component tuples over the strictly-upper
    slots (i < j) in an order only this class knows: other code reads a
    component with ``component`` (the identity of zero at a zero slot) and
    builds a payload with ``payload_from``.  Weak
    equivalences are the levelwise ones.  Cofibrations are the levelwise
    cofibrations whose top-row comparison maps
    X(0,j) u_{X(0,j-1)} Y(0,j-1) -> Y(0,j) are again cofibrations; when
    the comparison pushout does not fit within the bound the map is
    conservatively not a cofibration.

    Hom sets and weak-equivalence sets are found slot by slot in row-major
    order.  A component X(i,j) -> Y(i,j) must close the square with the
    component to its left and the one above; the candidates come from the
    base grouped by their composite with the incoming arrow of X (cached
    per arrow and target), so each search node reads the one group that
    matches the arrow of Y after the earlier component.  Groups keep hom
    order, so morphisms come out in the order of a plain scan.
    """

    def __init__(self, base: WCategory, k: int):
        if k > DEFAULT_K_CAP:
            raise CapExceededError(f"k = {k} exceeds the flag-grid cap {DEFAULT_K_CAP}")
        self.base = base
        self.k = k
        self._slots = tuple(
            (i, j) for i in range(k + 1) for j in range(k + 1) if i < j
        )
        self._slot_pos = {s: t for t, s in enumerate(self._slots)}
        self._grid_payloads = _enumerate_s_payloads(base, k)
        super().__init__(f"S_{k}({base.name})", base.bound)

    # -- morphism payloads ---------------------------------------------------

    def component(self, m: int, i: int, j: int) -> int:
        """Component X(i,j) -> Y(i,j) of morphism ``m``; the identity of zero when i >= j."""
        if i >= j:
            return self.base.identity_id(self.base.zero_index())
        return self._mor_payload[m][self._slot_pos[(i, j)]]

    def payload_from(self, component) -> tuple:
        """The morphism payload whose component at slot (i, j), i < j, is ``component(i, j)``."""
        return tuple(component(i, j) for i, j in self._slots)

    # -- hooks ---------------------------------------------------------------

    def _objects(self):
        return self._grid_payloads

    def _object_size(self, payload) -> int:
        return max(self.base.object_size(e) for row in payload[0] for e in row)

    def _zero_payload(self):
        z = self.base.zero_index()
        idz = self.base.identity_id(z)
        k, n = self.k, self.k + 1
        return (((z,) * n,) * n, ((idz,) * k,) * n, ((idz,) * n,) * k)

    def _nat_search(self, Xp, Yp, weq_only: bool) -> list:
        base = self.base
        Xe, Xh, Xv = Xp
        Ye, Yh, Yv = Yp
        slot_pos = self._slot_pos
        # per slot: its endpoints and, for each square closing there, the
        # earlier slot, the arrow of X into this slot and the arrow of Y
        plan = []
        for i, j in self._slots:
            left = (slot_pos[(i, j - 1)], Xh[i][j - 1], Yh[i][j - 1]) if i < j - 1 else None
            up = (slot_pos[(i - 1, j)], Xv[i - 1][j], Yv[i - 1][j]) if i >= 1 else None
            plan.append((Xe[i][j], Ye[i][j], left, up))
        comps = [0] * len(plan)
        out = []

        def pick(t: int):
            if t == len(plan):
                out.append(tuple(comps))
                return
            xs, ys, left, up = plan[t]
            first = left or up
            if first is None:
                cands = base.weq_ids(xs, ys) if weq_only else base.hom_ids(xs, ys)
            else:
                s, x_arrow, y_arrow = first
                target = base.compose_ids(y_arrow, comps[s])
                cands = base._by_composite(x_arrow, ys, weq_only).get(target, ())
                if left and up:
                    s, x_arrow, y_arrow = up
                    target = base.compose_ids(y_arrow, comps[s])
                    cands = [c for c in cands if base.compose_ids(c, x_arrow) == target]
            for c in cands:
                comps[t] = c
                pick(t + 1)

        try:
            pick(0)
        finally:
            del pick  # it refers to its own cell: drop the cycle now
        return out

    def _enumerate_hom(self, a_payload, b_payload) -> list:
        return self._nat_search(a_payload, b_payload, weq_only=False)

    def weq_ids(self, a: int, b: int) -> tuple:
        # enumerated directly from levelwise weak equivalences, skipping the
        # full hom set; sound because weak equivalences are levelwise
        got = self._weq_hom_cache.get((a, b))
        if got is None:
            pays = self._nat_search(self._obj_payloads[a], self._obj_payloads[b], weq_only=True)
            got = tuple(self.intern_morphism(p, a, b) for p in pays)
            self._weq_hom_cache[(a, b)] = got
        return got

    def _compose(self, g_payload, f_payload, a: int, b: int, c: int):
        return tuple(map(self.base.compose_ids, g_payload, f_payload))

    def _identity(self, a_payload):
        entries = a_payload[0]
        return tuple(self.base.identity_id(entries[i][j]) for i, j in self._slots)

    def _is_weq(self, payload, a: int, b: int) -> bool:
        return all(self.base.is_weq_id(c) for c in payload)

    def _is_cofibration(self, payload, a: int, b: int) -> bool:
        base = self.base
        if not all(base.is_cofibration_id(c) for c in payload):
            return False
        if self.k < 2:
            return True
        Xh = self._obj_payloads[a][1]
        Yh = self._obj_payloads[b][1]
        for j in range(2, self.k + 1):
            i_h = Xh[0][j - 1]
            alpha_prev = payload[self._slot_pos[(0, j - 1)]]
            w = base.pushout_witness(i_h, alpha_prev)
            if w is None:
                return False
            _d, u, v = w
            alpha_j = payload[self._slot_pos[(0, j)]]
            h = base.mediating_id(u, v, alpha_j, Yh[0][j - 1])
            if h is None:
                raise InternalInvariantError(
                    "top-row comparison map is not unique; is the base category valid?"
                )
            base.confirm_witness(i_h, alpha_prev)
            if not base.is_cofibration_id(h):
                return False
        return True

    def _pushout_witness(self, i: int, f: int):
        base, k, n = self.base, self.k, self.k + 1
        ip, fp = self._mor_payload[i], self._mor_payload[f]
        Bp, Cp = self._obj_payloads[self._mor_tgt[i]], self._obj_payloads[self._mor_tgt[f]]
        z = base.zero_index()
        idz = base.identity_id(z)

        slot_d: dict = {}
        slot_u: dict = {}
        slot_v: dict = {}
        for t, (si, sj) in enumerate(self._slots):
            w = base.pushout_witness(ip[t], fp[t])
            if w is None:
                return None
            slot_d[(si, sj)], slot_u[(si, sj)], slot_v[(si, sj)] = w

        def slot_obj(si: int, sj: int) -> int:
            return slot_d[(si, sj)] if si < sj else z

        entries = tuple(tuple(slot_obj(si, sj) for sj in range(n)) for si in range(n))

        def induced(src_slot, dst_slot, b_arrow, c_arrow) -> int:
            # arrow of the assembled grid between two slots, via the
            # universal property of the source slot's pushout
            ssi, ssj = src_slot
            dsi, dsj = dst_slot
            if ssi >= ssj and dsi >= dsj:
                return idz
            if ssi >= ssj:
                return base.hom_ids(z, slot_d[dst_slot])[0]
            if dsi >= dsj:
                return base.hom_ids(slot_d[src_slot], z)[0]
            p = base.compose_ids(slot_u[dst_slot], b_arrow)
            q = base.compose_ids(slot_v[dst_slot], c_arrow)
            h = base.mediating_id(slot_u[src_slot], slot_v[src_slot], p, q)
            if h is None:
                raise InternalInvariantError(
                    "pushout grid admits no unique induced arrow; "
                    "is the base category valid?"
                )
            return h

        harr = tuple(
            tuple(induced((si, sj), (si, sj + 1), Bp[1][si][sj], Cp[1][si][sj]) for sj in range(k))
            for si in range(n)
        )
        varr = tuple(
            tuple(induced((si, sj), (si + 1, sj), Bp[2][si][sj], Cp[2][si][sj]) for sj in range(n))
            for si in range(k)
        )
        for i_t, f_t in zip(ip, fp):
            base.confirm_witness(i_t, f_t)
        return self._witness(
            i,
            f,
            (entries, harr, varr),
            tuple(slot_u[s] for s in self._slots),
            tuple(slot_v[s] for s in self._slots),
        )


# ---------------------------------------------------------------------------
# functors given on payloads, and reindexing along monotone maps
# ---------------------------------------------------------------------------


def payload_functor(src: WCategory, dst: WCategory, obj_payload, mor_payload) -> tuple:
    """A functor src -> dst given on payloads, as a memoized (object map, morphism map) pair.

    ``obj_payload(a)`` is the payload of the image of object ``a``, which
    must be an enumerated object of dst (``object_index`` raises
    InternalInvariantError otherwise).  ``mor_payload(m, a2, b2)`` is the
    payload of the image of morphism ``m``, interned in dst between the
    images ``a2`` and ``b2`` of its endpoints.
    """
    objs: dict = {}
    mors: dict = {}

    def obj(a: int) -> int:
        got = objs.get(a)
        if got is None:
            got = objs[a] = dst.object_index(obj_payload(a))
        return got

    def mor(m: int) -> int:
        got = mors.get(m)
        if got is None:
            a2, b2 = obj(src.mor_source(m)), obj(src.mor_target(m))
            got = mors[m] = dst.intern_morphism(mor_payload(m, a2, b2), a2, b2)
        return got

    return obj, mor


def reindex_functor(src: SCategory, dst: SCategory, alpha: tuple) -> tuple:
    """Restriction of flag grids along a monotone map, as a ``payload_functor``.

    ``alpha`` maps 0..dst.k into 0..src.k monotonically; the new grid has
    entry (i, j) equal to the old entry (alpha[i], alpha[j]), with arrows
    the evident row and column composites, and a map of grids keeps its
    components at the restricted slots: its image is
    ``dst.payload_from`` of ``src.component`` at (alpha[i], alpha[j]).
    Reindexing never grows entry sizes, so over a valid base the image is
    always an enumerated grid.
    """
    base = src.base
    steps = tuple(zip(alpha, alpha[1:]))

    def obj_payload(a: int) -> tuple:
        pay = src.object_payload(a)
        entries = tuple(tuple(pay[0][i][j] for j in alpha) for i in alpha)
        harr = tuple(tuple(_grid_map(base, pay, i, j1, i, j2) for j1, j2 in steps) for i in alpha)
        varr = tuple(tuple(_grid_map(base, pay, i1, j, i2, j) for j in alpha) for i1, i2 in steps)
        return (entries, harr, varr)

    def mor_payload(m: int, a2: int, b2: int) -> tuple:
        return dst.payload_from(lambda i, j: src.component(m, alpha[i], alpha[j]))

    return payload_functor(src, dst, obj_payload, mor_payload)


def coface(i: int, k: int) -> tuple:
    """The injection 0..k-1 -> 0..k skipping i."""
    return tuple(t for t in range(k + 1) if t != i)


# ---------------------------------------------------------------------------
# strings of weak equivalences, and K_0 from the total complex
# ---------------------------------------------------------------------------


class FlatLevel:
    """A level of a simplicial set whose elements are tuples of ``width``
    ints, stored as one ``array('i')`` of rows in order.

    A level-2 nerve string then costs 12 bytes, where a tuple of three
    handles costs 64 and its list slot 8 more.  Readers see the tuples:
    ``len``, iteration in order and ``level[i]`` (an int i) give them,
    ``index`` finds one (ValueError when absent), and a level equals a
    sequence of the same tuples.  The bulk paths build no tuple: levels are
    built and mapped by ``columns``, and ``positions`` looks rows up by
    their packed bytes.  Handles fit in 4 bytes: no category interns more
    than ``wcat.MORPHISM_CAP`` morphisms.
    """

    __slots__ = ("width", "data")

    def __init__(self, width: int, data: array) -> None:
        self.width = width
        self.data = data

    @classmethod
    def pack(cls, rows) -> FlatLevel:
        """The level of ``rows``, a sequence of tuples of ints of one width."""
        return cls(len(rows[0]), array("i", chain.from_iterable(rows)))

    @classmethod
    def from_columns(cls, columns: list) -> FlatLevel:
        """The level whose column t is the ``array('i')`` ``columns[t]``."""
        data = array("i", [0]) * (len(columns) * len(columns[0]))
        for t, col in enumerate(columns):
            data[t :: len(columns)] = col
        return cls(len(columns), data)

    def columns(self) -> list:
        """Column t of the level, for each t, as an ``array('i')``."""
        return [self.data[t :: self.width] for t in range(self.width)]

    def __len__(self) -> int:
        return len(self.data) // self.width

    def __iter__(self):
        return zip(*[iter(self.data)] * self.width)

    def __getitem__(self, i: int) -> tuple:
        if not isinstance(i, int):
            raise TypeError(f"FlatLevel indices must be integers, not {type(i).__name__}")
        start = range(0, len(self.data), self.width)[i]
        return tuple(self.data[start : start + self.width])

    def _keys(self):
        """The packed bytes of each row, in order: a key equal only to the
        key of an equal row, which takes 45 bytes for a level-2 string where
        its tuple, with ints of its own, takes about 140."""
        rows = Struct(f"{self.data.itemsize * self.width}s").iter_unpack(self.data)
        return map(itemgetter(0), rows)

    def lookup(self) -> dict:
        """The position of each row of this level, keyed by its packed bytes."""
        return dict(zip(self._keys(), range(len(self))))

    def positions(self, rows: FlatLevel, lookup: dict | None = None) -> array:
        """The position in this level of each row of ``rows``, in order, as
        4-byte ints (KeyError for a row not in it), through ``lookup``, this
        level's ``lookup()``, which is built for the call when not given."""
        into = self.lookup() if lookup is None else lookup
        return column(map(into.__getitem__, rows._keys()))

    def __eq__(self, other) -> bool:
        if isinstance(other, FlatLevel):
            return self.width == other.width and self.data == other.data
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self) -> str:
        return f"FlatLevel({self.width}, {tuple(self)!r})"

    def index(self, x) -> int:
        """The position of the row x, found by a search of the packed bytes."""
        try:
            row = array("i", x).tobytes()
        except (TypeError, OverflowError):
            row = b""
        size = self.data.itemsize * self.width
        if len(row) == size:
            packed = self.data.tobytes()
            at = packed.find(row)
            while at > 0 and at % size:  # a match must start a row
                at = packed.find(row, at + 1)
            if at >= 0:
                return at // size
        raise ValueError(f"{x!r} is not in the level")


def column(xs) -> array:
    """The ints xs as a column, filled from a list, which beats an iterator."""
    return array("i", list(xs))


def weq_strings(C: WCategory, length: int, what: str) -> FlatLevel:
    """The level of strings of ``length`` composable weak equivalences of C.

    Each string is one row (x0, g_1, ..., g_length).  The basepoint, the
    identity string (z, id_z, ..., id_z) on the zero object z, comes first;
    the rest follow depth first over target objects and weak-equivalence
    sets, which are asked for only when the search reaches their source.
    Raises CapExceededError, naming the level ``what``, once it holds more
    than STRING_CAP strings; level 0, C's objects, is not capped.
    """
    objects = range(C.object_count())
    z = C.zero_index()
    if length == 0:
        return FlatLevel(1, array("i", [z, *(a for a in objects if a != z)]))
    bp = (z,) + (C.identity_id(z),) * length
    cols = [array("i", [x]) for x in bp]
    out_of: dict = {}  # a -> the weak equivalences out of a, in enumeration order

    def extend(prefix: tuple, a: int) -> None:
        maps = out_of.get(a)
        if maps is None:
            maps = out_of[a] = array("i", [g for b in objects for g in C.weq_ids(a, b)])
        if len(prefix) < length:
            for g in maps:
                extend(prefix + (g,), C.mor_target(g))
            return
        if prefix == bp[:-1]:
            # distinct paths give distinct strings; only bp comes up twice
            maps = array("i", [g for g in maps if g != bp[-1]])
        for col, x in zip(cols, prefix):
            col.extend(repeat(x, len(maps)))
        cols[-1].extend(maps)
        if len(cols[-1]) > STRING_CAP:
            raise CapExceededError(f"{what} exceeds {STRING_CAP} strings")

    try:
        for x0 in objects:
            extend((x0,), x0)
    finally:
        del extend  # it refers to its own cell: drop the cycle now
    return FlatLevel.from_columns(cols)


def ws_diagonal(C: WCategory) -> PointedSimplicialSet:
    """The diagonal n |-> w_n S_n C of the bisimplicial set (p, q) |-> w_q S_p C.

    Truncated at ``nerve.DIAGONAL_TOP`` = 2, the levels K_0 = H_1 reads, and
    built by chaintrace.nerve, imported when this runs.  Level n holds the
    strings of n composable weak equivalences of flag grids on [n] x [n],
    each the flat tuple (x0, g_1, ..., g_n) of grid and map handles of
    S_n C, kept as a ``FlatLevel`` of rows of n + 1 handles; the basepoint
    is the identity string on the zero grid.  The face d_i is d_i^v o d_i^h:
    the horizontal face d_i^h restricts a level's grids and maps along the
    coface [n-1] -> [n] that skips i (``nerve.map_level``), landing in
    w_n S_{n-1} C, and the vertical face d_i^v is the nerve face of
    w S_{n-1} C.  Likewise s_i restricts along the codegeneracy
    [n+1] -> [n] that repeats i and then inserts identities.  A face
    composes through the memo of S_{n-1} C, which lives only while the
    diagonal is built: restricted strings ask for few composites many times
    (the 15,663 strings of level 2 over vect_gf(2,2) for 38).
    """
    from .nerve import diagonal

    return diagonal(C)


def _generators(C: WCategory) -> tuple:
    """The nonzero objects of C, and their row lookup, which gives None for
    the zero object."""
    z = C.zero_index()
    gens = tuple(a for a in range(C.object_count()) if a != z)
    return gens, {a: t for t, a in enumerate(gens)}.get


def relation_cokernel(nrows: int, columns) -> tuple:
    """Distinct relation columns, sorted, and H_0 of Z^nrows modulo them.

    ``columns`` yields {row: coefficient} dicts; zero coefficients and
    empty columns are dropped before duplicates are collapsed.
    """
    distinct = set()
    for col in columns:
        colt = tuple(sorted((r, c) for r, c in col.items() if c != 0))
        if colt:
            distinct.add(colt)
    cols = sorted(distinct)
    # each column is sorted and zero-free already: SparseMap's own format
    mat = SparseMap(ZZ, nrows, len(cols), tuple(cols))
    cx = ChainComplex(ZZ, (nrows, len(cols)), {1: mat} if cols else {})
    return cols, homology(cx, 0)


def _total_complex_relations(C: WCategory) -> tuple:
    """H_1 of the total complex of (p, q) |-> w_q S_p C, with its relations.

    Returns (S_1, generators, relation columns, homology data): generators
    are the nonzero objects of S_1 (total degree 1; every w_q S_0 C is the
    basepoint), and the columns are the boundaries of total degree 2.  A
    grid x of S_2 (bidegree (2, 0)) gives sum (-1)^i [d_i x], written by
    ``chain.basis_map_columns``, with d_i the restriction along the
    coface skipping i; a weak equivalence a -> b of S_1 (bidegree (1, 1))
    gives -([b] - [a]), the vertical differential with the sign (-1)^p.
    Degenerate simplices give empty columns, which ``relation_cokernel``
    drops with the duplicates.
    """
    if SCategory(C, 0).object_count() != 1:
        raise InternalInvariantError("S_0 of the flag construction is not a single point")
    S1, S2 = SCategory(C, 1), SCategory(C, 2)
    gens, row = _generators(S1)
    faces = [reindex_functor(S2, S1, coface(i, 2))[0] for i in range(3)]
    starts, maps = weq_strings(S1, 1, f"w_1 S_1 of {C.name}").columns()
    grids = basis_map_columns(ZZ, range(S2.object_count()), 3, lambda x, i: ((faces[i](x), 1),), row)
    vertical = (((S1.mor_target(g), -1), (a, 1)) for a, g in zip(starts[1:], maps[1:]))
    cols, hd = relation_cokernel(len(gens), chain(grids, basis_map_columns(ZZ, vertical, 1, lambda x, _: x, row)))
    return S1, gens, cols, hd


def k0_via_sdot(C: WCategory) -> FPAbelianGroup:
    """K_0 as H_1 of |wS_.C|, from the total complex of (p, q) |-> w_q S_p C.

    By the generalized Eilenberg-Zilber theorem (Dold-Puppe; Goerss-Jardine
    IV.2) the reduced chains on the diagonal n |-> w_n S_n C are chain
    homotopy equivalent to the total complex of the normalized bicomplex,
    so this is still H_1 of the diagonal.  Total degree <= 2 needs only the
    objects of S_1, the grids of S_2 and the weak equivalences of S_1;
    STRING_CAP bounds the last.  The faces of S_2 are taken by
    reindexing grids, not by reading their slots, so agreement with
    ``grothendieck_k0`` checks the S_. face maps; in these degrees the
    relations coincide with the presentation's by theory, so it does not
    check the theorem.  ``nerve.k0_via_diagonal`` builds the diagonal itself.
    """
    return _total_complex_relations(C)[3].group


# ---------------------------------------------------------------------------
# the Grothendieck-presentation oracle
# ---------------------------------------------------------------------------


class K0Presentation(Value):
    """K_0 presented on the nonzero objects, reduced by Smith normal form.

    Relations: [a] = [b] for every flagged weak equivalence a -> b, and
    [X(0,2)] = [X(0,1)] + [X(1,2)] for every flag grid on [2] x [2].
    """

    _fields = ("category", "generators", "relations")
    __hash__ = None

    def __init__(
        self, category: WCategory, generators: tuple, relations: tuple, homology: HomologyData
    ) -> None:
        self.category = category
        self.generators = generators
        self.relations = relations
        self.homology = homology

    @property
    def group(self) -> FPAbelianGroup:
        return self.homology.group

    def class_vector(self, a: int) -> tuple:
        """The presentation vector of a single object's class."""
        vec = [0] * len(self.generators)
        if a != self.category.zero_index():
            vec[self.generators.index(a)] = 1
        return tuple(vec)


def k0_presentation(C: WCategory) -> K0Presentation:
    gens, row = _generators(C)
    objects = range(C.object_count())
    weqs = (((a, 1), (b, -1)) for a in objects for b in objects for _m in C.weq_ids(a, b))
    grids = (((e[0][2], 1), (e[0][1], -1), (e[1][2], -1)) for e, _h, _v in _enumerate_s_payloads(C, 2))
    # each relation is given by its (object, sign) terms
    cols, hd = relation_cokernel(len(gens), basis_map_columns(ZZ, chain(weqs, grids), 1, lambda x, _: x, row))
    return K0Presentation(C, gens, cols, hd)


def grothendieck_k0(C: WCategory) -> FPAbelianGroup:
    """K_0 from the object-and-relation presentation; the independent oracle."""
    return k0_presentation(C).group

# ---------------------------------------------------------------------------
# the k0 command
# ---------------------------------------------------------------------------


def k0_command(config, C: WCategory) -> tuple[bool, str]:
    """``chaintrace k0``: K_0 from the presentation and from the total
    complex, and whether they agree."""
    from .formats import emit, group_json

    via_pres = grothendieck_k0(C)
    via_sdot = k0_via_sdot(C)
    agree = via_pres == via_sdot
    lines = [
        f"category {C.name}: {C.object_count()} objects, bound {C.bound}",
        f"K0 via Grothendieck presentation: {via_pres}",
        f"K0 via w.S-construction diagonal: {via_sdot}",
        f"verdict: {'AGREE' if agree else 'DISAGREE'}",
    ]
    result = {
        "category": C.name,
        "objects": C.object_count(),
        "bound": C.bound,
        "grothendieck": group_json(via_pres),
        "sdot": group_json(via_sdot),
        "agree": agree,
    }
    return True, emit(config, lines, result)
