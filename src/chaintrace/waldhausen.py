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
* ``k0_via_diagonal``: H_1 of the diagonal simplicial set
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

Every simplicial set of weak-equivalence strings (``weq_nerve``, the
diagonal ``ws_diagonal``, and the entries of ``sigma_delta``'s diagrams)
is built by ``PointedSimplicialSet.tabulate`` from the one pair of string
operators here, composed with ``reindex_functor`` (through ``map_string``)
where a direction of flags is restricted.

The endomorphism category End(C) and the retract check K_0(C) ->
K_0(End C) -> K_0(C) built on ``k0_presentation`` live in chaintrace.endo,
which no ``k0`` job loads.
"""

from __future__ import annotations

from itertools import chain, product

from .chain import ChainComplex, FPAbelianGroup, HomologyData, basis_map_columns, homology
from .errors import CapExceededError, InternalInvariantError, ValidationError
from .linalg import SparseMap
from .rings import ZZ
from .validation import ValidationReport
from .values import Value
from .wcat import WCategory

__all__ = [
    "DEFAULT_K_CAP",
    "STRING_CAP",
    "S_OBJECT_CAP",
    "s_k_objects",
    "validate_s_object",
    "SCategory",
    "payload_functor",
    "reindex_functor",
    "PointedSimplicialSet",
    "map_string",
    "weq_nerve",
    "ws_diagonal",
    "k0_via_sdot",
    "k0_via_diagonal",
    "K0Presentation",
    "k0_presentation",
    "grothendieck_k0",
]

# Each cap below is read where it is enforced; none is a parameter.
# Flag grids are enumerated exhaustively, so the column count k is capped.
DEFAULT_K_CAP = 3
# Largest set of weak-equivalence strings materialized at one level: a
# level of ws_diagonal or weq_nerve, or w_1 S_1 in k0_via_sdot.
STRING_CAP = 200_000
# Largest grid count s_k_objects will enumerate.
S_OBJECT_CAP = 200_000
# ws_diagonal tabulates levels 0..DIAGONAL_TOP, the levels K_0 = H_1 reads.
DIAGONAL_TOP = 2


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


def _s_payload_issues(base: WCategory, payload: tuple, skip_built_triples: bool) -> list:
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


def validate_s_object(base: WCategory, payload: tuple) -> ValidationReport:
    """Check every grid axiom of a grid payload over ``base``, including all pushout triples."""
    report = ValidationReport(subject=f"flag grid over {base.name}")
    issues = _s_payload_issues(base, payload, skip_built_triples=False)
    n = len(payload[0])
    k = n - 1
    triples = sum(1 for i in range(n) for j in range(i + 1, n) for _ in range(j + 1, n))
    report.checks_run += n * n + 2 * n * k + k * k + triples
    for msg in issues:
        report.record(msg)
    return report


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
            issues = _s_payload_issues(base, payload, skip_built_triples=True)
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

        pick(0)
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


def _delta(i: int, k: int) -> tuple:
    """The injection 0..k-1 -> 0..k skipping i."""
    return tuple(t for t in range(k + 1) if t != i)


def _sigma(i: int, k: int) -> tuple:
    """The surjection 0..k+1 -> 0..k repeating i."""
    return tuple(t if t <= i else t - 1 for t in range(k + 2))


# ---------------------------------------------------------------------------
# simplicial sets of weak-equivalence strings, and K_0
# ---------------------------------------------------------------------------


class PointedSimplicialSet(Value):
    """A levelwise-finite pointed simplicial set truncated at a top level.

    ``levels[n]`` lists the n-simplices with the basepoint at index 0, and
    ``index(n, x)`` is the position of x in ``levels[n]``.  In a nerve
    (``weq_nerve``, ``ws_diagonal``) an n-simplex is the flat tuple
    (x0, g_1, ..., g_n) of a start object and n composable weak
    equivalences, so a whole string is one tuple of handles.  ``faces[n][i]``
    (for n >= 1) and ``degens[n][i]`` (for n < top) are index maps; the
    simplicial identities are checked on the stored range by ``validate``.

    No element-to-position lookup is kept: ``tabulate`` builds one per
    level while it fills the tables, and ``index_table`` one per call.
    """

    _fields = ("name", "levels", "faces", "degens")
    __hash__ = None

    def __init__(self, name: str, levels: tuple, faces: tuple, degens: tuple) -> None:
        self.name = name
        self.levels = levels
        self.faces = faces
        self.degens = degens

    @classmethod
    def tabulate(cls, name: str, levels, face, degeneracy) -> PointedSimplicialSet:
        """The set on ``levels`` with operators given element by element.

        ``face(n, i)`` returns d_i as a map from elements of level n to
        elements of level n-1, and ``degeneracy(n, i)`` returns s_i from
        level n to level n+1; both are read off into index tables.
        """
        levels = tuple(tuple(level) for level in levels)
        top = len(levels) - 1
        into = [_positions(level) for level in levels]
        faces = ((),) + tuple(
            tuple(_index_table(into[n - 1], map(face(n, i), levels[n])) for i in range(n + 1))
            for n in range(1, top + 1)
        )
        degens = tuple(
            tuple(_index_table(into[n + 1], map(degeneracy(n, i), levels[n])) for i in range(n + 1))
            for n in range(top)
        ) + ((),)
        return cls(name, levels, faces, degens)

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

    def index(self, n: int, x) -> int:
        """The position of x in ``levels[n]``, found by a scan of the level."""
        return self.levels[n].index(x)

    def index_table(self, n: int, xs) -> tuple:
        """The positions in ``levels[n]`` of the elements xs, in order,
        through a lookup of the level built for this call."""
        return _index_table(_positions(self.levels[n]), xs)

    def face(self, n: int, i: int, x: int) -> int:
        return self.faces[n][i][x]

    def degeneracy(self, n: int, i: int, x: int) -> int:
        return self.degens[n][i][x]

    def validate(self) -> ValidationReport:
        """Check the basepoint and the simplicial identities on every element.

        Each identity compares two composites of index tables on every
        element x of its level, one check per x.
        """
        report = ValidationReport(subject=f"pointed simplicial set {self.name}")
        top, faces, degens = self.top_level, self.faces, self.degens
        for n in range(1, top + 1):
            for i in range(n + 1):
                report.checks_run += 1
                if faces[n][i][0] != 0:
                    report.record(f"face d_{i} at level {n} moves the basepoint")
        for n in range(top):
            for i in range(n + 1):
                report.checks_run += 1
                if degens[n][i][0] != 0:
                    report.record(f"degeneracy s_{i} at level {n} moves the basepoint")

        def compare(n: int, lhs: tuple, rhs: tuple, name: str) -> None:
            # lhs and rhs are (second, first) table pairs applied to level n
            (a, b), (c, d) = lhs, rhs
            report.checks_run += len(self.levels[n])
            for x, (bx, dx) in enumerate(zip(b, d)):
                if a[bx] != c[dx]:
                    report.record(f"{name} failed at level {n} on element {x}")

        for n in range(2, top + 1):
            for j in range(n + 1):
                for i in range(j):
                    compare(
                        n, (faces[n - 1][i], faces[n][j]), (faces[n - 1][j - 1], faces[n][i]), f"d_{i} d_{j}"
                    )
        for n in range(top - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    compare(
                        n,
                        (degens[n + 1][i], degens[n][j]),
                        (degens[n + 1][j + 1], degens[n][i]),
                        f"s_{i} s_{j}",
                    )
        for n in range(top):
            ident = range(len(self.levels[n]))
            for j in range(n + 1):
                for i in range(n + 2):
                    if i < j:
                        rhs = (degens[n - 1][j - 1], faces[n][i])
                    elif i > j + 1:
                        rhs = (degens[n - 1][j], faces[n][i - 1])
                    else:
                        rhs = (ident, ident)
                    compare(n, (faces[n + 1][i], degens[n][j]), rhs, f"d_{i} s_{j}")
        return report


# One int object per position, shared by every index table, so a table of
# 15,663 positions does not hold 15,663 ints of its own (28 bytes each).
# Ints are immutable, so sharing them changes no result; the list grows to
# the longest level tabulated in the process.
_POSITION_INTS: list = []


def _positions(level: tuple) -> dict:
    """Element -> position in ``level``, the positions from _POSITION_INTS."""
    if len(_POSITION_INTS) < len(level):
        _POSITION_INTS.extend(range(len(_POSITION_INTS), len(level)))
    return dict(zip(level, _POSITION_INTS))


def _index_table(into: dict, xs) -> tuple:
    """The positions ``into`` gives the elements xs, in order."""
    return tuple(map(into.__getitem__, xs))


def _weq_strings(C: WCategory, length: int, too_many: str) -> list:
    """Strings of ``length`` composable weak equivalences of C.

    Each string is one flat tuple (x0, g_1, ..., g_length): its start
    object followed by its maps in order.  The basepoint, the identity
    string (z, id_z, ..., id_z) on the zero object z, comes first; the rest
    follow depth first over target objects and weak-equivalence sets.
    Raises CapExceededError with the message ``too_many`` once the list
    holds more than STRING_CAP strings.
    """
    bp = (C.zero_index(),) + (C.identity_id(C.zero_index()),) * length
    elts = [bp]

    def extend(prefix: tuple, src: int):
        if len(prefix) > length:
            # distinct paths give distinct strings; only bp comes up twice
            if prefix != bp:
                elts.append(prefix)
            if len(elts) > STRING_CAP:
                raise CapExceededError(too_many)
            return
        for b in range(C.object_count()):
            for g in C.weq_ids(src, b):
                extend(prefix + (g,), b)

    for x0 in range(C.object_count()):
        extend((x0,), x0)
    return elts


def _string_face(C: WCategory, s: tuple, i: int, compose) -> tuple:
    """The nerve face d_i of the flat string s = (x0, g_1, ..., g_n) of C.

    d_0 drops g_1 and starts at its target, d_n drops g_n, and any other
    d_i composes g_{i+1} after g_i with ``compose``; the result is again a
    flat string.
    """
    if i == 0:
        return (C.mor_target(s[1]),) + s[2:]
    if i == len(s) - 1:
        return s[:-1]
    return s[:i] + (compose(s[i + 1], s[i]),) + s[i + 2 :]


def _string_degeneracy(C: WCategory, s: tuple, i: int) -> tuple:
    """The nerve degeneracy s_i of the flat string s of C: an identity
    inserted as map i + 1, on the object where map i ends (x0 for i = 0)."""
    mid = s[0] if i == 0 else C.mor_target(s[i])
    return s[: i + 1] + (C.identity_id(mid),) + s[i + 1 :]


def map_string(functor: tuple, s: tuple) -> tuple:
    """Image of the flat string s = (x0, g_1, ..., g_n) under an (object
    map, morphism map) pair: (obj(x0), mor(g_1), ..., mor(g_n))."""
    obj, mor = functor
    return (obj(s[0]), *map(mor, s[1:]))


def weq_nerve(C: WCategory, w_max: int) -> PointedSimplicialSet:
    """The nerve of the weak equivalences of C, truncated at level w_max.

    Level l lists the strings of l composable weak equivalences, each the
    flat tuple (x0, g_1, ..., g_l) of its start object and its maps; the
    basepoint (z, id_z, ..., id_z) on the zero object z is at index 0.
    Faces drop or compose, degeneracies insert identities.  A face composes
    through ``composite_id``, outside C's composition memo: below level 3
    the strings of a level ask for distinct composites, so a memo would
    never hit.
    """
    compose = C.composite_id
    levels = [
        _weq_strings(C, l, f"nerve level {l} of {C.name} exceeds {STRING_CAP} strings")
        for l in range(w_max + 1)
    ]
    return PointedSimplicialSet.tabulate(
        f"w-nerve({C.name})",
        levels,
        lambda n, i: lambda s: _string_face(C, s, i, compose),
        lambda n, i: lambda s: _string_degeneracy(C, s, i),
    )


def ws_diagonal(C: WCategory) -> PointedSimplicialSet:
    """The diagonal n |-> w_n S_n C of the bisimplicial set (p, q) |-> w_q S_p C.

    Truncated at DIAGONAL_TOP.  Level n holds the strings of n composable weak
    equivalences of flag grids on [n] x [n], each the flat tuple
    (x0, g_1, ..., g_n) of grid and map handles of S_n C; the basepoint is
    the identity string on the zero grid.  The face d_i is d_i^v o d_i^h:
    the horizontal face d_i^h restricts every grid and map of the string
    along the coface [n-1] -> [n] that skips i, landing in w_n S_{n-1} C,
    and the vertical face d_i^v is the nerve face of w S_{n-1} C.  Likewise
    s_i restricts along the codegeneracy [n+1] -> [n] that repeats i and
    then inserts an identity.  A face composes through the memo of S_{n-1} C,
    which lives only while the diagonal is built: restricted strings ask
    for few composites many times (the 15,663 strings of level 2 over
    vect_gf(2,2) for 38).
    """
    scats = [SCategory(C, n) for n in range(DIAGONAL_TOP + 1)]
    levels = [
        _weq_strings(S, n, f"level {n} of the diagonal of {C.name} exceeds {STRING_CAP} strings")
        for n, S in enumerate(scats)
    ]

    def face(n: int, i: int):
        F, S = reindex_functor(scats[n], scats[n - 1], _delta(i, n)), scats[n - 1]
        return lambda s: _string_face(S, map_string(F, s), i, S.compose_ids)

    def degeneracy(n: int, i: int):
        F, S = reindex_functor(scats[n], scats[n + 1], _sigma(i, n)), scats[n + 1]
        return lambda s: _string_degeneracy(S, map_string(F, s), i)

    return PointedSimplicialSet.tabulate(f"diag wS({C.name})", levels, face, degeneracy)


def _generators(C: WCategory) -> tuple:
    """The nonzero objects of C, and their row lookup, which gives None for
    the zero object."""
    z = C.zero_index()
    gens = tuple(a for a in range(C.object_count()) if a != z)
    return gens, {a: t for t, a in enumerate(gens)}.get


def _relation_cokernel(nrows: int, columns) -> tuple:
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
    mat = SparseMap.from_col_dicts(ZZ, nrows, [dict(c) for c in cols])
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
    Degenerate simplices give empty columns, which ``_relation_cokernel``
    drops with the duplicates.
    """
    if SCategory(C, 0).object_count() != 1:
        raise InternalInvariantError("S_0 of the flag construction is not a single point")
    S1, S2 = SCategory(C, 1), SCategory(C, 2)
    gens, row = _generators(S1)
    faces = [reindex_functor(S2, S1, _delta(i, 2))[0] for i in range(3)]
    weqs = _weq_strings(S1, 1, f"w_1 S_1 of {C.name} exceeds {STRING_CAP} strings")
    grids = basis_map_columns(ZZ, range(S2.object_count()), 3, lambda x, i: ((faces[i](x), 1),), row)
    vertical = (((S1.mor_target(g), -1), (a, 1)) for a, g in weqs[1:])
    cols, hd = _relation_cokernel(len(gens), chain(grids, basis_map_columns(ZZ, vertical, 1, lambda x, _: x, row)))
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
    check the theorem.  ``k0_via_diagonal`` builds the diagonal itself.
    """
    return _total_complex_relations(C)[3].group


def k0_via_diagonal(C: WCategory) -> FPAbelianGroup:
    """K_0 as H_1 of the diagonal of the flag construction, built level by level.

    The level-0 set is a single point, so the reduced complex has zero
    differential out of degree 1 and K_0 is the cokernel of the degree-2
    boundary on the nondegenerate 2-simplices, computed by integer Smith
    normal form: ``chain.basis_map_columns`` of the face tables, with no
    row for the base point.  Duplicate boundary columns are collapsed
    first.  Level 2 holds every pair of composable weak equivalences of
    S_2, so this is the oracle for ``k0_via_sdot`` on small families.
    """
    X = ws_diagonal(C)
    if len(X.levels[0]) != 1:
        raise InternalInvariantError("level 0 of the diagonal is not a single point")
    degenerate = set(X.degens[1][0]) | set(X.degens[1][1])
    faces = X.faces[2]
    nondegenerate = (x for x in range(1, len(X.levels[2])) if x not in degenerate)
    boundary = basis_map_columns(
        ZZ, nondegenerate, 3, lambda x, i: ((faces[i][x], 1),), lambda y: y - 1 if y else None
    )
    return _relation_cokernel(len(X.levels[1]) - 1, boundary)[1].group


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
    cols, hd = _relation_cokernel(len(gens), basis_map_columns(ZZ, chain(weqs, grids), 1, lambda x, _: x, row))
    return K0Presentation(C, gens, cols, hd)


def grothendieck_k0(C: WCategory) -> FPAbelianGroup:
    """K_0 from the object-and-relation presentation; the independent oracle."""
    return k0_presentation(C).group
