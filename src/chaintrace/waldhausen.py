"""Flag-grid combinatorics and K_0 for bounded Waldhausen categories.

The flag category S_k over a base category C has as objects staircase
grids on [k] x [k]: entries X(i,j) that are zero for i >= j, horizontal
cofibrations X(i,j) >-> X(i,j+1) above the diagonal, and for every
i < j < l a pushout square expressing X(j,l) as the quotient
X(i,l)/X(i,j).  Equivalently an object is a chain of cofibrations
0 >-> X(0,1) >-> ... >-> X(0,k) together with compatible choices of all
subquotients.  This module enumerates those grids over a bounded base,
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

Every simplicial set of weak-equivalence strings (``weq_nerve``, the
diagonal ``ws_diagonal``, and the entries of ``sigma_delta``'s diagrams)
is built by ``PointedSimplicialSet.tabulate`` from the one pair of string
operators here, composed with the memoized ``reindex_functor`` where a
direction of flags is restricted.
"""

from __future__ import annotations

from itertools import product

from .chain import ChainComplex, FPAbelianGroup, HomologyData, homology
from .errors import CapExceededError, InternalInvariantError, ValidationError
from .linalg import SparseMap
from .rings import ZZ
from .validation import ValidationReport
from .values import Value
from .wcat import ExactFunctor, WCategory, end_category

__all__ = [
    "DEFAULT_K_CAP",
    "STRING_CAP",
    "S_OBJECT_CAP",
    "SObject",
    "s_k_objects",
    "validate_s_object",
    "SCategory",
    "reindex_s_object",
    "reindex_s_morphism",
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
    "k0_retract_holds",
]

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


class SObject(Value):
    """A staircase grid of cofibrations and chosen quotients over a base.

    ``entries[i*(k+1)+j]`` is the object index at position (i, j);
    ``horizontal[i*k+j]`` the morphism handle X(i,j) -> X(i,j+1);
    ``vertical[i*(k+1)+j]`` the handle X(i,j) -> X(i+1,j).  Handles refer
    to the base category the grid was enumerated over.
    """

    __slots__ = ("k", "entries", "horizontal", "vertical")
    _fields = __slots__

    def __init__(self, k: int, entries: tuple, horizontal: tuple, vertical: tuple) -> None:
        self.k = k
        self.entries = entries
        self.horizontal = horizontal
        self.vertical = vertical

    @property
    def payload(self) -> tuple:
        return (self.entries, self.horizontal, self.vertical)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * (self.k + 1) + j]

    def horizontal_arrow(self, i: int, j: int) -> int:
        """Handle of X(i,j) -> X(i,j+1); needs 0 <= j <= k-1."""
        return self.horizontal[i * self.k + j]

    def vertical_arrow(self, i: int, j: int) -> int:
        """Handle of X(i,j) -> X(i+1,j); needs 0 <= i <= k-1."""
        return self.vertical[i * (self.k + 1) + j]


def _hcomp(base: WCategory, k: int, payload: tuple, i: int, j1: int, j2: int) -> int:
    """Composite X(i,j1) -> X(i,j2) along row i; identity when j1 == j2."""
    entries, harr, _ = payload
    m = base.identity_id(entries[i * (k + 1) + j1])
    for j in range(j1, j2):
        m = base.compose_ids(harr[i * k + j], m)
    return m


def _vcomp(base: WCategory, k: int, payload: tuple, i1: int, i2: int, j: int) -> int:
    """Composite X(i1,j) -> X(i2,j) down column j; identity when i1 == i2."""
    entries, _, varr = payload
    m = base.identity_id(entries[i1 * (k + 1) + j])
    for i in range(i1, i2):
        m = base.compose_ids(varr[i * (k + 1) + j], m)
    return m


def _s_payload_issues(base: WCategory, k: int, payload: tuple, skip_built_triples: bool) -> list:
    """Violations of the grid axioms, as strings.

    ``skip_built_triples`` omits the pushout check for triples (j-1, j, l),
    which hold by construction when the grid came out of the enumerator.
    """
    n = k + 1
    entries, harr, varr = payload
    z = base.zero_index()
    issues = []
    for i in range(n):
        for j in range(n):
            if i >= j and entries[i * n + j] != z:
                issues.append(f"entry ({i},{j}) must be the zero object")
    if issues:
        return issues
    for i in range(n):
        for j in range(k):
            m = harr[i * k + j]
            if base.mor_source(m) != entries[i * n + j] or base.mor_target(m) != entries[i * n + j + 1]:
                issues.append(f"horizontal arrow ({i},{j}) has wrong endpoints")
            elif j >= i and not base.is_cofibration_id(m):
                issues.append(f"horizontal arrow ({i},{j}) is not a cofibration")
    for i in range(k):
        for j in range(n):
            m = varr[i * n + j]
            if base.mor_source(m) != entries[i * n + j] or base.mor_target(m) != entries[(i + 1) * n + j]:
                issues.append(f"vertical arrow ({i},{j}) has wrong endpoints")
    if issues:
        return issues
    for i in range(k):
        for j in range(k):
            lhs = base.compose_ids(varr[i * n + j + 1], harr[i * k + j])
            rhs = base.compose_ids(harr[(i + 1) * k + j], varr[i * n + j])
            if lhs != rhs:
                issues.append(f"square at ({i},{j}) does not commute")
    if issues:
        return issues
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            for l in range(j + 1, k + 1):
                if skip_built_triples and j == i + 1:
                    continue
                top = _hcomp(base, k, payload, i, j, l)
                (to_zero,) = base.hom_ids(entries[i * n + j], z)
                u = _vcomp(base, k, payload, i, j, l)
                (v,) = base.hom_ids(z, entries[j * n + l])
                if not base.is_pushout(top, to_zero, entries[j * n + l], u, v):
                    issues.append(f"triple ({i},{j},{l}) is not a pushout square")
    return issues


def validate_s_object(base: WCategory, obj: SObject) -> ValidationReport:
    """Check every grid axiom of ``obj`` over ``base``, including all pushout triples."""
    report = ValidationReport(subject=f"flag grid over {base.name}")
    issues = _s_payload_issues(base, obj.k, obj.payload, skip_built_triples=False)
    n = obj.k + 1
    triples = sum(1 for i in range(n) for j in range(i + 1, n) for _ in range(j + 1, n))
    report.checks_run += n * n + 2 * n * obj.k + obj.k * obj.k + triples
    for msg in issues:
        report.record(msg)
    return report


def _enumerate_s_payloads(base: WCategory, k: int, cap: int = S_OBJECT_CAP) -> list:
    """All valid grid payloads over the base, sorted; complete within the bound.

    Rows are built downward: the top row ranges over cofibration chains
    from zero, and row j is assembled from every quotient datum of
    X(j-1,j) >-> X(j-1,l) (any two pushouts of one cospan are uniquely
    isomorphic, so the isomorphism orbit of the canonical witness is the
    complete candidate set).  Horizontal arrows of the new row are the
    unique mediating maps, so the grid axioms for triples (j-1, j, l)
    hold by construction; the remaining triples are checked afterwards.

    The list is memoized on the base, so the presentation and the total
    complex read one enumeration; a refusal is not cached and is raised
    again on every call.
    """
    got = base._s_payload_cache.get((k, cap))
    if got is None:
        got = base._s_payload_cache[(k, cap)] = _build_s_payloads(base, k, cap)
    return got


def _build_s_payloads(base: WCategory, k: int, cap: int) -> list:
    z = base.zero_index()
    idz = base.identity_id(z)
    n = k + 1
    if k == 0:
        return [((z,) * 1, (), ())]

    chains = [((z,), ())]
    for _ in range(k):
        nxt = []
        for objs, arrows in chains:
            for m in base.cofibs_from(objs[-1]):
                nxt.append((objs + (base.mor_target(m),), arrows + (m,)))
        chains = nxt
        if len(chains) > cap:
            raise CapExceededError(f"more than {cap} cofibration chains of length {k}")

    out = []
    for top_objs, top_arrows in chains:
        # grids[t] = (rows, hrows, vrows): lists of row tuples built so far
        grids = [((top_objs,), (top_arrows,), ())]
        for j in range(1, n):
            nxt = []
            for rows, hrows, vrows in grids:
                prev = rows[j - 1]
                prev_h = hrows[j - 1]
                prev_pay = (prev, prev_h, ())
                cand_sets = []
                for l in range(j + 1, n):
                    i_comp = _hcomp(base, k, prev_pay, 0, j, l)
                    cand_sets.append(base.cokernel_candidates(i_comp))
                for combo in product(*cand_sets):
                    row = [z] * n
                    vrow = [idz] * j + [base.hom_ids(prev[j], z)[0]]
                    hrow = [idz] * min(j, k)
                    ok = True
                    for t, (d, u, _v) in enumerate(combo):
                        row[j + 1 + t] = d
                        vrow.append(u)
                    if j < n - 1:
                        hrow.append(base.hom_ids(z, row[j + 1])[0])
                    for l in range(j + 1, n - 1):
                        d_l, u_l, v_l = combo[l - j - 1]
                        p = base.compose_ids(combo[l - j][1], prev_h[l])
                        (q,) = base.hom_ids(z, row[l + 1])
                        meds = base.mediating_ids(u_l, v_l, p, q)
                        if len(meds) != 1:
                            raise InternalInvariantError(
                                "quotient row admits no unique induced arrow; "
                                "is the base category valid?"
                            )
                        if not base.is_cofibration_id(meds[0]):
                            ok = False
                            break
                        hrow.append(meds[0])
                    if ok:
                        nxt.append(
                            (rows + (tuple(row),), hrows + (tuple(hrow),), vrows + (tuple(vrow),))
                        )
            grids = nxt
            if len(grids) > cap:
                raise CapExceededError(f"more than {cap} flag grids over {base.name}")

        for rows, hrows, vrows in grids:
            payload = (
                tuple(x for row in rows for x in row),
                tuple(x for row in hrows for x in row),
                tuple(x for row in vrows for x in row),
            )
            issues = _s_payload_issues(base, k, payload, skip_built_triples=True)
            if issues:
                raise InternalInvariantError(
                    f"assembled grid violates '{issues[0]}'; is the base category valid?"
                )
            out.append(payload)
    out.sort()
    if len(out) > cap:
        raise CapExceededError(f"more than {cap} flag grids over {base.name}")
    return out


def s_k_objects(C: WCategory, k: int, k_cap: int = DEFAULT_K_CAP) -> list:
    """Every flag grid on [k] x [k] over C, validated, in canonical order."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if k > k_cap:
        raise CapExceededError(f"k = {k} exceeds the flag-grid cap {k_cap}")
    combo = _enumerate_s_payloads(C, k)
    return [SObject(k, *payload) for payload in combo]


# ---------------------------------------------------------------------------
# the flag category S_k C
# ---------------------------------------------------------------------------


class SCategory(WCategory):
    """S_k over a bounded base, as a bounded category in its own right.

    Objects are the enumerated flag grids; morphisms are natural maps
    stored as component tuples over the strictly-upper slots (i < j) in
    row-major order (components at zero slots are forced).  Weak
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

    def __init__(self, base: WCategory, k: int, k_cap: int = DEFAULT_K_CAP):
        if k > k_cap:
            raise CapExceededError(f"k = {k} exceeds the flag-grid cap {k_cap}")
        self.base = base
        self.k = k
        self._slots = tuple(
            (i, j) for i in range(k + 1) for j in range(k + 1) if i < j
        )
        self._slot_pos = {s: t for t, s in enumerate(self._slots)}
        self._grid_payloads = _enumerate_s_payloads(base, k)
        super().__init__(f"S_{k}({base.name})", base.bound)

    # -- hooks ---------------------------------------------------------------

    def _objects(self):
        return self._grid_payloads

    def _object_size(self, payload) -> int:
        entries = payload[0]
        return max(self.base.object_size(e) for e in entries)

    def _zero_payload(self):
        z = self.base.zero_index()
        idz = self.base.identity_id(z)
        n = self.k + 1
        return ((z,) * (n * n), (idz,) * (n * self.k), (idz,) * (self.k * n))

    def slot_entry(self, a: int, i: int, j: int) -> int:
        """Base object index at grid position (i, j) of object a."""
        return self._obj_payloads[a][0][i * (self.k + 1) + j]

    def slot_component(self, m: int, i: int, j: int) -> int:
        """Base component of morphism m at slot (i, j), which must have i < j."""
        return self._mor_payload[m][self._slot_pos[(i, j)]]

    def s_object(self, a: int) -> SObject:
        return SObject(self.k, *self._obj_payloads[a])

    def _nat_search(self, Xp, Yp, weq_only: bool) -> list:
        base, k, n = self.base, self.k, self.k + 1
        Xe, Xh, Xv = Xp
        Ye, Yh, Yv = Yp
        slot_pos = self._slot_pos
        # per slot: its endpoints and, for each square closing there, the
        # earlier slot, the arrow of X into this slot and the arrow of Y
        plan = []
        for i, j in self._slots:
            left = (slot_pos[(i, j - 1)], Xh[i * k + j - 1], Yh[i * k + j - 1]) if i < j - 1 else None
            up = (slot_pos[(i - 1, j)], Xv[(i - 1) * n + j], Yv[(i - 1) * n + j]) if i >= 1 else None
            plan.append((Xe[i * n + j], Ye[i * n + j], left, up))
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
        base = self.base
        return tuple(base.compose_ids(g, f) for g, f in zip(g_payload, f_payload))

    def _identity(self, a_payload):
        base, n = self.base, self.k + 1
        entries = a_payload[0]
        return tuple(base.identity_id(entries[i * n + j]) for i, j in self._slots)

    def _is_weq(self, payload, a: int, b: int) -> bool:
        return all(self.base.is_weq_id(c) for c in payload)

    def _is_cofibration(self, payload, a: int, b: int) -> bool:
        base = self.base
        if not all(base.is_cofibration_id(c) for c in payload):
            return False
        if self.k < 2:
            return True
        Xp = self._obj_payloads[a]
        Yp = self._obj_payloads[b]
        n = self.k + 1
        for j in range(2, self.k + 1):
            i_h = Xp[1][0 * self.k + j - 1]
            alpha_prev = payload[self._slot_pos[(0, j - 1)]]
            w = base.pushout_witness(i_h, alpha_prev)
            if w is None:
                return False
            _d, u, v = w
            alpha_j = payload[self._slot_pos[(0, j)]]
            meds = base.mediating_ids(u, v, alpha_j, Yp[1][0 * self.k + j - 1])
            if len(meds) != 1:
                raise InternalInvariantError(
                    "top-row comparison map is not unique; is the base category valid?"
                )
            if not base.is_cofibration_id(meds[0]):
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

        entries = tuple(slot_obj(si, sj) for si in range(n) for sj in range(n))

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
            meds = base.mediating_ids(slot_u[src_slot], slot_v[src_slot], p, q)
            if len(meds) != 1:
                raise InternalInvariantError(
                    "pushout grid admits no unique induced arrow; "
                    "is the base category valid?"
                )
            return meds[0]

        harr = tuple(
            induced((si, sj), (si, sj + 1), Bp[1][si * k + sj], Cp[1][si * k + sj])
            for si in range(n)
            for sj in range(k)
        )
        varr = tuple(
            induced((si, sj), (si + 1, sj), Bp[2][si * n + sj], Cp[2][si * n + sj])
            for si in range(k)
            for sj in range(n)
        )
        d_payload = (entries, harr, varr)
        if d_payload not in self._obj_index:
            raise InternalInvariantError(
                "levelwise pushout grid is not an enumerated flag grid; "
                "is the base category valid?"
            )
        return self._witness(
            i,
            f,
            d_payload,
            tuple(slot_u[s] for s in self._slots),
            tuple(slot_v[s] for s in self._slots),
        )


# ---------------------------------------------------------------------------
# reindexing along monotone maps
# ---------------------------------------------------------------------------


def reindex_s_object(src: SCategory, dst: SCategory, alpha: tuple, a: int) -> int:
    """Object of dst obtained by restricting grid ``a`` along a monotone map.

    ``alpha`` maps 0..dst.k into 0..src.k monotonically; the new grid has
    entry (i, j) equal to the old entry (alpha[i], alpha[j]), with arrows
    the evident row and column composites.  Raises when the result is not
    an enumerated grid, which cannot happen over a valid base because
    reindexing never grows entry sizes.
    """
    base = src.base
    k1, k2 = src.k, dst.k
    n1, n2 = k1 + 1, k2 + 1
    pay = src.object_payload(a)
    entries = tuple(
        pay[0][alpha[i] * n1 + alpha[j]] for i in range(n2) for j in range(n2)
    )
    harr = tuple(
        _hcomp(base, k1, pay, alpha[i], alpha[j], alpha[j + 1])
        for i in range(n2)
        for j in range(k2)
    )
    varr = tuple(
        _vcomp(base, k1, pay, alpha[i], alpha[i + 1], alpha[j])
        for i in range(k2)
        for j in range(n2)
    )
    payload = (entries, harr, varr)
    if payload not in dst._obj_index:
        raise InternalInvariantError(
            f"reindexed grid escaped the enumeration of {dst.name}"
        )
    return dst._obj_index[payload]


def reindex_s_morphism(
    src: SCategory, dst: SCategory, alpha: tuple, m: int, a2: int, b2: int
) -> int:
    """Morphism of dst obtained by restricting ``m`` along a monotone map.

    ``a2`` and ``b2`` are the already-reindexed endpoints.
    """
    base = src.base
    n1 = src.k + 1
    z = base.zero_index()
    idz = base.identity_id(z)
    pay = src.mor_payload(m)
    comps = []
    for i, j in dst._slots:
        si, sj = alpha[i], alpha[j]
        comps.append(idz if si >= sj else pay[src._slot_pos[(si, sj)]])
    return dst.intern_morphism(tuple(comps), a2, b2)


def _memo1(fn):
    """``fn`` with its results cached by argument."""
    cache: dict = {}

    def wrapped(x):
        got = cache.get(x)
        if got is None:
            got = fn(x)
            cache[x] = got
        return got

    return wrapped


def reindex_functor(src: SCategory, dst: SCategory, alpha: tuple) -> tuple:
    """Restriction along ``alpha`` as a memoized (object map, morphism map) pair."""
    obj = _memo1(lambda a: reindex_s_object(src, dst, alpha, a))

    def mor_fn(m: int) -> int:
        return reindex_s_morphism(
            src, dst, alpha, m, obj(src.mor_source(m)), obj(src.mor_target(m))
        )

    return obj, _memo1(mor_fn)


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
    ``index(n, x)`` is the position of x in ``levels[n]``.  ``faces[n][i]``
    (for n >= 1) and ``degens[n][i]`` (for n < top) are index maps; the
    simplicial identities are checked on the stored range by ``validate``.
    """

    _fields = ("name", "levels", "faces", "degens")
    __hash__ = None

    def __init__(self, name: str, levels: tuple, faces: tuple, degens: tuple) -> None:
        self.name = name
        self.levels = levels
        self.faces = faces
        self.degens = degens
        self._index = tuple({x: t for t, x in enumerate(level)} for level in levels)

    @classmethod
    def tabulate(cls, name: str, levels, face, degeneracy) -> PointedSimplicialSet:
        """The set on ``levels`` with operators given element by element.

        ``face(n, i)`` returns d_i as a map from elements of level n to
        elements of level n-1, and ``degeneracy(n, i)`` returns s_i from
        level n to level n+1; both are read off into index tables.
        """
        X = cls(name, tuple(tuple(level) for level in levels), (), ())

        def table(op, n: int, target: int) -> tuple:
            into = X._index[target]
            return tuple([into[op(x)] for x in X.levels[n]])

        top = X.top_level
        X.faces = ((),) + tuple(
            tuple(table(face(n, i), n, n - 1) for i in range(n + 1)) for n in range(1, top + 1)
        )
        X.degens = tuple(
            tuple(table(degeneracy(n, i), n, n + 1) for i in range(n + 1)) for n in range(top)
        ) + ((),)
        return X

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

    def index(self, n: int, x) -> int:
        return self._index[n][x]

    def face(self, n: int, i: int, x: int) -> int:
        return self.faces[n][i][x]

    def degeneracy(self, n: int, i: int, x: int) -> int:
        return self.degens[n][i][x]

    def validate(self) -> ValidationReport:
        report = ValidationReport(subject=f"pointed simplicial set {self.name}")
        top = self.top_level
        for n in range(1, top + 1):
            for i in range(n + 1):
                report.checks_run += 1
                if self.faces[n][i][0] != 0:
                    report.record(f"face d_{i} at level {n} moves the basepoint")
        for n in range(top):
            for i in range(n + 1):
                report.checks_run += 1
                if self.degens[n][i][0] != 0:
                    report.record(f"degeneracy s_{i} at level {n} moves the basepoint")
        for n in range(2, top + 1):
            for j in range(n + 1):
                for i in range(j):
                    for x in range(len(self.levels[n])):
                        report.checks_run += 1
                        if self.face(n - 1, i, self.face(n, j, x)) != self.face(
                            n - 1, j - 1, self.face(n, i, x)
                        ):
                            report.record(f"d_{i} d_{j} failed at level {n} on element {x}")
        for n in range(top - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    for x in range(len(self.levels[n])):
                        report.checks_run += 1
                        if self.degeneracy(n + 1, i, self.degeneracy(n, j, x)) != self.degeneracy(
                            n + 1, j + 1, self.degeneracy(n, i, x)
                        ):
                            report.record(f"s_{i} s_{j} failed at level {n} on element {x}")
        for n in range(top):
            for j in range(n + 1):
                for i in range(n + 2):
                    for x in range(len(self.levels[n])):
                        report.checks_run += 1
                        y = self.face(n + 1, i, self.degeneracy(n, j, x))
                        if i == j or i == j + 1:
                            expect = x
                        elif i < j:
                            expect = self.degeneracy(n - 1, j - 1, self.face(n, i, x))
                        else:
                            expect = self.degeneracy(n - 1, j, self.face(n, i - 1, x))
                        if y != expect:
                            report.record(f"d_{i} s_{j} failed at level {n} on element {x}")
        return report


def _weq_strings(C: WCategory, length: int, string_cap: int, too_many: str) -> list:
    """Strings of ``length`` composable weak equivalences of C.

    Each string is a pair (start object, morphism tuple).  The basepoint,
    the identity string on the zero object, comes first; the rest follow
    depth first over target objects and weak-equivalence sets.  Raises
    CapExceededError with the message ``too_many`` once the list holds
    more than ``string_cap`` strings.
    """
    bp = (C.zero_index(), (C.identity_id(C.zero_index()),) * length)
    elts = [bp]

    def extend(x0: int, prefix: tuple, src: int):
        if len(prefix) == length:
            # distinct paths give distinct strings; only bp comes up twice
            if (x0, prefix) != bp:
                elts.append((x0, prefix))
            if len(elts) > string_cap:
                raise CapExceededError(too_many)
            return
        for b in range(C.object_count()):
            for g in C.weq_ids(src, b):
                extend(x0, prefix + (g,), b)

    for x0 in range(C.object_count()):
        extend(x0, (), x0)
    return elts


def _string_face(C: WCategory, s: tuple, i: int) -> tuple:
    """The nerve face d_i of the string s of C: drop its first or last map
    (i = 0 or i = len), otherwise compose maps i-1 and i."""
    x0, gs = s
    if i == 0:
        return (C.mor_target(gs[0]), gs[1:])
    if i == len(gs):
        return (x0, gs[:-1])
    return (x0, gs[: i - 1] + (C.compose_ids(gs[i], gs[i - 1]),) + gs[i + 1 :])


def _string_degeneracy(C: WCategory, s: tuple, i: int) -> tuple:
    """The nerve degeneracy s_i of the string s of C: an identity inserted
    as map i."""
    x0, gs = s
    mid = x0 if i == 0 else C.mor_target(gs[i - 1])
    return (x0, gs[:i] + (C.identity_id(mid),) + gs[i:])


def map_string(functor: tuple, s: tuple) -> tuple:
    """Image of the string s under an (object map, morphism map) pair."""
    obj, mor = functor
    x0, gs = s
    return (obj(x0), tuple(mor(g) for g in gs))


def weq_nerve(C: WCategory, w_max: int, string_cap: int = STRING_CAP) -> PointedSimplicialSet:
    """The nerve of the weak equivalences of C, truncated at level w_max.

    Level l lists the strings of l composable weak equivalences as pairs
    (start object, morphism tuple); the basepoint is the zero object's
    identity string at index 0.  Faces drop or compose, degeneracies insert
    identities.
    """
    levels = [
        _weq_strings(C, l, string_cap, f"nerve level {l} of {C.name} exceeds {string_cap} strings")
        for l in range(w_max + 1)
    ]
    return PointedSimplicialSet.tabulate(
        f"w-nerve({C.name})",
        levels,
        lambda n, i: lambda s: _string_face(C, s, i),
        lambda n, i: lambda s: _string_degeneracy(C, s, i),
    )


def ws_diagonal(
    C: WCategory, n_max: int = 2, string_cap: int = STRING_CAP
) -> PointedSimplicialSet:
    """The diagonal n |-> w_n S_n C of the bisimplicial set (p, q) |-> w_q S_p C.

    Truncated at n_max.  Level n holds the strings of n composable weak
    equivalences of flag grids on [n] x [n]; the basepoint is the identity
    string on the zero grid.  The face d_i is d_i^v o d_i^h: the horizontal
    face d_i^h restricts every grid and map of the string along the coface
    [n-1] -> [n] that skips i, landing in w_n S_{n-1} C, and the vertical
    face d_i^v is the nerve face of w S_{n-1} C.  Likewise s_i restricts
    along the codegeneracy [n+1] -> [n] that repeats i and then inserts an
    identity.
    """
    scats = [SCategory(C, n) for n in range(n_max + 1)]
    levels = [
        _weq_strings(
            S, n, string_cap, f"level {n} of the diagonal of {C.name} exceeds {string_cap} strings"
        )
        for n, S in enumerate(scats)
    ]

    def face(n: int, i: int):
        F, S = reindex_functor(scats[n], scats[n - 1], _delta(i, n)), scats[n - 1]
        return lambda s: _string_face(S, map_string(F, s), i)

    def degeneracy(n: int, i: int):
        F, S = reindex_functor(scats[n], scats[n + 1], _sigma(i, n)), scats[n + 1]
        return lambda s: _string_degeneracy(S, map_string(F, s), i)

    return PointedSimplicialSet.tabulate(f"diag wS({C.name})", levels, face, degeneracy)


def _object_columns(C: WCategory) -> tuple:
    """The nonzero objects of C, and a builder of relation columns on them.

    The builder takes (object, sign) terms and sums them into a
    {row: coefficient} dict, skipping the zero object.
    """
    z = C.zero_index()
    gens = tuple(a for a in range(C.object_count()) if a != z)
    pos = {a: t for t, a in enumerate(gens)}

    def column(*terms) -> dict:
        col: dict = {}
        for obj, sign in terms:
            if obj != z:
                col[pos[obj]] = col.get(pos[obj], 0) + sign
        return col

    return gens, column


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


def _total_complex_relations(C: WCategory, string_cap: int = STRING_CAP) -> tuple:
    """H_1 of the total complex of (p, q) |-> w_q S_p C, with its relations.

    Returns (S_1, generators, relation columns, homology data): generators
    are the nonzero objects of S_1 (total degree 1; every w_q S_0 C is the
    basepoint), and the columns are the boundaries of total degree 2.  A
    grid x of S_2 (bidegree (2, 0)) gives sum (-1)^i [d_i x] with d_i the
    restriction along the coface skipping i; a weak equivalence a -> b of
    S_1 (bidegree (1, 1)) gives -([b] - [a]), the vertical differential
    with the sign (-1)^p.  Degenerate simplices give empty columns, which
    ``_relation_cokernel`` drops with the duplicates.
    """
    if SCategory(C, 0).object_count() != 1:
        raise InternalInvariantError("S_0 of the flag construction is not a single point")
    S1, S2 = SCategory(C, 1), SCategory(C, 2)
    gens, column = _object_columns(S1)
    faces = [reindex_functor(S2, S1, _delta(i, 2))[0] for i in range(3)]
    weqs = _weq_strings(S1, 1, string_cap, f"w_1 S_1 of {C.name} exceeds {string_cap} strings")

    def relations():
        for x in range(S2.object_count()):
            yield column(*((d(x), (-1) ** i) for i, d in enumerate(faces)))
        for s in weqs[1:]:
            yield column((_string_face(S1, s, 0)[0], -1), (_string_face(S1, s, 1)[0], 1))

    cols, hd = _relation_cokernel(len(gens), relations())
    return S1, gens, cols, hd


def k0_via_sdot(C: WCategory, string_cap: int = STRING_CAP) -> FPAbelianGroup:
    """K_0 as H_1 of |wS_.C|, from the total complex of (p, q) |-> w_q S_p C.

    By the generalized Eilenberg-Zilber theorem (Dold-Puppe; Goerss-Jardine
    IV.2) the reduced chains on the diagonal n |-> w_n S_n C are chain
    homotopy equivalent to the total complex of the normalized bicomplex,
    so this is still H_1 of the diagonal.  Total degree <= 2 needs only the
    objects of S_1, the grids of S_2 and the weak equivalences of S_1;
    ``string_cap`` bounds the last.  The faces of S_2 are taken by
    reindexing grids, not by reading their slots, so agreement with
    ``grothendieck_k0`` checks the S_. face maps; in these degrees the
    relations coincide with the presentation's by theory, so it does not
    check the theorem.  ``k0_via_diagonal`` builds the diagonal itself.
    """
    return _total_complex_relations(C, string_cap)[3].group


def k0_via_diagonal(C: WCategory, string_cap: int = STRING_CAP) -> FPAbelianGroup:
    """K_0 as H_1 of the diagonal of the flag construction, built level by level.

    The level-0 set is a single point, so the reduced complex has zero
    differential out of degree 1 and K_0 is the cokernel of the degree-2
    boundary on the nondegenerate 2-simplices, computed by integer Smith
    normal form.  Duplicate boundary columns are collapsed first.  Level 2
    holds every pair of composable weak equivalences of S_2, so this is
    the oracle for ``k0_via_sdot`` on small families.
    """
    X = ws_diagonal(C, 2, string_cap)
    if len(X.levels[0]) != 1:
        raise InternalInvariantError("level 0 of the diagonal is not a single point")
    degenerate = set(X.degens[1][0]) | set(X.degens[1][1])

    def boundary(x: int) -> dict:
        col: dict = {}
        for i, sign in ((0, 1), (1, -1), (2, 1)):
            y = X.face(2, i, x)
            if y != 0:
                col[y - 1] = col.get(y - 1, 0) + sign
        return col

    nondegenerate = (x for x in range(1, len(X.levels[2])) if x not in degenerate)
    return _relation_cokernel(len(X.levels[1]) - 1, map(boundary, nondegenerate))[1].group


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
    gens, column = _object_columns(C)

    def relations():
        for a in range(C.object_count()):
            for b in range(C.object_count()):
                for _m in C.weq_ids(a, b):
                    yield column((a, 1), (b, -1))
        for entries, _h, _v in _enumerate_s_payloads(C, 2):
            yield column((entries[2], 1), (entries[1], -1), (entries[5], -1))

    cols, hd = _relation_cokernel(len(gens), relations())
    return K0Presentation(C, gens, cols, hd)


def grothendieck_k0(C: WCategory) -> FPAbelianGroup:
    """K_0 from the object-and-relation presentation; the independent oracle."""
    return k0_presentation(C).group


def _push_vector(F: ExactFunctor, src: K0Presentation, dst: K0Presentation, vec) -> tuple:
    out = [0] * len(dst.generators)
    dz = dst.category.zero_index()
    dpos = {a: t for t, a in enumerate(dst.generators)}
    for t, coeff in enumerate(vec):
        if coeff == 0:
            continue
        obj = F.apply_obj(src.generators[t])
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
