"""Multidirection flag diagrams indexed by injections and simplicial operators.

A diagram here assigns to every index (n; k_1, .., k_n) a pointed
simplicial set, thought of as the weak-equivalence nerve of the n-fold
flag category S_{k_1}(S_{k_2}(..(C))) with index 1 outermost.  The
indexing category is a Grothendieck construction: a morphism
(m; j_1..j_m) -> (n; k_1..k_n) is an injection f of {1..m} into {1..n}
together with one monotone operator per target direction,
phi_i: [k_i] -> [j_s] when i = f(s) and phi_i: [k_i] -> [1] when i is
outside the image (inserted directions default to width 1, which changes
nothing up to isomorphism).  Two axioms govern such diagrams: the value
is a single basepoint whenever some k_i = 0, and injections with
identity operators act by levelwise bijections.

Entry sizes grow fast: the two-direction entry (2; 2, 2) over
2-dimensional vector spaces has 950 objects but over a million
weak-equivalence strings already at nerve level 1, so entries whose
category has more than ``ENTRY_OBJECT_CAP`` objects are materialized at
nerve level 0 only and every such truncation is recorded as a skip, never
silently.

Entries are built in ``waldhausen``: ``weq_nerve`` tabulates each nerve
with the string operators there.  Every structure map follows one rule:
while a target direction is missing from the image of the injection,
insert it at width 1 (outermost by wrapping each object as a one-column
flag grid, innermost by wrapping every entry); when the injection swaps
the two directions, transpose them; then reindex the inner direction and
then the outer one along their operators (``waldhausen.reindex_functor``,
entrywise for the inner one).  Each step is a ``waldhausen.payload_functor``
built from the payloads of its images, so every structure map is a
composite of memoized (object map, morphism map) pairs and an image
outside the enumerated target is an InternalInvariantError.  Composites
act on strings through ``waldhausen.map_string``, one whole nerve level at
a time (``SigmaDeltaDiagram.act_level``).
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .errors import CapExceededError, InputParseError
from .validation import ValidationReport
from .values import Value
from .waldhausen import (
    PointedSimplicialSet,
    SCategory,
    map_string,
    payload_functor,
    reindex_functor,
    weq_nerve,
)
from .wcat import WCategory

__all__ = [
    "ENTRY_OBJECT_CAP",
    "weq_nerve",
    "SigmaDeltaDiagram",
    "ktheory_sigma_delta",
    "free_sigma_delta",
    "sigma_delta_validate",
]

# Entries whose category has more objects than this are materialized at
# nerve level 0 only; the truncation is recorded as a skip.
ENTRY_OBJECT_CAP = 100
# Both diagrams hold the indices (n; k_1..k_n) with n <= N_MAX and every
# k_i <= K_CAP, at nerve levels 0..W_CAP.
N_MAX = 2
K_CAP = 2
W_CAP = 2
_KEYS = tuple((n, ks) for n in range(N_MAX + 1) for ks in product(range(K_CAP + 1), repeat=n))


def _identity_op(k: int) -> tuple:
    return tuple(range(k + 1))


class SigmaDeltaDiagram(Value):
    """A truncated diagram of pointed simplicial sets over the flag indexing.

    ``entries`` maps every materialized index (n, (k_1..k_n)) to its
    pointed simplicial set, truncated in the nerve direction as recorded in
    ``skips``; ``keys`` lists the indices in order.  ``image(src_key,
    dst_key, f, phis)`` is the structure map of a Grothendieck-construction
    morphism as a map of elements.  ``act_level`` applies it to a whole
    nerve level at once and keeps the resulting image table; ``act_index``
    reads one element's image from it.
    """

    _fields = ("name", "keys", "skips")
    __hash__ = None

    def __init__(self, name: str, entries: dict, skips: list, image) -> None:
        self.name = name
        self.keys = tuple(entries)
        self.skips = list(skips)
        self._sets = entries
        self._image = image
        self._tables: dict = {}

    def entry(self, key) -> PointedSimplicialSet:
        if key not in self._sets:
            raise InputParseError(f"no entry at index {key}")
        return self._sets[key]

    def act_level(self, src_key, dst_key, f: tuple, phis: tuple, level: int) -> tuple:
        """Image table of nerve level ``level`` under (f, phis).

        Entry x of the table is the index in the target entry of the image
        of element x of the source entry.  ``f`` is the injection as a
        tuple of 1-based target positions; ``phis[i-1]`` is the monotone
        operator into target direction i, given as the tuple of its values.
        The entries, the level and the morphism are checked, in that order,
        and the structure map looked up, once per table; a table is built
        once per (map, level) and kept, while a refused one is not kept and
        is refused again.
        """
        key = (src_key, dst_key, f, phis, level)
        got = self._tables.get(key)
        if got is None:
            ps_src, ps_dst = self.entry(src_key), self.entry(dst_key)
            if not 0 <= level <= min(ps_src.top_level, ps_dst.top_level):
                raise CapExceededError(f"nerve level {level} is not materialized on both entries")
            _check_morphism(src_key, dst_key, f, phis)
            image = self._image(src_key, dst_key, f, phis)
            got = self._tables[key] = ps_dst.index_table(level, map(image, ps_src.levels[level]))
        return got

    def act_index(self, src_key, dst_key, f: tuple, phis: tuple, level: int, idx: int) -> int:
        """Image of element ``idx`` of level ``level`` under (f, phis), read
        from ``act_level``'s table."""
        return self.act_level(src_key, dst_key, f, phis, level)[idx]


def _check_morphism(src_key, dst_key, f: tuple, phis: tuple) -> None:
    """Raise InputParseError unless (f, phis) is a morphism src_key -> dst_key.

    ``f`` must be an injection of {1..m} into {1..n} and ``phis[i-1]`` a
    monotone map from [k_i] into the width of direction i: the source width
    of the direction that f sends to i, or 1 for an inserted direction.
    """
    m_, js = src_key
    n_, ks = dst_key
    if len(f) != m_ or len(phis) != n_:
        raise InputParseError("injection or operator arity does not match the keys")
    if len(set(f)) != m_ or any(not 1 <= t <= n_ for t in f):
        raise InputParseError(f"{f} is not an injection into {{1..{n_}}}")
    for i in range(1, n_ + 1):
        width = js[f.index(i)] if i in f else 1
        phi = phis[i - 1]
        if len(phi) != ks[i - 1] + 1 or any(x < 0 or x > width for x in phi):
            raise InputParseError(f"operator into direction {i} is not a map into [{width}]")
        if any(a > b for a, b in zip(phi, phi[1:])):
            raise InputParseError(f"operator into direction {i} is not monotone")


def ktheory_sigma_delta(C: WCategory) -> SigmaDeltaDiagram:
    """The flag diagram of C: entry (n; k⃗) is the nerve of w S_{k_1}..S_{k_n} C.

    A structure map (f, phis) is built by one rule: while a target
    direction is missing from the image of f, insert it at width 1
    (outermost by wrapping each object as a one-column flag grid,
    innermost by wrapping every entry); when f swaps the two directions,
    transpose them; then reindex the inner direction entrywise and the
    outer one along their operators (``reindex_functor``), skipping
    identity operators.  Entries whose category exceeds ENTRY_OBJECT_CAP
    objects keep nerve level 0 only, with the truncation recorded.
    """
    cats: dict = {(): C}

    def category_for(ks: tuple) -> WCategory:
        got = cats.get(ks)
        if got is None:
            got = SCategory(category_for(ks[1:]), ks[0])
            cats[ks] = got
        return got

    entries: dict = {}
    skips: list = []
    for n, ks in _KEYS:
        cat = category_for(ks)
        w_top = W_CAP
        if cat.object_count() > ENTRY_OBJECT_CAP:
            w_top = 0
            skips.append(
                f"entry {(n, ks)}: nerve levels 1..{W_CAP} not materialized "
                f"({cat.object_count()} objects exceed the cap {ENTRY_OBJECT_CAP})"
            )
        entries[(n, ks)] = weq_nerve(cat, w_top)

    # -- the steps; each is an (object map, morphism map) pair ---------------

    def wrap_functor(B: WCategory, S1: SCategory):
        # an object a as the one-column flag grid 0 >-> a
        z = B.zero_index()
        idz = B.identity_id(z)
        return payload_functor(
            B,
            S1,
            lambda a: (((z, a), (z, z)), ((B.hom_ids(z, a)[0],), (idz,)), ((idz, B.hom_ids(a, z)[0]),)),
            lambda m, a2, b2: S1.payload_from(lambda i, j: m),
        )

    def entrywise_functor(src: SCategory, dst: SCategory, inner: tuple):
        # the functor ``inner`` between the bases, applied to every entry
        base_obj, base_mor = inner

        def obj_payload(a: int) -> tuple:
            e, h, v = src.object_payload(a)
            return (
                tuple(tuple(map(base_obj, row)) for row in e),
                tuple(tuple(map(base_mor, row)) for row in h),
                tuple(tuple(map(base_mor, row)) for row in v),
            )

        return payload_functor(
            src,
            dst,
            obj_payload,
            lambda m, a2, b2: dst.payload_from(lambda i, j: base_mor(src.component(m, i, j))),
        )

    def transpose_functor(src: SCategory, dst: SCategory):
        # src = S_{k1}(S_{k2}(B)), dst = S_{k2}(S_{k1}(B))
        # grids[i1][j1][part][i2][j2] of a src object is read at
        # [i2][j2][part][i1][j1] of its image: the two directions swap
        D1, D2 = src.base, dst.base
        n2 = dst.k + 1

        def obj_payload(a: int) -> tuple:
            e, h, v = src.object_payload(a)
            grids = [[D1.object_payload(x) for x in row] for row in e]

            def inner(i2: int, j2: int) -> int:
                pe = tuple(tuple(g[0][i2][j2] for g in row) for row in grids)
                ph = tuple(tuple(D1.component(x, i2, j2) for x in row) for row in h)
                pv = tuple(tuple(D1.component(x, i2, j2) for x in row) for row in v)
                return D2.object_index((pe, ph, pv))

            entries = tuple(tuple(inner(i2, j2) for j2 in range(n2)) for i2 in range(n2))

            def arrow(part: int, i2: int, j2: int, target: int) -> int:
                pay = D2.payload_from(lambda i1, j1: grids[i1][j1][part][i2][j2])
                return D2.intern_morphism(pay, entries[i2][j2], target)

            harr = tuple(
                tuple(arrow(1, i2, j2, entries[i2][j2 + 1]) for j2 in range(n2 - 1))
                for i2 in range(n2)
            )
            varr = tuple(
                tuple(arrow(2, i2, j2, entries[i2 + 1][j2]) for j2 in range(n2))
                for i2 in range(n2 - 1)
            )
            return (entries, harr, varr)

        def mor_payload(m: int, a2: int, b2: int) -> tuple:
            ea, eb = dst.object_payload(a2)[0], dst.object_payload(b2)[0]

            def comp(i2: int, j2: int) -> int:
                pay = D2.payload_from(lambda i1, j1: D1.component(src.component(m, i1, j1), i2, j2))
                return D2.intern_morphism(pay, ea[i2][j2], eb[i2][j2])

            return dst.payload_from(comp)

        return payload_functor(src, dst, obj_payload, mor_payload)

    def reindex_direction(d: int, src_ks: tuple, dst_ks: tuple, phi: tuple):
        # restriction along phi in direction d: the outer direction directly,
        # an inner one entrywise
        src, dst = category_for(src_ks), category_for(dst_ks)
        if d == 1:
            return reindex_functor(src, dst, phi)
        return entrywise_functor(src, dst, reindex_direction(d - 1, src_ks[1:], dst_ks[1:], phi))

    identity_f = (lambda a: a, lambda m: m)

    def compose_functor(second, first):
        if first is identity_f:
            return second
        if second is identity_f:
            return first
        return (lambda a: second[0](first[0](a)), lambda m: second[1](first[1](m)))

    functor_cache: dict = {}

    def build_functor(src_key, dst_key, f: tuple, phis: tuple):
        key = (src_key, dst_key, f, phis)
        got = functor_cache.get(key)
        if got is not None:
            return got
        m_, js = src_key
        n_, ks = dst_key
        missing = [t for t in range(1, n_ + 1) if t not in f]
        if missing:
            # insert the last missing direction at width 1: outermost when
            # it comes before the image of f (always when m = 0), else innermost
            t = missing[-1]
            if not f or t < f[0]:
                step = wrap_functor(category_for(js), category_for((1,) + js))
                mid_key, mid_f = (m_ + 1, (1,) + js), (t,) + f
            else:
                step = entrywise_functor(
                    category_for(js), category_for(js + (1,)), wrap_functor(C, category_for((1,)))
                )
                mid_key, mid_f = (m_ + 1, js + (1,)), f + (t,)
            got = compose_functor(build_functor(mid_key, dst_key, mid_f, phis), step)
        elif f == (2, 1):
            swapped = (js[1], js[0])
            step = transpose_functor(category_for(js), category_for(swapped))
            got = compose_functor(build_functor((2, swapped), dst_key, (1, 2), phis), step)
        else:
            # f is the identity: reindex the inner direction, then the outer one
            got = identity_f
            for d in range(n_, 0, -1):
                if js[d - 1] != ks[d - 1] or phis[d - 1] != _identity_op(ks[d - 1]):
                    step = reindex_direction(d, js[:d] + ks[d:], js[: d - 1] + ks[d - 1 :], phis[d - 1])
                    got = compose_functor(step, got)
        functor_cache[key] = got
        return got

    def image(src_key, dst_key, f, phis):
        return partial(map_string, build_functor(src_key, dst_key, f, phis))

    return SigmaDeltaDiagram(f"flag diagram of {C.name}", entries, skips, image)


def free_sigma_delta(points: int) -> SigmaDeltaDiagram:
    """The free diagram on a pointed set with ``points`` non-base points.

    Entry (n; k⃗) is the smash product of the pointed set with one
    simplicial-circle level set per direction, constant in the nerve
    direction: nonbase elements are tuples (y, c_1..c_n) with c_i a cut
    in {1..k_i}.  An operator phi acts on a cut c by counting the values
    of phi below c, landing on the basepoint when the count leaves
    1..width.
    """
    if points < 0:
        raise InputParseError("the pointed set needs a nonnegative point count")
    basepoint = (0, ())

    entries: dict = {}
    for n, ks in _KEYS:
        cuts = list(product(*(range(1, k + 1) for k in ks)))
        elts = [basepoint] + [(y, cs) for y in range(1, points + 1) for cs in cuts]
        entries[(n, ks)] = PointedSimplicialSet.tabulate(
            f"free entry {(n, ks)}",
            [elts] * (W_CAP + 1),
            lambda n2, i: lambda e: e,
            lambda n2, i: lambda e: e,
        )

    def image(src_key, dst_key, f, phis):
        n_, ks = dst_key

        def move(elt: tuple) -> tuple:
            y, cs = elt
            if y == 0:
                return basepoint
            out = []
            for i in range(1, n_ + 1):
                phi = phis[i - 1]
                cut = cs[f.index(i)] if i in f else 1
                t = sum(1 for p in phi if p < cut)
                if t == 0 or t == ks[i - 1] + 1:
                    return basepoint
                out.append(t)
            return (y, tuple(out))

        return move

    return SigmaDeltaDiagram(f"free diagram on {points} points", entries, [], image)


def _insertion_instances():
    """Identity-operator injection instances that must act bijectively."""
    out = [((0, ()), (1, (1,)), (), (_identity_op(1),))]
    for k in range(K_CAP + 1):
        out.append(((1, (k,)), (2, (k, 1)), (1,), (_identity_op(k), _identity_op(1))))
        out.append(((1, (k,)), (2, (1, k)), (2,), (_identity_op(1), _identity_op(k))))
    return out


def sigma_delta_validate(diagram: SigmaDeltaDiagram) -> ValidationReport:
    """Check the diagram axioms on every materialized instance.

    Checks: each entry is a valid pointed simplicial set; entries with
    any direction of width 0 are a single basepoint at every level;
    identity-operator injections act by levelwise bijections commuting
    with faces and degeneracies; transposing the two directions is a
    bijection with inverse the reverse transposition; structure maps
    compose functorially on a fixed sample of composable pairs.
    Truncated levels are inherited into ``skipped``.
    """
    report = ValidationReport(subject=diagram.name)
    for s in diagram.skips:
        report.skip(s)

    for key in diagram.keys:
        ps = diagram.entry(key)
        sub = ps.validate()
        report.merge(sub)
        n, ks = key
        if any(k == 0 for k in ks):
            for level, elems in enumerate(ps.levels):
                report.checks_run += 1
                if len(elems) != 1:
                    report.record(
                        f"entry {key} has {len(elems)} elements at level {level}; "
                        f"a width-0 direction forces a single basepoint"
                    )

    def check_map(src_key, dst_key, f, phis, want_bijection: bool):
        ps_s, ps_d = diagram.entry(src_key), diagram.entry(dst_key)
        top = min(ps_s.top_level, ps_d.top_level)
        if ps_s.top_level != ps_d.top_level:
            report.skip(
                f"map {src_key} -> {dst_key}: levels above {top} not compared"
            )
        images = []
        for level in range(top + 1):
            img = diagram.act_level(src_key, dst_key, f, phis, level)
            images.append(img)
            report.checks_run += 1
            if img[0] != 0:
                report.record(f"map {src_key} -> {dst_key} moves the basepoint")
            if want_bijection:
                report.checks_run += 1
                if len(set(img)) != len(img) or len(img) != len(ps_d.levels[level]):
                    report.record(
                        f"map {src_key} -> {dst_key} is not a bijection at level {level}"
                    )
        for level in range(1, top + 1):
            for i in range(level + 1):
                d_dst, below = ps_d.faces[level][i], images[level - 1]
                report.checks_run += len(images[level])
                for y, z in zip(images[level], ps_s.faces[level][i]):
                    if d_dst[y] != below[z]:
                        report.record(
                            f"map {src_key} -> {dst_key} does not commute with d_{i} "
                            f"at level {level}"
                        )
        for level in range(top):
            for i in range(level + 1):
                s_dst, above = ps_d.degens[level][i], images[level + 1]
                report.checks_run += len(images[level])
                for y, z in zip(images[level], ps_s.degens[level][i]):
                    if s_dst[y] != above[z]:
                        report.record(
                            f"map {src_key} -> {dst_key} does not commute with s_{i} "
                            f"at level {level}"
                        )
        return images

    for src_key, dst_key, f, phis in _insertion_instances():
        check_map(src_key, dst_key, f, phis, want_bijection=True)

    for k1 in range(K_CAP + 1):
        for k2 in range(K_CAP + 1):
            a_key, b_key = (2, (k1, k2)), (2, (k2, k1))
            swap = (2, 1)
            phis_ab = (_identity_op(k2), _identity_op(k1))
            phis_ba = (_identity_op(k1), _identity_op(k2))
            fwd = check_map(a_key, b_key, swap, phis_ab, want_bijection=True)
            top = min(diagram.entry(a_key).top_level, diagram.entry(b_key).top_level)
            for level in range(top + 1):
                back = diagram.act_level(b_key, a_key, swap, phis_ba, level)
                for x, y in enumerate(fwd[level]):
                    report.checks_run += 1
                    if back[y] != x:
                        report.record(
                            f"transposing {a_key} twice is not the identity at level {level}"
                        )

    # functoriality samples: composable pairs whose composite is also direct;
    # the second is a non-identity operator roundtrip inside one direction
    phi_a = (0, 1)        # [1] -> [2]
    phi_b = (0, 1, 1)     # [2] -> [1]
    comp = tuple(phi_a[p] for p in phi_b)
    samples = [
        (
            ((0, ()), (1, (1,)), (), (_identity_op(1),)),
            ((1, (1,)), (2, (1, 1)), (1,), (_identity_op(1), _identity_op(1))),
            ((0, ()), (2, (1, 1)), (), (_identity_op(1), _identity_op(1))),
        ),
        (
            ((1, (2,)), (1, (1,)), (1,), (phi_a,)),
            ((1, (1,)), (1, (2,)), (1,), (phi_b,)),
            ((1, (2,)), (1, (2,)), (1,), (comp,)),
        ),
    ]
    for first, second, direct in samples:
        src_key = first[0]
        mid_key = first[1]
        dst_key = second[1]
        top = min(
            diagram.entry(src_key).top_level,
            diagram.entry(mid_key).top_level,
            diagram.entry(dst_key).top_level,
        )
        for level in range(top + 1):
            one = diagram.act_level(*first, level)
            two = diagram.act_level(*second, level)
            straight = diagram.act_level(*direct, level)
            for x, y in enumerate(one):
                report.checks_run += 1
                if two[y] != straight[x]:
                    report.record(
                        f"structure maps {src_key} -> {mid_key} -> {dst_key} do not "
                        f"compose functorially at level {level}"
                    )
    return report
