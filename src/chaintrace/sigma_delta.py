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
category exceeds an object cap are materialized at nerve level 0 only
and every such truncation is recorded as a skip, never silently.

Entries are built in ``waldhausen``: ``weq_nerve`` tabulates each nerve
with the string operators there, and restriction along a monotone
operator in one direction is ``waldhausen.reindex_functor``.  The other
structure maps (inserting a direction, acting on an inner direction
entrywise, and transposing two directions) are built here from those,
each as a memoized (object map, morphism map) pair, and act on strings
through ``waldhausen.map_string``.
"""

from __future__ import annotations

from itertools import product

from .errors import CapExceededError, InputParseError, InternalInvariantError
from .validation import ValidationReport
from .values import Value
from .waldhausen import (
    STRING_CAP,
    PointedSimplicialSet,
    SCategory,
    _memo1,
    map_string,
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


def _identity_op(k: int) -> tuple:
    return tuple(range(k + 1))


class SigmaDeltaDiagram(Value):
    """A truncated diagram of pointed simplicial sets over the flag indexing.

    ``keys`` lists every materialized index (n, (k_1..k_n)); ``entry``
    returns the pointed simplicial set at a key, truncated in the nerve
    direction as recorded in ``skips``.  ``act_index`` applies the
    structure map of a Grothendieck-construction morphism to one element,
    by level index.
    """

    _fields = ("name", "n_max", "k_cap", "w_cap", "keys", "skips")
    __hash__ = None

    def __init__(self, name: str, n_max: int, k_cap: int, w_cap: int, keys: tuple) -> None:
        self.name = name
        self.n_max = n_max
        self.k_cap = k_cap
        self.w_cap = w_cap
        self.keys = keys
        self.skips: list = []
        self._entries: dict = {}
        self._act = None

    def entry(self, key) -> PointedSimplicialSet:
        if key not in self._entries:
            raise InputParseError(f"no entry at index {key}")
        return self._entries[key]

    def act_index(self, src_key, dst_key, f: tuple, phis: tuple, level: int, idx: int) -> int:
        """Image of element ``idx`` of level ``level`` under (f, phis).

        ``f`` is the injection as a tuple of 1-based target positions;
        ``phis[i-1]`` is the monotone operator into target direction i,
        given as the tuple of its values.
        """
        return self._act(src_key, dst_key, f, phis, level, idx)


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


def _check_level(ps_src: PointedSimplicialSet, ps_dst: PointedSimplicialSet, level: int) -> None:
    """Raise CapExceededError unless nerve ``level`` exists on both entries."""
    if not 0 <= level <= min(ps_src.top_level, ps_dst.top_level):
        raise CapExceededError(f"nerve level {level} is not materialized on both entries")


def _diagram_keys(n_max: int, k_cap: int) -> tuple:
    return tuple(
        (n, ks) for n in range(n_max + 1) for ks in product(range(k_cap + 1), repeat=n)
    )


def ktheory_sigma_delta(
    C: WCategory,
    n_max: int = 2,
    k_cap: int = 2,
    w_cap: int = 2,
    entry_object_cap: int = ENTRY_OBJECT_CAP,
    string_cap: int = STRING_CAP,
) -> SigmaDeltaDiagram:
    """The flag diagram of C: entry (n; k⃗) is the nerve of w S_{k_1}..S_{k_n} C.

    Structure maps are built from four reusable functors: wrapping an
    object as a one-column flag grid (direction insertion), reindexing
    the outer direction along a monotone map (``reindex_functor``),
    reindexing an inner direction entrywise, and transposing the two
    directions.  Entries
    whose category exceeds ``entry_object_cap`` objects keep nerve level
    0 only, with the truncation recorded.
    """
    if n_max > 2:
        raise CapExceededError(f"n_max = {n_max} exceeds the two-direction cap")
    if k_cap > 2:
        raise CapExceededError(f"k_cap = {k_cap} exceeds the flag-width cap 2")

    diagram = SigmaDeltaDiagram(
        name=f"flag diagram of {C.name}",
        n_max=n_max,
        k_cap=k_cap,
        w_cap=w_cap,
        keys=_diagram_keys(n_max, k_cap),
    )

    cats: dict = {(): C}

    def category_for(ks: tuple) -> WCategory:
        got = cats.get(ks)
        if got is None:
            got = SCategory(category_for(ks[1:]), ks[0])
            cats[ks] = got
        return got

    for n, ks in diagram.keys:
        cat = category_for(ks)
        w_top = w_cap
        if cat.object_count() > entry_object_cap:
            w_top = 0
            diagram.skips.append(
                f"entry {(n, ks)}: nerve levels 1..{w_cap} not materialized "
                f"({cat.object_count()} objects exceed the cap {entry_object_cap})"
            )
        diagram._entries[(n, ks)] = weq_nerve(cat, w_top, string_cap)

    # -- reusable functors; each is an (object map, morphism map) pair ------

    def wrap_functor(B: WCategory, S1: SCategory):
        z = B.zero_index()
        idz = B.identity_id(z)

        def obj_fn(a: int) -> int:
            pay = (
                (z, a, z, z),
                (B.hom_ids(z, a)[0], idz),
                (idz, B.hom_ids(a, z)[0]),
            )
            return S1.object_index(pay)

        obj = _memo1(obj_fn)

        def mor_fn(m: int) -> int:
            return S1.intern_morphism(
                (m,), obj(B.mor_source(m)), obj(B.mor_target(m))
            )

        return obj, _memo1(mor_fn)

    def entrywise_functor(src: SCategory, dst: SCategory, base_obj, base_mor):
        def obj_fn(a: int) -> int:
            e, h, v = src.object_payload(a)
            pay = (
                tuple(base_obj(x) for x in e),
                tuple(base_mor(x) for x in h),
                tuple(base_mor(x) for x in v),
            )
            if pay not in dst._obj_index:
                raise InternalInvariantError(
                    f"entrywise image escaped the enumeration of {dst.name}"
                )
            return dst._obj_index[pay]

        obj = _memo1(obj_fn)

        def mor_fn(m: int) -> int:
            pay = tuple(base_mor(c) for c in src.mor_payload(m))
            return dst.intern_morphism(
                pay, obj(src.mor_source(m)), obj(src.mor_target(m))
            )

        return obj, _memo1(mor_fn)

    def transpose_functor(src: SCategory, dst: SCategory):
        # src = S_{k1}(S_{k2}(B)), dst = S_{k2}(S_{k1}(B))
        D1, D2 = src.base, dst.base
        B = D1.base
        k1, k2 = src.k, dst.k
        n1, n2 = k1 + 1, k2 + 1
        idz = B.identity_id(B.zero_index())

        def comp_at(h: int, i2: int, j2: int) -> int:
            if i2 < j2:
                return D1.mor_payload(h)[D1._slot_pos[(i2, j2)]]
            return idz

        def obj_fn(a: int) -> int:
            e, h, v = src.object_payload(a)
            inner = {}
            for i2 in range(n2):
                for j2 in range(n2):
                    pe = tuple(
                        D1.object_payload(e[i1 * n1 + j1])[0][i2 * n2 + j2]
                        for i1 in range(n1)
                        for j1 in range(n1)
                    )
                    ph = tuple(
                        comp_at(h[i1 * k1 + j1], i2, j2)
                        for i1 in range(n1)
                        for j1 in range(k1)
                    )
                    pv = tuple(
                        comp_at(v[i1 * n1 + j1], i2, j2)
                        for i1 in range(k1)
                        for j1 in range(n1)
                    )
                    pay = (pe, ph, pv)
                    if pay not in D2._obj_index:
                        raise InternalInvariantError(
                            f"transposed grid escaped the enumeration of {D2.name}"
                        )
                    inner[(i2, j2)] = D2._obj_index[pay]
            harr2 = []
            for i2 in range(n2):
                for j2 in range(k2):
                    pay = tuple(
                        D1.object_payload(e[i1 * n1 + j1])[1][i2 * k2 + j2]
                        for i1, j1 in D2._slots
                    )
                    harr2.append(
                        D2.intern_morphism(pay, inner[(i2, j2)], inner[(i2, j2 + 1)])
                    )
            varr2 = []
            for i2 in range(k2):
                for j2 in range(n2):
                    pay = tuple(
                        D1.object_payload(e[i1 * n1 + j1])[2][i2 * n2 + j2]
                        for i1, j1 in D2._slots
                    )
                    varr2.append(
                        D2.intern_morphism(pay, inner[(i2, j2)], inner[(i2 + 1, j2)])
                    )
            out = (
                tuple(inner[(i2, j2)] for i2 in range(n2) for j2 in range(n2)),
                tuple(harr2),
                tuple(varr2),
            )
            if out not in dst._obj_index:
                raise InternalInvariantError(
                    f"transposed grid escaped the enumeration of {dst.name}"
                )
            return dst._obj_index[out]

        obj = _memo1(obj_fn)

        def mor_fn(m: int) -> int:
            pay = src.mor_payload(m)
            a2 = obj(src.mor_source(m))
            b2 = obj(src.mor_target(m))
            out = []
            for i2, j2 in dst._slots:
                comp = tuple(
                    D1.mor_payload(pay[src._slot_pos[(i1, j1)]])[D1._slot_pos[(i2, j2)]]
                    for i1, j1 in D2._slots
                )
                out.append(
                    D2.intern_morphism(
                        comp,
                        dst.slot_entry(a2, i2, j2),
                        dst.slot_entry(b2, i2, j2),
                    )
                )
            return dst.intern_morphism(tuple(out), a2, b2)

        return obj, _memo1(mor_fn)

    def compose_functor(second, first):
        return (lambda a: second[0](first[0](a)), lambda m: second[1](first[1](m)))

    identity_f = (lambda a: a, lambda m: m)

    functor_cache: dict = {}

    def build_functor(src_key, dst_key, f: tuple, phis: tuple):
        key = (src_key, dst_key, f, phis)
        got = functor_cache.get(key)
        if got is not None:
            return got
        _check_morphism(src_key, dst_key, f, phis)
        m_, js = src_key
        n_, ks = dst_key
        if m_ == 2 and f == (2, 1):
            t_key = (2, (js[1], js[0]))
            pre = transpose_functor(category_for(js), category_for(t_key[1]))
            rest = build_functor(t_key, dst_key, (1, 2), phis)
            got = compose_functor(rest, pre)
        elif m_ == 2:
            # f == (1, 2): inner reindex then outer reindex
            inner_src = category_for(js[1:])
            inner_dst = category_for(ks[1:])
            step1 = (
                identity_f
                if js[1] == ks[1] and phis[1] == _identity_op(ks[1])
                else entrywise_functor(
                    category_for(js),
                    category_for((js[0],) + ks[1:]),
                    *reindex_functor(inner_src, inner_dst, phis[1]),
                )
            )
            step2 = (
                identity_f
                if js[0] == ks[0] and phis[0] == _identity_op(ks[0])
                else reindex_functor(
                    category_for((js[0],) + ks[1:]), category_for(ks), phis[0]
                )
            )
            got = compose_functor(step2, step1)
        elif m_ == 1 and n_ == 1:
            got = (
                identity_f
                if js == ks and phis[0] == _identity_op(ks[0])
                else reindex_functor(category_for(js), category_for(ks), phis[0])
            )
        elif m_ == 1 and n_ == 2 and f == (1,):
            # insert the inner direction at width 1, then reindex both
            w = entrywise_functor(
                category_for(js),
                category_for((js[0], 1)),
                *wrap_functor(C, category_for((1,))),
            )
            rest = build_functor((2, (js[0], 1)), dst_key, (1, 2), phis)
            got = compose_functor(rest, w)
        elif m_ == 1 and n_ == 2 and f == (2,):
            # insert the outer direction at width 1, then reindex both
            w = wrap_functor(category_for(js), category_for((1,) + js))
            rest = build_functor((2, (1, js[0])), dst_key, (1, 2), phis)
            got = compose_functor(rest, w)
        elif m_ == 0 and n_ == 1:
            w = wrap_functor(C, category_for((1,)))
            rest = build_functor((1, (1,)), dst_key, (1,), phis)
            got = compose_functor(rest, w)
        elif m_ == 0 and n_ == 2:
            w = wrap_functor(C, category_for((1,)))
            rest = build_functor((1, (1,)), dst_key, (2,), phis)
            got = compose_functor(rest, w)
        elif m_ == 0 and n_ == 0:
            got = identity_f
        else:
            raise InputParseError(f"unsupported injection {f} from {src_key} to {dst_key}")
        functor_cache[key] = got
        return got

    def act(src_key, dst_key, f, phis, level, idx):
        ps_src = diagram.entry(src_key)
        ps_dst = diagram.entry(dst_key)
        _check_level(ps_src, ps_dst, level)
        functor = build_functor(src_key, dst_key, f, phis)
        return ps_dst.index(level, map_string(functor, ps_src.levels[level][idx]))

    diagram._act = act
    return diagram


def free_sigma_delta(
    points: int, n_max: int = 2, k_cap: int = 2, w_cap: int = 2
) -> SigmaDeltaDiagram:
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
    diagram = SigmaDeltaDiagram(
        name=f"free diagram on {points} points",
        n_max=n_max,
        k_cap=k_cap,
        w_cap=w_cap,
        keys=_diagram_keys(n_max, k_cap),
    )

    for n, ks in diagram.keys:
        cuts = list(product(*(range(1, k + 1) for k in ks)))
        elts = [(0, ())] + [(y, cs) for y in range(1, points + 1) for cs in cuts]
        diagram._entries[(n, ks)] = PointedSimplicialSet.tabulate(
            f"free entry {(n, ks)}",
            [elts] * (w_cap + 1),
            lambda n2, i: lambda e: e,
            lambda n2, i: lambda e: e,
        )

    def act(src_key, dst_key, f, phis, level, idx):
        ps_src, ps_dst = diagram.entry(src_key), diagram.entry(dst_key)
        _check_level(ps_src, ps_dst, level)
        _check_morphism(src_key, dst_key, f, phis)
        n_, ks = dst_key
        if idx == 0:
            return 0
        y, cs = ps_src.levels[level][idx]
        out = []
        for i in range(1, n_ + 1):
            phi = phis[i - 1]
            cut = cs[f.index(i)] if i in f else 1
            t = sum(1 for p in phi if p < cut)
            if t == 0 or t == ks[i - 1] + 1:
                return 0
            out.append(t)
        return ps_dst.index(level, (y, tuple(out)))

    diagram._act = act
    return diagram


def _insertion_instances(diagram: SigmaDeltaDiagram):
    """Identity-operator injection instances that must act bijectively."""
    out = []
    if diagram.n_max >= 1 and diagram.k_cap >= 1:
        out.append(((0, ()), (1, (1,)), (), (_identity_op(1),)))
    for k in range(diagram.k_cap + 1):
        if diagram.n_max >= 2 and ((1, (k,)) in diagram.keys):
            out.append(
                ((1, (k,)), (2, (k, 1)), (1,), (_identity_op(k), _identity_op(1)))
            )
            out.append(
                ((1, (k,)), (2, (1, k)), (2,), (_identity_op(1), _identity_op(k)))
            )
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
            img = [
                diagram.act_index(src_key, dst_key, f, phis, level, x)
                for x in range(len(ps_s.levels[level]))
            ]
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
                for x in range(len(ps_s.levels[level])):
                    report.checks_run += 1
                    if ps_d.faces[level][i][images[level][x]] != images[level - 1][
                        ps_s.faces[level][i][x]
                    ]:
                        report.record(
                            f"map {src_key} -> {dst_key} does not commute with d_{i} "
                            f"at level {level}"
                        )
        for level in range(top):
            for i in range(level + 1):
                for x in range(len(ps_s.levels[level])):
                    report.checks_run += 1
                    if ps_d.degens[level][i][images[level][x]] != images[level + 1][
                        ps_s.degens[level][i][x]
                    ]:
                        report.record(
                            f"map {src_key} -> {dst_key} does not commute with s_{i} "
                            f"at level {level}"
                        )
        return images

    for src_key, dst_key, f, phis in _insertion_instances(diagram):
        check_map(src_key, dst_key, f, phis, want_bijection=True)

    if diagram.n_max >= 2:
        for k1 in range(diagram.k_cap + 1):
            for k2 in range(diagram.k_cap + 1):
                a_key, b_key = (2, (k1, k2)), (2, (k2, k1))
                swap = (2, 1)
                phis_ab = (_identity_op(k2), _identity_op(k1))
                phis_ba = (_identity_op(k1), _identity_op(k2))
                fwd = check_map(a_key, b_key, swap, phis_ab, want_bijection=True)
                top = min(
                    diagram.entry(a_key).top_level, diagram.entry(b_key).top_level
                )
                for level in range(top + 1):
                    for x in range(len(diagram.entry(a_key).levels[level])):
                        report.checks_run += 1
                        back = diagram.act_index(
                            b_key, a_key, swap, phis_ba, level, fwd[level][x]
                        )
                        if back != x:
                            report.record(
                                f"transposing {a_key} twice is not the identity "
                                f"at level {level}"
                            )

    # functoriality samples: composable pairs whose composite is also direct
    samples = []
    if diagram.n_max >= 2 and diagram.k_cap >= 1:
        samples.append(
            (
                ((0, ()), (1, (1,)), (), (_identity_op(1),)),
                ((1, (1,)), (2, (1, 1)), (1,), (_identity_op(1), _identity_op(1))),
                ((0, ()), (2, (1, 1)), (), (_identity_op(1), _identity_op(1))),
            )
        )
    if diagram.k_cap >= 2:
        # a non-identity operator roundtrip inside one direction
        phi_a = (0, 1)        # [1] -> [2]
        phi_b = (0, 1, 1)     # [2] -> [1]
        comp = tuple(phi_a[p] for p in phi_b)
        samples.append(
            (
                ((1, (2,)), (1, (1,)), (1,), (phi_a,)),
                ((1, (1,)), (1, (2,)), (1,), (phi_b,)),
                ((1, (2,)), (1, (2,)), (1,), (comp,)),
            )
        )
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
            for x in range(len(diagram.entry(src_key).levels[level])):
                report.checks_run += 1
                via = diagram.act_index(
                    second[0], second[1], second[2], second[3], level,
                    diagram.act_index(first[0], first[1], first[2], first[3], level, x),
                )
                straight = diagram.act_index(
                    direct[0], direct[1], direct[2], direct[3], level, x
                )
                if via != straight:
                    report.record(
                        f"structure maps {src_key} -> {mid_key} -> {dst_key} do not "
                        f"compose functorially at level {level}"
                    )
    return report
