"""Cyclic bar construction, Hochschild homology, Connes B, cyclic homology.

Conventions, fixed once and recorded in CLI output:

* level q of the cyclic bar construction of A is A^tensor(q+1), basis
  tuples (i_0, ..., i_q), indexed big-endian;
* faces d_i multiply slots i and i+1 for 0 <= i < q, and d_q multiplies the
  last slot onto the first: d_q(a_0 x ... x a_q) = a_q a_0 x a_1 ... a_{q-1};
* degeneracies s_j insert the unit after slot j; the extra degeneracy s_e
  puts the unit in front;
* the cyclic operator t moves the last slot to the front (no sign); the
  signed operator at level q is t_s = (-1)^q t;
* the Hochschild boundary is b = sum_i (-1)^i d_i;
* the Connes boundary is B = (1 - t_s) s_e N with N = sum_i t_s^i, taken on
  the normalized complex, where B^2 = 0 and bB + Bb = 0 hold exactly.

The normalized complex is realized by first moving the algebra to a
unit-first basis (unit = basis vector 0); degenerate chains are then spanned
by basis tensors with a unit in some slot >= 1, and the quotient has the
honest basis of the r(r-1)^q tuples avoiding index 0 past slot 0.  b and B
are written directly on these unit-free tuples (Loday, Cyclic Homology,
2.1), dropping terms that land on a degenerate tuple, so the full levels are
never built for them.  Every operator (faces, degeneracies, t, both b's, B
and the b + B of the total complex) is written by chain.basis_map_columns
from an image rule on basis tuples and the row lookup of its target level;
each is built once per instance (_cached).  Chains cross between the
caller's basis and the normalized levels by chain.push through the change
of basis in every slot (tensor_rule), with no full level enumerated.

The invariants-only paths (HochschildHomology.core behind hh, cyclic_core
behind hc) never build the whole normalized complex.  table_grading finds
the universal abelian grading of the unit-first table, w(k) = w(i) + w(j)
wherever c_ij^k != 0, by one Smith normal form over Z: Z/n for Z[C_n], Z
for R[x]/x^n, nothing for an ungraded table.  Faces and B preserve the
total weight of a tuple, so the complex is the direct sum of its weight
blocks (for a group algebra, Burghelea's conjugacy-class summands; Loday,
Cyclic Homology, 7.4).  Each block is built, checked, reduced and dropped
in turn.  Its row lookup drops a degenerate tuple, as the full complex's
does, and raises InternalInvariantError on a non-degenerate tuple of
another weight, so a wrong grading cannot lose a term.

The exhaustive check of the simplicial and cyclic identities on a cyclic
module (``validate_cyclic_module``) lives in chaintrace.selftest, its only
caller, so no Hochschild job compiles it.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, partial, wraps

from .algebra import Algebra, unit_first_presentation
from .chain import ChainComplex, FPModule, HomologyHandle, LevelRows, basis_map_columns
from .chain import direct_sum, homology, push, reduce_complex
from .conventions import B_CONVENTION, LEVEL_CAP
from .errors import CapExceededError, DegreeOutOfRangeError, UnsupportedRingError, ValidationError
from .linalg import Matrix, SparseMap, smith_normal_form
from .rings import ZZ, BaseRing

__all__ = [
    "CyclicModule",
    "cyclic_bar",
    "HochschildHomology",
    "hochschild_homology",
    "cyclic_homology",
    "cyclic_total_complex",
    "cyclic_core",
    "table_grading",
    "tuple_index",
    "tensor_rule",
    "check_full_level",
    "algebra_line",
    "coords_str",
    "degree_table",
    "algebra_table",
    "hh_command",
    "hc_command",
    "LEVEL_CAP",
    "B_CONVENTION",
]


def _cached(build):
    """Method decorator: build once per argument tuple, kept in self._cache."""

    @wraps(build)
    def operator(self, *args):
        key = (build.__name__, *args)
        if key not in self._cache:
            self._cache[key] = build(self, *args)
        return self._cache[key]

    return operator


class CyclicModule:
    """Levels A^tensor(q+1) for q = 0..max_level with the cyclic structure.

    All operators are column-sparse maps, built lazily and cached.  A full
    level of rank above LEVEL_CAP is refused when an operator on it is
    built (check_full_level); nothing else enumerates a full level.
    """

    def __init__(self, algebra: Algebra, max_level: int):
        self.algebra = algebra
        self.ring = algebra.ring
        self.max_level = max_level
        self._cache: dict = {}

    def level_rank(self, q: int) -> int:
        if q < 0 or q > self.max_level:
            return 0
        return self.algebra.rank ** (q + 1)

    def tuples(self, q: int):
        check_full_level(self.algebra.rank, q)
        return itertools.product(range(self.algebra.rank), repeat=q + 1)

    def _check_level(self, q: int, lo: int = 0) -> None:
        if q < lo or q > self.max_level:
            raise DegreeOutOfRangeError(f"level {q} outside 0..{self.max_level}")

    def _map(self, q: int, sources, terms: int, image) -> SparseMap:
        """The map onto full level q that basis_map_columns writes, rows found by tuple_index."""
        cols = basis_map_columns(self.ring, sources, terms, image, partial(tuple_index, self.algebra.rank))
        return SparseMap.from_col_dicts(self.ring, self.level_rank(q), cols)

    @_cached
    def face(self, q: int, i: int) -> SparseMap:
        """d_i: level q -> level q-1."""
        self._check_level(q, lo=1)
        if not 0 <= i <= q:
            raise DegreeOutOfRangeError(f"face index {i} outside 0..{q}")
        A = self.algebra
        return self._map(q - 1, self.tuples(q), 1, lambda tup, _: _face(A, tup, i))

    @_cached
    def degeneracy(self, q: int, j: int) -> SparseMap:
        """s_j: level q -> level q+1, inserting the unit after slot j."""
        self._check_level(q)
        self._check_level(q + 1)
        if not 0 <= j <= q:
            raise DegreeOutOfRangeError(f"degeneracy index {j} outside 0..{q}")
        unit = tuple(enumerate(self.algebra.unit))
        return self._map(
            q + 1, self.tuples(q), 1, lambda tup, _: [(tup[: j + 1] + (k,) + tup[j + 1 :], c) for k, c in unit]
        )

    @_cached
    def cyclic(self, q: int) -> SparseMap:
        """t: level q -> level q, last slot to the front, no sign."""
        self._check_level(q)
        one = self.ring.one
        return self._map(q, self.tuples(q), 1, lambda tup, _: (((tup[q],) + tup[:q], one),))

    @_cached
    def boundary(self, q: int) -> SparseMap:
        """Hochschild b = sum_i (-1)^i d_i: level q -> level q-1."""
        self._check_level(q, lo=1)
        return self._map(q - 1, self.tuples(q), q + 1, partial(_face, self.algebra))

    def signed_cyclic(self, q: int) -> SparseMap:
        """t_s = (-1)^q t at level q."""
        t = self.cyclic(q)
        return t if q % 2 == 0 else t.neg()


def check_full_level(rank: int, q: int, of: str = "") -> None:
    """Refuse a full cyclic bar level q, rank^(q+1) tuples, above LEVEL_CAP;
    of names the algebra (" of M_n").  Only whole-level enumeration calls it."""
    if rank ** (q + 1) > LEVEL_CAP:
        raise CapExceededError(
            f"cyclic bar level {q}{of} has rank {rank}^{q + 1} = {rank ** (q + 1)} > cap {LEVEL_CAP}"
        )


def _face(A: Algebra, tup: tuple, i: int) -> list:
    """d_i of the basis tensor tup as (tuple, coeff) pairs.

    For i < q slots i and i+1 multiply; d_q multiplies the last slot onto
    the first.
    """
    q = len(tup) - 1
    if i < q:
        head, tail = tup[:i], tup[i + 2 :]
        return [(head + (k,) + tail, c) for k, c in A.table[tup[i]][tup[i + 1]]]
    body = tup[1:q]
    return [((k,) + body, c) for k, c in A.table[tup[q]][tup[0]]]


def tuple_index(base: int, tup) -> int:
    """Big-endian index of tup among the tuples of its length over range(base)."""
    idx = 0
    for t in tup:
        idx = idx * base + t
    return idx


def table_grading(A: Algebra) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Universal abelian grading of A's table: (moduli, weight of each e_j).

    Each nonzero c_ij^k asks w(k) = w(i) + w(j): a row e_k - e_i - e_j of
    an integer matrix M.  With U M V = S in Smith form, x -> xV carries the
    row space of M onto that of S, so the grading group is the sum of
    Z/d over the Smith entries d (0 past the rank, a free Z) and the weight
    of e_j is row j of V reduced modulo them.  Entries equal to 1 are
    dropped.  Z[C_n] gives moduli (n,), R[x]/x^n gives (0,), and a table
    with no grading gives () and a single block.
    """
    r = A.rank
    rows = {
        tuple((x == k) - (x == i) - (x == j) for x in range(r))
        for i, row in enumerate(A.table)
        for j, product in enumerate(row)
        for k, _ in product
    }
    dec = smith_normal_form(Matrix(ZZ, sorted(rows), r), factors=("V",))
    diagonal = dec.diagonal + (0,) * (r - len(dec.diagonal))
    kept = [(c, d) for c, d in enumerate(diagonal) if d != 1]
    weights = tuple(tuple(row[c] % d if d else row[c] for c, d in kept) for row in dec.V.rows)
    return tuple(d for _, d in kept), weights


def cyclic_bar(A: Algebra, N: int) -> CyclicModule:
    """Cyclic module of A with levels 0..N+1 (enough to compute HH_0..HH_N).

    LEVEL_CAP bounds the normalized level N+1, of rank r(r-1)^(N+1), which is
    what homology eliminates; a full level, of rank r^(q+1), is checked
    only when an operator on it is built (see check_full_level).
    """
    if N < 0:
        raise DegreeOutOfRangeError("N must be >= 0")
    r = A.rank
    top = r * (r - 1) ** (N + 1)
    if top > LEVEL_CAP:
        raise CapExceededError(
            f"cyclic bar level {N + 1} has rank {r}*{r - 1}^{N + 1} = {top} > cap {LEVEL_CAP}"
        )
    return CyclicModule(A, N + 1)


class NormalizedComplex:
    """Quotient of the cyclic bar levels by degenerate chains.

    Requires the algebra's unit to be basis vector 0; then degenerate chains
    are spanned by tuples with 0 in a slot >= 1 and the quotient basis is
    the set of tuples avoiding 0 past slot 0.  b and B are written on these
    unit-free tuples, and no full level is built.
    A weight block (weight_blocks) is a NormalizedComplex whose levels hold
    only the tuples of one total weight.
    """

    def __init__(self, C: CyclicModule, tuples: dict[int, list] | None = None):
        A = C.algebra
        if A.unit != A.basis_vector(0):
            raise ValidationError(
                "normalized complex needs a unit-first basis; apply unit_first_presentation"
            )
        self.cyclic_module = C
        self.ring = C.ring
        self._tuples: dict[int, list] = tuples or {}
        self._cache: dict = {}

    def level_tuples(self, q: int) -> list:
        if q not in self._tuples:
            r = self.cyclic_module.algebra.rank
            self._tuples[q] = list(itertools.product(range(r), *[range(1, r)] * q))
        return self._tuples[q]

    def rank(self, q: int) -> int:
        """Rank of level q, r(r-1)^q until its tuples are built."""
        if q < 0 or q > self.cyclic_module.max_level:
            return 0
        if q in self._tuples:
            return len(self._tuples[q])
        r = self.cyclic_module.algebra.rank
        return r * (r - 1) ** q

    @_cached
    def _row_of(self, q: int):
        """Row lookup on level q; a tuple with the unit past slot 0 has none."""
        return LevelRows(self.level_tuples(q), 0, 1).__getitem__

    def _map(self, q: int, sources, terms: int, image) -> SparseMap:
        """The map onto normalized level q that basis_map_columns writes, rows found by _row_of."""
        cols = basis_map_columns(self.ring, sources, terms, image, self._row_of(q))
        return SparseMap.from_col_dicts(self.ring, self.rank(q), cols)

    def weight_blocks(self):
        """Yield (weight, block) for the weight blocks of levels 0..max_level.

        Every face and B preserve the total weight of a tuple under
        table_grading, so the complex is the direct sum of its blocks.  The
        tuples of every level are sorted into blocks first, keeping level
        order; a block's operators are built only when the caller asks, so
        a caller that drops each block before taking the next holds one
        block's operators at a time.  Blocks come in sorted weight order.
        """
        A = self.cyclic_module.algebra
        moduli, weights = table_grading(A)

        @cache
        def add(u, v):
            return tuple((a + b) % d if d else a + b for a, b, d in zip(u, v, moduli))

        levels: list[dict] = []
        tier = [((i,), w) for i, w in enumerate(weights)]
        for q in range(self.cyclic_module.max_level + 1):
            if q:
                tier = [(t + (k,), add(w, weights[k])) for t, w in tier for k in range(1, A.rank)]
            blocks: dict = {}
            for t, w in tier:
                blocks.setdefault(w, []).append(t)
            levels.append(blocks)
        del tier
        for w in sorted(set().union(*levels)):
            tuples = {q: level.pop(w, []) for q, level in enumerate(levels)}
            yield w, NormalizedComplex(self.cyclic_module, tuples)

    @_cached
    def boundary(self, q: int) -> SparseMap:
        """Induced Hochschild boundary: b with degenerate faces dropped."""
        self.cyclic_module._check_level(q, lo=1)
        return self._map(q - 1, self.level_tuples(q), q + 1, partial(_face, self.cyclic_module.algebra))

    @_cached
    def connes_b(self, q: int) -> SparseMap:
        """Induced Connes boundary B: normalized level q -> q+1.

        B(a) = sum_{i=0}^{q} (-1)^(qi) (0, t^i a): t^i moves the last i slots
        to the front, and a term with index 0 past slot 0 is degenerate.
        """
        self.cyclic_module._check_level(q + 1, lo=1)
        ring = self.ring
        # (k, sign) for t^i, which moves the tuple's slots from k = q + 1 - i on to the front
        turns = [(q + 1 - i, ring.neg(ring.one) if q * i % 2 else ring.one) for i in range(q + 1)]
        return self._map(
            q + 1, self.level_tuples(q), 1, lambda tup, _: [((0,) + tup[k:] + tup[:k], c) for k, c in turns]
        )

    def chain_complex(self, top: int) -> ChainComplex:
        ranks = [self.rank(q) for q in range(top + 1)]
        diffs = {q: self.boundary(q) for q in range(1, top + 1)}
        return ChainComplex(self.ring, ranks, diffs)

    def total_complex(self, top: int) -> ChainComplex:
        """Degrees 0..top of the (b, B) total complex (cyclic_total_complex).

        Tot_m has basis the pairs (p, j), j a tuple of normalized level
        m - 2p, in order of p; b keeps p and B lowers it.
        """
        levels = [[(p, j) for p in range(m // 2 + 1) for j in range(self.rank(m - 2 * p))] for m in range(top + 1)]
        diffs = {}
        for m in range(1, top + 1):
            b = [self.boundary(m - 2 * p).cols if 2 * p < m else None for p in range(m // 2 + 1)]
            B = [self.connes_b(m - 2 * p).cols if p else None for p in range(m // 2 + 1)]

            def image(x, _):
                p, j = x
                terms = [((p, i), c) for i, c in b[p][j]] if b[p] is not None else []
                if B[p] is not None:
                    terms += [((p - 1, i), c) for i, c in B[p][j]]
                return terms

            rows = {x: t for t, x in enumerate(levels[m - 1])}
            cols = basis_map_columns(self.ring, levels[m], 1, image, rows.__getitem__)
            diffs[m] = SparseMap.from_col_dicts(self.ring, len(rows), cols)
        return ChainComplex(self.ring, [len(level) for level in levels], diffs)

    def block_core(self, build, top: int) -> ChainComplex:
        """Block-diagonal sum of reduce_complex(build(block, top)) over the
        weight blocks, each built, checked, reduced and dropped in turn."""
        return direct_sum(self.ring, top, (reduce_complex(build(b, top)) for _, b in self.weight_blocks()))


def tensor_rule(f: SparseMap):
    """Image rule of f^tensor(q+1) on basis tuples: f in every slot, so a
    tuple goes to the products of one entry of f's column in each slot."""
    ring = f.ring

    def image(tup, _):
        terms = [((), ring.one)]
        for t in tup:
            terms = [(head + (row,), ring.mul(c, a)) for head, c in terms for row, a in f.cols[t]]
        return terms

    return image


class HochschildHomology(HomologyHandle):
    """HH_0..HH_max_degree of an algebra, with canonical class coordinates.

    A chain in the caller's basis of A^tensor(q+1) is a sparse dict {basis
    tuple: coeff}; internally everything runs on the normalized complex of
    a unit-first presentation, and the two are bridged by pushing chains
    through the change of basis in every slot (normalize, chain_of).  A
    class's chain is a normalized cycle lifted by chain_of: normalize(n - 1,
    b(chain)) is zero, b(chain) need not be (it is not for GF(2)[C2] in
    degree 2).  The handle's ranks and boundaries are the normalized
    complex's; its core is built one weight block at a time and never
    holds the whole complex.
    """

    def __init__(self, A: Algebra, max_degree: int):
        super().__init__(A.ring, max_degree)
        self.algebra = A
        reduced, T, Tinv = unit_first_presentation(A)
        self._from_unit_first, self._to_unit_first = tensor_rule(T), tensor_rule(Tinv)
        self.cyclic_module = cyclic_bar(reduced, max_degree)
        self.normalized = NormalizedComplex(self.cyclic_module)
        self.rank, self.boundary = self.normalized.rank, self.normalized.boundary

    @cached_property
    def core(self) -> ChainComplex:
        """The block-diagonal sum of the reduced weight blocks, each built,
        reduced and dropped in turn (NormalizedComplex.block_core)."""
        return self.normalized.block_core(NormalizedComplex.chain_complex, self.max_degree + 1)

    def normalize(self, q: int, chain: dict) -> tuple:
        """Normalized level-q vector of a chain {tuple in the caller's basis:
        coeff}: T^-1 in every slot; a degenerate tuple has no entry."""
        image, zero = push(self.ring, chain, self._to_unit_first), self.ring.zero
        return tuple(image.get(x, zero) for x in self.normalized.level_tuples(q))

    def chain_of(self, q: int, vec) -> dict:
        """A normalized level-q vector as a chain {tuple in the caller's
        basis: coeff}: T in every slot."""
        ring = self.ring
        chain = {x: c for x, c in zip(self.normalized.level_tuples(q), vec) if not ring.is_zero(c)}
        return push(ring, chain, self._from_unit_first)

    def generators(self, n: int) -> tuple:
        """One chain {tuple in the caller's basis: coeff} per generator of
        HH_n, a normalized cycle lifted by chain_of (see the class)."""
        return tuple(self.chain_of(n, g) for g in self.homology_data(n).generators)

    def coordinates(self, n: int, chain: dict) -> tuple:
        """Canonical class coordinates of a chain {tuple in the caller's basis:
        coeff} whose boundary is degenerate.  A key that is not a tuple of
        n+1 indices in range(rank) raises ValueError."""
        r = self.algebra.rank
        for x in chain:
            if not (isinstance(x, tuple) and len(x) == n + 1 and all(isinstance(i, int) and 0 <= i < r for i in x)):
                raise ValueError(f"{x!r} is not a basis tuple of level {n}: {n + 1} indices in range({r})")
        return self.homology_data(n).coordinates(self.normalize(n, chain))

    def is_boundary(self, n: int, chain: dict) -> bool:
        return all(c == 0 for c in self.coordinates(n, chain))


def hochschild_homology(A: Algebra, n: int):
    """HH_n(A) as an FPAbelianGroup (over Z, Z/p^k) or FPModule (fields)."""
    return HochschildHomology(A, n).group(n)


def cyclic_total_complex(A: Algebra, max_degree: int) -> ChainComplex:
    """Total complex of the normalized (b, B) bicomplex of A over Q.

    Tot_m = sum over p >= 0 of the normalized level m-2p; the differential is
    b + B, whose square vanishing is exactly b^2 = 0, B^2 = 0, bB + Bb = 0,
    all of which hold on the nose and are re-checked by the chain complex
    constructor.  Its homology in degrees 0..max_degree is HC_*(A).
    """
    return _cyclic_normalized(A, max_degree).total_complex(max_degree + 1)


def cyclic_core(A: Algebra, max_degree: int) -> ChainComplex:
    """A small complex with the homology of cyclic_total_complex.

    b and B (the weight-0 unit put in front, then a rotation) preserve
    weight, so the total complex is built and reduced one weight block at a
    time, as HochschildHomology.core does.
    """
    return _cyclic_normalized(A, max_degree).block_core(NormalizedComplex.total_complex, max_degree + 1)


def _cyclic_normalized(A: Algebra, max_degree: int) -> NormalizedComplex:
    if A.ring.kind != "Q":
        raise UnsupportedRingError("cyclic homology is computed over Q only")
    if max_degree < 0:
        raise DegreeOutOfRangeError("degree must be >= 0")
    reduced, _, _ = unit_first_presentation(A)
    return NormalizedComplex(cyclic_bar(reduced, max_degree))


def cyclic_homology(A: Algebra, n: int) -> FPModule:
    """HC_n(A) over Q; see cyclic_core."""
    return homology(cyclic_core(A, n), n).group

# ---------------------------------------------------------------------------
# the output of the algebra commands: hh and hc here, and those of trace
# ---------------------------------------------------------------------------


def algebra_line(A: Algebra) -> str:
    return f"algebra {A.name or '(unnamed)'}: rank {A.rank} over {A.ring}"


def coords_str(ring: BaseRing, coords) -> str:
    if not coords:
        return "()"
    return "(" + ", ".join(ring.format_element(c) for c in coords) + ")"


def degree_table(config, header: str, label: str, group, result: dict) -> tuple[bool, str]:
    """The header, then ``label.format(d) = group(d)`` for d = 0..max_degree."""
    from .formats import emit, group_json

    groups = [group(d) for d in range(config.max_degree + 1)]
    lines = [header] + [f"{label.format(d)} = {g}" for d, g in enumerate(groups)]
    result["groups"] = [group_json(g) for g in groups]
    return True, emit(config, lines, result)


def algebra_table(config, A: Algebra, label: str, group) -> tuple[bool, str]:
    from .formats import ring_spec

    result = {"algebra": A.name, "ring": ring_spec(A.ring), "rank": A.rank}
    return degree_table(config, algebra_line(A), label, group, result)


def hh_command(config, A: Algebra) -> tuple[bool, str]:
    """``chaintrace hh``: HH_0 .. HH_max_degree of A (see formats.emit)."""
    return algebra_table(config, A, "HH_{}", HochschildHomology(A, config.max_degree).group)


def hc_command(config, A: Algebra) -> tuple[bool, str]:
    """``chaintrace hc``: HC_0 .. HC_max_degree of A over Q."""
    core = cyclic_core(A, config.max_degree)
    return algebra_table(config, A, "HC_{}", lambda d: homology(core, d).group)
