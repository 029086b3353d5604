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
never built for them.  Both b's sum the faces of _face with
chain.alternating_face_sum.  Homology results are converted back to the
caller's original basis at the API boundary.

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
from functools import cache, cached_property, partial

from .algebra import Algebra, AlgebraHom, unit_first_presentation
from .chain import ChainComplex, FPAbelianGroup, FPModule, HomologyData, LevelRows, alternating_face_sum
from .chain import direct_sum, homology, reduce_complex
from .conventions import B_CONVENTION, LEVEL_CAP
from .errors import CapExceededError, DegreeOutOfRangeError, UnsupportedRingError, ValidationError
from .linalg import Matrix, SparseMap, smith_normal_form
from .rings import ZZ

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
    "induced_chain_map",
    "tensor_power_map",
    "LEVEL_CAP",
    "B_CONVENTION",
]


class CyclicModule:
    """Levels A^tensor(q+1) for q = 0..max_level with the cyclic structure.

    All operators are column-sparse maps, built lazily and cached.  A full
    level of rank above LEVEL_CAP is refused when an operator on it is built.
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

    def check_full_level(self, q: int) -> None:
        """Raise CapExceededError if full level q has rank above LEVEL_CAP."""
        r = self.algebra.rank
        if r ** (q + 1) > LEVEL_CAP:
            raise CapExceededError(
                f"cyclic bar level {q} has rank {r}^{q + 1} = {r ** (q + 1)} > cap {LEVEL_CAP}"
            )

    def tuples(self, q: int):
        self.check_full_level(q)
        return itertools.product(range(self.algebra.rank), repeat=q + 1)

    def _check_level(self, q: int, lo: int = 0) -> None:
        if q < lo or q > self.max_level:
            raise DegreeOutOfRangeError(f"level {q} outside 0..{self.max_level}")

    def face(self, q: int, i: int) -> SparseMap:
        """d_i: level q -> level q-1."""
        self._check_level(q, lo=1)
        if not 0 <= i <= q:
            raise DegreeOutOfRangeError(f"face index {i} outside 0..{q}")
        key = ("d", q, i)
        if key not in self._cache:
            cols = [
                {tuple_index(self.algebra.rank, target): c for target, c in _face(self.algebra, tup, i)}
                for tup in self.tuples(q)
            ]
            self._cache[key] = SparseMap.from_col_dicts(self.ring, self.level_rank(q - 1), cols)
        return self._cache[key]

    def degeneracy(self, q: int, j: int) -> SparseMap:
        """s_j: level q -> level q+1, inserting the unit after slot j."""
        self._check_level(q)
        self._check_level(q + 1)
        if not 0 <= j <= q:
            raise DegreeOutOfRangeError(f"degeneracy index {j} outside 0..{q}")
        key = ("s", q, j)
        if key not in self._cache:
            A, ring = self.algebra, self.ring
            cols = []
            for tup in self.tuples(q):
                col = {}
                for k, c in enumerate(A.unit):
                    if not ring.is_zero(c):
                        col[tuple_index(A.rank, tup[: j + 1] + (k,) + tup[j + 1 :])] = c
                cols.append(col)
            self._cache[key] = SparseMap.from_col_dicts(ring, self.level_rank(q + 1), cols)
        return self._cache[key]

    def cyclic(self, q: int) -> SparseMap:
        """t: level q -> level q, last slot to the front, no sign."""
        self._check_level(q)
        key = ("t", q)
        if key not in self._cache:
            ring, r = self.ring, self.algebra.rank
            cols = []
            for tup in self.tuples(q):
                cols.append({tuple_index(r, (tup[q],) + tup[:q]): ring.one})
            self._cache[key] = SparseMap.from_col_dicts(ring, self.level_rank(q), cols)
        return self._cache[key]

    def boundary(self, q: int) -> SparseMap:
        """Hochschild b = sum_i (-1)^i d_i: level q -> level q-1."""
        self._check_level(q, lo=1)
        key = ("b", q)
        if key not in self._cache:
            A = self.algebra
            cols = alternating_face_sum(A.ring, self.tuples(q), q + 1, partial(_face, A), partial(tuple_index, A.rank))
            self._cache[key] = SparseMap.from_col_dicts(self.ring, self.level_rank(q - 1), cols)
        return self._cache[key]

    def signed_cyclic(self, q: int) -> SparseMap:
        """t_s = (-1)^q t at level q."""
        t = self.cyclic(q)
        return t if q % 2 == 0 else t.neg()


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
    only when an operator on it is built (see CyclicModule.check_full_level).
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
    unit-free tuples; only projection and inclusion touch the full levels.
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
        self._index: dict[int, dict] = {}
        self._cache: dict = {}

    def level_tuples(self, q: int) -> list:
        if q not in self._tuples:
            r = self.cyclic_module.algebra.rank
            self._tuples[q] = list(itertools.product(range(r), *[range(1, r)] * q))
        return self._tuples[q]

    def rank(self, q: int) -> int:
        if q < 0 or q > self.cyclic_module.max_level:
            return 0
        return len(self.level_tuples(q))

    def _row_of(self, q: int):
        """Row lookup on level q; a tuple with the unit past slot 0 has none."""
        if q not in self._index:
            self._index[q] = LevelRows(self.level_tuples(q), 0, 1)
        return self._index[q].__getitem__

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

    def projection(self, q: int) -> SparseMap:
        """Full level q -> normalized level q (kill degenerate tuples)."""
        key = ("proj", q)
        if key not in self._cache:
            row_of = self._row_of(q)
            ring = self.ring
            cols = []
            for tup in self.cyclic_module.tuples(q):
                pos = row_of(tup)
                cols.append({} if pos is None else {pos: ring.one})
            self._cache[key] = SparseMap.from_col_dicts(ring, self.rank(q), cols)
        return self._cache[key]

    def inclusion(self, q: int) -> SparseMap:
        """Normalized level q -> full level q (basis section)."""
        key = ("incl", q)
        if key not in self._cache:
            ring = self.ring
            cm = self.cyclic_module
            cols = [{tuple_index(cm.algebra.rank, tup): ring.one} for tup in self.level_tuples(q)]
            self._cache[key] = SparseMap.from_col_dicts(ring, cm.level_rank(q), cols)
        return self._cache[key]

    def boundary(self, q: int) -> SparseMap:
        """Induced Hochschild boundary: b with degenerate faces dropped."""
        key = ("b", q)
        if key not in self._cache:
            self.cyclic_module._check_level(q, lo=1)
            A = self.cyclic_module.algebra
            cols = alternating_face_sum(A.ring, self.level_tuples(q), q + 1, partial(_face, A), self._row_of(q - 1))
            self._cache[key] = SparseMap.from_col_dicts(self.ring, self.rank(q - 1), cols)
        return self._cache[key]

    def connes_b(self, q: int) -> SparseMap:
        """Induced Connes boundary B: normalized level q -> q+1.

        B(a) = sum_{i=0}^{q} (-1)^(qi) (0, t^i a): t^i moves the last i slots
        to the front, and a term with index 0 past slot 0 is degenerate.
        """
        key = ("B", q)
        if key not in self._cache:
            self.cyclic_module._check_level(q + 1, lo=1)
            ring = self.ring
            signs = [ring.neg(ring.one) if q * i % 2 else ring.one for i in range(q + 1)]
            row_of = self._row_of(q + 1)
            cols = []
            for tup in self.level_tuples(q):
                col: dict[int, object] = {}
                for i, sign in enumerate(signs):
                    row = row_of((0,) + tup[q + 1 - i :] + tup[: q + 1 - i])
                    if row is not None:
                        col[row] = ring.add(col.get(row, ring.zero), sign)
                cols.append(col)
            self._cache[key] = SparseMap.from_col_dicts(ring, self.rank(q + 1), cols)
        return self._cache[key]

    def chain_complex(self, top: int) -> ChainComplex:
        ranks = [self.rank(q) for q in range(top + 1)]
        diffs = {q: self.boundary(q) for q in range(1, top + 1)}
        return ChainComplex(self.ring, ranks, diffs)

    def total_complex(self, top: int) -> ChainComplex:
        """Degrees 0..top of the (b, B) total complex (cyclic_total_complex)."""
        offsets: dict[int, list[int]] = {}
        totals: dict[int, int] = {}
        for m in range(top + 1):
            offs, pos = [], 0
            p = 0
            while m - 2 * p >= 0:
                offs.append(pos)
                pos += self.rank(m - 2 * p)
                p += 1
            offsets[m] = offs
            totals[m] = pos

        ring = self.ring
        diffs: dict[int, SparseMap] = {}
        for m in range(1, top + 1):
            cols: list[dict] = [dict() for _ in range(totals[m])]
            for p, off in enumerate(offsets[m]):
                q = m - 2 * p
                b = self.boundary(q) if q >= 1 else None
                B = self.connes_b(q) if p >= 1 else None
                for j in range(self.rank(q)):
                    col = cols[off + j]
                    if b is not None:
                        tgt_off = offsets[m - 1][p]
                        for i, c in b.cols[j]:
                            col[tgt_off + i] = ring.add(col.get(tgt_off + i, ring.zero), c)
                    if B is not None:
                        tgt_off = offsets[m - 1][p - 1]
                        for i, c in B.cols[j]:
                            col[tgt_off + i] = ring.add(col.get(tgt_off + i, ring.zero), c)
            diffs[m] = SparseMap.from_col_dicts(ring, totals[m - 1], cols)

        return ChainComplex(ring, [totals[m] for m in range(top + 1)], diffs)

    def block_core(self, build, top: int) -> ChainComplex:
        """Block-diagonal sum of reduce_complex(build(block, top)) over the
        weight blocks, each built, checked, reduced and dropped in turn."""
        return direct_sum(self.ring, top, (reduce_complex(build(b, top)) for _, b in self.weight_blocks()))


def tensor_power_map(f: SparseMap, power: int) -> SparseMap:
    """f^tensor(power) with big-endian tuple indexing on both sides."""
    if power < 1:
        raise ValueError("tensor power must be >= 1")
    ring = f.ring
    nrows, ncols = f.nrows, f.ncols
    cols: list[dict] = []
    for tup in itertools.product(range(ncols), repeat=power):
        acc = {0: ring.one}
        for t in tup:
            nxt: dict[int, object] = {}
            for base, c in acc.items():
                for row, a in f.cols[t]:
                    key = base * nrows + row
                    prev = nxt.get(key)
                    val = ring.mul(c, a)
                    nxt[key] = val if prev is None else ring.add(prev, val)
            acc = nxt
            if not acc:
                break
        cols.append(acc)
    return SparseMap.from_col_dicts(ring, nrows**power, cols)


def induced_chain_map(f: AlgebraHom, q: int) -> SparseMap:
    """Level-q map of cyclic bar constructions induced by an algebra map."""
    return tensor_power_map(SparseMap.from_matrix(f.matrix), q + 1)


class HochschildHomology:
    """HH_0..HH_max_degree of an algebra, with canonical class coordinates.

    Representatives and input cycles use the caller's basis of A^tensor(q+1);
    internally everything runs on the normalized complex of a unit-first
    presentation, and the two are bridged by tensor powers of the change of
    basis.  group() reads isomorphism types off core, which is built one
    weight block of the normalized complex at a time and never holds the
    whole complex; homology_data() and everything built on it use complex,
    the whole normalized complex, built on first use.
    """

    def __init__(self, A: Algebra, max_degree: int):
        if max_degree < 0:
            raise DegreeOutOfRangeError("max_degree must be >= 0")
        self.algebra = A
        self.ring = A.ring
        self.max_degree = max_degree
        reduced, T, Tinv = unit_first_presentation(A)
        self._t_map = SparseMap.from_matrix(T)
        self._tinv_map = SparseMap.from_matrix(Tinv)
        self.cyclic_module = cyclic_bar(reduced, max_degree)
        self.normalized = NormalizedComplex(self.cyclic_module)
        self._data: dict[int, HomologyData] = {}
        self._to_norm: dict[int, SparseMap] = {}
        self._from_norm: dict[int, SparseMap] = {}

    @cached_property
    def complex(self) -> ChainComplex:
        """The normalized complex in degrees 0..max_degree+1."""
        return self.normalized.chain_complex(self.max_degree + 1)

    def homology_data(self, n: int) -> HomologyData:
        if n < 0 or n > self.max_degree:
            raise DegreeOutOfRangeError(f"degree {n} outside 0..{self.max_degree}")
        if n not in self._data:
            self._data[n] = homology(self.complex, n)
        return self._data[n]

    @cached_property
    def core(self) -> ChainComplex:
        """A small complex with the homology of the normalized one.

        Each weight block (NormalizedComplex.weight_blocks) is built, checked
        by the ChainComplex constructor, reduced by reduce_complex and
        dropped before the next; the core is the block-diagonal sum of the
        block cores in sorted weight order.  A face that leaves its block
        raises InternalInvariantError.
        """
        return self.normalized.block_core(NormalizedComplex.chain_complex, self.max_degree + 1)

    def group(self, n: int) -> FPAbelianGroup | FPModule:
        return homology(self.core, n).group

    def to_normalized(self, q: int) -> SparseMap:
        """Original-basis level q -> normalized level q."""
        if q not in self._to_norm:
            self.cyclic_module.check_full_level(q)
            self._to_norm[q] = self.normalized.projection(q).compose(
                tensor_power_map(self._tinv_map, q + 1)
            )
        return self._to_norm[q]

    def from_normalized(self, q: int) -> SparseMap:
        """Normalized level q -> original-basis level q."""
        if q not in self._from_norm:
            self.cyclic_module.check_full_level(q)
            self._from_norm[q] = tensor_power_map(self._t_map, q + 1).compose(
                self.normalized.inclusion(q)
            )
        return self._from_norm[q]

    def generators(self, n: int) -> tuple:
        """Representative cycles in the original basis of A^tensor(n+1)."""
        data = self.homology_data(n)
        conv = self.from_normalized(n)
        return tuple(conv.apply(g) for g in data.generators)

    def coordinates(self, n: int, vec) -> tuple:
        """Canonical class coordinates of a cycle given in the original basis."""
        return self.homology_data(n).coordinates(self.to_normalized(n).apply(vec))

    def is_boundary(self, n: int, vec) -> bool:
        return all(c == 0 for c in self.coordinates(n, vec))


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
