"""Group homology and the chain-level Dennis trace pipeline.

The composite implemented here is

    H_d(BGL_n(A); R)  ->  HH_d(R[GL_n(A)])  ->  HH_d(M_n(A))  ->  HH_d(A)

with three explicit chain maps:

* the bar-to-cyclic map phi_q(g_1, ..., g_q) =
  (g_q^-1 ... g_1^-1) x g_1 x ... x g_q, a chain map on the nose;
* the map induced by the algebra embedding R[GL_n(A)] -> M_n(A) (tensor
  powers of its matrix);
* the multitrace tr(x_0 x ... x x_q) = sum over index cycles of
  (x_0)_{i_0 i_1} x (x_1)_{i_1 i_2} x ... x (x_q)_{i_q i_0}.

Everything stays at chain level; no plus construction, no stabilization.
K_1-flavored traces (dennis_trace_k1) take a single invertible matrix g and
return the class of tr(g^-1 x g) in HH_1(A).
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .algebra import (
    Algebra,
    FiniteGroup,
    GeneralLinearData,
    NonUnitCertificate,
    general_linear_group,
    matrix_algebra,
    matrix_entries_to_vec,
    unit_inverse,
)
from .chain import (
    ChainComplex,
    FPAbelianGroup,
    FPModule,
    HomologyData,
    check_dense_cells,
    homology,
    reduce_complex,
)
from .conventions import DEGREE_CAP, GROUP_ORDER_CAP, LEVEL_CAP
from .errors import CapExceededError, DegreeOutOfRangeError, NotInvertibleError
from .hochschild import HochschildHomology, tensor_power_map
from .linalg import Matrix, SparseMap, smith_normal_form
from .rings import BaseRing
from .values import Value

__all__ = [
    "bar_complex",
    "GroupHomology",
    "group_homology",
    "group_to_hh",
    "multitrace",
    "HomologyClass",
    "dennis_trace_k1",
    "DennisTraceResult",
    "dennis_trace_homology",
    "MoritaResult",
    "morita_map",
    "fp_map_is_iso",
    "DEGREE_CAP",
    "GROUP_ORDER_CAP",
]


def _tuple_index(order: int, tup) -> int:
    idx = 0
    for t in tup:
        idx = idx * order + t
    return idx


def _bar_boundary(G: FiniteGroup, ring: BaseRing, tuples, row_of) -> list[dict]:
    """Columns of the inhomogeneous bar boundary on the given q-tuples.

    boundary(g_1, ..., g_q) = (g_2, ..., g_q)
        + sum_{i=1}^{q-1} (-1)^i (g_1, ..., g_i g_{i+1}, ..., g_q)
        + (-1)^q (g_1, ..., g_{q-1}).

    row_of maps a (q-1)-tuple to its row, or to None for a face the
    complex drops.
    """
    plus, minus = ring.one, ring.neg(ring.one)
    cols = []
    for tup in tuples:
        q = len(tup)
        faces = [(tup[1:], plus)]
        for i in range(1, q):
            merged = tup[: i - 1] + (G.multiply(tup[i - 1], tup[i]),) + tup[i + 1 :]
            faces.append((merged, minus if i % 2 else plus))
        faces.append((tup[:-1], minus if q % 2 else plus))
        col: dict[int, object] = {}
        for target, sign in faces:
            row = row_of(target)
            if row is not None:
                col[row] = ring.add(col.get(row, ring.zero), sign)
        cols.append(col)
    return cols


def bar_complex(G: FiniteGroup, ring: BaseRing, max_d: int, cap: int = LEVEL_CAP) -> ChainComplex:
    """Unnormalized inhomogeneous bar complex: level q is R[G^q]."""
    n = G.order
    if n**max_d > cap:
        raise CapExceededError(f"bar level {max_d} has rank {n}^{max_d} > cap {cap}")
    diffs = {}
    for q in range(1, max_d + 1):
        cols = _bar_boundary(G, ring, itertools.product(range(n), repeat=q), lambda t: _tuple_index(n, t))
        diffs[q] = SparseMap.from_col_dicts(ring, n ** (q - 1), cols)
    return ChainComplex(ring, [n**q for q in range(max_d + 1)], diffs)


class GroupHomology:
    """H_*(BG; R) via the normalized bar complex, with class coordinates.

    Normalized level q has basis the tuples of non-identity elements; bar
    faces that produce the identity are killed by the projection.
    group_at() reads isomorphism types off the reduced core of the complex;
    homology_data() uses the complex itself.
    """

    def __init__(self, G: FiniteGroup, ring: BaseRing, max_degree: int, cap: int = LEVEL_CAP):
        if max_degree < 0:
            raise DegreeOutOfRangeError("max_degree must be >= 0")
        if (G.order - 1) ** (max_degree + 1) > cap:
            raise CapExceededError(
                f"normalized bar level {max_degree + 1} exceeds cap {cap} for |G| = {G.order}"
            )
        self.group = G
        self.ring = ring
        self.max_degree = max_degree
        self._tuples: dict[int, list] = {}
        self._index: dict[int, dict] = {}
        others = [g for g in range(G.order) if g != G.identity]
        self._others = others
        top = max_degree + 1
        diffs = {}
        self.level_tuples(0)
        for q in range(1, top + 1):
            # faces containing the identity are degenerate and have no row
            cols = _bar_boundary(G, ring, self.level_tuples(q), self._index[q - 1].get)
            diffs[q] = SparseMap.from_col_dicts(ring, self.rank(q - 1), cols)
        self.complex = ChainComplex(ring, [self.rank(q) for q in range(top + 1)], diffs)
        self._data: dict[int, HomologyData] = {}

    def level_tuples(self, q: int) -> list:
        if q not in self._tuples:
            tups = sorted(itertools.product(self._others, repeat=q))
            self._tuples[q] = tups
            self._index[q] = {t: i for i, t in enumerate(tups)}
        return self._tuples[q]

    def rank(self, q: int) -> int:
        return len(self.level_tuples(q))

    def inclusion(self, q: int) -> SparseMap:
        """Normalized bar level q -> full bar level q (R[G^q])."""
        n = self.group.order
        cols = [{_tuple_index(n, tup): self.ring.one} for tup in self.level_tuples(q)]
        return SparseMap.from_col_dicts(self.ring, n**q, cols)

    def homology_data(self, n: int) -> HomologyData:
        if n < 0 or n > self.max_degree:
            raise DegreeOutOfRangeError(f"degree {n} outside 0..{self.max_degree}")
        if n not in self._data:
            self._data[n] = homology(self.complex, n)
        return self._data[n]

    @cached_property
    def core(self) -> ChainComplex:
        """reduce_complex of the normalized bar complex, built on first use."""
        return reduce_complex(self.complex)

    def group_at(self, n: int) -> FPAbelianGroup | FPModule:
        return homology(self.core, n).group


def group_homology(G: FiniteGroup, ring: BaseRing, n: int, cap: int = LEVEL_CAP):
    """H_n(BG; R) as an FPAbelianGroup or FPModule."""
    return GroupHomology(G, ring, n, cap).group_at(n)


def group_to_hh(G: FiniteGroup, ring: BaseRing, q: int) -> SparseMap:
    """Chain map bar level q -> cyclic bar level q of R[G].

    (g_1, ..., g_q) |-> (g_q^-1 ... g_1^-1) x g_1 x ... x g_q.  Satisfies
    b . phi = phi . bar boundary exactly, and sends tuples containing the
    identity to degenerate chains.
    """
    n = G.order
    cols = []
    for tup in itertools.product(range(n), repeat=q):
        g = G.identity
        for t in tup:
            g = G.multiply(g, t)
        lead = G.inverse(g)
        cols.append({_tuple_index(n, (lead,) + tup): ring.one})
    return SparseMap.from_col_dicts(ring, n ** (q + 1), cols)


def multitrace(A: Algebra, n: int, q: int) -> SparseMap:
    """Trace map: cyclic bar level q of M_n(A) -> cyclic bar level q of A.

    On basis tensors E_(i_0 j_0) a_0 x ... x E_(i_q j_q) a_q the image is
    a_0 x ... x a_q when the matrix indices close up into a cycle
    (j_0 = i_1, ..., j_q = i_0) and zero otherwise.  Commutes with every
    face, degeneracy, and the cyclic operator.
    """
    r = A.rank
    rm = n * n * r
    source_rank = rm ** (q + 1)
    target_rank = r ** (q + 1)
    cols: list[dict] = []
    for tup in itertools.product(range(rm), repeat=q + 1):
        ijs = [(t // (n * r), (t // r) % n, t % r) for t in tup]
        if all(ijs[a][1] == ijs[(a + 1) % (q + 1)][0] for a in range(q + 1)):
            cols.append({_tuple_index(r, tuple(s for _, _, s in ijs)): A.ring.one})
        else:
            cols.append({})
    return SparseMap.from_col_dicts(A.ring, target_rank, cols)


class HomologyClass(Value):
    """A homology class: canonical coordinates plus one representative."""

    __slots__ = ("degree", "coordinates", "representative", "group")
    _fields = __slots__

    def __init__(
        self, degree: int, coordinates: tuple, representative: tuple, group: FPAbelianGroup | FPModule
    ) -> None:
        self.degree = degree
        self.coordinates = coordinates
        self.representative = representative
        self.group = group

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)


def dennis_trace_k1(
    A: Algebra,
    g,
    work: HochschildHomology | None = None,
    cap: int = LEVEL_CAP,
) -> HomologyClass:
    """Class of tr(g^-1 x g) in HH_1(A) for an invertible matrix g over A.

    g is given as an n x n nested tuple/list of A coefficient vectors.
    Non-invertible input is rejected with the solver's certificate.  The
    identity matrix maps to zero (its cycle is degenerate).
    """
    n = len(g)
    g = tuple(tuple(A.normalize_vec(g[i][j]) for j in range(n)) for i in range(n))
    M = matrix_algebra(A, n)
    gv = matrix_entries_to_vec(A, n, g)
    inv = unit_inverse(M, gv)
    if isinstance(inv, NonUnitCertificate):
        raise NotInvertibleError(f"matrix is not invertible over {A.name or A.ring}: {inv.reason}")
    from .algebra import vec_to_matrix_entries

    ginv = vec_to_matrix_entries(A, n, inv)

    r = A.rank
    ring = A.ring
    cycle = [ring.zero] * (r * r)
    for i in range(n):
        for j in range(n):
            u, v = ginv[i][j], g[j][i]
            for s, a in enumerate(u):
                if ring.is_zero(a):
                    continue
                for t, b in enumerate(v):
                    if not ring.is_zero(b):
                        k = s * r + t
                        cycle[k] = ring.add(cycle[k], ring.mul(a, b))
    cycle = tuple(cycle)
    if work is None:
        work = HochschildHomology(A, 1, cap)
    coords = work.coordinates(1, cycle)
    return HomologyClass(1, coords, cycle, work.homology_data(1).group)


class MoritaResult(Value):
    """Multitrace-induced map HH_d(M_n(A)) -> HH_d(A) per degree."""

    __slots__ = ("degree", "source", "target", "matrix", "surjective", "isomorphism")
    _fields = __slots__

    def __init__(
        self,
        degree: int,
        source: FPAbelianGroup | FPModule,
        target: FPAbelianGroup | FPModule,
        matrix: Matrix,  # target coordinates of source generators
        surjective: bool,
        isomorphism: bool,
    ) -> None:
        self.degree = degree
        self.source = source
        self.target = target
        self.matrix = matrix
        self.surjective = surjective
        self.isomorphism = isomorphism


def fp_map_is_iso(
    source: FPAbelianGroup | FPModule,
    target: FPAbelianGroup | FPModule,
    matrix: Matrix,
    orders: tuple[int, ...],
) -> tuple[bool, bool]:
    """(surjective, iso) for a map of f.g. groups given in canonical coords.

    orders are the target generator orders (0 = free).  The map is onto iff
    the cokernel of [matrix | torsion relations] vanishes; it is an iso iff
    additionally the invariant data of source and target agree, because
    finitely generated abelian groups (and finite-dimensional vector spaces)
    are Hopfian: a surjection between isomorphic such groups is bijective.
    """
    ring = matrix.ring
    k = matrix.nrows
    rel_cols = []
    for i, d in enumerate(orders):
        if d:
            rel_cols.append(tuple(d if j == i else 0 for j in range(k)))
    full = Matrix(
        ring,
        [list(matrix.rows[i]) + [col[i] for col in rel_cols] for i in range(k)],
        matrix.ncols + len(rel_cols),
    )
    dec = smith_normal_form(full)
    surjective = dec.rank == k and all(ring.is_unit(d) for d in dec.invariant_factors)
    if isinstance(source, FPModule) and isinstance(target, FPModule):
        same = source.dimension == target.dimension and source.field == target.field
    elif isinstance(source, FPAbelianGroup) and isinstance(target, FPAbelianGroup):
        same = source == target
    else:
        same = False
    return surjective, surjective and same


def morita_map(A: Algebra, n: int, max_degree: int, cap: int = LEVEL_CAP) -> list[MoritaResult]:
    """Multitrace-induced maps HH_d(M_n(A)) -> HH_d(A) for d = 0..max_degree.

    The caps of every degree are checked, in the order the loop would meet
    them, before the first elimination: a refusal costs no homology work.
    """
    M = matrix_algebra(A, n)
    WM = HochschildHomology(M, max_degree, cap)
    WA = HochschildHomology(A, max_degree, cap)
    for d in range(max_degree + 1):
        WM.cyclic_module.check_full_level(d)  # M's full level is the larger one
        check_dense_cells(WM.complex, d)
        check_dense_cells(WA.complex, d)
    out = []
    for d in range(max_degree + 1):
        from_m = WM.from_normalized(d)
        bridge = WA.to_normalized(d).compose(multitrace(A, n, d)).compose(from_m)
        src = WM.homology_data(d)
        tgt = WA.homology_data(d)
        cols = [tgt.coordinates(bridge.apply(gen)) for gen in src.generators]
        mat = Matrix.from_cols(A.ring, cols, len(tgt.generators))
        surjective, iso = fp_map_is_iso(src.group, tgt.group, mat, tgt.orders)
        out.append(
            MoritaResult(
                degree=d,
                source=src.group,
                target=tgt.group,
                matrix=mat,
                surjective=surjective,
                isomorphism=iso,
            )
        )
    return out


class DennisTraceResult(Value):
    """Image of H_d(BGL_n(A); R) in HH_d(A) under the chain-level trace."""

    _fields = (
        "degree", "gl", "source", "target", "matrix", "classes", "group_homology", "hochschild"
    )
    __hash__ = None

    def __init__(
        self,
        degree: int,
        gl: GeneralLinearData,
        source: FPAbelianGroup | FPModule,
        target: FPAbelianGroup | FPModule,
        matrix: Matrix,  # HH_d coordinates of each group homology generator image
        classes: tuple[HomologyClass, ...],
        group_homology: GroupHomology,
        hochschild: HochschildHomology,
    ) -> None:
        self.degree = degree
        self.gl = gl
        self.source = source
        self.target = target
        self.matrix = matrix
        self.classes = classes
        self.group_homology = group_homology
        self.hochschild = hochschild


def dennis_trace_homology(
    A: Algebra,
    n: int,
    d: int,
    degree_cap: int = DEGREE_CAP,
    group_cap: int = GROUP_ORDER_CAP,
    cap: int = LEVEL_CAP,
) -> DennisTraceResult:
    """Chain-level Dennis trace on group homology generators.

    Enumerates GL_n(A) (finite base ring required), computes
    H_d(BGL_n(A); R) with R the base ring of A, pushes every homology
    generator through phi, the embedding, and the multitrace, and reduces in
    HH_d(A).
    """
    if d > degree_cap:
        raise CapExceededError(f"degree {d} above the trace pipeline cap {degree_cap}")
    gl = general_linear_group(A, n)
    G = gl.group
    if G.order > group_cap:
        raise CapExceededError(f"|GL_{n}| = {G.order} above the group order cap {group_cap}")
    ring = A.ring
    GH = GroupHomology(G, ring, d, cap)
    WA = HochschildHomology(A, d, cap)
    M = matrix_algebra(A, n)

    phi = group_to_hh(G, ring, d)
    iota_q = tensor_power_map(SparseMap.from_matrix(gl.embedding.matrix), d + 1)
    tr = multitrace(A, n, d)
    bridge = WA.to_normalized(d).compose(tr).compose(iota_q).compose(phi).compose(GH.inclusion(d))

    src = GH.homology_data(d)
    tgt = WA.homology_data(d)
    classes = []
    cols = []
    conv = WA.from_normalized(d)
    for gen in src.generators:
        img = bridge.apply(gen)
        coords = tgt.coordinates(img)
        cols.append(coords)
        classes.append(HomologyClass(d, coords, conv.apply(img), tgt.group))
    mat = Matrix.from_cols(ring, cols, len(tgt.generators))
    return DennisTraceResult(
        degree=d,
        gl=gl,
        source=src.group,
        target=tgt.group,
        matrix=mat,
        classes=tuple(classes),
        group_homology=GH,
        hochschild=WA,
    )
