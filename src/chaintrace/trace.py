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

Every map here is written by chain.basis_map_columns from an image rule on
basis tuples and a row lookup: the bar complex (bar_complex, level q = R[G^q]) and its
normalization on tuples of non-identity elements (GroupHomology) sum the
faces _bar_face writes, and the inclusion of the normalization, phi and the
multitrace send each tuple to one tuple or to zero.  The caps of a whole
pipeline are checked from ranks before any of it is built.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial

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
    LevelRows,
    basis_map_columns,
    check_dense_cells,
    homology,
    reduce_complex,
)
from .conventions import DEGREE_CAP, LEVEL_CAP
from .errors import CapExceededError, DegreeOutOfRangeError, NotInvertibleError
from .hochschild import HochschildHomology, tensor_power_map, tuple_index
from .linalg import Matrix, SparseMap, is_onto
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
]


def _bar_face(G: FiniteGroup, one):
    """Faces of a bar tuple (g_1, ..., g_q), each one (tuple, one) pair:
    d_0 drops g_1, d_i multiplies g_i g_{i+1} for 0 < i < q, d_q drops g_q."""

    def face(tup: tuple, i: int) -> tuple:
        if i == 0:
            return ((tup[1:], one),)
        if i == len(tup):
            return ((tup[:-1], one),)
        return ((tup[: i - 1] + (G.multiply(tup[i - 1], tup[i]),) + tup[i + 1 :], one),)

    return face


def bar_complex(G: FiniteGroup, ring: BaseRing, max_d: int) -> ChainComplex:
    """Unnormalized inhomogeneous bar complex: level q is R[G^q]."""
    n = G.order
    if n**max_d > LEVEL_CAP:
        raise CapExceededError(f"bar level {max_d} has rank {n}^{max_d} > cap {LEVEL_CAP}")
    face, row_of = _bar_face(G, ring.one), partial(tuple_index, n)
    diffs = {}
    for q in range(1, max_d + 1):
        cols = basis_map_columns(ring, itertools.product(range(n), repeat=q), q + 1, face, row_of)
        diffs[q] = SparseMap.from_col_dicts(ring, n ** (q - 1), cols)
    return ChainComplex(ring, [n**q for q in range(max_d + 1)], diffs)


class GroupHomology:
    """H_*(BG; R) via the normalized bar complex, with class coordinates.

    Normalized level q has basis the tuples of non-identity elements; bar
    faces that produce the identity have no row in the level's LevelRows.
    group_at() reads isomorphism types off the reduced core of the complex;
    homology_data() uses the complex itself.
    """

    def __init__(self, G: FiniteGroup, ring: BaseRing, max_degree: int):
        if max_degree < 0:
            raise DegreeOutOfRangeError("max_degree must be >= 0")
        if (G.order - 1) ** (max_degree + 1) > LEVEL_CAP:
            raise CapExceededError(
                f"normalized bar level {max_degree + 1} exceeds cap {LEVEL_CAP} for |G| = {G.order}"
            )
        self.group = G
        self.ring = ring
        self.max_degree = max_degree
        self._others = [g for g in range(G.order) if g != G.identity]
        face = _bar_face(G, ring.one)
        levels = [list(itertools.product(self._others, repeat=q)) for q in range(max_degree + 2)]
        diffs = {}
        for q in range(1, max_degree + 2):
            rows = LevelRows(levels[q - 1], G.identity, 0)
            cols = basis_map_columns(ring, levels[q], q + 1, face, rows.__getitem__)
            diffs[q] = SparseMap.from_col_dicts(ring, len(rows), cols)
        self.complex = ChainComplex(ring, [len(level) for level in levels], diffs)
        self._data: dict[int, HomologyData] = {}

    def inclusion(self, q: int) -> SparseMap:
        """Normalized bar level q -> full bar level q (R[G^q])."""
        n, one = self.group.order, self.ring.one
        tuples = itertools.product(self._others, repeat=q)
        cols = basis_map_columns(self.ring, tuples, 1, lambda tup, _: ((tup, one),), partial(tuple_index, n))
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


def group_homology(G: FiniteGroup, ring: BaseRing, n: int):
    """H_n(BG; R) as an FPAbelianGroup or FPModule."""
    return GroupHomology(G, ring, n).group_at(n)


def group_to_hh(G: FiniteGroup, ring: BaseRing, q: int) -> SparseMap:
    """Chain map bar level q -> cyclic bar level q of R[G].

    (g_1, ..., g_q) |-> (g_q^-1 ... g_1^-1) x g_1 x ... x g_q.  Satisfies
    b . phi = phi . bar boundary exactly, and sends tuples containing the
    identity to degenerate chains.
    """
    n = G.order

    def image(tup, _):
        g = G.identity
        for t in tup:
            g = G.multiply(g, t)
        return (((G.inverse(g),) + tup, ring.one),)

    cols = basis_map_columns(ring, itertools.product(range(n), repeat=q), 1, image, partial(tuple_index, n))
    return SparseMap.from_col_dicts(ring, n ** (q + 1), cols)


def multitrace(A: Algebra, n: int, q: int) -> SparseMap:
    """Trace map: cyclic bar level q of M_n(A) -> cyclic bar level q of A.

    On basis tensors E_(i_0 j_0) a_0 x ... x E_(i_q j_q) a_q the image is
    a_0 x ... x a_q when the matrix indices close up into a cycle
    (j_0 = i_1, ..., j_q = i_0) and zero otherwise.  Commutes with every
    face, degeneracy, and the cyclic operator.  A source level of rank
    above LEVEL_CAP is refused before any tensor is enumerated.
    """
    r = A.rank
    rm = n * n * r
    source_rank = rm ** (q + 1)
    if source_rank > LEVEL_CAP:
        raise CapExceededError(
            f"cyclic bar level {q} of M_{n} has rank {rm}^{q + 1} = {source_rank} > cap {LEVEL_CAP}"
        )
    one = A.ring.one

    def image(tup, _):
        ijs = [(t // (n * r), (t // r) % n, t % r) for t in tup]
        if all(ijs[a][1] == ijs[(a + 1) % (q + 1)][0] for a in range(q + 1)):
            return ((tuple(s for _, _, s in ijs), one),)
        return ()

    cols = basis_map_columns(A.ring, itertools.product(range(rm), repeat=q + 1), 1, image, partial(tuple_index, r))
    return SparseMap.from_col_dicts(A.ring, r ** (q + 1), cols)


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


def dennis_trace_k1(A: Algebra, g, work: HochschildHomology | None = None) -> HomologyClass:
    """Class of tr(g^-1 x g) in HH_1(A) for an invertible matrix g over A.

    g is given as an n x n nested tuple/list of A coefficient vectors.
    Non-invertible input is rejected with the solver's certificate, and a
    size whose level 1 of M_n(A) exceeds LEVEL_CAP before the inverse is
    sought.  The identity matrix maps to zero (its cycle is degenerate).
    """
    n = len(g)
    trace_map = multitrace(A, n, 1)
    g = tuple(tuple(A.normalize_vec(g[i][j]) for j in range(n)) for i in range(n))
    M = matrix_algebra(A, n)
    gv = matrix_entries_to_vec(A, n, g)
    inv = unit_inverse(M, gv)
    if isinstance(inv, NonUnitCertificate):
        raise NotInvertibleError(f"matrix is not invertible over {A.name or A.ring}: {inv.reason}")
    ring, rm = A.ring, M.rank
    tensor = [ring.zero] * (rm * rm)
    for u, a in enumerate(inv):
        if not ring.is_zero(a):
            for v, b in enumerate(gv):
                if not ring.is_zero(b):
                    tensor[u * rm + v] = ring.mul(a, b)
    cycle = trace_map.apply(tensor)
    if work is None:
        work = HochschildHomology(A, 1)
    coords = work.coordinates(1, cycle)
    return HomologyClass(1, coords, cycle, work.homology_data(1).group)


class MoritaResult(Value):
    """Multitrace-induced map HH_d(M_n(A)) -> HH_d(A) per degree."""

    __slots__ = ("degree", "source", "target", "surjective", "isomorphism")
    _fields = __slots__

    def __init__(
        self,
        degree: int,
        source: FPAbelianGroup | FPModule,
        target: FPAbelianGroup | FPModule,
        surjective: bool,
        isomorphism: bool,
    ) -> None:
        self.degree = degree
        self.source = source
        self.target = target
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
    the cokernel of [matrix | torsion relations] vanishes (linalg.is_onto);
    it is an iso iff additionally the invariant data of source and target
    agree, because finitely generated abelian groups (and finite-dimensional
    vector spaces) are Hopfian: a surjection between isomorphic such groups
    is bijective.
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
    surjective = is_onto(full)
    if isinstance(source, FPModule) and isinstance(target, FPModule):
        same = source.dimension == target.dimension and source.field == target.field
    elif isinstance(source, FPAbelianGroup) and isinstance(target, FPAbelianGroup):
        same = source == target
    else:
        same = False
    return surjective, surjective and same


def morita_map(A: Algebra, n: int, max_degree: int) -> list[MoritaResult]:
    """Multitrace-induced maps HH_d(M_n(A)) -> HH_d(A) for d = 0..max_degree.

    The caps of every degree are checked from ranks, in the order the loop
    would meet them, before any boundary is built: a refusal costs no
    complex and no homology work.
    """
    M = matrix_algebra(A, n)
    WM = HochschildHomology(M, max_degree)
    WA = HochschildHomology(A, max_degree)
    for d in range(max_degree + 1):
        WM.cyclic_module.check_full_level(d)  # M's full level is the larger one
        check_dense_cells(M.ring, d, WM.normalized.rank)
        check_dense_cells(A.ring, d, WA.normalized.rank)
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
                surjective=surjective,
                isomorphism=iso,
            )
        )
    return out


class DennisTraceResult(Value):
    """Image of H_d(BGL_n(A); R) in HH_d(A) under the chain-level trace."""

    _fields = ("degree", "gl", "source", "target", "classes")
    __hash__ = None

    def __init__(
        self,
        degree: int,
        gl: GeneralLinearData,
        source: FPAbelianGroup | FPModule,
        target: FPAbelianGroup | FPModule,
        classes: tuple[HomologyClass, ...],  # HH_d classes of the group homology generators
    ) -> None:
        self.degree = degree
        self.gl = gl
        self.source = source
        self.target = target
        self.classes = classes


def dennis_trace_homology(A: Algebra, n: int, d: int) -> DennisTraceResult:
    """Chain-level Dennis trace on group homology generators.

    Enumerates GL_n(A) (finite base ring required, order within
    GROUP_ORDER_CAP: see algebra.general_linear_group), computes
    H_d(BGL_n(A); R) with R the base ring of A, pushes every homology
    generator through phi, the embedding, and the multitrace, and reduces in
    HH_d(A).  Both eliminations are checked against DENSE_CELL_CAP from the
    ranks, the normalized bar complex's (|G| - 1)^q first, before any chain
    map or complex is built.
    """
    if d > DEGREE_CAP:
        raise CapExceededError(f"degree {d} above the trace pipeline cap {DEGREE_CAP}")
    gl = general_linear_group(A, n)
    G = gl.group
    ring = A.ring
    WA = HochschildHomology(A, d)
    check_dense_cells(ring, d, lambda q: (G.order - 1) ** q if 0 <= q <= d + 1 else 0)
    check_dense_cells(ring, d, WA.normalized.rank)
    GH = GroupHomology(G, ring, d)

    phi = group_to_hh(G, ring, d)
    iota_q = tensor_power_map(gl.embedding.matrix, d + 1)
    tr = multitrace(A, n, d)
    bridge = WA.to_normalized(d).compose(tr).compose(iota_q).compose(phi).compose(GH.inclusion(d))

    src = GH.homology_data(d)
    tgt = WA.homology_data(d)
    classes = []
    conv = WA.from_normalized(d)
    for gen in src.generators:
        img = bridge.apply(gen)
        classes.append(HomologyClass(d, tgt.coordinates(img), conv.apply(img), tgt.group))
    return DennisTraceResult(
        degree=d, gl=gl, source=src.group, target=tgt.group, classes=tuple(classes)
    )
