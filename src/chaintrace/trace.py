"""Group homology and the chain-level Dennis trace pipeline.

The composite implemented here is

    H_d(BGL_n(A); R)  ->  HH_d(R[GL_n(A)])  ->  HH_d(M_n(A))  ->  HH_d(A)

with three explicit chain maps:

* the bar-to-cyclic map phi_q(g_1, ..., g_q) =
  (g_q^-1 ... g_1^-1) x g_1 x ... x g_q, a chain map on the nose;
* the map induced by the algebra embedding R[GL_n(A)] -> M_n(A) (its
  matrix in every slot, hochschild.tensor_rule);
* the multitrace tr(x_0 x ... x x_q) = sum over index cycles of
  (x_0)_{i_0 i_1} x (x_1)_{i_1 i_2} x ... x (x_q)_{i_q i_0}.

Everything stays at chain level; no plus construction, no stabilization.
K_1-flavored traces (dennis_trace_k1) take a single invertible matrix g and
return the class of tr(g^-1 x g) in HH_1(A).

A HomologyClass's representative is a sparse chain in A's basis:
dennis_trace_k1's, the pushed trace of g^-1 x g, is a cycle;
dennis_trace_homology's is a normalized cycle lifted by chain_of, whose
boundary is degenerate but not always zero (GF(2)[C2], degrees 2 to 4).

Every map here is an image rule on basis tuples: the bar complex
(bar_complex, level q = R[G^q]) and its normalization on tuples of
non-identity elements (GroupHomology) sum the faces _bar_face writes, and
phi and the multitrace send each tuple to one tuple or to zero.  The
pipelines push each generator through the rules (chain.push), so no full
level is enumerated; group_to_hh and multitrace write the rules as
whole-level matrices for the chain-map checks.  A pipeline checks its caps
from its handles' ranks (chain.HomologyHandle) before it builds anything.
"""

from __future__ import annotations

import itertools
from functools import partial

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
    HomologyHandle,
    LevelRows,
    basis_map_columns,
    check_dense_cells,
    push,
)
from .conventions import DEGREE_CAP, LEVEL_CAP
from .errors import CapExceededError, NotInvertibleError
from .hochschild import (
    HochschildHomology,
    algebra_line,
    check_full_level,
    coords_str,
    degree_table,
    tensor_rule,
    tuple_index,
)
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
    "group_homology_command",
    "trace_k1_command",
    "trace_homology_command",
    "morita_command",
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


def _bar_rank(G: FiniteGroup, top: int, q: int) -> int:
    """Rank of normalized bar level q of G in levels 0..top: (|G| - 1)^q."""
    return (G.order - 1) ** q if 0 <= q <= top else 0


class GroupHomology(HomologyHandle):
    """H_*(BG; R) via the normalized bar complex, with class coordinates.

    Normalized level q has basis the tuples of non-identity elements; bar
    faces that produce the identity have no row in the level's LevelRows.
    The ranks are _bar_rank's; the boundary is built on first read.
    """

    def __init__(self, G: FiniteGroup, ring: BaseRing, max_degree: int):
        super().__init__(ring, max_degree)
        if _bar_rank(G, max_degree + 1, max_degree + 1) > LEVEL_CAP:
            raise CapExceededError(
                f"normalized bar level {max_degree + 1} exceeds cap {LEVEL_CAP} for |G| = {G.order}"
            )
        self.finite_group = G
        self._others = [g for g in range(G.order) if g != G.identity]

    def level(self, q: int):
        """The tuples of normalized level q in row order: q non-identity elements."""
        return itertools.product(self._others, repeat=q)

    def rank(self, q: int) -> int:
        return _bar_rank(self.finite_group, self.max_degree + 1, q)

    def boundary(self, q: int) -> SparseMap:
        """Bar boundary of normalized level q, from the faces _bar_face writes."""
        G = self.finite_group
        rows = LevelRows(self.level(q - 1), G.identity, 0)
        cols = basis_map_columns(self.ring, self.level(q), q + 1, _bar_face(G, self.ring.one), rows.__getitem__)
        return SparseMap.from_col_dicts(self.ring, len(rows), cols)


def group_homology(G: FiniteGroup, ring: BaseRing, n: int):
    """H_n(BG; R) as an FPAbelianGroup or FPModule."""
    return GroupHomology(G, ring, n).group(n)


def _phi_rule(G: FiniteGroup, one):
    """Image rule of phi: (g_1, ..., g_q) |-> (g_q^-1 ... g_1^-1) x g_1 x ... x g_q."""

    def image(tup, _):
        g = G.identity
        for t in tup:
            g = G.multiply(g, t)
        return (((G.inverse(g),) + tup, one),)

    return image


def group_to_hh(G: FiniteGroup, ring: BaseRing, q: int) -> SparseMap:
    """Chain map bar level q -> cyclic bar level q of R[G], from _phi_rule.

    Satisfies b . phi = phi . bar boundary exactly, and sends tuples
    containing the identity to degenerate chains.
    """
    n, tuples = G.order, itertools.product(range(G.order), repeat=q)
    cols = basis_map_columns(ring, tuples, 1, _phi_rule(G, ring.one), partial(tuple_index, n))
    return SparseMap.from_col_dicts(ring, n ** (q + 1), cols)


def _trace_rule(A: Algebra, n: int):
    """Image rule of the multitrace: E_(i_0 j_0) a_0 x ... x E_(i_q j_q) a_q
    goes to a_0 x ... x a_q when the matrix indices close up into a cycle
    (j_0 = i_1, ..., j_q = i_0) and to zero otherwise."""
    r, one = A.rank, A.ring.one

    def image(tup, _):
        ijs = [(t // (n * r), (t // r) % n, t % r) for t in tup]
        k = len(ijs)
        if all(ijs[a][1] == ijs[(a + 1) % k][0] for a in range(k)):
            return ((tuple(s for _, _, s in ijs), one),)
        return ()

    return image


def multitrace(A: Algebra, n: int, q: int) -> SparseMap:
    """Trace map: cyclic bar level q of M_n(A) -> cyclic bar level q of A.

    The whole-level matrix of _trace_rule.  Commutes with every face,
    degeneracy, and the cyclic operator.  A source level of rank above
    LEVEL_CAP is refused before any tensor is enumerated.
    """
    check_full_level(n * n * A.rank, q, f" of M_{n}")
    r, tuples = A.rank, itertools.product(range(n * n * A.rank), repeat=q + 1)
    cols = basis_map_columns(A.ring, tuples, 1, _trace_rule(A, n), partial(tuple_index, r))
    return SparseMap.from_col_dicts(A.ring, r ** (q + 1), cols)


class HomologyClass(Value):
    """A homology class: canonical coordinates plus one representative
    chain stored as a SparseMap column is, sorted (basis tuple, coeff) pairs
    without zeros.  Its boundary is degenerate (see the module docstring)."""

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
    sought.  Only the support of g^-1 x g is pushed through the multitrace.
    The identity matrix maps to zero (its cycle is degenerate).
    """
    n = len(g)
    check_full_level(n * n * A.rank, 1, f" of M_{n}")
    g = tuple(tuple(A.normalize_vec(g[i][j]) for j in range(n)) for i in range(n))
    M = matrix_algebra(A, n)
    gv = matrix_entries_to_vec(A, n, g)
    inv = unit_inverse(M, gv)
    if isinstance(inv, NonUnitCertificate):
        raise NotInvertibleError(f"matrix is not invertible over {A.name or A.ring}: {inv.reason}")
    ring = A.ring
    support = [(u, a) for u, a in enumerate(inv) if not ring.is_zero(a)]
    tensor = {(u, v): ring.mul(a, b) for u, a in support for v, b in enumerate(gv) if not ring.is_zero(b)}
    chain = push(ring, tensor, _trace_rule(A, n))
    if work is None:
        work = HochschildHomology(A, 1)
    data = work.homology_data(1)
    return HomologyClass(1, data.coordinates(work.normalize(1, chain)), tuple(sorted(chain.items())), data.group)


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
    torsion = [j for j, d in enumerate(orders) if d]
    rows = [list(row) + [orders[j] if j == i else 0 for j in torsion] for i, row in enumerate(matrix.rows)]
    surjective = is_onto(Matrix(matrix.ring, rows, matrix.ncols + len(torsion)))
    return surjective, surjective and source == target


def morita_map(A: Algebra, n: int, max_degree: int) -> list[MoritaResult]:
    """Multitrace-induced maps HH_d(M_n(A)) -> HH_d(A) for d = 0..max_degree.

    The caps of every degree are checked from ranks, in the order the loop
    would meet them, before any boundary is built: a refusal costs no
    complex and no homology work.  Each generator on M_n(A)'s normalized
    level is pushed to M_n(A)'s basis, through the multitrace, and onto A's
    normalized level, so no full level is built.
    """
    M = matrix_algebra(A, n)
    WM = HochschildHomology(M, max_degree)
    WA = HochschildHomology(A, max_degree)
    for d in range(max_degree + 1):
        check_dense_cells(M.ring, d, WM.rank)
        check_dense_cells(A.ring, d, WA.rank)
    trace_rule = _trace_rule(A, n)
    out = []
    for d in range(max_degree + 1):
        src = WM.homology_data(d)
        tgt = WA.homology_data(d)
        images = (push(A.ring, WM.chain_of(d, gen), trace_rule) for gen in src.generators)
        cols = [tgt.coordinates(WA.normalize(d, chain)) for chain in images]
        mat = Matrix.from_cols(A.ring, cols, len(tgt.generators))
        surjective, iso = fp_map_is_iso(src.group, tgt.group, mat, tgt.orders)
        out.append(MoritaResult(d, src.group, tgt.group, surjective, iso))
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
    generator through phi, the embedding in every slot, the multitrace and
    the unit-first change of basis (chain.push), and reduces in HH_d(A).
    Both eliminations are checked against DENSE_CELL_CAP from the ranks, the
    normalized bar complex's (|G| - 1)^q first, before any complex is built.
    """
    if d > DEGREE_CAP:
        raise CapExceededError(f"degree {d} above the trace pipeline cap {DEGREE_CAP}")
    gl = general_linear_group(A, n)
    G = gl.group
    ring = A.ring
    WA = HochschildHomology(A, d)
    check_dense_cells(ring, d, partial(_bar_rank, G, d + 1))
    check_dense_cells(ring, d, WA.rank)
    GH = GroupHomology(G, ring, d)

    src = GH.homology_data(d)
    tgt = WA.homology_data(d)
    rules = (_phi_rule(G, ring.one), tensor_rule(gl.embedding.matrix), _trace_rule(A, n))
    classes = []
    for gen in src.generators:
        chain = {x: c for x, c in zip(GH.level(d), gen) if not ring.is_zero(c)}
        for rule in rules:
            chain = push(ring, chain, rule)
        img = WA.normalize(d, chain)
        rep = tuple(sorted(WA.chain_of(d, img).items()))
        classes.append(HomologyClass(d, tgt.coordinates(img), rep, tgt.group))
    return DennisTraceResult(d, gl, src.group, tgt.group, tuple(classes))

# ---------------------------------------------------------------------------
# the group-homology, trace-k1, trace-homology and morita commands
# ---------------------------------------------------------------------------


def group_homology_command(config, G: FiniteGroup, ring: BaseRing) -> tuple[bool, str]:
    """``chaintrace group-homology``: H_0 .. H_max_degree of BG over ring."""
    from .formats import ring_spec

    work = GroupHomology(G, ring, config.max_degree)
    header = f"group {G.name or '(unnamed)'}: order {G.order}, coefficients {ring}"
    result = {"group": G.name, "order": G.order, "ring": ring_spec(ring)}
    return degree_table(config, header, "H_{}(BG)", work.group, result)


def trace_k1_command(config, A: Algebra, g) -> tuple[bool, str]:
    """``chaintrace trace-k1``: the Dennis trace class of the matrix g."""
    from .formats import emit, group_json, ring_spec

    cls = dennis_trace_k1(A, g)
    lines = [
        algebra_line(A),
        f"matrix size: {len(g)}",
        f"HH_1 = {cls.group}",
        f"trace class coordinates: {coords_str(A.ring, cls.coordinates)}",
        f"zero class: {'yes' if cls.is_zero else 'no'}",
    ]
    result = {
        "algebra": A.name,
        "ring": ring_spec(A.ring),
        "matrix_size": len(g),
        "hh1": group_json(cls.group),
        "coordinates": [A.ring.format_element(c) for c in cls.coordinates],
        "zero": cls.is_zero,
    }
    return True, emit(config, lines, result)


def trace_homology_command(config, A: Algebra) -> tuple[bool, str]:
    """``chaintrace trace-homology``: the trace of each generator of H_d(BGL_n(A))."""
    from .formats import emit, group_json, ring_spec

    res = dennis_trace_homology(A, config.size, config.degree)
    lines = [
        algebra_line(A),
        f"GL_{config.size}(A): order {res.gl.group.order}",
        f"H_{config.degree}(BGL_{config.size}(A)) = {res.source}",
        f"HH_{config.degree}(A) = {res.target}",
    ]
    images = []
    for k, cls in enumerate(res.classes):
        coords = coords_str(A.ring, cls.coordinates)
        lines.append(f"generator {k} |-> {coords}{'' if not cls.is_zero else '  (zero)'}")
        images.append([A.ring.format_element(c) for c in cls.coordinates])
    result = {
        "algebra": A.name,
        "ring": ring_spec(A.ring),
        "gl_size": config.size,
        "gl_order": res.gl.group.order,
        "degree": config.degree,
        "source": group_json(res.source),
        "target": group_json(res.target),
        "images": images,
    }
    return True, emit(config, lines, result)


def morita_command(config, A: Algebra) -> tuple[bool, str]:
    """``chaintrace morita``: the multitrace maps HH(M_n(A)) -> HH(A), degree by degree."""
    from .formats import emit, group_json, ring_spec

    results = morita_map(A, config.size, config.max_degree)
    lines = [algebra_line(A), f"matrix size: {config.size}"]
    rows = []
    for r in results:
        verdict = "ISO" if r.isomorphism else ("SURJ" if r.surjective else "NO")
        lines.append(
            f"degree {r.degree}: HH_{r.degree}(M_{config.size}(A)) = {r.source} -> "
            f"HH_{r.degree}(A) = {r.target}  [{verdict}]"
        )
        rows.append(
            {
                "degree": r.degree,
                "source": group_json(r.source),
                "target": group_json(r.target),
                "surjective": r.surjective,
                "isomorphism": r.isomorphism,
            }
        )
    verdict = "ISO" if all(r.isomorphism for r in results) else "NOT-ISO"
    lines.append(f"verdict: {verdict}")
    result = {
        "algebra": A.name,
        "ring": ring_spec(A.ring),
        "size": config.size,
        "degrees": rows,
        "verdict": verdict,
    }
    return True, emit(config, lines, result)
