"""``morita``: the multitrace maps HH_d(M_n(A)) -> HH_d(A), degree by degree.

morita_map pushes each generator of HH_d(M_n(A)) from M_n(A)'s normalized
level to its basis, through the multitrace (tracemaps.trace_rule) and onto
A's normalized level, so no full level is built, and reads the map in
canonical coordinates; fp_map_is_iso decides whether it is onto and an
isomorphism.  Morita invariance says it is one in every degree.
Only ``morita`` loads this module.
"""

from __future__ import annotations

from .algebra import Algebra, matrix_algebra
from .chain import FPAbelianGroup, FPModule, check_dense_cells, push
from .hochschild import HochschildHomology
from .linalg import Matrix, is_onto
from .tracemaps import trace_rule
from .values import Value

__all__ = ["MoritaResult", "fp_map_is_iso", "morita_map", "morita_command"]


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
    rule = trace_rule(A, n)
    out = []
    for d in range(max_degree + 1):
        src = WM.homology_data(d)
        tgt = WA.homology_data(d)
        images = (push(A.ring, WM.chain_of(d, gen), rule) for gen in src.generators)
        cols = [tgt.coordinates(WA.normalize(d, chain)) for chain in images]
        mat = Matrix.from_cols(A.ring, cols, len(tgt.generators))
        surjective, iso = fp_map_is_iso(src.group, tgt.group, mat, tgt.orders)
        out.append(MoritaResult(d, src.group, tgt.group, surjective, iso))
    return out


def morita_command(config, A: Algebra) -> tuple[bool, str]:
    """``chaintrace morita``: the multitrace maps HH(M_n(A)) -> HH(A), degree by degree."""
    from .formats import algebra_line, emit, group_json, ring_spec

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
