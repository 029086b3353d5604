"""``trace-homology``: the chain-level Dennis trace on group homology.

The composite implemented here is

    H_d(BGL_n(A); R)  ->  HH_d(R[GL_n(A)])  ->  HH_d(M_n(A))  ->  HH_d(A)

with three explicit chain maps:

* the bar-to-cyclic map phi_q(g_1, ..., g_q) =
  (g_q^-1 ... g_1^-1) x g_1 x ... x g_q, a chain map on the nose
  (phi_rule);
* the map induced by the algebra embedding R[GL_n(A)] -> M_n(A)
  (GeneralLinearData.embedding, whose column k is the k-th unit, in every
  slot, hochschild.tensor_rule);
* the multitrace tr(x_0 x ... x x_q) = sum over index cycles of
  (x_0)_{i_0 i_1} x (x_1)_{i_1 i_2} x ... x (x_q)_{i_q i_0}
  (tracemaps.trace_rule).

Everything stays at chain level; no plus construction, no stabilization.
Every map is an image rule on basis tuples, and the pipeline pushes each
generator of H_d(BGL_n(A)) (grouphomology.GroupHomology, on the
normalized bar complex) through the rules (chain.push), so no full level
is enumerated.  It checks its caps from its handles' ranks
(chain.HomologyHandle) before it builds anything.  GL_n(A) comes from
algebra.general_linear_group.  Only ``trace-homology`` and selftest load
this module.
"""

from __future__ import annotations

from functools import partial

from .algebra import Algebra, general_linear_group
from .chain import FPAbelianGroup, FPModule, check_dense_cells, push
from .conventions import DEGREE_CAP
from .errors import CapExceededError
from .groups import FiniteGroup
from .grouphomology import GroupHomology, bar_rank
from .hochschild import HochschildHomology, tensor_rule
from .tracemaps import HomologyClass, trace_rule
from .values import Value

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .general_linear import GeneralLinearData

__all__ = ["phi_rule", "DennisTraceResult", "dennis_trace_homology", "trace_homology_command", "DEGREE_CAP"]


def phi_rule(G: FiniteGroup, one):
    """Image rule of phi: (g_1, ..., g_q) |-> (g_q^-1 ... g_1^-1) x g_1 x ... x g_q."""

    def image(tup, _):
        g = G.identity
        for t in tup:
            g = G.multiply(g, t)
        return (((G.inverse(g),) + tup, one),)

    return image


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
    check_dense_cells(ring, d, partial(bar_rank, G, d + 1))
    check_dense_cells(ring, d, WA.rank)
    GH = GroupHomology(G, ring, d)

    src = GH.homology_data(d)
    tgt = WA.homology_data(d)
    rules = (phi_rule(G, ring.one), tensor_rule(gl.embedding), trace_rule(A, n))
    classes = []
    for gen in src.generators:
        chain = {x: c for x, c in zip(GH.level(d), gen) if not ring.is_zero(c)}
        for rule in rules:
            chain = push(ring, chain, rule)
        img = WA.normalize(d, chain)
        rep = tuple(sorted(WA.chain_of(d, img).items()))
        classes.append(HomologyClass(d, tgt.coordinates(img), rep, tgt.group))
    return DennisTraceResult(d, gl, src.group, tgt.group, tuple(classes))


def trace_homology_command(config, A: Algebra) -> tuple[bool, str]:
    """``chaintrace trace-homology``: the trace of each generator of H_d(BGL_n(A))."""
    from .formats import algebra_line, coords_str, emit, group_json, ring_spec

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
