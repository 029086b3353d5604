"""Pointed simplicial sets of weak-equivalence strings, the w.S diagonal,
and the checks of simplicial identities and flag grids.

A ``PointedSimplicialSet`` holds levels 0..top, each a ``waldhausen.FlatLevel``
of distinct rows, and the index table of every face and degeneracy between
them.  ``tabulate`` fills the tables along the one list of operators
``simplicial_operators`` gives, and ``validate`` checks them along the one
list of identities ``simplicial_identities`` gives.  The nerve operators act
on whole levels: a face drops or composes columns, a degeneracy inserts a
column of identities, and ``map_level`` applies a functor column by column.
From them come the nerve of a category's weak equivalences (``weq_nerve``),
the diagonal n |-> w_n S_n C (``diagonal``, the body of
``waldhausen.ws_diagonal``), K_0 as H_1 of that diagonal
(``k0_via_diagonal``), and the grid check ``validate_s_object``.

No ``k0`` job runs any of this: ``k0_via_sdot`` reads w_1 S_1 C as a
``FlatLevel`` from ``waldhausen.weq_strings`` and builds no simplicial set.
So only chaintrace.sigma_delta and selftest import this module, and
``ws_diagonal`` imports it when it runs.
"""

from __future__ import annotations

from array import array
from functools import partial

from .chain import FPAbelianGroup, basis_map_columns
from .errors import InternalInvariantError
from .rings import ZZ
from .validation import ValidationReport
from .values import Value
from .waldhausen import (
    FlatLevel,
    SCategory,
    column,
    coface,
    reindex_functor,
    relation_cokernel,
    s_payload_issues,
    weq_strings,
    ws_diagonal,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .wcat import WCategory

__all__ = [
    "DIAGONAL_TOP",
    "simplicial_operators",
    "simplicial_identities",
    "PointedSimplicialSet",
    "map_level",
    "weq_nerve",
    "diagonal",
    "k0_via_diagonal",
    "validate_s_object",
]

# ws_diagonal tabulates levels 0..DIAGONAL_TOP, the levels K_0 = H_1 reads.
DIAGONAL_TOP = 2


def simplicial_operators(top: int):
    """Every face and degeneracy of a simplicial object truncated at level
    ``top``, as (kind, level, index, target level): d_i ("d") from level n
    to n - 1 for 1 <= n <= top, then s_i ("s") from level n to n + 1 for
    n < top, each with 0 <= i <= n, in order of level and then index."""
    for n in range(1, top + 1):
        for i in range(n + 1):
            yield "d", n, i, n - 1
    for n in range(top):
        for i in range(n + 1):
            yield "s", n, i, n + 1


def simplicial_identities(top: int):
    """Every simplicial identity among ``simplicial_operators(top)``
    (Goerss-Jardine, Simplicial Homotopy Theory, I.1) as (name, level, lhs,
    rhs): on ``level`` the composite lhs equals rhs, each side a (second,
    first) pair of (kind, level, index) operators or None for the identity:

        d_i d_j = d_{j-1} d_i  for i < j
        s_i s_j = s_{j+1} s_i  for i <= j
        d_i s_j = s_{j-1} d_i  for i < j,  id for i = j, j + 1,  s_j d_{i-1} for i > j + 1
    """
    for n in range(2, top + 1):
        for j in range(n + 1):
            for i in range(j):
                yield f"d_{i} d_{j}", n, (("d", n - 1, i), ("d", n, j)), (("d", n - 1, j - 1), ("d", n, i))
    for n in range(top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                yield f"s_{i} s_{j}", n, (("s", n + 1, i), ("s", n, j)), (("s", n + 1, j + 1), ("s", n, i))
    for n in range(top):
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    rhs = (("s", n - 1, j - 1), ("d", n, i))
                elif i > j + 1:
                    rhs = (("s", n - 1, j), ("d", n, i - 1))
                else:
                    rhs = None
                yield f"d_{i} s_{j}", n, (("d", n + 1, i), ("s", n, j)), rhs


class PointedSimplicialSet(Value):
    """A levelwise-finite pointed simplicial set truncated at a top level.

    ``levels[n]`` lists the n-simplices with the basepoint at index 0, and
    ``index(n, x)`` is the position of x in ``levels[n]``.  In a nerve
    (``weq_nerve``, ``ws_diagonal``) an n-simplex is the flat tuple
    (x0, g_1, ..., g_n) of a start object and n composable weak
    equivalences.  Every level ``tabulate`` is given is a ``FlatLevel``:
    one ``array('i')`` holding each element as a row of ints, a string as
    its n + 1 handles, in the order the strings were enumerated.
    ``faces[n][i]`` (for n >= 1) and ``degens[n][i]`` (for n < top) are
    index maps, each an ``array('i')`` of positions: no level holds more
    than STRING_CAP elements, so 4 bytes a position suffice, where a tuple
    slot costs 8 and its int more.  ``tabulate`` fills them, and
    ``validate`` checks them, along the one list of operators and
    identities that ``simplicial_operators`` and ``simplicial_identities``
    give.

    No element-to-position lookup is kept: ``tabulate`` reads each table
    through the ``FlatLevel.lookup`` of its target level, which it holds
    only while operators into that level remain.
    """

    _fields = ("name", "levels", "faces", "degens")
    __hash__ = None

    def __init__(self, name: str, levels: tuple, faces: tuple, degens: tuple) -> None:
        self.name = name
        self.levels = levels
        self.faces = faces
        self.degens = degens

    @classmethod
    def tabulate(cls, name: str, levels, face, degeneracy) -> PointedSimplicialSet:
        """The set on ``levels``, each a ``FlatLevel`` of distinct rows.

        ``face(n, i)`` returns d_i as a map from level n to the level of the
        images of its rows in level n-1, and ``degeneracy(n, i)`` s_i from
        level n to level n+1; the table of an operator op from level n to
        level m is ``levels[m].positions(op(levels[n]))``.  Each level's
        ``lookup`` is built once, at the first operator into it, and dropped
        after the last.
        """
        levels = tuple(levels)
        ops = list(simplicial_operators(len(levels) - 1))
        last = {target: k for k, (*_, target) in enumerate(ops)}
        lookups: dict = {}
        tables = {"d": [[] for _ in levels], "s": [[] for _ in levels]}
        for k, (kind, n, i, target) in enumerate(ops):
            image = (face if kind == "d" else degeneracy)(n, i)(levels[n])
            into = lookups.get(target)
            if into is None:
                into = lookups[target] = levels[target].lookup()
            tables[kind][n].append(levels[target].positions(image, into))
            if last[target] == k:
                del lookups[target]
        return cls(name, levels, *(tuple(map(tuple, tables[kind])) for kind in "ds"))

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

    def index(self, n: int, x) -> int:
        """The position of x in ``levels[n]``, found by a search of the level;
        ValueError when x is not in it."""
        return self.levels[n].index(x)

    def face(self, n: int, i: int, x: int) -> int:
        return self.faces[n][i][x]

    def degeneracy(self, n: int, i: int, x: int) -> int:
        return self.degens[n][i][x]

    def table(self, kind: str, n: int, i: int) -> array:
        """The index table of d_i (kind "d") or s_i (kind "s") on level n."""
        return (self.faces if kind == "d" else self.degens)[n][i]

    def validate(self) -> ValidationReport:
        """Check the basepoint and the simplicial identities on every element.

        Each identity of ``simplicial_identities`` compares two composites of
        index tables on every element x of its level, one check per x.
        """
        report = ValidationReport(subject=f"pointed simplicial set {self.name}")
        for kind, n, i, _ in simplicial_operators(self.top_level):
            report.checks_run += 1
            if self.table(kind, n, i)[0] != 0:
                what = "face" if kind == "d" else "degeneracy"
                report.record(f"{what} {kind}_{i} at level {n} moves the basepoint")
        for name, n, lhs, rhs in simplicial_identities(self.top_level):
            ident = range(len(self.levels[n]))
            a, b = (self.table(*op) for op in lhs)
            c, d = (ident, ident) if rhs is None else (self.table(*op) for op in rhs)
            report.checks_run += len(ident)
            for x, (bx, dx) in enumerate(zip(b, d)):
                if a[bx] != c[dx]:
                    report.record(f"{name} failed at level {n} on element {x}")
        return report


def _nerve_face(C: WCategory, i: int, compose, level: FlatLevel) -> FlatLevel:
    """The nerve face d_i of C's weak equivalences on a level of strings
    (x0, g_1, ..., g_n): d_0 replaces the columns of x0 and g_1 with the
    targets of g_1, d_n drops the column of g_n, and any other d_i replaces
    the columns of g_i and g_{i+1} with their composites under ``compose``."""
    cols = level.columns()
    if i == 0:
        cols[:2] = [column(map(C.mor_target, cols[1]))]
    elif i == len(cols) - 1:
        del cols[i]
    else:
        cols[i : i + 2] = [column(map(compose, cols[i + 1], cols[i]))]
    return FlatLevel.from_columns(cols)


def _nerve_degeneracy(C: WCategory, i: int, level: FlatLevel) -> FlatLevel:
    """The nerve degeneracy s_i of C's weak equivalences on a level of
    strings: a column of identities inserted as map i + 1, each on the
    object where map i ends (x0 for i = 0)."""
    cols = level.columns()
    mid = cols[0] if i == 0 else map(C.mor_target, cols[i])
    cols.insert(i + 1, column(map(C.identity_id, mid)))
    return FlatLevel.from_columns(cols)


def map_level(functor: tuple, level: FlatLevel) -> FlatLevel:
    """The images of the strings (x0, g_1, ..., g_n) of a nerve level under
    an (object map, morphism map) pair, in order: obj maps the column of
    start objects and mor each column of maps, so no string is unpacked."""
    obj, mor = functor
    w = level.width
    out = array("i", level.data)
    for t in range(w):
        out[t::w] = column(map(mor if t else obj, out[t::w]))
    return FlatLevel(w, out)


def weq_nerve(C: WCategory, w_max: int) -> PointedSimplicialSet:
    """The nerve of the weak equivalences of C, truncated at level w_max.

    Level l lists the strings of l composable weak equivalences, each the
    flat tuple (x0, g_1, ..., g_l) of its start object and its maps, kept
    as a ``FlatLevel`` of rows of l + 1 handles; the basepoint
    (z, id_z, ..., id_z) on the zero object z is at index 0.  Faces drop
    or compose columns, degeneracies insert a column of identities.  A face
    composes through ``composite_id``, outside C's composition memo: below
    level 3 the strings of a level ask for distinct composites, so a memo
    would never hit.
    """
    compose = C.composite_id
    levels = [weq_strings(C, l, f"nerve level {l} of {C.name}") for l in range(w_max + 1)]
    return PointedSimplicialSet.tabulate(
        f"w-nerve({C.name})",
        levels,
        lambda n, i: partial(_nerve_face, C, i, compose),
        lambda n, i: partial(_nerve_degeneracy, C, i),
    )


def _codegeneracy(i: int, k: int) -> tuple:
    """The surjection 0..k+1 -> 0..k repeating i."""
    return tuple(t if t <= i else t - 1 for t in range(k + 2))


def diagonal(C: WCategory) -> PointedSimplicialSet:
    """The body of ``waldhausen.ws_diagonal``, the public entry point,
    which documents it."""
    scats = [SCategory(C, n) for n in range(DIAGONAL_TOP + 1)]
    levels = [weq_strings(S, n, f"level {n} of the diagonal of {C.name}") for n, S in enumerate(scats)]

    def face(n: int, i: int):
        F, S = reindex_functor(scats[n], scats[n - 1], coface(i, n)), scats[n - 1]
        return lambda level: _nerve_face(S, i, S.compose_ids, map_level(F, level))

    def degeneracy(n: int, i: int):
        F, S = reindex_functor(scats[n], scats[n + 1], _codegeneracy(i, n)), scats[n + 1]
        return lambda level: _nerve_degeneracy(S, i, map_level(F, level))

    return PointedSimplicialSet.tabulate(f"diag wS({C.name})", levels, face, degeneracy)


def k0_via_diagonal(C: WCategory) -> FPAbelianGroup:
    """K_0 as H_1 of the diagonal of the flag construction, built level by level.

    The level-0 set is a single point, so the reduced complex has zero
    differential out of degree 1 and K_0 is the cokernel of the degree-2
    boundary on the nondegenerate 2-simplices, computed by integer Smith
    normal form: ``chain.basis_map_columns`` of the face tables, with no
    row for the base point.  Duplicate boundary columns are collapsed
    first.  Level 2 holds every pair of composable weak equivalences of
    S_2, so this is the oracle for ``k0_via_sdot`` on small families.
    """
    X = ws_diagonal(C)
    if len(X.levels[0]) != 1:
        raise InternalInvariantError("level 0 of the diagonal is not a single point")
    degenerate = set(X.degens[1][0]) | set(X.degens[1][1])
    faces = X.faces[2]
    nondegenerate = (x for x in range(1, len(X.levels[2])) if x not in degenerate)
    boundary = basis_map_columns(
        ZZ, nondegenerate, 3, lambda x, i: ((faces[i][x], 1),), lambda y: y - 1 if y else None
    )
    return relation_cokernel(len(X.levels[1]) - 1, boundary)[1].group


def validate_s_object(base: WCategory, payload: tuple) -> ValidationReport:
    """Check every grid axiom of a grid payload over ``base``, including all pushout triples."""
    report = ValidationReport(subject=f"flag grid over {base.name}")
    issues = s_payload_issues(base, payload, skip_built_triples=False)
    n = len(payload[0])
    k = n - 1
    triples = sum(1 for i in range(n) for j in range(i + 1, n) for _ in range(j + 1, n))
    report.checks_run += n * n + 2 * n * k + k * k + triples
    for msg in issues:
        report.record(msg)
    return report
