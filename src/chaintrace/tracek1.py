"""``trace-k1``: the Dennis trace of one invertible matrix, a class in HH_1(A).

dennis_trace_k1 takes g in GL_n(A) to the class of tr(g^-1 x g): only the
support of g^-1 x g is pushed through the multitrace (tracemaps.trace_rule)
and onto the normalized level 1 of A, where HochschildHomology reduces it
to canonical coordinates.  The identity maps to zero, its cycle being
degenerate.  The command's matrix literal is parsed here too
(matrix_from_literal, which formats.parse_matrix_literal calls).  Only
``trace-k1`` and selftest load this module.
"""

from __future__ import annotations

from .algebra import Algebra, matrix_algebra, matrix_entries_to_vec, unit_inverse
from .chain import push
from .errors import InputParseError, NotInvertibleError
from .hochschild import HochschildHomology, check_full_level
from .tracemaps import HomologyClass, trace_rule

__all__ = ["matrix_from_literal", "dennis_trace_k1", "trace_k1_command"]


def matrix_from_literal(A: Algebra, text: str):
    """Square matrix over A: rows split by ';', entries by whitespace,
    entry coefficients by ','.  A rank-1 entry may omit the comma."""
    rows = [r.strip() for r in text.split(";")]
    rows = [r for r in rows if r]
    if not rows:
        raise InputParseError("empty matrix literal")
    out = []
    for r, row_text in enumerate(rows):
        entries = row_text.split()
        if len(entries) != len(rows):
            raise InputParseError(
                f"matrix literal is not square: row {r} has {len(entries)} "
                f"entries, expected {len(rows)}"
            )
        row = []
        for e, entry in enumerate(entries):
            coeffs = entry.split(",")
            if len(coeffs) != A.rank:
                raise InputParseError(
                    f"matrix entry ({r},{e}) needs {A.rank} coefficients, "
                    f"got {len(coeffs)}"
                )
            try:
                row.append(tuple(A.ring.parse_element(c) for c in coeffs))
            except ValueError as exc:
                raise InputParseError(f"matrix entry ({r},{e}): {exc}") from exc
        out.append(tuple(row))
    return tuple(out)


def dennis_trace_k1(A: Algebra, g, work: HochschildHomology | None = None) -> HomologyClass:
    """Class of tr(g^-1 x g) in HH_1(A) for an invertible matrix g over A.

    g is given as an n x n nested tuple/list of A coefficient vectors.
    Refusals come in the order ``hh`` gives them: a base ring without
    homology (HochschildHomology), then a size whose level 1 of M_n(A)
    exceeds LEVEL_CAP, and only then a matrix that is not invertible
    (algebra.unit_inverse).  Only the support of g^-1 x g is pushed through
    the multitrace.  The identity matrix maps to zero (its cycle is
    degenerate).
    """
    if work is None:
        work = HochschildHomology(A, 1)
    n = len(g)
    check_full_level(n * n * A.rank, 1, f" of M_{n}")
    g = tuple(tuple(A.normalize_vec(g[i][j]) for j in range(n)) for i in range(n))
    M = matrix_algebra(A, n)
    gv = matrix_entries_to_vec(A, n, g)
    inv = unit_inverse(M, gv)
    if inv is None:
        raise NotInvertibleError(f"matrix is not invertible over {A.name or A.ring}")
    ring = A.ring
    support = [(u, a) for u, a in enumerate(inv) if not ring.is_zero(a)]
    tensor = {(u, v): ring.mul(a, b) for u, a in support for v, b in enumerate(gv) if not ring.is_zero(b)}
    chain = push(ring, tensor, trace_rule(A, n))
    data = work.homology_data(1)
    return HomologyClass(1, data.coordinates(work.normalize(1, chain)), tuple(sorted(chain.items())), data.group)


def trace_k1_command(config, A: Algebra, g) -> tuple[bool, str]:
    """``chaintrace trace-k1``: the Dennis trace class of the matrix g."""
    from .formats import algebra_line, coords_str, emit, group_json, ring_spec

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
