"""Sparse unit-pivot cancellation: the kernel of the invariants-only paths.

cancel_unit_pivots eliminates, in place, every unit pivot it can find in
one sparse matrix held as the column and row dicts of sparse_columns: each
cancelled pair (j, i) with M[i, j] a unit is the Schur complement step on
the columns that meet row i, and splits an acyclic summand off a complex
(reduction.reduce_complex, behind hh, hc and group-homology).  Over a
field every nonzero entry is a unit, so each cancelled pair adds one to the
rank (rank_over_field), and the injectivity test of the finite-module
categories (wcat) hands it the socle columns directly.

No job that reads class coordinates runs this kernel, so it lives apart
from linalg's Smith elimination: the trace commands never compile it, and
a category job loads it only when a finite-module flag is tested.
"""

from __future__ import annotations

from .errors import UnsupportedRingError

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .linalg import SparseMap
    from .rings import BaseRing

__all__ = ["sparse_columns", "cancel_unit_pivots", "rank_over_field"]


def sparse_columns(d: SparseMap, dead=frozenset()) -> tuple[dict[int, dict], dict[int, set]]:
    """Mutable copy of d minus the dead rows: columns as {row: entry}, rows as column sets."""
    cols = {j: {i: x for i, x in col if i not in dead} for j, col in enumerate(d.cols)}
    rows: dict[int, set] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    return cols, rows


def cancel_unit_pivots(ring: BaseRing, cols: dict[int, dict], rows: dict[int, set]) -> list[tuple[int, int]]:
    """Cancel unit pivots of one sparse matrix in place; return the (column, row) pairs.

    Cancelling (j, i) with a = M[i, j] a unit subtracts M[i, j'] a^-1 times
    column j from every other column j' meeting row i, then deletes column j
    and row i: the Schur complement D - c a^-1 b on the affected columns
    only.  Columns are visited shortest first (ties by index) in repeated
    passes until a pass cancels nothing; in a column the pivot is the unit
    whose row is shortest (ties by index), which keeps fill-in low.
    """
    is_unit, is_zero, mul, sub, zero = ring.is_unit, ring.is_zero, ring.mul, ring.sub, ring.zero
    pairs: list[tuple[int, int]] = []
    while True:
        before = len(pairs)
        for j in sorted(cols, key=lambda j: (len(cols[j]), j)):
            col = cols[j]
            best = None
            for i, x in col.items():
                if is_unit(x) and (best is None or (len(rows[i]), i) < best):
                    best = (len(rows[i]), i)
            if best is None:
                continue
            i = best[1]
            del cols[j]
            for k in col:
                rows[k].discard(j)
            a_inv = ring.inv(col.pop(i))
            for j2 in rows.pop(i):
                target = cols[j2]
                f = mul(target.pop(i), a_inv)
                for k, c in col.items():
                    v = sub(target.get(k, zero), mul(f, c))
                    if is_zero(v):
                        if k in target:
                            del target[k]
                            rows[k].discard(j2)
                    else:
                        if k not in target:
                            rows[k].add(j2)
                        target[k] = v
            pairs.append((j, i))
        if len(pairs) == before:
            return pairs


def rank_over_field(d: SparseMap) -> int:
    """Rank of a linear map over a field, by unit-pivot cancellation.

    Over a field every nonzero entry is a unit, so cancellation only stops
    at the zero matrix and each cancelled pair adds one to the rank.
    """
    if not d.ring.is_field:
        raise UnsupportedRingError(f"rank_over_field needs a field, got {d.ring}")
    return len(cancel_unit_pivots(d.ring, *sparse_columns(d)))
