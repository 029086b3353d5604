"""The dense Smith elimination as it stood before its loops went sparse.

This is the reference engine for ``assert_same_factors``: every
row and column operation walks whole rows and columns, so it shares no
loop with ``chaintrace.linalg._smith_engine``.  The pivot rule and the
order of operations are the same, so both engines must return the same
five factors, entry for entry and type for type.  It runs over Z and fields,
as the engine does, and writes its own pivot measure.  Kept as it was
otherwise; do not optimize it.
"""

from chaintrace.linalg import Matrix, lift_with_modulus, smith_normal_form, symmetric_lift
from chaintrace.rings import ZZ, BaseRing


def _measure(ring: BaseRing, x):
    """|x| over Z; over a field every nonzero entry measures the same."""
    return abs(x) if ring.kind == "Z" else 1


def _find_pivot(ring: BaseRing, S: list[list], t: int, nrows: int, ncols: int):
    best = None
    for i in range(t, nrows):
        row = S[i]
        for j in range(t, ncols):
            if ring.is_zero(row[j]):
                continue
            m = _measure(ring, row[j])
            if best is None or m < best[0]:
                best = (m, i, j)
                if ring.is_field:
                    return best
    return best


def _quotient(ring: BaseRing, a, b):
    """q with a - q*b reduced: floor division over Z, exact over a field."""
    if ring.kind == "Z":
        return a // b
    return ring.mul(a, ring.inv(b))


def _smith_engine(ring: BaseRing, mat: Matrix):
    """Core elimination; returns (U, Uinv, S, V, Vinv) as row lists."""
    nr, nc = mat.nrows, mat.ncols
    S = [row[:] for row in mat.rows]
    U = [[ring.one if i == j else ring.zero for j in range(nr)] for i in range(nr)]
    Uinv = [row[:] for row in U]
    V = [[ring.one if i == j else ring.zero for j in range(nc)] for i in range(nc)]
    Vinv = [row[:] for row in V]

    def row_sub(i, t, q):  # row_i -= q * row_t ; Uinv col_t += q * Uinv col_i
        if ring.is_zero(q):
            return
        for M in (S, U):
            ri, rt = M[i], M[t]
            for j in range(len(ri)):
                ri[j] = ring.sub(ri[j], ring.mul(q, rt[j]))
        for r in Uinv:
            r[t] = ring.add(r[t], ring.mul(q, r[i]))

    def col_sub(j, t, q):  # col_j -= q * col_t ; Vinv row_t += q * Vinv row_j
        if ring.is_zero(q):
            return
        for M in (S,):
            for r in M:
                r[j] = ring.sub(r[j], ring.mul(q, r[t]))
        for r in V:
            r[j] = ring.sub(r[j], ring.mul(q, r[t]))
        rt, rj = Vinv[t], Vinv[j]
        for b in range(len(rt)):
            rt[b] = ring.add(rt[b], ring.mul(q, rj[b]))

    def row_swap(i, t):
        if i == t:
            return
        S[i], S[t] = S[t], S[i]
        U[i], U[t] = U[t], U[i]
        for r in Uinv:
            r[i], r[t] = r[t], r[i]

    def col_swap(j, t):
        if j == t:
            return
        for r in S:
            r[j], r[t] = r[t], r[j]
        for r in V:
            r[j], r[t] = r[t], r[j]
        Vinv[j], Vinv[t] = Vinv[t], Vinv[j]

    def row_scale(i, u):  # row_i *= u (unit); Uinv col_i *= u^-1
        uinv = ring.inv(u)
        S[i] = [ring.mul(u, x) for x in S[i]]
        U[i] = [ring.mul(u, x) for x in U[i]]
        for r in Uinv:
            r[i] = ring.mul(uinv, r[i])

    def eliminate_at(t):
        while True:
            piv = _find_pivot(ring, S, t, nr, nc)
            if piv is None:
                return False
            _, pi, pj = piv
            row_swap(pi, t)
            col_swap(pj, t)
            clean = True
            for i in range(t + 1, nr):
                if not ring.is_zero(S[i][t]):
                    row_sub(i, t, _quotient(ring, S[i][t], S[t][t]))
                    if not ring.is_zero(S[i][t]):
                        clean = False
            for j in range(t + 1, nc):
                if not ring.is_zero(S[t][j]):
                    col_sub(j, t, _quotient(ring, S[t][j], S[t][t]))
                    if not ring.is_zero(S[t][j]):
                        clean = False
            if clean and all(ring.is_zero(S[i][t]) for i in range(t + 1, nr)) and all(
                ring.is_zero(S[t][j]) for j in range(t + 1, nc)
            ):
                return True

    def normalize_diag(t):
        d = S[t][t]
        if ring.is_zero(d):
            return
        if ring.kind == "Z":
            if d < 0:
                row_scale(t, -1)
        else:
            row_scale(t, ring.inv(d))

    t = 0
    limit = min(nr, nc)
    while t < limit:
        if not eliminate_at(t):
            break
        normalize_diag(t)
        t += 1
    rank = t

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for t in range(rank - 1):
            a, b = S[t][t], S[t + 1][t + 1]
            if not ring.is_field and b % a:
                # fold column t+1 into column t and re-eliminate
                for r in S:
                    r[t] = ring.add(r[t], r[t + 1])
                for r in V:
                    r[t] = ring.add(r[t], r[t + 1])
                row_t1 = Vinv[t + 1]
                row_t = Vinv[t]
                Vinv[t + 1] = [ring.sub(row_t1[j], row_t[j]) for j in range(nc)]
                eliminate_at(t)
                normalize_diag(t)
                eliminate_at(t + 1)
                normalize_diag(t + 1)
                changed = True
    # re-elimination may swap an already normalized entry out of place
    for t in range(rank):
        normalize_diag(t)
    return U, Uinv, S, V, Vinv



TRANSFORMS = ("U", "V", "Uinv", "Vinv")


def assert_same_factors(mat: Matrix, subsets=(TRANSFORMS,)) -> None:
    """smith_normal_form(mat, factors=f) for each f in subsets equals the
    reference in S and in every factor of f, types included, and leaves the
    other transforms None."""
    U, Uinv, S, V, Vinv = _smith_engine(mat.ring, mat)
    reference = {"U": U, "S": S, "V": V, "Uinv": Uinv, "Vinv": Vinv}
    for factors in subsets:
        dec = smith_normal_form(mat, factors=factors)
        for name, rows in reference.items():
            if name != "S" and name not in factors:
                assert getattr(dec, name) is None, (factors, name)
                continue
            got = getattr(dec, name).rows
            assert got == rows, (factors, name)
            assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in rows], (factors, name)


def smith_inputs(mat: Matrix) -> list[Matrix]:
    """The matrices Smith elimination takes for mat: mat itself over Z or a
    field, and over Z/m the two integer matrices chain._homology eliminates,
    the symmetric lift of mat and lift_with_modulus(mat)."""
    if mat.ring.kind != "Zmod":
        return [mat]
    m = mat.ring.modulus
    return [Matrix(ZZ, [symmetric_lift(row, m) for row in mat.rows], mat.ncols), lift_with_modulus(mat)]
