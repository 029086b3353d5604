"""Seeded job lists for the three workloads.

A workload is a list of slots.  Each slot holds one or more CLI jobs of
about the same cost; the run seed picks one job per slot and then shuffles
the list, so every seed gives a different batch of nearly the same total
work.  All jobs come from a closed pool (``pool``), which is what
``record.py`` runs to write the expected outcome of every job.

Job costs fall into groups: light jobs (interpreter start-up plus a little
work, well over half of each batch), middle jobs (0.5-1 s) and a few heavy
ones.  Over two batches the median job lies inside the light group and the
tail rank (ten jobs above it) inside the middle group, so neither moves to
another group from seed to seed.

Why each workload exists:

* ``homology`` -- ``hh``, ``hc`` and ``group-homology`` over Z, Q, GF(p)
  and Z/p^k.  Output is basis-free and Smith elimination dominates, so the
  sparse elimination and single-kernel work of the roadmap acts here.  It
  also carries the two known failures of the engine: the uncaught
  ``ValueError`` of ``hh Zmod:4[C4] --max-degree 3`` and the within-cap
  non-finisher ``hh Z[C5] --max-degree 4``, which runs into the deadline.
* ``trace`` -- ``trace-k1`` on seeded invertible matrices, ``trace-homology``
  and ``morita``.  These print class coordinates or need generator images,
  so elimination keeps its transforms, and the chain maps of ``trace`` and
  ``algebra`` run.  Many jobs last about as long as interpreter start-up.
* ``categories`` -- ``k0``, ``validate`` and ``selftest``.  Category and
  flag-grid enumeration dominates and elimination is a few percent; the
  four ``k0`` families over ``STRING_CAP`` are refused (exit 4) today.
"""

from __future__ import annotations

import random

# Per-job deadline in seconds, per workload.  Each is at least 1.3x the
# slowest job that ends in that workload on a slow host (the Zmod:4[C4]
# crash after 3.5-4.5 s, trace-homology at degree 3 after 3.8-4.5 s, the
# STRING_CAP refusal of vect_gf:2:3 after 5.5-6 s), so host drift does not
# turn an ending job into a miss, while ``hh Z[C5] --max-degree 4`` (no
# output in 120 s) costs one deadline per batch.  Traced jobs get
# TRACED_DEADLINE_X times as long, so tracing overhead does not either.
DEADLINE_S = {"homology": 6.0, "trace": 8.0, "categories": 10.0}
TRACED_DEADLINE_X = 2.0

WORKLOADS = ("homology", "trace", "categories")

_HOMOLOGY = [
    ["hh Z[C4] --max-degree 3"],
    ["hh GF:5[C3] --max-degree 5", "hh GF:7[C3] --max-degree 5"],
    ["hh Zmod:9[C3] --max-degree 3", "hh Zmod:27[C3] --max-degree 3", "hh Zmod:81[C3] --max-degree 3"],
    ["hc Q[C3] --max-degree 4"],
    ["hc Q[C2] --max-degree 5"],
    ["group-homology C5 --max-degree 3"],
    ["hh Z[C3] --max-degree 4", "hh Z[C2] --max-degree 6"],
    ["hh Z[x]/x^2 --max-degree 4"],
    ["hh GF:5[C2] --max-degree 6", "hh GF:3[C2] --max-degree 6"],
    ["hh Zmod:8[C2] --max-degree 5", "hh Zmod:9[C2] --max-degree 5", "hh Zmod:4[C2] --max-degree 5"],
    ["group-homology C2 --max-degree 6", "group-homology C3 --max-degree 5"],
    ["hh GF:2[x]/x^2 --max-degree 4", "hh GF:3[x]/x^2 --max-degree 4"],
    ["hc Q --max-degree 6"],
    ["hh Z[C2] --max-degree 5"],
    ["hh Z --max-degree 6", "hh Q --max-degree 6"],
    ["hh GF:2[C2] --max-degree 5", "hh GF:5[C2] --max-degree 5"],
    ["group-homology C4 --max-degree 4"],
    # known failures at the time the benchmark was written
    ["hh Zmod:4[C4] --max-degree 3"],
    ["hh Z[C5] --max-degree 4"],
]

_TRACE_FIXED = [
    ["trace-homology GF:2 --size 2 --degree 1"],
    ["trace-homology GF:2 --size 2 --degree 2"],
    ["trace-homology GF:2 --size 2 --degree 3"],
    [f"trace-homology GF:5 --size 1 --degree {d}" for d in (1, 2, 3)],
    [f"trace-homology Zmod:4 --size 1 --degree {d}" for d in (1, 2, 3)],
    [f"trace-homology GF:2[C2] --size 1 --degree {d}" for d in (1, 2, 3)],
    ["morita GF:2 --size 2 --max-degree 3"],
    ["morita Z --size 2 --max-degree 3"],
    ["morita Z[C2] --size 2 --max-degree 1"],
    ["morita Z[C3] --size 2 --max-degree 0"],
    ["morita GF:2[x]/x^2 --size 2 --max-degree 1"],
    ["morita Zmod:4 --size 2 --max-degree 2"],
    ["morita GF:2 --size 3 --max-degree 1"],
    ["morita GF:3 --size 2 --max-degree 3", "morita GF:5 --size 2 --max-degree 3"],
    ["morita GF:7 --size 2 --max-degree 3"],
    ["morita GF:11 --size 2 --max-degree 3"],
]

# (algebra selector, matrix size) for the trace-k1 slots.
_K1_SHAPES = [
    ("Z[C2]", 2), ("Z[C3]", 2), ("Z[C4]", 1), ("Q[C3]", 2),
    ("GF:2[x]/x^2", 2), ("GF:3[x]/x^3", 2), ("GF:5[x]/x^2", 3), ("Z[C2]", 3),
]
K1_VARIANTS = 6

_CATEGORIES = [
    ["k0 vect_gf:2:2"],
    ["k0 finite_modules:2:4"],
    ["k0 pointed_sets:3"],
    ["k0 pointed_sets:2"],
    ["k0 finite_modules:2:2", "k0 vect_gf:2:1"],
    ["validate vect_gf:2:2"],
    ["validate finite_modules:2:4", "validate finite_modules:2:5"],
    ["validate pointed_sets:2"],
    ["validate vect_gf:2:1", "validate pointed_sets:1"],
    ["k0 trivial"],
    ["validate trivial", "validate pointed_sets:0"],
    ["k0 pointed_sets:1", "k0 pointed_sets:0"],
    ["k0 finite_modules:2:1", "k0 finite_modules:3:2"],
    ["validate finite_modules:2:3", "validate finite_modules:3:2"],
    ["k0 finite_modules:2:3"],
    ["k0 vect_gf:3:1", "k0 vect_gf:5:1"],
    ["validate vect_gf:3:1", "validate vect_gf:5:1"],
    [f"selftest --seed {s}" for s in range(8)],
    # refused at STRING_CAP (exit 4) at the time the benchmark was written
    ["k0 vect_gf:2:3"],
    ["k0 finite_modules:3:9"],
    ["k0 pointed_sets:4"],
    ["k0 vect_gf:3:2"],
]


# ---------------------------------------------------------------------------
# invertible matrices for trace-k1
# ---------------------------------------------------------------------------


def _algebra_shape(sel: str):
    """(base ring, rank, kind) of a ``R[Cn]`` or ``R[x]/x^n`` selector."""
    if sel.endswith("]") and "[C" in sel:
        base, n = sel[:-1].split("[C")
        return base, int(n), "group"
    base, n = sel.split("[x]/x^")
    return base, int(n), "poly"


def _modulus(base: str):
    return int(base.split(":")[1]) if ":" in base else None


def _mul(a, b, rank: int, kind: str, mod):
    out = [0] * rank
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            k = (i + j) % rank if kind == "group" else i + j
            if k < rank:
                out[k] += x * y
    return [v % mod for v in out] if mod else out


def _random_unit(rng: random.Random, base: str, rank: int, kind: str):
    mod = _modulus(base)
    u = [0] * rank
    if kind == "group":
        # +-g^k over Z, a nonzero multiple of g^k over a field
        scalar = rng.randrange(1, mod) if mod else rng.choice([-1, 1] if base == "Z" else [-2, -1, 1, 2, 3])
        u[rng.randrange(rank)] = scalar
    else:
        u[0] = rng.randrange(1, mod)
        for i in range(1, rank):
            u[i] = rng.randrange(mod)
    return u


def _random_element(rng: random.Random, base: str, rank: int):
    mod = _modulus(base)
    if mod:
        return [rng.randrange(mod) for _ in range(rank)]
    return [rng.choice([-1, 0, 0, 1]) for _ in range(rank)]


def invertible_matrix(sel: str, n: int, variant: int) -> str:
    """Matrix literal of a product of elementary matrices and a unit diagonal.

    Every draw is invertible by construction, so no draw is rejected.
    """
    base, rank, kind = _algebra_shape(sel)
    mod = _modulus(base)
    rng = random.Random(f"{sel}|{n}|{variant}")
    zero = [0] * rank
    g = [[_random_unit(rng, base, rank, kind) if i == j else list(zero) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = _random_element(rng, base, rank)
        # g <- (I + c E_ij) g : row_i += c * row_j
        g[i] = [[x + y for x, y in zip(g[i][k], _mul(c, g[j][k], rank, kind, mod))] for k in range(n)]
        if mod:
            g[i] = [[x % mod for x in e] for e in g[i]]
    return "; ".join(" ".join(",".join(str(x) for x in e) for e in row) for row in g)


def _k1_slots():
    return [
        [("trace-k1", sel, invertible_matrix(sel, n, v)) for v in range(K1_VARIANTS)]
        for sel, n in _K1_SHAPES
    ]


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def _slots(workload: str) -> list:
    """Slots of argv tuples for one workload."""
    if workload == "homology":
        text = _HOMOLOGY
    elif workload == "trace":
        text = _TRACE_FIXED
    elif workload == "categories":
        text = _CATEGORIES
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    slots = [[tuple(job.split()) for job in slot] for slot in text]
    if workload == "trace":
        slots += _k1_slots()
    return slots


def generate(workload: str, seed: int) -> list:
    """The batch for one run: one job per slot, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [rng.choice(slot) for slot in _slots(workload)]
    rng.shuffle(jobs)
    return jobs


def reorder(batch: list, seed: int, index: int) -> list:
    """The batch in the order of its index-th run (the first keeps its order)."""
    if index == 0:
        return list(batch)
    out = list(batch)
    random.Random(f"{seed}:{index}").shuffle(out)
    return out


def pool(workload: str) -> list:
    """Every job that ``generate`` can return for this workload."""
    return [job for slot in _slots(workload) for job in slot]


def job_key(argv) -> str:
    return " ".join(argv)
