"""Fixed reference process for host-speed normalisation.

    python3 perfbench/reference.py

Does what a short chaintrace job does, with code the benchmark owns and
the program under test cannot change: start the interpreter, import a set
of standard-library modules, then reduce a fixed dense integer matrix
modulo a prime in pure Python.  It prints nothing and exits 0.  Its wall
time follows the speed this host currently gives a Python process; see
run.py for how it is used.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import random
import re  # noqa: F401
import statistics  # noqa: F401

P = 1_000_003
N = 50


def main() -> None:
    rng = random.Random(0)
    m = [[rng.randrange(P) for _ in range(N)] for _ in range(N)]
    for c in range(N):
        inv = pow(m[c][c], P - 2, P)
        pivot = [x * inv % P for x in m[c]]
        m[c] = pivot
        for r in range(c + 1, N):
            f = m[r][c]
            m[r] = [(a - f * b) % P for a, b in zip(m[r], pivot)]
    counts: dict = {}
    for row in m:
        for x in row:
            counts[x % 97] = counts.get(x % 97, 0) + 1
    if sum(counts.values()) != N * N:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
