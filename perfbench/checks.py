"""Output checks for benchmark jobs.

``expected.json`` holds one entry per pool job, written by ``record.py``
from the engine as it was when the entry was recorded:

* a job that succeeded then has ``{"exit": 0, "sha256": ...}``; it passes
  only with exit 0 and exactly those structured-output bytes, and if it
  ends by itself in any other way (other bytes, a crash, a refusal) its
  output is wrong and the run is not correct;
* a job that failed then has ``{"seed_outcome": ..., "oracle": ...}``; it
  passes once it exits 0 with output the named oracle accepts, so a later
  fix counts as a success without editing the benchmark.

Oracles (all independent of the engine's own code paths):

* ``k0_agree``: ``k0`` exits 0 and reports ``"agree": true``;
* ``burghelea``: ``hh Z[Cm]`` gives HH_n(Z[C_m]) = H_n(C_m; Z)^m, that is
  Z^m in degree 0, (Z/m)^m in odd degrees and 0 in positive even degrees
  (Burghelea, Comment. Math. Helv. 1985);
* ``uct``: ``hh Zmod:q[Cm]`` with q a prime power gives, by universal
  coefficients from the same algebra over Z,
  HH_n(Z[C_m]) (x) Z/q  +  Tor(HH_{n-1}(Z[C_m]), Z/q).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

_HH_GROUP_RING = re.compile(r"(Z|Zmod:(\d+))\[C(\d+)\]\Z")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected(path: str = EXPECTED_FILE) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _max_degree(argv) -> int:
    return int(argv[argv.index("--max-degree") + 1])


def _integral_hh_cyclic(m: int, n: int) -> tuple[int, list[int]]:
    """(free rank, torsion orders) of HH_n(Z[C_m]) by Burghelea's formula."""
    if n == 0:
        return m, []
    if n % 2 == 1:
        return 0, [m] * m if m > 1 else []
    return 0, []


def _tensor_mod(group: tuple[int, list[int]], q: int) -> list[int]:
    free, tors = group
    return [q] * free + [g for g in (math.gcd(t, q) for t in tors) if g > 1]


def _tor_mod(group: tuple[int, list[int]], q: int) -> list[int]:
    return [g for g in (math.gcd(t, q) for t in group[1]) if g > 1]


def oracle_for(argv) -> str | None:
    """Name of the oracle that applies to a job, if any."""
    if argv[0] == "k0":
        return "k0_agree"
    if argv[0] == "hh" and "--ring" not in argv:
        m = _HH_GROUP_RING.match(argv[1])
        if m and m.group(1) == "Z":
            return "burghelea"
        if m and m.group(2):
            return "uct"
    return None


def expected_groups(oracle: str, argv) -> list:
    """The groups an ``hh`` oracle predicts, as (free rank, invariant factors)."""
    m = _HH_GROUP_RING.match(argv[1])
    order = int(m.group(3))
    top = _max_degree(argv)
    if oracle == "burghelea":
        return [_integral_hh_cyclic(order, n) for n in range(top + 1)]
    q = int(m.group(2))
    out = []
    for n in range(top + 1):
        summands = _tensor_mod(_integral_hh_cyclic(order, n), q)
        if n > 0:
            summands += _tor_mod(_integral_hh_cyclic(order, n - 1), q)
        out.append((0, sorted(summands)))
    return out


def oracle_accepts(oracle: str, argv, stdout: bytes) -> bool:
    """Whether structured stdout of a job that exited 0 satisfies the oracle."""
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return False
    if oracle == "k0_agree":
        return result.get("agree") is True
    if oracle in ("burghelea", "uct"):
        got = [(g.get("free_rank"), g.get("invariant_factors")) for g in result.get("groups", [])]
        want = [(free, tors) for free, tors in expected_groups(oracle, argv)]
        return got == want
    raise ValueError(f"unknown oracle {oracle!r}")


def verdict(entry: dict, argv, exit_code: int, stdout: bytes) -> str:
    """``ok``, ``wrong`` or ``failed`` for a job that ended by itself.

    A job with recorded bytes is ``wrong`` unless it exits 0 with exactly
    those bytes, so a crash or refusal of a job that once succeeded is
    wrong, not merely failed.  A job checked by oracle is ``failed`` while
    it still exits non-zero, and ``wrong`` if it exits 0 with output the
    oracle rejects.
    """
    if "sha256" in entry:
        same = exit_code == entry["exit"] and sha256(stdout) == entry["sha256"]
        return "ok" if same else "wrong"
    if exit_code != 0:
        return "failed"
    return "ok" if oracle_accepts(entry["oracle"], argv, stdout) else "wrong"
