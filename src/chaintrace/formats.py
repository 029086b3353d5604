"""Ring specs, built-in selectors, matrix literals and JSON output.

Every command line job loads this module, so it holds only what every job
may run:

* ring specs ``Z``, ``Q``, ``Zmod:m`` and ``GF:p`` (``ring_from_spec``,
  ``ring_spec``);
* the built-in selectors the command line accepts in place of a file
  (``algebra_from_selector``, ``group_from_selector``; the category
  selectors belong to wcat): algebras nest as ``Mn(...)``, ``R[Cn]`` and
  ``R[x]/x^n`` around a base ring ``Z``, ``Q``, ``Zmod:m`` or ``GF:p``
  (alias ``Fp``); groups are ``trivial`` and ``Cn``;
* matrix literals for ``trace-k1`` (``parse_matrix_literal``);
* structured (JSON) output: a fixed envelope holding the config, the
  resolved caps and conventions (Connes B convention string, Smith pivot
  rule), and a command-specific result.  The rendering is sorted and
  indentation-stable, so identical configs produce byte-identical bytes.

The text file formats for algebras, groups and categories, their parsers
and ``serialize_category`` live in chaintrace.tables, which only jobs with
a file input load.  The caps and conventions come from the conventions
module, and the selectors import algebra only when they run, so rendering
an envelope loads no compute module.
"""

from __future__ import annotations

import json
import re

from .conventions import (
    B_CONVENTION,
    DEGREE_CAP,
    GROUP_ORDER_CAP,
    LEVEL_CAP,
    PIVOT_RULE,
    PUSHOUT_SEARCH_CAP,
)
from .errors import InputParseError
from .rings import GF, QQ, ZZ, BaseRing, Zmod

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra, FiniteGroup

__all__ = [
    "ring_from_spec",
    "ring_spec",
    "algebra_from_selector",
    "group_from_selector",
    "parse_matrix_literal",
    "conventions_block",
    "render_structured",
]


# ---------------------------------------------------------------------------
# ring specs
# ---------------------------------------------------------------------------


def ring_from_spec(spec: str) -> BaseRing:
    """Ring named by ``Z``, ``Q``, ``Zmod:m``, or ``GF:p``."""
    spec = spec.strip()
    if spec == "Z":
        return ZZ
    if spec == "Q":
        return QQ
    parts = spec.split(":")
    try:
        if parts[0] == "Zmod" and len(parts) == 2:
            return Zmod(int(parts[1]))
        if parts[0] == "GF" and len(parts) == 2:
            return GF(int(parts[1]))
    except ValueError as exc:
        raise InputParseError(f"bad ring spec {spec!r}: {exc}") from exc
    raise InputParseError(f"unknown ring spec {spec!r}; expected Z, Q, Zmod:m, or GF:p")


def ring_spec(ring: BaseRing) -> str:
    """Inverse of ring_from_spec."""
    if ring.kind in ("Z", "Q"):
        return ring.kind
    return f"{ring.kind}:{ring.modulus}"


# ---------------------------------------------------------------------------
# built-in selectors
# ---------------------------------------------------------------------------

_ALIAS_RE = re.compile(r"F(\d+)\Z")


def _ring_token(tok: str) -> BaseRing:
    m = _ALIAS_RE.fullmatch(tok)
    if m:
        tok = f"GF:{m.group(1)}"
    return ring_from_spec(tok)


def algebra_from_selector(sel: str, ring_override: str | None = None) -> Algebra:
    """Built-in algebra named by a selector; see the module docstring.

    ``ring_override`` replaces the innermost base ring.
    """
    from .algebra import base_algebra, cyclic_group, group_algebra, matrix_algebra, truncated_polynomial

    sel = sel.strip()
    m = re.fullmatch(r"M(\d+)\((.+)\)", sel)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise InputParseError(f"matrix size in {sel!r} must be >= 1")
        return matrix_algebra(algebra_from_selector(m.group(2), ring_override), n)
    m = re.fullmatch(r"(.+)\[C(\d+)\]", sel)
    if m:
        n = int(m.group(2))
        if n < 1:
            raise InputParseError(f"cyclic group order in {sel!r} must be >= 1")
        ring = _ring_token(ring_override or m.group(1))
        return group_algebra(cyclic_group(n), ring)
    m = re.fullmatch(r"(.+)\[x\]/x\^(\d+)", sel)
    if m:
        n = int(m.group(2))
        if n < 1:
            raise InputParseError(f"truncation order in {sel!r} must be >= 1")
        ring = _ring_token(ring_override or m.group(1))
        return truncated_polynomial(ring, n)
    return base_algebra(_ring_token(ring_override or sel))


def group_from_selector(sel: str) -> FiniteGroup:
    from .algebra import cyclic_group, trivial_group

    sel = sel.strip()
    if sel == "trivial":
        return trivial_group()
    m = re.fullmatch(r"C(\d+)", sel)
    if m and int(m.group(1)) >= 1:
        return cyclic_group(int(m.group(1)))
    raise InputParseError(f"unknown group selector {sel!r}; expected trivial or Cn")


# ---------------------------------------------------------------------------
# matrix literals
# ---------------------------------------------------------------------------


def parse_matrix_literal(A: Algebra, text: str):
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


# ---------------------------------------------------------------------------
# structured output
# ---------------------------------------------------------------------------


def conventions_block() -> dict:
    """Conventions and caps that pin down every number the engine prints."""
    return {
        "connes_b": B_CONVENTION,
        "smith_pivot_rule": PIVOT_RULE,
        "caps": {
            "hochschild_level_cap": LEVEL_CAP,
            "trace_degree_cap": DEGREE_CAP,
            "group_order_cap": GROUP_ORDER_CAP,
            "pushout_search_cap": PUSHOUT_SEARCH_CAP,
        },
    }


def render_structured(command: str, config: dict, result: dict) -> str:
    """Deterministic JSON envelope; identical inputs give identical bytes."""
    payload = {
        "tool": "chaintrace",
        "command": command,
        "config": config,
        "conventions": conventions_block(),
        "result": result,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
