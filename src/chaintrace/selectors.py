"""Ring specs and the built-in algebra and group selectors.

What the command line accepts in place of an input file:

* ring specs ``Z``, ``Q``, ``Zmod:m`` and ``GF:p`` (``ring_from_spec``),
  which the algebra and group file parsers read too;
* algebra selectors (``algebra_from_selector``), nesting ``Mn(...)``,
  ``R[Cn]`` and ``R[x]/x^n`` around a base ring ``Z``, ``Q``, ``Zmod:m`` or
  ``GF:p`` (alias ``Fp``);
* group selectors ``trivial`` and ``Cn`` (``group_from_selector``).

The matrix literals of ``trace-k1`` are parsed by
tracek1.matrix_from_literal, which only that command loads.

Only the algebra and group commands and file inputs load this module, so
no ``k0`` or ``validate`` job compiles it; the category selectors belong to
wcat.  The builders are imported when a selector runs, so a group selector
loads no algebra code.
"""

from __future__ import annotations

import re

from .errors import InputParseError
from .rings import GF, QQ, ZZ, BaseRing, Zmod

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra
    from .groups import FiniteGroup

__all__ = ["ring_from_spec", "algebra_from_selector", "group_from_selector"]


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
    from .algebra import base_algebra, group_algebra, matrix_algebra, truncated_polynomial

    sel = sel.strip()
    m = re.fullmatch(r"M(\d+)\((.+)\)", sel)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise InputParseError(f"matrix size in {sel!r} must be >= 1")
        return matrix_algebra(algebra_from_selector(m.group(2), ring_override), n)
    m = re.fullmatch(r"(.+)\[C(\d+)\]", sel)
    if m:
        from .groups import cyclic_group

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
    from .groups import cyclic_group, trivial_group

    sel = sel.strip()
    if sel == "trivial":
        return trivial_group()
    m = re.fullmatch(r"C(\d+)", sel)
    if m and int(m.group(1)) >= 1:
        return cyclic_group(int(m.group(1)))
    raise InputParseError(f"unknown group selector {sel!r}; expected trivial or Cn")
