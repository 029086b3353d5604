"""Text file formats for algebras, groups, and categories, plus JSON output.

All three input formats are line-oriented: ``#`` starts a comment, blank
lines are ignored, and fields are whitespace-separated tokens.  Indices are
0-based.  The grammars (also documented in the README):

Algebra file::

    algebra <name>
    base <ring>                 # Z | Q | Zmod:m | GF:p
    basis <tok> <tok> ...
    unit <coeff> <coeff> ...    # one coefficient per basis element
    mul <i> <j> <k>:<coeff> ... # e_i * e_j; omitted pairs multiply to zero

Group file::

    group <name>
    elements <tok> <tok> ...
    table
    <row of element tokens>     # row g lists g*h for each column h
    ...

Category file, either a built-in family::

    category <name>
    family <selector>           # trivial | vect_gf:q:b | pointed_sets:b
                                # | finite_modules:p:b

or an explicit table::

    category <name>
    bound <B>
    object <tok> <size>
    zero <tok>
    mor <tok> <src> <dst>
    identity <obj> <mor>
    cof <mor>
    weq <mor>
    compose <g> <f> <gf>
    pushout <i> <f> <d> <u> <v>

``serialize_category`` writes any in-memory category in the explicit table
format with canonical names (objects ``o0, o1, ...`` in object order,
morphisms ``m0, m1, ...`` in hom-set enumeration order), so its output is
byte-deterministic and re-parses to a structurally equal table.

The built-in selectors the command line accepts in place of a file are
parsed here too (``algebra_from_selector``, ``group_from_selector``; the
category selectors belong to wcat): algebras nest as ``Mn(...)``,
``R[Cn]`` and ``R[x]/x^n`` around a base ring ``Z``, ``Q``, ``Zmod:m`` or
``GF:p`` (alias ``Fp``); groups are ``trivial`` and ``Cn``.

Structured (JSON) output for the command line lives here too: a fixed
envelope holding the config, the resolved caps and conventions (Connes B
convention string, Smith pivot rule), and a command-specific result.  The
rendering is sorted and indentation-stable, so identical configs produce
byte-identical bytes.  The caps and conventions come from the conventions
module, and the parsers import algebra and wcat only when they run, so
rendering an envelope loads no compute module.
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
from .errors import InputParseError, ValidationError
from .rings import GF, QQ, ZZ, BaseRing, Zmod

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra, FiniteGroup
    from .validation import ValidationReport
    from .wcat import WCategory

__all__ = [
    "ring_from_spec",
    "ring_spec",
    "algebra_from_selector",
    "group_from_selector",
    "parse_algebra_text",
    "parse_algebra_file",
    "parse_group_text",
    "parse_group_file",
    "parse_category_text",
    "parse_category_file",
    "parse_matrix_literal",
    "serialize_category",
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
# line tokenizer
# ---------------------------------------------------------------------------


def _lines(text: str):
    """Yield (lineno, tokens) for meaningful lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def _fail(where: str, lineno: int, msg: str):
    raise InputParseError(f"{where}:{lineno}: {msg}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc


def _require_ok(report: ValidationReport) -> None:
    if not report.ok:
        raise ValidationError(
            f"{report.subject}: " + "; ".join(report.issues)
        )


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------


def parse_algebra_text(text: str, where: str = "<algebra>", validate: bool = True) -> Algebra:
    """Parse the algebra file format; optionally run the exhaustive validator."""
    name = None
    ring = None
    basis = None
    unit_toks = None
    mul_lines: list[tuple[int, list[str]]] = []
    for lineno, toks in _lines(text):
        key = toks[0]
        if key == "algebra":
            if name is not None:
                _fail(where, lineno, "duplicate algebra line")
            if len(toks) != 2:
                _fail(where, lineno, "expected: algebra <name>")
            name = toks[1]
        elif key == "base":
            if ring is not None:
                _fail(where, lineno, "duplicate base line")
            if len(toks) != 2:
                _fail(where, lineno, "expected: base <ring>")
            ring = ring_from_spec(toks[1])
        elif key == "basis":
            if basis is not None:
                _fail(where, lineno, "duplicate basis line")
            if len(toks) < 2:
                _fail(where, lineno, "basis needs at least one name")
            basis = toks[1:]
            if len(set(basis)) != len(basis):
                _fail(where, lineno, "duplicate basis name")
        elif key == "unit":
            if unit_toks is not None:
                _fail(where, lineno, "duplicate unit line")
            unit_toks = (lineno, toks[1:])
        elif key == "mul":
            mul_lines.append((lineno, toks[1:]))
        else:
            _fail(where, lineno, f"unknown keyword {key!r} in an algebra file")
    if name is None:
        raise InputParseError(f"{where}: missing algebra line")
    if ring is None:
        raise InputParseError(f"{where}: missing base line")
    if basis is None:
        raise InputParseError(f"{where}: missing basis line")
    if unit_toks is None:
        raise InputParseError(f"{where}: missing unit line")
    rank = len(basis)

    def coeff(lineno: int, tok: str):
        try:
            return ring.parse_element(tok)
        except ValueError as exc:
            _fail(where, lineno, str(exc))

    def index(lineno: int, tok: str) -> int:
        try:
            i = int(tok)
        except ValueError:
            _fail(where, lineno, f"expected a basis index, got {tok!r}")
        if not 0 <= i < rank:
            _fail(where, lineno, f"basis index {i} out of range 0..{rank - 1}")
        return i

    lineno, toks = unit_toks
    if len(toks) != rank:
        _fail(where, lineno, f"unit needs {rank} coefficients, got {len(toks)}")
    unit = tuple(coeff(lineno, t) for t in toks)

    products: dict[tuple[int, int], dict[int, object]] = {}
    for lineno, toks in mul_lines:
        if len(toks) < 2:
            _fail(where, lineno, "expected: mul <i> <j> <k>:<coeff> ...")
        i, j = index(lineno, toks[0]), index(lineno, toks[1])
        if (i, j) in products:
            _fail(where, lineno, f"duplicate mul line for ({i}, {j})")
        entry: dict[int, object] = {}
        for pair in toks[2:]:
            if ":" not in pair:
                _fail(where, lineno, f"expected <k>:<coeff>, got {pair!r}")
            k_tok, c_tok = pair.split(":", 1)
            k = index(lineno, k_tok)
            if k in entry:
                _fail(where, lineno, f"duplicate target index {k} in mul line")
            entry[k] = coeff(lineno, c_tok)
        products[(i, j)] = entry

    from .algebra import make_algebra, validate_algebra

    A = make_algebra(ring, basis, unit, products, name=name)
    if validate:
        _require_ok(validate_algebra(A))
    return A


def parse_algebra_file(path: str, validate: bool = True) -> Algebra:
    return parse_algebra_text(_read(path), where=path, validate=validate)


# ---------------------------------------------------------------------------
# group files
# ---------------------------------------------------------------------------


def parse_group_text(text: str, where: str = "<group>", validate: bool = True) -> FiniteGroup:
    """Parse the group file format and locate the identity from the table."""
    name = None
    elements = None
    rows: list[list[str]] = []
    in_table = False
    for lineno, toks in _lines(text):
        if in_table:
            rows.append(toks)
            continue
        key = toks[0]
        if key == "group":
            if name is not None:
                _fail(where, lineno, "duplicate group line")
            if len(toks) != 2:
                _fail(where, lineno, "expected: group <name>")
            name = toks[1]
        elif key == "elements":
            if elements is not None:
                _fail(where, lineno, "duplicate elements line")
            if len(toks) < 2:
                _fail(where, lineno, "elements needs at least one name")
            elements = toks[1:]
            if len(set(elements)) != len(elements):
                _fail(where, lineno, "duplicate element name")
        elif key == "table":
            if elements is None:
                _fail(where, lineno, "table must follow the elements line")
            in_table = True
        else:
            _fail(where, lineno, f"unknown keyword {key!r} in a group file")
    if name is None:
        raise InputParseError(f"{where}: missing group line")
    if elements is None:
        raise InputParseError(f"{where}: missing elements line")
    order = len(elements)
    if len(rows) != order:
        raise InputParseError(f"{where}: table needs {order} rows, got {len(rows)}")
    idx = {e: i for i, e in enumerate(elements)}
    table = []
    for r, row in enumerate(rows):
        if len(row) != order:
            raise InputParseError(
                f"{where}: table row for {elements[r]} needs {order} entries, got {len(row)}"
            )
        out_row = []
        for tok in row:
            if tok not in idx:
                raise InputParseError(f"{where}: table entry {tok!r} is not an element")
            out_row.append(idx[tok])
        table.append(tuple(out_row))
    identity = None
    for e in range(order):
        if all(table[e][x] == x and table[x][e] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise ValidationError(f"{where}: multiplication table has no identity element")
    from .algebra import FiniteGroup, validate_group

    G = FiniteGroup(
        table=tuple(table), identity=identity, names=tuple(elements), name=name
    )
    if validate:
        _require_ok(validate_group(G))
    return G


def parse_group_file(path: str, validate: bool = True) -> FiniteGroup:
    return parse_group_text(_read(path), where=path, validate=validate)


# ---------------------------------------------------------------------------
# category files
# ---------------------------------------------------------------------------


def parse_category_text(
    text: str, where: str = "<category>", validate: bool = True
) -> WCategory:
    """Parse a category file: a family selector or an explicit table."""
    name = None
    family = None
    bound = None
    zero = None
    objects: list[tuple[str, int]] = []
    morphisms: list[tuple[str, str, str]] = []
    identities: dict[str, str] = {}
    cof: list[str] = []
    weq: list[str] = []
    compose: dict[tuple[str, str], str] = {}
    pushouts: list[tuple[str, str, str, str, str]] = []
    table_keys = 0

    def arity(lineno, toks, n, usage):
        if len(toks) != n + 1:
            _fail(where, lineno, f"expected: {usage}")

    for lineno, toks in _lines(text):
        key = toks[0]
        if key == "category":
            if name is not None:
                _fail(where, lineno, "duplicate category line")
            arity(lineno, toks, 1, "category <name>")
            name = toks[1]
            continue
        if key == "family":
            arity(lineno, toks, 1, "family <selector>")
            if family is not None:
                _fail(where, lineno, "duplicate family line")
            family = toks[1]
            continue
        table_keys += 1
        if key == "bound":
            arity(lineno, toks, 1, "bound <B>")
            if bound is not None:
                _fail(where, lineno, "duplicate bound line")
            try:
                bound = int(toks[1])
            except ValueError:
                _fail(where, lineno, f"bound must be an integer, got {toks[1]!r}")
        elif key == "object":
            arity(lineno, toks, 2, "object <name> <size>")
            try:
                objects.append((toks[1], int(toks[2])))
            except ValueError:
                _fail(where, lineno, f"object size must be an integer, got {toks[2]!r}")
        elif key == "zero":
            arity(lineno, toks, 1, "zero <name>")
            if zero is not None:
                _fail(where, lineno, "duplicate zero line")
            zero = toks[1]
        elif key == "mor":
            arity(lineno, toks, 3, "mor <name> <src> <dst>")
            morphisms.append((toks[1], toks[2], toks[3]))
        elif key == "identity":
            arity(lineno, toks, 2, "identity <obj> <mor>")
            if toks[1] in identities:
                _fail(where, lineno, f"duplicate identity line for {toks[1]!r}")
            identities[toks[1]] = toks[2]
        elif key == "cof":
            arity(lineno, toks, 1, "cof <mor>")
            cof.append(toks[1])
        elif key == "weq":
            arity(lineno, toks, 1, "weq <mor>")
            weq.append(toks[1])
        elif key == "compose":
            arity(lineno, toks, 3, "compose <g> <f> <gf>")
            if (toks[1], toks[2]) in compose:
                _fail(where, lineno, f"duplicate compose line for ({toks[1]!r}, {toks[2]!r})")
            compose[(toks[1], toks[2])] = toks[3]
        elif key == "pushout":
            arity(lineno, toks, 5, "pushout <i> <f> <d> <u> <v>")
            pushouts.append((toks[1], toks[2], toks[3], toks[4], toks[5]))
        else:
            _fail(where, lineno, f"unknown keyword {key!r} in a category file")

    if name is None:
        raise InputParseError(f"{where}: missing category line")
    from .wcat import TableCategory, category_from_selector, validate_waldhausen

    if family is not None:
        if table_keys:
            raise InputParseError(f"{where}: family form does not take table lines")
        C = category_from_selector(family)
    else:
        if bound is None:
            raise InputParseError(f"{where}: missing bound line")
        if zero is None:
            raise InputParseError(f"{where}: missing zero line")
        C = TableCategory(
            name,
            objects,
            zero,
            morphisms,
            identities,
            compose,
            cof,
            weq,
            pushouts,
            bound,
        )
    if validate:
        _require_ok(validate_waldhausen(C))
    return C


def parse_category_file(path: str, validate: bool = True) -> WCategory:
    return parse_category_text(_read(path), where=path, validate=validate)


def serialize_category(C: WCategory, labels: bool = True) -> str:
    """Explicit-table category file for C, byte-deterministic.

    Objects are named o0, o1, ... in canonical object order and morphisms
    m0, m1, ... in hom-set enumeration order, so handles never leak into the
    file.  With labels=True the category's own display labels ride along as
    comments.  parse_category_text of the output is structurally equal to C:
    serializing it again (labels=False both times) reproduces the bytes.
    """
    n = C.object_count()
    oname = [f"o{a}" for a in range(n)]
    mname: dict[int, str] = {}
    order: list[int] = []
    for a in range(n):
        for b in range(n):
            for m in C.hom_ids(a, b):
                mname[m] = f"m{len(order)}"
                order.append(m)

    def com(label: str) -> str:
        return f"  # {label}" if labels else ""

    safe_name = "".join("_" if ch.isspace() else ch for ch in C.name) or "category"
    out = [f"category {safe_name}", f"bound {C.bound}"]
    for a in range(n):
        out.append(f"object {oname[a]} {C.object_size(a)}{com(C.object_label(a))}")
    out.append(f"zero {oname[C.zero_index()]}")
    for m in order:
        a, b = C.mor_source(m), C.mor_target(m)
        out.append(f"mor {mname[m]} {oname[a]} {oname[b]}{com(C.mor_label(m))}")
    for a in range(n):
        out.append(f"identity {oname[a]} {mname[C.identity_id(a)]}")
    for m in order:
        if C.is_cofibration_id(m):
            out.append(f"cof {mname[m]}")
    for m in order:
        if C.is_weq_id(m):
            out.append(f"weq {mname[m]}")
    for g in order:
        for f in order:
            if C.mor_target(f) == C.mor_source(g):
                out.append(f"compose {mname[g]} {mname[f]} {mname[C.compose_ids(g, f)]}")
    for i in order:
        if not C.is_cofibration_id(i):
            continue
        a = C.mor_source(i)
        for c in range(n):
            for f in C.hom_ids(a, c):
                w = C.pushout_witness(i, f)
                if w is None:
                    continue
                d, u, v = w
                out.append(
                    f"pushout {mname[i]} {mname[f]} {oname[d]} {mname[u]} {mname[v]}"
                )
    return "\n".join(out) + "\n"


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
