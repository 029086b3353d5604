"""Text file formats for algebras, groups and categories.

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

One reader, ``_records``, reads every file: it skips comments and blank
lines and applies the rules the grammars share (unknown keywords,
once-only lines, argument counts), each grammar a small table of its
keywords.  The parsers convert each line as the reader yields it, so the
error reported is the first one in the file, and a parse error that one
line causes names it as ``<file>:<line>:``, a ``family`` selector's own
errors included.  A file that cannot be read or is not UTF-8 is a parse
error too.  ``validate_file`` reads a file once and
runs the validator of the grammar its first keyword names.

The parsers check what they read with the exhaustive validators
(``validate_algebra`` and ``validate_group`` here,
``wcat.validate_waldhausen`` for categories) unless asked not to.  An
explicit category table is checked for references to unlisted objects
and morphisms once all its lines are read, since a line may refer to one
listed further down, and then becomes a ``tablecat.TableCategory``.

``serialize_category`` writes any in-memory category in the explicit table
format with canonical names (objects ``o0, o1, ...`` in object order,
morphisms ``m0, m1, ...`` in hom-set enumeration order), so its output is
byte-deterministic and re-parses to a structurally equal table.

Only file inputs need this module: the command line imports it when an
input names an existing file, so no selector job compiles it.  The parsers
import the modules they build with when they run, so an algebra or group
file loads neither wcat nor tablecat.
"""

from __future__ import annotations

import itertools

from .errors import InputParseError, ValidationError
from .formats import ring_from_spec
from .validation import ValidationReport

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra, FiniteGroup
    from .wcat import WCategory

__all__ = [
    "parse_algebra_text",
    "parse_algebra_file",
    "validate_algebra",
    "parse_group_text",
    "parse_group_file",
    "validate_group",
    "parse_category_text",
    "parse_category_file",
    "serialize_category",
    "validate_file",
]


# ---------------------------------------------------------------------------
# the reader
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    """The text of the file at path; a read or UTF-8 decode failure is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc


def _tokens(text: str):
    """Yield (lineno, tokens) for each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield lineno, toks


def _fail(where: str, lineno: int, msg: str):
    raise InputParseError(f"{where}:{lineno}: {msg}")


def _records(text: str, where: str, kind: str, grammar: dict, rows_after: str | None = None):
    """Yield (lineno, keyword, args) for each line of text, in file order.

    ``grammar`` maps each keyword to (once, args): ``once`` refuses a second
    line with that keyword; ``args`` is a tuple of argument names (exactly
    that many, else "expected: <keyword> <name> ..."), a message that the
    line needs at least one argument, or None for a count the parser checks
    itself.  Once a ``rows_after`` line is read, every later line is a
    table row, yielded with keyword None.
    """
    seen = set()
    rows = False
    for lineno, toks in _tokens(text):
        if rows:
            yield lineno, None, toks
            continue
        key, args = toks[0], toks[1:]
        if key not in grammar:
            _fail(where, lineno, f"unknown keyword {key!r} in {kind} file")
        once, names = grammar[key]
        if once:
            if key in seen:
                _fail(where, lineno, f"duplicate {key} line")
            seen.add(key)
        if isinstance(names, str) and not args:
            _fail(where, lineno, names)
        if isinstance(names, tuple) and len(args) != len(names):
            _fail(where, lineno, "expected: " + " ".join([key] + [f"<{n}>" for n in names]))
        rows = key == rows_after
        yield lineno, key, args


def _convert(where: str, lineno: int, convert, tok: str):
    """convert(tok), its ValueError or InputParseError located at the line."""
    try:
        return convert(tok)
    except (ValueError, InputParseError) as exc:
        _fail(where, lineno, str(exc))


def _require(where: str, found: dict, keys) -> None:
    for key in keys:
        if key not in found:
            raise InputParseError(f"{where}: missing {key} line")


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

_ALGEBRA = {
    "algebra": (True, ("name",)),
    "base": (True, ("ring",)),
    "basis": (True, "basis needs at least one name"),
    "unit": (True, None),  # one coefficient per basis element, once the basis is known
    "mul": (False, None),  # two indices at least, checked once the basis is known
}


def parse_algebra_text(text: str, where: str = "<algebra>", validate: bool = True) -> Algebra:
    """Parse the algebra file format; optionally run the exhaustive validator."""
    found: dict[str, tuple] = {}  # once-only keyword: (lineno, value)
    mul_lines: list[tuple[int, list[str]]] = []
    for lineno, key, args in _records(text, where, "an algebra", _ALGEBRA):
        if key == "mul":
            mul_lines.append((lineno, args))
            continue
        if key == "base":
            args = _convert(where, lineno, ring_from_spec, args[0])
        elif key == "basis" and len(set(args)) != len(args):
            _fail(where, lineno, "duplicate basis name")
        found[key] = lineno, args
    _require(where, found, ("algebra", "base", "basis", "unit"))
    name, ring, basis = found["algebra"][1][0], found["base"][1], found["basis"][1]
    rank = len(basis)

    def index(lineno: int, tok: str) -> int:
        try:
            i = int(tok)
        except ValueError:
            _fail(where, lineno, f"expected a basis index, got {tok!r}")
        if not 0 <= i < rank:
            _fail(where, lineno, f"basis index {i} out of range 0..{rank - 1}")
        return i

    lineno, toks = found["unit"]
    if len(toks) != rank:
        _fail(where, lineno, f"unit needs {rank} coefficients, got {len(toks)}")
    unit = tuple(_convert(where, lineno, ring.parse_element, t) for t in toks)

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
            entry[k] = _convert(where, lineno, ring.parse_element, c_tok)
        products[(i, j)] = entry

    from .algebra import make_algebra

    A = make_algebra(ring, basis, unit, products, name=name)
    if validate:
        validate_algebra(A).require_ok()
    return A


def parse_algebra_file(path: str) -> Algebra:
    return parse_algebra_text(_read(path), where=path)


def validate_algebra(A: Algebra) -> ValidationReport:
    """Exhaustive associativity and unit check on basis triples/pairs."""
    report = ValidationReport(subject=A.name or "algebra")
    names = A.basis_names
    for i in range(A.rank):
        e_i = A.basis_vector(i)
        left = A.mul_vec(A.unit, e_i)
        right = A.mul_vec(e_i, A.unit)
        report.checks_run += 2
        if left != e_i:
            report.record(f"unit fails on the left of {names[i]}")
        if right != e_i:
            report.record(f"unit fails on the right of {names[i]}")
    basis = [A.basis_vector(i) for i in range(A.rank)]
    for i, j, k in itertools.product(range(A.rank), repeat=3):
        lhs = A.mul_vec(A.mul_vec(basis[i], basis[j]), basis[k])
        rhs = A.mul_vec(basis[i], A.mul_vec(basis[j], basis[k]))
        report.checks_run += 1
        if lhs != rhs:
            report.record(f"associativity fails on ({names[i]}, {names[j]}, {names[k]})")
    return report


# ---------------------------------------------------------------------------
# group files
# ---------------------------------------------------------------------------


_GROUP = {
    "group": (True, ("name",)),
    "elements": (True, "elements needs at least one name"),
    "table": (True, None),  # every later line is a row of the table
}


def parse_group_text(text: str, where: str = "<group>", validate: bool = True) -> FiniteGroup:
    """Parse the group file format and locate the identity from the table."""
    found: dict[str, list[str]] = {}
    rows: list[tuple[int, list[str]]] = []
    for lineno, key, args in _records(text, where, "a group", _GROUP, rows_after="table"):
        if key is None:
            rows.append((lineno, args))
            continue
        if key == "elements" and len(set(args)) != len(args):
            _fail(where, lineno, "duplicate element name")
        if key == "table" and "elements" not in found:
            _fail(where, lineno, "table must follow the elements line")
        found[key] = args
    _require(where, found, ("group", "elements"))
    elements = found["elements"]
    order = len(elements)
    if len(rows) != order:
        raise InputParseError(f"{where}: table needs {order} rows, got {len(rows)}")
    idx = {e: i for i, e in enumerate(elements)}
    table = []
    for (lineno, row), element in zip(rows, elements):
        if len(row) != order:
            _fail(where, lineno, f"table row for {element} needs {order} entries, got {len(row)}")
        for tok in row:
            if tok not in idx:
                _fail(where, lineno, f"table entry {tok!r} is not an element")
        table.append(tuple(idx[tok] for tok in row))
    units = (e for e in range(order) if all(table[e][x] == x == table[x][e] for x in range(order)))
    identity = next(units, None)
    if identity is None:
        raise ValidationError(f"{where}: multiplication table has no identity element")
    from .algebra import FiniteGroup

    name = found["group"][0]
    G = FiniteGroup(table=tuple(table), identity=identity, names=tuple(elements), name=name)
    if validate:
        validate_group(G).require_ok()
    return G


def parse_group_file(path: str) -> FiniteGroup:
    return parse_group_text(_read(path), where=path)


def validate_group(G: FiniteGroup) -> ValidationReport:
    report = ValidationReport(subject=G.name or "group")
    n = G.order
    for i in range(n):
        report.checks_run += 2
        if G.table[G.identity][i] != i:
            report.record(f"identity fails on the left of {G.names[i]}")
        if G.table[i][G.identity] != i:
            report.record(f"identity fails on the right of {G.names[i]}")
        report.checks_run += 1
        if all(G.table[i][j] != G.identity for j in range(n)):
            report.record(f"{G.names[i]} has no inverse")
    for i, j, k in itertools.product(range(n), repeat=3):
        report.checks_run += 1
        if G.table[G.table[i][j]][k] != G.table[i][G.table[j][k]]:
            report.record(f"associativity fails on ({G.names[i]}, {G.names[j]}, {G.names[k]})")
    for row in G.table:
        for v in row:
            if not (0 <= v < n):
                report.record(f"table entry {v} outside the group")
    return report


# ---------------------------------------------------------------------------
# category files
# ---------------------------------------------------------------------------


_CATEGORY = {
    "category": (True, ("name",)),
    "family": (True, ("selector",)),
    "bound": (True, ("B",)),
    "object": (False, ("name", "size")),
    "zero": (True, ("name",)),
    "mor": (False, ("name", "src", "dst")),
    "identity": (False, ("obj", "mor")),
    "cof": (False, ("mor",)),
    "weq": (False, ("mor",)),
    "compose": (False, ("g", "f", "gf")),
    "pushout": (False, ("i", "f", "d", "u", "v")),
}


def parse_category_text(
    text: str, where: str = "<category>", validate: bool = True
) -> WCategory:
    """Parse a category file: a family selector or an explicit table.

    ``validate`` checks an explicit table's axioms.  A family line names a
    built-in family, which is valid by construction and is not checked
    again, so a family file computes what its selector computes.

    A table's lines may refer to objects and morphisms listed further
    down, so its references are checked once every line is read, each
    error located at the line that holds the bad reference.
    """
    found: dict[str, tuple] = {}  # once-only keyword: (lineno, value)
    lines: dict[str, list] = {key: [] for key, (once, _) in _CATEGORY.items() if not once}
    identities: dict[str, tuple[int, str]] = {}
    compose: dict[tuple[str, str], tuple[int, str]] = {}
    table_form = False

    def integer(lineno: int, what: str, tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            _fail(where, lineno, f"{what} must be an integer, got {tok!r}")

    for lineno, key, args in _records(text, where, "a category", _CATEGORY):
        table_form = table_form or key not in ("category", "family")
        if key == "bound":
            found[key] = lineno, integer(lineno, "bound", args[0])
        elif key == "object":
            lines[key].append((lineno, (args[0], integer(lineno, "object size", args[1]))))
        elif key == "identity":
            if args[0] in identities:
                _fail(where, lineno, f"duplicate identity line for {args[0]!r}")
            identities[args[0]] = lineno, args[1]
        elif key == "compose":
            if (args[0], args[1]) in compose:
                _fail(where, lineno, f"duplicate compose line for ({args[0]!r}, {args[1]!r})")
            compose[(args[0], args[1])] = lineno, args[2]
        elif key in lines:
            lines[key].append((lineno, args))
        else:
            found[key] = lineno, args[0]

    _require(where, found, ("category",))
    from .tablecat import TableCategory
    from .wcat import category_from_selector, validate_waldhausen

    if "family" in found:
        if table_form:
            raise InputParseError(f"{where}: family form does not take table lines")
        lineno, selector = found["family"]
        try:
            return category_from_selector(selector)
        except InputParseError as exc:
            _fail(where, lineno, str(exc))
    _require(where, found, ("bound", "zero"))

    sizes: dict[str, int] = {}
    for lineno, (nm, size) in lines["object"]:
        if nm in sizes:
            _fail(where, lineno, "duplicate object name")
        sizes[nm] = size
    lineno, zero = found["zero"]
    if zero not in sizes:
        _fail(where, lineno, f"zero object {zero!r} is not a listed object")
    ends: dict[str, tuple[str, str]] = {}
    for lineno, (nm, src, dst) in lines["mor"]:
        if nm in ends:
            _fail(where, lineno, "duplicate morphism name")
        ends[nm] = src, dst
    hom: dict[tuple[str, str], list[str]] = {}
    for lineno, (nm, src, dst) in lines["mor"]:
        if src not in sizes or dst not in sizes:
            _fail(where, lineno, f"morphism {nm!r} references an unknown object")
        hom.setdefault((src, dst), []).append(nm)

    def ends_of(lineno: int, what: str, *names: str) -> list:
        for nm in names:
            if nm not in ends:
                _fail(where, lineno, f"{what} references unknown morphism {nm!r}")
        return [ends[nm] for nm in names]

    for o, (lineno, nm) in identities.items():
        if o not in sizes:
            _fail(where, lineno, f"identity listed for unknown object {o!r}")
        if nm not in ends:
            _fail(where, lineno, f"identity {nm!r} is not a listed morphism")
        if ends[nm] != (o, o):
            _fail(where, lineno, f"identity {nm!r} must be an endomorphism of {o!r}")
    missing = set(sizes) - set(identities)
    if missing:
        raise InputParseError(f"{where}: objects without identities: {sorted(missing)}")
    for (g, f), (lineno, h) in compose.items():
        g_ends, f_ends, h_ends = ends_of(lineno, "compose table", g, f, h)
        if f_ends[1] != g_ends[0]:
            _fail(where, lineno, f"compose entry ({g!r},{f!r}) is not composable")
        if h_ends != (f_ends[0], g_ends[1]):
            _fail(where, lineno, f"compose entry ({g!r},{f!r}) has mismatched result")
    for lineno, (nm,) in lines["cof"] + lines["weq"]:
        ends_of(lineno, "flag", nm)
    pushouts: dict[tuple[str, str], tuple[str, str, str]] = {}
    for lineno, (i, f, d, u, v) in lines["pushout"]:
        i_ends, f_ends, u_ends, v_ends = ends_of(lineno, "pushout line", i, f, u, v)
        if d not in sizes:
            _fail(where, lineno, f"pushout line references unknown object {d!r}")
        if i_ends[0] != f_ends[0]:
            _fail(where, lineno, f"pushout legs {i!r}, {f!r} do not share a source")
        if u_ends != (i_ends[1], d):
            _fail(where, lineno, f"pushout map {u!r} has wrong endpoints")
        if v_ends != (f_ends[1], d):
            _fail(where, lineno, f"pushout map {v!r} has wrong endpoints")
        if (i, f) in pushouts:
            _fail(where, lineno, f"duplicate pushout witness for ({i!r},{f!r})")
        pushouts[(i, f)] = d, u, v

    C = TableCategory(
        found["category"][1], found["bound"][1], sizes, zero, hom,
        {o: nm for o, (_, nm) in identities.items()},
        {gf: h for gf, (_, h) in compose.items()},
        frozenset(nm for _, (nm,) in lines["cof"]),
        frozenset(nm for _, (nm,) in lines["weq"]),
        pushouts,
    )
    if validate:
        validate_waldhausen(C).require_ok()
    return C


def parse_category_file(path: str, validate: bool = True) -> WCategory:
    return parse_category_text(_read(path), where=path, validate=validate)


def validate_file(path: str) -> ValidationReport:
    """Read the file at path once and run its validator on what it parses to.

    The first keyword names the grammar: an algebra, group or category
    file is parsed without its validator, which then reports every
    violation instead of the first.
    """
    text = _read(path)
    first = next(_tokens(text), None)
    if first is None:
        raise InputParseError(f"{path}: empty input file")
    kind = first[1][0]
    if kind == "algebra":
        return validate_algebra(parse_algebra_text(text, path, validate=False))
    if kind == "group":
        return validate_group(parse_group_text(text, path, validate=False))
    if kind == "category":
        from .wcat import validate_waldhausen

        return validate_waldhausen(parse_category_text(text, path, validate=False))
    raise InputParseError(f"{path}: first keyword {kind!r} is not one of algebra, group, category")


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
