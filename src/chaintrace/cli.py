"""Command line front end.

Subcommands: ``hh`` (Hochschild homology table), ``hc`` (cyclic homology
over Q), ``group-homology``, ``trace-k1`` (Dennis trace of an invertible
matrix literal), ``trace-homology`` (trace on group homology generators),
``morita`` (multitrace-induced maps HH(M_n(A)) -> HH(A)), ``k0`` (both K_0
methods plus an agreement verdict), ``validate`` (algebra, group, or
category), and ``selftest`` (the structural property suites).

Inputs are either file paths (formats documented in formats.py and the
README) or built-in selectors:

* algebras: ``Z``, ``Q``, ``Zmod:m``, ``GF:p`` (alias ``Fp``), group rings
  ``R[Cn]``, truncated polynomials ``R[x]/x^n``, matrices ``Mn(...)``,
  nested as in ``M2(GF:2)`` or ``M2(M2(GF:2))``;
* groups: ``trivial``, ``Cn``;
* categories: ``trivial``, ``vect_gf:q:bound``, ``pointed_sets:bound``,
  ``finite_modules:p:bound``.

Exit codes: 0 success, 2 parse error, 3 validation failure, 4 resource cap
exceeded, 5 internal invariant breach (never expected).  Output is
deterministic for a fixed config and seed; ``--format structured`` emits a
sorted JSON envelope that records the conventions behind every number.

Each handler and resolver imports the modules it runs when it runs, so a
command loads only what it computes with: ``hh`` never loads the category
modules, ``k0`` never loads the Hochschild ones, and ``--help`` loads
neither.  Every job compiles this module, so the selftest suites live in
chaintrace.selftest, which only ``selftest`` imports, and the selector
parsers in formats.  No command loads dataclasses (and with it inspect),
and only work over Q loads fractions (and with it decimal).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    CapExceededError,
    ChainTraceError,
    DegreeOutOfRangeError,
    InputParseError,
    NotInvertibleError,
    UnsupportedRingError,
    ValidationError,
)
from .formats import (
    algebra_from_selector,
    group_from_selector,
    parse_algebra_file,
    parse_category_file,
    parse_group_file,
    parse_matrix_literal,
    render_structured,
    ring_from_spec,
    ring_spec,
)
from .rings import BaseRing
from .values import Value

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra, FiniteGroup

__all__ = ["JobConfig", "run", "main", "algebra_from_selector", "group_from_selector"]

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_VALIDATION = 3
_EXIT_CAP = 4
_EXIT_INTERNAL = 5


class JobConfig(Value):
    """One command invocation; every field is plain data."""

    _fields = ("command", "inputs", "max_degree", "ring", "bound", "format", "seed", "size", "degree")
    __hash__ = None

    def __init__(
        self,
        command: str,
        inputs: tuple[str, ...] = (),
        max_degree: int = 4,
        ring: str | None = None,
        bound: int | None = None,
        format: str = "table",
        seed: int = 0,
        size: int = 2,
        degree: int = 1,
    ) -> None:
        if format not in ("table", "structured"):
            raise InputParseError(f"unknown output format {format!r}")
        if max_degree < 0:
            raise InputParseError("--max-degree must be >= 0")
        if bound is not None and bound < 0:
            raise InputParseError("--bound must be >= 0")
        if size < 1:
            raise InputParseError("--size must be >= 1")
        if degree < 0:
            raise InputParseError("--degree must be >= 0")
        self.command = command
        self.inputs = tuple(inputs)
        self.max_degree = max_degree
        self.ring = ring
        self.bound = bound
        self.format = format
        self.seed = seed
        self.size = size
        self.degree = degree

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self._fields}
        out["inputs"] = list(self.inputs)
        return out


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

def _category_selector_with_bound(sel: str, bound: int | None) -> str:
    if bound is None:
        return sel
    parts = sel.strip().split(":")
    arity = {"trivial": 0, "vect_gf": 2, "pointed_sets": 1, "finite_modules": 2}
    head = parts[0]
    if head not in arity:
        return sel
    want = arity[head]
    if want == 0:
        raise InputParseError(f"--bound does not apply to the {head!r} category")
    if len(parts) == want:
        return ":".join([*parts[:-1], str(bound)]) if len(parts) > 1 else f"{head}:{bound}"
    if len(parts) == want + 1:
        return ":".join([*parts[:-1], str(bound)])
    if len(parts) == 1 and want == 1:
        return f"{head}:{bound}"
    raise InputParseError(f"cannot apply --bound to malformed selector {sel!r}")


def _resolve_algebra(inp: str, ring_override: str | None) -> Algebra:
    if os.path.isfile(inp):
        if ring_override:
            raise InputParseError("--ring overrides built-in selectors, not algebra files")
        return parse_algebra_file(inp)
    try:
        return algebra_from_selector(inp, ring_override)
    except InputParseError as exc:
        raise InputParseError(
            f"{inp!r} is neither an existing file nor a built-in algebra selector ({exc})"
        ) from exc


def _resolve_group(inp: str) -> FiniteGroup:
    if os.path.isfile(inp):
        return parse_group_file(inp)
    try:
        return group_from_selector(inp)
    except InputParseError as exc:
        raise InputParseError(
            f"{inp!r} is neither an existing file nor a built-in group selector ({exc})"
        ) from exc


def _resolve_category(inp: str, bound: int | None, validate: bool = False):
    if os.path.isfile(inp):
        return parse_category_file(inp, validate=validate)
    from .wcat import category_from_selector

    try:
        return category_from_selector(_category_selector_with_bound(inp, bound))
    except InputParseError as exc:
        raise InputParseError(
            f"{inp!r} is neither an existing file nor a built-in category selector ({exc})"
        ) from exc


def _algebra_line(A: Algebra) -> str:
    return f"algebra {A.name or '(unnamed)'}: rank {A.rank} over {A.ring}"


def _coords_str(ring: BaseRing, coords) -> str:
    if not coords:
        return "()"
    return "(" + ", ".join(ring.format_element(c) for c in coords) + ")"


def _group_json(g) -> dict:
    from .chain import FPAbelianGroup

    if isinstance(g, FPAbelianGroup):
        return {
            "display": str(g),
            "free_rank": g.free_rank,
            "invariant_factors": list(g.invariant_factors),
        }
    return {"display": str(g), "field": str(g.field), "dimension": g.dimension}


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _emit(config: JobConfig, lines: list[str], result: dict) -> str:
    if config.format == "structured":
        return render_structured(config.command, config.as_dict(), result)
    return "\n".join(lines) + "\n"


def _handle_hh(config: JobConfig) -> tuple[int, str]:
    from .hochschild import HochschildHomology

    A = _resolve_algebra(config.inputs[0], config.ring)
    work = HochschildHomology(A, config.max_degree)
    groups = [work.group(d) for d in range(config.max_degree + 1)]
    lines = [_algebra_line(A)]
    lines += [f"HH_{d} = {g}" for d, g in enumerate(groups)]
    result = {
        "algebra": A.name,
        "ring": ring_spec(A.ring),
        "rank": A.rank,
        "groups": [_group_json(g) for g in groups],
    }
    return _EXIT_OK, _emit(config, lines, result)


def _handle_hc(config: JobConfig) -> tuple[int, str]:
    from .chain import homology, reduce_complex
    from .hochschild import cyclic_total_complex

    A = _resolve_algebra(config.inputs[0], config.ring)
    core = reduce_complex(cyclic_total_complex(A, config.max_degree))
    groups = [homology(core, d).group for d in range(config.max_degree + 1)]
    lines = [_algebra_line(A)]
    lines += [f"HC_{d} = {g}" for d, g in enumerate(groups)]
    result = {
        "algebra": A.name,
        "ring": ring_spec(A.ring),
        "rank": A.rank,
        "groups": [_group_json(g) for g in groups],
    }
    return _EXIT_OK, _emit(config, lines, result)


def _handle_group_homology(config: JobConfig) -> tuple[int, str]:
    from .trace import GroupHomology

    G = _resolve_group(config.inputs[0])
    ring = ring_from_spec(config.ring or "Z")
    work = GroupHomology(G, ring, config.max_degree)
    groups = [work.group_at(d) for d in range(config.max_degree + 1)]
    lines = [f"group {G.name or '(unnamed)'}: order {G.order}, coefficients {ring}"]
    lines += [f"H_{d}(BG) = {g}" for d, g in enumerate(groups)]
    result = {
        "group": G.name,
        "order": G.order,
        "ring": ring_spec(ring),
        "groups": [_group_json(g) for g in groups],
    }
    return _EXIT_OK, _emit(config, lines, result)


def _handle_trace_k1(config: JobConfig) -> tuple[int, str]:
    from .trace import dennis_trace_k1

    A = _resolve_algebra(config.inputs[0], config.ring)
    g = parse_matrix_literal(A, config.inputs[1])
    cls = dennis_trace_k1(A, g)
    lines = [
        _algebra_line(A),
        f"matrix size: {len(g)}",
        f"HH_1 = {cls.group}",
        f"trace class coordinates: {_coords_str(A.ring, cls.coordinates)}",
        f"zero class: {'yes' if cls.is_zero else 'no'}",
    ]
    result = {
        "algebra": A.name,
        "ring": ring_spec(A.ring),
        "matrix_size": len(g),
        "hh1": _group_json(cls.group),
        "coordinates": [A.ring.format_element(c) for c in cls.coordinates],
        "zero": cls.is_zero,
    }
    return _EXIT_OK, _emit(config, lines, result)


def _handle_trace_homology(config: JobConfig) -> tuple[int, str]:
    from .trace import dennis_trace_homology

    A = _resolve_algebra(config.inputs[0], config.ring)
    res = dennis_trace_homology(A, config.size, config.degree)
    lines = [
        _algebra_line(A),
        f"GL_{config.size}(A): order {res.gl.group.order}",
        f"H_{config.degree}(BGL_{config.size}(A)) = {res.source}",
        f"HH_{config.degree}(A) = {res.target}",
    ]
    images = []
    for k, cls in enumerate(res.classes):
        coords = _coords_str(A.ring, cls.coordinates)
        lines.append(f"generator {k} |-> {coords}{'' if not cls.is_zero else '  (zero)'}")
        images.append([A.ring.format_element(c) for c in cls.coordinates])
    result = {
        "algebra": A.name,
        "ring": ring_spec(A.ring),
        "gl_size": config.size,
        "gl_order": res.gl.group.order,
        "degree": config.degree,
        "source": _group_json(res.source),
        "target": _group_json(res.target),
        "images": images,
    }
    return _EXIT_OK, _emit(config, lines, result)


def _handle_morita(config: JobConfig) -> tuple[int, str]:
    from .trace import morita_map

    A = _resolve_algebra(config.inputs[0], config.ring)
    results = morita_map(A, config.size, config.max_degree)
    lines = [_algebra_line(A), f"matrix size: {config.size}"]
    rows = []
    for r in results:
        verdict = "ISO" if r.isomorphism else ("SURJ" if r.surjective else "NO")
        lines.append(
            f"degree {r.degree}: HH_{r.degree}(M_{config.size}(A)) = {r.source} -> "
            f"HH_{r.degree}(A) = {r.target}  [{verdict}]"
        )
        rows.append(
            {
                "degree": r.degree,
                "source": _group_json(r.source),
                "target": _group_json(r.target),
                "surjective": r.surjective,
                "isomorphism": r.isomorphism,
            }
        )
    verdict = "ISO" if all(r.isomorphism for r in results) else "NOT-ISO"
    lines.append(f"verdict: {verdict}")
    result = {
        "algebra": A.name,
        "ring": ring_spec(A.ring),
        "size": config.size,
        "degrees": rows,
        "verdict": verdict,
    }
    return _EXIT_OK, _emit(config, lines, result)


def _handle_k0(config: JobConfig) -> tuple[int, str]:
    from .waldhausen import grothendieck_k0, k0_via_sdot

    C = _resolve_category(config.inputs[0], config.bound)
    via_pres = grothendieck_k0(C)
    via_sdot = k0_via_sdot(C)
    agree = via_pres == via_sdot
    lines = [
        f"category {C.name}: {C.object_count()} objects, bound {C.bound}",
        f"K0 via Grothendieck presentation: {via_pres}",
        f"K0 via w.S-construction diagonal: {via_sdot}",
        f"verdict: {'AGREE' if agree else 'DISAGREE'}",
    ]
    result = {
        "category": C.name,
        "objects": C.object_count(),
        "bound": C.bound,
        "grothendieck": _group_json(via_pres),
        "sdot": _group_json(via_sdot),
        "agree": agree,
    }
    return _EXIT_OK, _emit(config, lines, result)


def _sniff_file_kind(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    return line.split()[0]
    except OSError as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc
    raise InputParseError(f"{path}: empty input file")


def _handle_validate(config: JobConfig) -> tuple[int, str]:
    inp = config.inputs[0]
    if os.path.isfile(inp):
        kind = _sniff_file_kind(inp)
        if kind == "algebra":
            from .algebra import validate_algebra

            report = validate_algebra(parse_algebra_file(inp, validate=False))
        elif kind == "group":
            from .algebra import validate_group

            report = validate_group(parse_group_file(inp, validate=False))
        elif kind == "category":
            from .wcat import validate_waldhausen

            report = validate_waldhausen(parse_category_file(inp, validate=False))
        else:
            raise InputParseError(
                f"{inp}: first keyword {kind!r} is not one of algebra, group, category"
            )
    else:
        from .wcat import validate_waldhausen

        report = validate_waldhausen(_resolve_category(inp, config.bound))
    lines = [report.summary()]
    lines += [f"issue: {msg}" for msg in report.issues]
    lines += [f"skipped: {msg}" for msg in report.skipped]
    result = {
        "subject": report.subject,
        "ok": report.ok,
        "checks_run": report.checks_run,
        "issues": list(report.issues),
        "skipped": list(report.skipped),
    }
    status = _EXIT_OK if report.ok else _EXIT_VALIDATION
    return status, _emit(config, lines, result)


def _handle_selftest(config: JobConfig) -> tuple[int, str]:
    from .selftest import SUITES

    lines = []
    suites = []
    all_ok = True
    for name, fn in SUITES:
        report = fn(config.seed)
        ok = report.ok
        all_ok = all_ok and ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {report.checks_run} checks")
        lines += [f"     issue: {msg}" for msg in report.issues]
        suites.append(
            {
                "name": name,
                "ok": ok,
                "checks_run": report.checks_run,
                "issues": list(report.issues),
                "skipped": list(report.skipped),
            }
        )
    lines.append(
        f"selftest: {'all suites passed' if all_ok else 'FAILED'} "
        f"({len(SUITES)} suites, seed {config.seed})"
    )
    result = {"seed": config.seed, "suites": suites, "ok": all_ok}
    return (_EXIT_OK if all_ok else _EXIT_VALIDATION), _emit(config, lines, result)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_HANDLERS = {
    "hh": _handle_hh,
    "hc": _handle_hc,
    "group-homology": _handle_group_homology,
    "trace-k1": _handle_trace_k1,
    "trace-homology": _handle_trace_homology,
    "morita": _handle_morita,
    "k0": _handle_k0,
    "validate": _handle_validate,
    "selftest": _handle_selftest,
}


def _exit_code(exc: ChainTraceError) -> int:
    if isinstance(exc, (InputParseError, DegreeOutOfRangeError, UnsupportedRingError)):
        return _EXIT_PARSE
    if isinstance(exc, (ValidationError, NotInvertibleError)):
        return _EXIT_VALIDATION
    if isinstance(exc, CapExceededError):
        return _EXIT_CAP
    return _EXIT_INTERNAL


def run(config: JobConfig) -> tuple[int, str]:
    """Execute one job; returns (exit status, report text)."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        return _EXIT_PARSE, f"error: unknown command {config.command!r}\n"
    try:
        return handler(config)
    except ChainTraceError as exc:
        labels = {
            _EXIT_PARSE: "parse",
            _EXIT_VALIDATION: "validation",
            _EXIT_CAP: "cap",
            _EXIT_INTERNAL: "internal",
        }
        code = _exit_code(exc)
        return code, f"error ({labels[code]}): {exc}\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaintrace",
        description="Exact chain-level Hochschild/cyclic homology, Dennis trace, "
        "and Waldhausen K_0 bookkeeping.",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_ring=True, with_degree=True):
        if with_degree:
            p.add_argument("--max-degree", type=int, default=4, metavar="N")
        if with_ring:
            p.add_argument("--ring", default=None, metavar="SPEC",
                           help="Z | Q | Zmod:m | GF:p")
        p.add_argument("--format", choices=("table", "structured"), default="table")

    p = sub.add_parser("hh", help="Hochschild homology table of an algebra")
    p.add_argument("input", help="algebra selector or file")
    common(p)

    p = sub.add_parser("hc", help="cyclic homology over Q of an algebra")
    p.add_argument("input", help="algebra selector or file (base ring Q)")
    common(p)

    p = sub.add_parser("group-homology", help="homology of BG for a finite group")
    p.add_argument("input", help="group selector or file")
    common(p)

    p = sub.add_parser("trace-k1", help="Dennis trace class of an invertible matrix")
    p.add_argument("input", help="algebra selector or file")
    p.add_argument("matrix", help="rows ';'-separated, entries by spaces, "
                   "entry coefficients by ','")
    common(p, with_degree=False)

    p = sub.add_parser("trace-homology",
                       help="Dennis trace on group homology generators of BGL_n")
    p.add_argument("input", help="algebra selector or file (finite base ring)")
    p.add_argument("--size", type=int, default=1, metavar="n")
    p.add_argument("--degree", type=int, default=1, metavar="d")
    common(p, with_degree=False)

    p = sub.add_parser("morita", help="multitrace maps HH(M_n(A)) -> HH(A)")
    p.add_argument("input", help="algebra selector or file")
    p.add_argument("--size", type=int, default=2, metavar="n")
    common(p)

    p = sub.add_parser("k0", help="K_0 two ways with an agreement verdict")
    p.add_argument("input", help="category selector or file")
    p.add_argument("--bound", type=int, default=None, metavar="B")
    common(p, with_ring=False, with_degree=False)

    p = sub.add_parser("validate", help="run the exhaustive validator on an input")
    p.add_argument("input", help="algebra/group/category file, or category selector")
    p.add_argument("--bound", type=int, default=None, metavar="B")
    common(p, with_ring=False, with_degree=False)

    p = sub.add_parser("selftest", help="run the structural property suites")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    common(p, with_ring=False, with_degree=False)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    kwargs = {
        "command": args.command,
        "format": args.format,
        "inputs": tuple(
            v for v in (getattr(args, "input", None), getattr(args, "matrix", None))
            if v is not None
        ),
    }
    for name in ("max_degree", "ring", "bound", "seed", "size", "degree"):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    try:
        config = JobConfig(**kwargs)
    except InputParseError as exc:
        print(f"error (parse): {exc}", file=sys.stderr)
        return _EXIT_PARSE
    status, report = run(config)
    out = sys.stdout if status == _EXIT_OK else sys.stderr
    print(report, end="", file=out)
    return status


if __name__ == "__main__":
    sys.exit(main())
