"""Command line front end.

Subcommands: ``hh`` (Hochschild homology table), ``hc`` (cyclic homology
over Q), ``group-homology``, ``trace-k1`` (Dennis trace of an invertible
matrix literal), ``trace-homology`` (trace on group homology generators),
``morita`` (multitrace-induced maps HH(M_n(A)) -> HH(A)), ``k0`` (both K_0
methods plus an agreement verdict), ``validate`` (algebra, group, or
category), and ``selftest`` (the structural property suites, each run in
a child process of its own, at most one per available CPU at a time and
longest first, and printed in their fixed order; see chaintrace.selftest).

Inputs are either file paths (formats documented in formats.py and the
README) or built-in selectors:

* algebras: ``Z``, ``Q``, ``Zmod:m``, ``GF:p`` (alias ``Fp``), group rings
  ``R[Cn]``, truncated polynomials ``R[x]/x^n``, matrices ``Mn(...)``,
  nested as in ``M2(GF:2)`` or ``M2(M2(GF:2))``;
* groups: ``trivial``, ``Cn``;
* categories: ``trivial``, ``vect_gf:q:bound``, ``pointed_sets:bound``,
  ``finite_modules:p:bound``; ``--bound B`` replaces the bound, or
  supplies it when the selector omits it (``vect_gf:q --bound B``); a
  file input with ``--bound`` exits 2, as one with ``--ring`` does.

A category table is validated as it is parsed, so ``k0`` refuses a table
that is not a Waldhausen category with exit 3, as ``hh`` refuses a bad
algebra file; a ``family`` file names a built-in family and is not
checked again.  ``validate <file>`` parses without validating and reports
every violated axiom.

Exit codes: 0 success, 2 parse error, 3 validation failure, 4 resource cap
exceeded, 5 internal invariant breach (never expected).  Output is
deterministic for a fixed config and seed; ``--format structured`` emits a
sorted JSON envelope that records the conventions behind every number.

Each handler and resolver imports the modules it runs when it runs, so a
command loads only what it computes with: ``hh`` never loads the category
modules, ``k0`` never loads the Hochschild ones, and ``--help`` loads
neither, nor formats and rings.  Every job compiles this module, so it
keeps only the config, the resolvers, dispatch and the parser.  A handler
here resolves the command's inputs and calls the command's output function
in the module the command loads anyway: ``hochschild.hh_command`` and
``hc_command``, the four in trace, ``waldhausen.k0_command``,
``validation.validate_command`` and ``selftest.selftest_command``; each
returns (ok, text), and ok False exits 3.  The output helpers they share
are in formats (``emit``, ``group_json``) and hochschild (the algebra
tables).  The selftest suites and the code that forks them live in
chaintrace.selftest, which only ``selftest`` imports (no other command
loads concurrent.futures or multiprocessing), and the selector parsers in
formats.  The file parsers live in chaintrace.tables, imported only when
an input names an existing file.  No command loads dataclasses (and with
it inspect), and only work over Q loads fractions (and with it decimal).
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
from .values import Value

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra, FiniteGroup

__all__ = ["JobConfig", "run", "main"]

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

def _resolve_algebra(inp: str, ring_override: str | None) -> Algebra:
    if os.path.isfile(inp):
        if ring_override:
            raise InputParseError("--ring overrides built-in selectors, not algebra files")
        from .tables import parse_algebra_file

        return parse_algebra_file(inp)
    from .formats import algebra_from_selector

    try:
        return algebra_from_selector(inp, ring_override)
    except InputParseError as exc:
        raise InputParseError(
            f"{inp!r} is neither an existing file nor a built-in algebra selector ({exc})"
        ) from exc


def _resolve_group(inp: str) -> FiniteGroup:
    if os.path.isfile(inp):
        from .tables import parse_group_file

        return parse_group_file(inp)
    from .formats import group_from_selector

    try:
        return group_from_selector(inp)
    except InputParseError as exc:
        raise InputParseError(
            f"{inp!r} is neither an existing file nor a built-in group selector ({exc})"
        ) from exc


def _refuse_bound_for_file(bound: int | None) -> None:
    if bound is not None:
        raise InputParseError("--bound sets the size of built-in selectors, not of input files")


def _resolve_category(inp: str, bound: int | None):
    if os.path.isfile(inp):
        _refuse_bound_for_file(bound)
        from .tables import parse_category_file

        return parse_category_file(inp)
    from .wcat import category_from_selector

    try:
        return category_from_selector(inp, bound)
    except InputParseError as exc:
        raise InputParseError(
            f"{inp!r} is neither an existing file nor a built-in category selector ({exc})"
        ) from exc


# ---------------------------------------------------------------------------
# command handlers: import the command's module, resolve its inputs, and
# return (ok, text) from the command's output function there
# ---------------------------------------------------------------------------


def _handle_hh(config: JobConfig) -> tuple[bool, str]:
    from .hochschild import hh_command

    return hh_command(config, _resolve_algebra(config.inputs[0], config.ring))


def _handle_hc(config: JobConfig) -> tuple[bool, str]:
    from .hochschild import hc_command

    return hc_command(config, _resolve_algebra(config.inputs[0], config.ring))


def _handle_group_homology(config: JobConfig) -> tuple[bool, str]:
    from .formats import ring_from_spec
    from .trace import group_homology_command

    G = _resolve_group(config.inputs[0])
    return group_homology_command(config, G, ring_from_spec(config.ring or "Z"))


def _handle_trace_k1(config: JobConfig) -> tuple[bool, str]:
    from .formats import parse_matrix_literal
    from .trace import trace_k1_command

    A = _resolve_algebra(config.inputs[0], config.ring)
    return trace_k1_command(config, A, parse_matrix_literal(A, config.inputs[1]))


def _handle_trace_homology(config: JobConfig) -> tuple[bool, str]:
    from .trace import trace_homology_command

    return trace_homology_command(config, _resolve_algebra(config.inputs[0], config.ring))


def _handle_morita(config: JobConfig) -> tuple[bool, str]:
    from .trace import morita_command

    return morita_command(config, _resolve_algebra(config.inputs[0], config.ring))


def _handle_k0(config: JobConfig) -> tuple[bool, str]:
    from .waldhausen import k0_command

    return k0_command(config, _resolve_category(config.inputs[0], config.bound))


def _handle_validate(config: JobConfig) -> tuple[bool, str]:
    from .validation import validate_command

    inp = config.inputs[0]
    if os.path.isfile(inp):
        _refuse_bound_for_file(config.bound)
        from .tables import validate_file

        return validate_command(config, validate_file(inp))
    from .wcat import validate_waldhausen

    return validate_command(config, validate_waldhausen(_resolve_category(inp, config.bound)))


def _handle_selftest(config: JobConfig) -> tuple[bool, str]:
    from .selftest import selftest_command

    return selftest_command(config)


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
        ok, report = handler(config)
        return (_EXIT_OK if ok else _EXIT_VALIDATION), report
    except ChainTraceError as exc:
        labels = {
            _EXIT_PARSE: "parse",
            _EXIT_VALIDATION: "validation",
            _EXIT_CAP: "cap",
            _EXIT_INTERNAL: "internal",
        }
        code = _exit_code(exc)
        return code, f"error ({labels[code]}): {exc}\n"
    except MemoryError:
        pass  # report once the handler's frames, and what they hold, are gone
    return _EXIT_CAP, f"error (cap): out of memory running {config.command}\n"


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
