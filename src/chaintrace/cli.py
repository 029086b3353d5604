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

Each handler, resolver and selftest suite imports the modules it runs when
it runs, so a command loads only what it computes with: ``hh`` never loads
the category modules, ``k0`` never loads the Hochschild ones, and
``--help`` loads neither.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

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
    parse_algebra_file,
    parse_category_file,
    parse_group_file,
    parse_matrix_literal,
    render_structured,
    ring_from_spec,
    ring_spec,
)
from .rings import GF, QQ, ZZ, BaseRing
from .validation import ValidationReport

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra, FiniteGroup

__all__ = ["JobConfig", "run", "main", "algebra_from_selector", "group_from_selector"]

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_VALIDATION = 3
_EXIT_CAP = 4
_EXIT_INTERNAL = 5


@dataclass
class JobConfig:
    """One command invocation; every field is plain data."""

    command: str
    inputs: tuple[str, ...] = ()
    max_degree: int = 4
    ring: str | None = None
    bound: int | None = None
    format: str = "table"
    seed: int = 0
    size: int = 2
    degree: int = 1

    def __post_init__(self) -> None:
        if self.format not in ("table", "structured"):
            raise InputParseError(f"unknown output format {self.format!r}")
        if self.max_degree < 0:
            raise InputParseError("--max-degree must be >= 0")
        if self.bound is not None and self.bound < 0:
            raise InputParseError("--bound must be >= 0")
        if self.size < 1:
            raise InputParseError("--size must be >= 1")
        if self.degree < 0:
            raise InputParseError("--degree must be >= 0")
        self.inputs = tuple(self.inputs)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": list(self.inputs),
            "max_degree": self.max_degree,
            "ring": self.ring,
            "bound": self.bound,
            "format": self.format,
            "seed": self.seed,
            "size": self.size,
            "degree": self.degree,
        }


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

_ALIAS_RE = re.compile(r"F(\d+)\Z")


def _ring_token(tok: str) -> BaseRing:
    m = _ALIAS_RE.fullmatch(tok)
    if m:
        tok = f"GF:{m.group(1)}"
    return ring_from_spec(tok)


def algebra_from_selector(sel: str, ring_override: str | None = None) -> Algebra:
    """Built-in algebra named by a selector; see the module docstring."""
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


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------


def _suite_cyclic_identities() -> ValidationReport:
    from .hochschild import cyclic_bar, validate_cyclic_module

    report = ValidationReport(subject="cyclic module identities")
    for sel in ("Z", "GF:2[x]/x^2", "Z[C2]", "M2(GF:2)"):
        A = algebra_from_selector(sel)
        report.merge(validate_cyclic_module(cyclic_bar(A, 1)))
    return report


def _suite_b_bb(max_degree: int = 3) -> ValidationReport:
    from .hochschild import HochschildHomology

    report = ValidationReport(subject="b^2 = 0, B^2 = 0, bB + Bb = 0")
    for sel in ("Q[C2]", "GF:2[x]/x^2", "Z[C2]"):
        A = algebra_from_selector(sel)
        norm = HochschildHomology(A, max_degree).normalized
        top = max_degree + 1
        for q in range(1, top):
            report.checks_run += 1
            if not norm.boundary(q + 1).compose(norm.connes_b(q)).add(
                norm.connes_b(q - 1).compose(norm.boundary(q))
            ).is_zero_map():
                report.record(f"{sel}: bB + Bb is nonzero at level {q}")
        for q in range(top - 1):
            report.checks_run += 1
            if not norm.connes_b(q + 1).compose(norm.connes_b(q)).is_zero_map():
                report.record(f"{sel}: B^2 is nonzero at level {q}")
        for q in range(2, top + 1):
            report.checks_run += 1
            if not norm.boundary(q - 1).compose(norm.boundary(q)).is_zero_map():
                report.record(f"{sel}: b^2 is nonzero at level {q}")
    return report


def _suite_chain_maps() -> ValidationReport:
    from .algebra import base_algebra, cyclic_group, group_algebra, matrix_algebra
    from .hochschild import cyclic_bar
    from .trace import bar_complex, group_to_hh, multitrace

    report = ValidationReport(subject="chain map identities")
    for n in (2, 3):
        G = cyclic_group(n)
        ring = ZZ
        A = group_algebra(G, ring)
        cm = cyclic_bar(A, 2)
        bar = bar_complex(G, ring, 2)
        for q in (1, 2):
            phi_q = group_to_hh(G, ring, q)
            phi_q1 = group_to_hh(G, ring, q - 1)
            report.checks_run += 1
            lhs = cm.boundary(q).compose(phi_q)
            if not lhs.sub(phi_q1.compose(bar.differential(q))).is_zero_map():
                report.record(f"group_to_hh is not a chain map for C{n} at q={q}")
    A = base_algebra(GF(2))
    M = matrix_algebra(A, 2)
    cm_m = cyclic_bar(M, 2)
    cm_a = cyclic_bar(A, 2)
    for q in (1, 2):
        report.checks_run += 1
        lhs = cm_a.boundary(q).compose(multitrace(A, 2, q))
        rhs = multitrace(A, 2, q - 1).compose(cm_m.boundary(q))
        if not lhs.sub(rhs).is_zero_map():
            report.record(f"multitrace is not a chain map for M2(F2) at q={q}")
    return report


def _suite_waldhausen_families() -> ValidationReport:
    from .wcat import category_from_selector, validate_waldhausen

    report = ValidationReport(subject="Waldhausen axiom validator on built-in families")
    for sel in ("trivial", "vect_gf:2:1", "vect_gf:2:2", "pointed_sets:2", "finite_modules:2:4"):
        report.merge(validate_waldhausen(category_from_selector(sel)))
    return report


def _suite_k0() -> ValidationReport:
    from .waldhausen import grothendieck_k0, k0_retract_holds, k0_via_diagonal, k0_via_sdot
    from .wcat import category_from_selector

    report = ValidationReport(subject="K0 three ways and the retract property")
    for sel in ("trivial", "vect_gf:2:2", "finite_modules:2:4"):
        C = category_from_selector(sel)
        report.checks_run += 2
        if not grothendieck_k0(C) == k0_via_sdot(C) == k0_via_diagonal(C):
            report.record(f"K0 methods disagree on {sel}")
        if not k0_retract_holds(C):
            report.record(f"K0 retract property fails on {sel}")
    return report


def _suite_sigma_delta() -> ValidationReport:
    from .sigma_delta import free_sigma_delta, ktheory_sigma_delta, sigma_delta_validate
    from .wcat import category_from_selector

    report = ValidationReport(subject="Sigma-Delta diagram axioms")
    report.merge(sigma_delta_validate(ktheory_sigma_delta(category_from_selector("vect_gf:2:2"))))
    report.merge(sigma_delta_validate(free_sigma_delta(2)))
    return report


def _suite_trace_additivity(seed: int) -> ValidationReport:
    import random

    from .algebra import unit_inverse
    from .hochschild import HochschildHomology
    from .trace import dennis_trace_k1

    report = ValidationReport(subject="Dennis trace additivity on random unit pairs")
    rng = random.Random(seed)

    def random_unit(A, sampler):
        while True:
            u = tuple(sampler() for _ in range(A.rank))
            if not isinstance(unit_inverse(A, u), tuple):
                continue
            return u

    for sel, sampler in (
        ("Q[C2]", lambda: QQ.normalize(rng.randint(-4, 4))),
        ("Z[C2]", None),
    ):
        A = algebra_from_selector(sel)
        work = HochschildHomology(A, 1)
        units = None
        if sampler is None:
            units = [u for u in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        for _ in range(5):
            if units is None:
                u, v = random_unit(A, sampler), random_unit(A, sampler)
            else:
                u, v = rng.choice(units), rng.choice(units)
                u = A.normalize_vec(u)
                v = A.normalize_vec(v)
            uv = A.mul_vec(u, v)
            c_uv = dennis_trace_k1(A, ((uv,),), work=work)
            c_u = dennis_trace_k1(A, ((u,),), work=work)
            c_v = dennis_trace_k1(A, ((v,),), work=work)
            diff = tuple(
                A.ring.sub(A.ring.sub(a, b), c)
                for a, b, c in zip(c_uv.representative, c_u.representative, c_v.representative)
            )
            report.checks_run += 1
            if not work.is_boundary(1, diff):
                report.record(f"{sel}: trace of a product is not additive on {u}, {v}")
    return report


_SELF_TEST_SUITES = (
    ("cyclic-identities", lambda seed: _suite_cyclic_identities()),
    ("b-and-B", lambda seed: _suite_b_bb()),
    ("chain-maps", lambda seed: _suite_chain_maps()),
    ("waldhausen-families", lambda seed: _suite_waldhausen_families()),
    ("k0-agreement", lambda seed: _suite_k0()),
    ("sigma-delta", lambda seed: _suite_sigma_delta()),
    ("trace-additivity", _suite_trace_additivity),
)


def _handle_selftest(config: JobConfig) -> tuple[int, str]:
    lines = []
    suites = []
    all_ok = True
    for name, fn in _SELF_TEST_SUITES:
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
        f"({len(_SELF_TEST_SUITES)} suites, seed {config.seed})"
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
