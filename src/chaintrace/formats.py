"""Command output: ring specs, structured envelopes and the algebra tables.

Every command line job that computes loads this module (``--help`` does
not), so it holds only output, which every such job runs:

* the spec of a ring (``ring_spec``, the inverse of
  ``selectors.ring_from_spec``);
* structured (JSON) output: a fixed envelope holding the config, the
  resolved caps and conventions (Connes B convention string, Smith pivot
  rule), and a command-specific result.  The rendering is sorted and
  indentation-stable, so identical configs produce byte-identical bytes;
* the one step every command's output takes (``emit``: the text lines or
  the envelope) and the JSON of a homology group (``group_json``);
* the tables of the algebra and group commands (``degree_table``,
  ``algebra_table``) and their lines (``algebra_line``, ``coords_str``),
  so that a command reads them without loading another command's module.

What the command line accepts in place of a file (ring specs, the algebra
and group selectors) is in chaintrace.selectors, which no category job
loads, and the matrix literals of ``trace-k1`` are parsed in
chaintrace.tracek1.  ``parse_matrix_literal`` stays here as the entry
point that ``trace-k1`` calls (perfbench/traced.py wraps it as formats'),
and imports that parser when it runs.  The text
file formats for algebras, groups and categories, their parsers and
``serialize_category`` live in chaintrace.tables, which only jobs with a
file input load.  The caps and conventions come from the conventions
module, so rendering an envelope loads no compute module.
"""

from __future__ import annotations

import json

from .conventions import (
    B_CONVENTION,
    DEGREE_CAP,
    GROUP_ORDER_CAP,
    LEVEL_CAP,
    PIVOT_RULE,
    PUSHOUT_SEARCH_CAP,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .algebra import Algebra
    from .rings import BaseRing

__all__ = [
    "ring_spec",
    "parse_matrix_literal",
    "conventions_block",
    "render_structured",
    "emit",
    "group_json",
    "algebra_line",
    "coords_str",
    "degree_table",
    "algebra_table",
]


def ring_spec(ring: BaseRing) -> str:
    """Inverse of selectors.ring_from_spec."""
    if ring.kind in ("Z", "Q"):
        return ring.kind
    return f"{ring.kind}:{ring.modulus}"


def parse_matrix_literal(A: Algebra, text: str):
    """Square matrix over A from a ``trace-k1`` literal (tracek1.matrix_from_literal)."""
    from .tracek1 import matrix_from_literal

    return matrix_from_literal(A, text)


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


# ---------------------------------------------------------------------------
# command output
# ---------------------------------------------------------------------------

# Each command's output function (weights.hh_command, waldhausen.k0_command,
# ...) takes the job's config (a cli.JobConfig) and its resolved inputs, and
# returns (ok, text): ok is False only for a failed validation or selftest.


def emit(config, lines: list[str], result: dict) -> str:
    """The job's text: its lines, or the structured envelope of its result."""
    if config.format == "structured":
        return render_structured(config.command, config.as_dict(), result)
    return "\n".join(lines) + "\n"


def group_json(g) -> dict:
    from .chain import FPAbelianGroup

    if isinstance(g, FPAbelianGroup):
        return {
            "display": str(g),
            "free_rank": g.free_rank,
            "invariant_factors": list(g.invariant_factors),
        }
    return {"display": str(g), "field": str(g.field), "dimension": g.dimension}


# the tables of the algebra and group commands, and the lines they share


def algebra_line(A: Algebra) -> str:
    return f"algebra {A.name or '(unnamed)'}: rank {A.rank} over {A.ring}"


def coords_str(ring: BaseRing, coords) -> str:
    if not coords:
        return "()"
    return "(" + ", ".join(ring.format_element(c) for c in coords) + ")"


def degree_table(config, header: str, label: str, group, result: dict) -> tuple[bool, str]:
    """The header, then ``label.format(d) = group(d)`` for d = 0..max_degree."""
    groups = [group(d) for d in range(config.max_degree + 1)]
    lines = [header] + [f"{label.format(d)} = {g}" for d, g in enumerate(groups)]
    result["groups"] = [group_json(g) for g in groups]
    return True, emit(config, lines, result)


def algebra_table(config, A: Algebra, label: str, group) -> tuple[bool, str]:
    result = {"algebra": A.name, "ring": ring_spec(A.ring), "rank": A.rank}
    return degree_table(config, algebra_line(A), label, group, result)
