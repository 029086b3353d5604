"""Uniform validation reports for algebras, categories, and diagrams."""

from __future__ import annotations

from .errors import ValidationError
from .values import Value

__all__ = ["ValidationReport"]


class ValidationReport(Value):
    """Outcome of an exhaustive validator: what was checked, what failed.

    ``skipped`` records check instances that were not run because their
    enumeration would exceed a stated size budget.  Skips never affect
    ``ok``; they exist so a caller can tell "passed" from "not attempted".
    """

    _fields = ("subject", "checks_run", "issues", "skipped")
    __hash__ = None

    def __init__(
        self,
        subject: str,
        checks_run: int = 0,
        issues: list[str] | None = None,
        skipped: list[str] | None = None,
    ) -> None:
        self.subject = subject
        self.checks_run = checks_run
        self.issues = [] if issues is None else issues
        self.skipped = [] if skipped is None else skipped

    @property
    def ok(self) -> bool:
        return not self.issues

    def record(self, issue: str) -> None:
        self.issues.append(issue)

    def skip(self, what: str) -> None:
        self.skipped.append(what)

    def merge(self, other: "ValidationReport") -> None:
        self.checks_run += other.checks_run
        self.issues.extend(f"{other.subject}: {i}" for i in other.issues)
        self.skipped.extend(f"{other.subject}: {s}" for s in other.skipped)

    def require_ok(self) -> None:
        if self.issues:
            shown = "; ".join(self.issues[:5])
            more = f" (+{len(self.issues) - 5} more)" if len(self.issues) > 5 else ""
            raise ValidationError(f"{self.subject}: {shown}{more}")

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.issues)} issue(s)"
        tail = f", {len(self.skipped)} skipped" if self.skipped else ""
        return f"{self.subject}: {self.checks_run} checks, {state}{tail}"
