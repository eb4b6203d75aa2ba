"""Source spans and diagnostics shared by the parser and the rule engine.

A diagnostic is rendered as ``severity[code] subject: message (file:line:col)``,
one per line. Diagnostic lists are kept in a stable order: by source position
first, then by code, so identical inputs always produce identical output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Span:
    """A contiguous region of source text, 1-based line and column."""

    file: str
    line: int
    column: int
    length: int = 0

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1 or self.length < 0:
            raise ValueError(
                f"invalid span {self.file}:{self.line}:{self.column}+{self.length}"
            )


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """A single parse or validation finding.

    ``code`` is stable across releases: L1/S1..S3/W1 come from the parser,
    R1..R9 and P1..P3 from the rule catalog.
    """

    severity: Severity
    code: str
    message: str
    subject: str = ""
    span: Span | None = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        head = f"{self.severity.value}[{self.code}]"
        if self.subject:
            head += f" {self.subject}"
        text = f"{head}: {self.message}"
        if self.span is not None:
            text += f" ({self.span.file}:{self.span.line}:{self.span.column})"
        return text


def error(code: str, message: str, subject: str = "", span: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, subject=subject, span=span)


def warning(code: str, message: str, subject: str = "", span: Span | None = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, subject=subject, span=span)


def duplicate(category: str, name: str, span: Span | None) -> Diagnostic:
    """S2: ``name`` is declared again in ``category``, reported at ``span``."""
    return error("S2", f"duplicate {category} name {name!r}", name, span)


def sort_key(diag: Diagnostic) -> tuple:
    """Stable ordering: file position, then code, then subject."""
    if diag.span is None:
        return ("", 0, 0, diag.code, diag.subject)
    return (diag.span.file, diag.span.line, diag.span.column, diag.code, diag.subject)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diagnostics)


def render_all(diagnostics: list[Diagnostic]) -> str:
    return "\n".join(d.render() for d in diagnostics)
