"""Canonical ``.qcm`` formatter.

Emits a deterministic textual form of a model: two-space indentation, LF
line endings, declaration order preserved, one movement per line. Parsing
the output reproduces a structurally equal model, and formatting is
idempotent.
"""

from __future__ import annotations

from .model import (
    Conversion,
    DataGroup,
    DataMovement,
    FunctionalProcess,
    INBOUND_KINDS,
    Model,
)
from .parser import MOVEMENT_KEYWORDS, quote

__all__ = ["format_model", "format_movement"]

_KIND_WORDS = {kind: word for word, kind in MOVEMENT_KEYWORDS.items()}


def format_model(model: Model) -> str:
    """Render a model as canonical source text."""
    if model.is_empty() and not model.purpose and not model.scope:
        return f"system {quote(model.name)} {{}}\n"

    lines: list[str] = [f"system {quote(model.name)} {{"]
    sections: list[list[str]] = []

    header: list[str] = []
    if model.purpose:
        header.append(f"  purpose {quote(model.purpose)}")
    if model.scope:
        header.append(f"  scope {quote(model.scope)}")
    if header:
        sections.append(header)

    for category, declared in (
        ("layer", model.layers),
        ("user", model.users),
        ("storage", model.storages),
    ):
        if declared:
            sections.append(
                [f"  {category} {d.nature.value} {quote(d.name)}" for d in declared]
            )

    for group in model.data_groups:
        sections.append(_format_group(group))
    for process in model.processes:
        sections.append(_format_process(process))

    for index, section in enumerate(sections):
        if index:
            lines.append("")
        lines.extend(section)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _format_group(group: DataGroup) -> list[str]:
    head = f"  datagroup {quote(group.name)}"
    if not group.attributes:
        return [head + " {}"]
    lines = [head + " {"]
    for attr in group.attributes:
        lines.append(f"    attr {attr.name}: {attr.nature.value}")
    lines.append("  }")
    return lines


def _format_process(process: FunctionalProcess) -> list[str]:
    head = f"  process {quote(process.name)} in layer {quote(process.layer)}"
    if process.uses:
        head += " uses " + ", ".join(quote(u) for u in process.uses)
    if not process.movements:
        return [head + " {}"]
    lines = [head + " {"]
    for movement in process.movements:
        lines.append("    " + format_movement(movement))
    lines.append("  }")
    return lines


def format_movement(movement: DataMovement) -> str:
    """One movement statement in canonical form, without indentation."""
    parts = [
        _KIND_WORDS[movement.kind],
        quote(movement.data_group),
        # entries and reads come from somewhere, exits and writes go to somewhere
        "from" if movement.kind in INBOUND_KINDS else "to",
        movement.counterpart.kind.value,
        quote(movement.counterpart.name),
    ]
    if movement.conversion is not Conversion.NONE:
        parts += ["via", movement.conversion.value]
    return " ".join(parts)
