"""Canonical ``.qcm`` formatter.

Emits a deterministic textual form of a model: two-space indentation, LF
line endings, declaration order preserved, one movement per line. When
every name is declared once and every reference resolves, which
``validate`` checks, parsing the output reproduces a structurally equal
model. Formatting is idempotent.
"""

from __future__ import annotations

from .model import (
    CATEGORIES,
    Conversion,
    DataGroup,
    DataMovement,
    FunctionalProcess,
    INBOUND_KINDS,
    Model,
)
from .parser import MOVEMENT_KEYWORDS, _SIMPLE_DECLS, _WORD_RULE, _Quoted, quote

__all__ = ["format_model", "format_movement"]

# kind -> (keyword, direction): entries and reads come from somewhere, exits
# and writes go to somewhere
_KIND_WORDS = {
    kind: (word, "from" if kind in INBOUND_KINDS else "to")
    for word, kind in MOVEMENT_KEYWORDS.items()
}


def format_model(model: Model) -> str:
    """Render a model as canonical source text; a non-word attribute name is a ValueError."""
    if model.is_empty() and not model.purpose and not model.scope:
        return f"system {quote(model.name)} {{}}\n"

    names = _Quoted()  # each declared or referenced name is escaped once per call
    lines: list[str] = [f"system {quote(model.name)} {{"]
    sections: list[list[str]] = []

    header: list[str] = []
    if model.purpose:
        header.append(f"  purpose {quote(model.purpose)}")
    if model.scope:
        header.append(f"  scope {quote(model.scope)}")
    if header:
        sections.append(header)

    for category in _SIMPLE_DECLS:
        declared = getattr(model, CATEGORIES[category])
        if declared:
            sections.append(
                [f"  {category} {d.nature._value_} {names[d.name]}" for d in declared]
            )

    for group in model.data_groups:
        sections.append(_format_group(group, names))
    for process in model.processes:
        sections.append(_format_process(process, names))

    for index, section in enumerate(sections):
        if index:
            lines.append("")
        lines.extend(section)
    lines.append("}")
    lines.append("")  # the final newline, without copying the output again
    return "\n".join(lines)


def _format_group(group: DataGroup, names: _Quoted) -> list[str]:
    head = f"  datagroup {names[group.name]}"
    if not group.attributes:
        return [head + " {}"]
    lines = [head + " {"]
    for attr in group.attributes:
        if _WORD_RULE.fullmatch(attr.name) is None:
            raise ValueError(f"data group {group.name!r}: attribute {attr.name!r} is not a word")
        lines.append(f"    attr {attr.name}: {attr.nature._value_}")
    lines.append("  }")
    return lines


def _format_process(process: FunctionalProcess, names: _Quoted) -> list[str]:
    head = f"  process {names[process.name]} in layer {names[process.layer]}"
    if process.uses:
        head += " uses " + ", ".join(names[u] for u in process.uses)
    if not process.movements:
        return [head + " {}"]
    quoted = names.__getitem__
    lines = [head + " {"]
    for movement in process.movements:
        lines.append("    " + _movement_line(movement, quoted))
    lines.append("  }")
    return lines


def format_movement(movement: DataMovement) -> str:
    """One movement statement in canonical form, without indentation."""
    return _movement_line(movement, quote)


def _movement_line(movement: DataMovement, quoted) -> str:
    """``format_movement``, with names escaped by ``quoted``."""
    word, direction = _KIND_WORDS[movement.kind]
    cp = movement.counterpart
    line = f"{word} {quoted(movement.data_group)} {direction} {cp.kind._value_} {quoted(cp.name)}"
    if movement.conversion is not Conversion.NONE:
        line += f" via {movement.conversion._value_}"
    return line
