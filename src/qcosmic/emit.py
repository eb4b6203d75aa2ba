"""Report renderers and DOT context-diagram emission.

All renderers are pure: equal inputs produce byte-identical output. The
JSON layout is versioned via a top-level ``"schema": "qcosmic-report/1"``
key; CSV uses LF line endings and quotes a field only when it needs it.

Diagram conventions: classical elements use a single border and plain
labels, quantum elements a double border (``peripheries=2``) and bold
labels; quantum movement edges are drawn with doubled pen width; the
boundary around the measured software is a dashed cluster. Storage sits
outside the measured-scope cluster.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple

from .measure import MeasurementReport, unique_movements
from .model import (
    Conversion,
    EndpointKind,
    FunctionalProcess,
    INBOUND_KINDS,
    KIND_ORDER,
    Model,
    Nature,
    QUANTUM_KINDS,
    UnresolvedReferenceError,
    _resolution,
    process_nature,
)
# DOT IDs escape quotes, backslashes and line breaks as .qcm does
from .parser import _Quoted, quote

__all__ = [
    "RenderOptions",
    "render_csv",
    "render_dot",
    "render_json",
    "render_text",
]


# by_layer adds the per-layer table to render_text; scope names the one
# process that render_dot draws, or None for the whole system
RenderOptions = namedtuple("RenderOptions", "by_layer scope", defaults=(False, None))


# -- text ---------------------------------------------------------------------


def _tally_text(tally) -> str:
    parts = [f"{tally[kind]}{kind._value_}" for kind in KIND_ORDER if tally[kind]]
    return " ".join(parts) if parts else "-"


def render_text(report: MeasurementReport, opts: RenderOptions | None = None) -> str:
    """Human-readable table, one row per process, totals in the footer."""
    opts = opts or RenderOptions()
    lines: list[str] = []

    if report.per_process:
        lines += _table(
            ("process", "layer", "nature", "qcfp", "movements"),
            [
                (p.name, p.layer, p.nature._value_, str(p.qcfp), _tally_text(p.tally))
                for p in report.per_process
            ],
        )
    if opts.by_layer and report.per_layer:
        lines += _table(
            ("layer", "nature", "qcfp"),
            [(l.name, l.nature._value_, str(l.qcfp)) for l in report.per_layer],
        )

    totals = report.totals
    lines.append(
        f"TOTAL {totals.total_qcfp} QCFP "
        f"(classical {totals.classical_qcfp} / quantum {totals.quantum_qcfp})"
    )
    lines.append(
        f"split: classical {totals.classical_percent}%, quantum {totals.quantum_percent}%"
    )
    if report.cfpv5_equivalent:
        lines.append("note: CFPv5-equivalent (purely classical model)")
    lines.append("")  # the final newline, without copying the output again
    return "\n".join(lines)


def _table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    """Left-aligned columns two spaces apart, then a blank line."""
    widths = [max(len(cell) for cell in column) for column in zip(header, *rows)]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in (header, *rows)
    ] + [""]


# -- json ---------------------------------------------------------------------


def render_json(report: MeasurementReport) -> str:
    """Canonical JSON: sorted keys, declaration-ordered arrays."""
    payload = {
        "schema": "qcosmic-report/1",
        "system": report.system_name,
        "total_qcfp": report.totals.total_qcfp,
        "classical_qcfp": report.totals.classical_qcfp,
        "quantum_qcfp": report.totals.quantum_qcfp,
        "classical_percent": report.totals.classical_percent,
        "quantum_percent": report.totals.quantum_percent,
        "cfpv5_equivalent": report.cfpv5_equivalent,
        "processes": [
            {
                "name": p.name,
                "layer": p.layer,
                "nature": p.nature._value_,
                "qcfp": p.qcfp,
                "movements": {kind._value_: p.tally[kind] for kind in KIND_ORDER},
            }
            for p in report.per_process
        ],
        "layers": [
            {"name": l.name, "nature": l.nature._value_, "qcfp": l.qcfp}
            for l in report.per_layer
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# -- csv ----------------------------------------------------------------------


def render_csv(report: MeasurementReport) -> str:
    """One row per process plus a final TOTAL row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(
        ["process", "layer", "nature"] + [kind._value_ for kind in KIND_ORDER] + ["qcfp"]
    )
    kind_totals = {kind: 0 for kind in KIND_ORDER}
    for p in report.per_process:
        writer.writerow(
            [p.name, p.layer, p.nature._value_]
            + [p.tally[kind] for kind in KIND_ORDER]
            + [p.qcfp]
        )
        for kind in KIND_ORDER:
            kind_totals[kind] += p.tally[kind]
    writer.writerow(
        ["TOTAL", "", ""]
        + [kind_totals[kind] for kind in KIND_ORDER]
        + [report.totals.total_qcfp]
    )
    return buffer.getvalue()


# -- dot ----------------------------------------------------------------------


def _html(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _label(name: str, nature: Nature) -> str:
    if nature is Nature.QUANTUM:
        return f"<<B>{_html(name)}</B>>"
    return quote(name)


def _node(node_id: str, name: str, nature: Nature, shape: str, indent: str = "  ") -> str:
    peripheries = 2 if nature is Nature.QUANTUM else 1
    return (
        f"{indent}{node_id} [label={_label(name, nature)}, shape={shape}, "
        f"peripheries={peripheries}];"
    )


def render_dot(model: Model, opts: RenderOptions | None = None) -> str:
    """DOT digraph of a model, or of a single process when scoped.

    Edge count for a scoped diagram equals the process's unique movement
    count. Raises UnresolvedReferenceError when the scope, or a name that the
    diagram draws, is not declared.
    """
    opts = opts or RenderOptions()
    scoped: FunctionalProcess | None = None
    if opts.scope is not None:
        scoped = model.process(opts.scope)

    if model.is_empty():
        return f"digraph {quote(model.name)} {{\n}}\n"

    index = model._index  # a name declared twice is drawn once, as first declared
    processes = index["process"]
    if scoped is not None:
        users, storages, layers = _participants(scoped, model)
    else:
        users = [(user.name, user.nature) for user in index["user"].values()]
        storages = [(storage.name, storage.nature) for storage in index["storage"].values()]
        layers = {layer: [] for layer in index["layer"].values()}
        for process in processes.values():
            layer = _resolution(process, model)[0]
            layers[layer].append((process.name, process_nature(process, model)))

    # node IDs by endpoint kind and name, each escaped once per call
    ids = {kind: _Quoted(f"{kind._value_} ") for kind in EndpointKind}
    clusters = _Quoted("cluster layer ")

    lines = [f"digraph {quote(model.name)} {{"]
    lines.append("  rankdir=LR;")
    lines.append("  compound=true;")

    for name, nature in users:
        lines.append(_node(ids[EndpointKind.USER][name], name, nature, "ellipse"))
    for name, nature in storages:
        lines.append(_node(ids[EndpointKind.STORAGE][name], name, nature, "cylinder"))

    if layers:
        lines.append(f"  subgraph {quote('cluster software')} {{")
        lines.append(f"    label={quote(model.name)};")
        lines.append("    style=dashed;")
        for layer, members in layers.items():
            peripheries = 2 if layer.nature is Nature.QUANTUM else 1
            lines.append(f"    subgraph {clusters[layer.name]} {{")
            lines.append(f"      label={_label(layer.name, layer.nature)};")
            lines.append(f"      peripheries={peripheries};")
            lines.append(f"      {ids[EndpointKind.LAYER][layer.name]} [shape=point, style=invis];")
            for name, nature in members:
                lines.append(
                    _node(ids[EndpointKind.PROCESS][name], name, nature, "box", indent=" " * 6)
                )
            lines.append("    }")
        lines.append("  }")

    _edges([scoped] if scoped else processes.values(), ids, clusters, lines)

    if scoped is None:
        process_ids = ids[EndpointKind.PROCESS]
        for process in processes.values():
            for used in process.uses:
                if used not in processes:
                    raise UnresolvedReferenceError("process", used)
                lines.append(
                    f"  {process_ids[process.name]} -> {process_ids[used]} "
                    "[label=uses, style=dashed, arrowhead=open];"
                )

    lines.append("}")
    lines.append("")  # the final newline, without copying the output again
    return "\n".join(lines)


def _participants(scoped: FunctionalProcess, model: Model):
    """What a scoped diagram draws, in order of first use: users and storages
    as (name, nature), and each layer with its processes' (name, nature) as dict keys."""
    layer, _, counterparts = _resolution(scoped, model)
    users: dict[str, Nature] = {}
    storages: dict[str, Nature] = {}
    layers = {layer: {(scoped.name, process_nature(scoped, model)): None}}
    for movement, (nature, far) in zip(scoped.movements, counterparts):
        cp = movement.counterpart
        if cp.kind is EndpointKind.USER:
            users.setdefault(cp.name, nature)
        elif cp.kind is EndpointKind.STORAGE:
            storages.setdefault(cp.name, nature)
        else:
            members = layers.setdefault(far, {})
            if cp.kind is EndpointKind.PROCESS:
                members[cp.name, nature] = None
    return users.items(), storages.items(), layers


def _edges(processes, ids: dict, clusters: _Quoted, lines: list[str]) -> None:
    """One edge line per unique movement of each process, appended to ``lines``."""
    process_ids = ids[EndpointKind.PROCESS]
    labels: dict[tuple, str] = {}  # (kind, group, conversion) -> escaped label
    for process in processes:
        process_id = process_ids[process.name]
        for movement in unique_movements(process):
            kind, cp = movement.kind, movement.counterpart
            key = (kind, movement.data_group, movement.conversion)
            label = labels.get(key)
            if label is None:
                label = labels[key] = quote(_edge_label(*key))
            attrs = f"label={label}"
            inbound = kind in INBOUND_KINDS
            if cp.kind is EndpointKind.LAYER:
                attrs += f", {'ltail' if inbound else 'lhead'}={clusters[cp.name]}"
            if kind in QUANTUM_KINDS:
                attrs += ", penwidth=2"
            cp_id = ids[cp.kind][cp.name]
            if inbound:
                lines.append(f"  {cp_id} -> {process_id} [{attrs}];")
            else:
                lines.append(f"  {process_id} -> {cp_id} [{attrs}];")


def _edge_label(kind, data_group: str, conversion: Conversion) -> str:
    label = f"{kind._value_}: {data_group}"
    if conversion is not Conversion.NONE:
        label += f" ({conversion._value_})"
    return label
