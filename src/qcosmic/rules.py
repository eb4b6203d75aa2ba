"""Validation rule catalog for parsed models.

Structural and counting rules are errors and block measurement; hygiene
findings are warnings and never change measured size.

  S2  a name is declared once per category, an attribute once per
      data group (as the parser requires of source text)               ERROR
  R1  quantum system has at least one classical and one quantum layer  ERROR
  R2  read/write kinds target storage, entry/exit kinds do not         ERROR
  R3  storage nature matches the movement kind family                  ERROR
  R4  quantum data never crosses into a classical element or layer
      without a conversion                                             ERROR
  R5  prepare only on a qentry into a quantum-layer process from a
      classical counterpart; measure only on the mirroring qexit       ERROR
  R6  a quantum data group moves only via quantum kinds                ERROR
  R7  a classical data group moves via a quantum kind only when the
      movement converts (prepare/measure)                              ERROR
  R8  an inter-process flow is declared in exactly one process block   ERROR
  R9  the uses relation is acyclic                                     ERROR
  P1  process declares no movements                                    WARNING
  P2  data group or storage is never referenced by a movement          WARNING
  P3  purely classical model; size coincides with COSMIC CFPv5         WARNING

The catalog runs in four steps, all appending to one list of findings,
which is then sorted: S2 from the declarations; R1 and P3 from the
system's nature; one sweep over the processes and their movements, which
applies P1 to each process and R2-R8 to each movement and collects what P2
reports after it; and R9 from the cycles of the uses graph. A parsed model
never holds a duplicate, so S2 reaches only a model built by hand; only S2
reads the later declarations of a name, and every other step reads its
first one through the model's index.

Codes are stable across releases. Every rule is a pure function of the
model, so identical models always yield the identical diagnostic sequence.
"""

from __future__ import annotations

from collections.abc import Iterator

from .diagnostics import Diagnostic, duplicate, error, sort_key, warning
from .formatter import _KIND_WORDS, format_movement
from .model import (
    CATEGORIES,
    Conversion,
    EndpointKind,
    INBOUND_KINDS,
    Model,
    MovementKind,
    Nature,
    QUANTUM_KINDS,
    STORAGE_KINDS,
    UnresolvedReferenceError,
    _resolution,
    process_nature,  # noqa: F401  bench/tracing.py patches this name
    system_nature,
)

__all__ = ["validate"]


def validate(model: Model) -> list[Diagnostic]:
    """Check a resolved model against the rule catalog.

    Returns the findings in stable order (file position, then code). An
    empty error set means the model is measurable. The catalog runs once
    per model: later calls return a new list of the same findings.
    """
    return list(model._memo("validate", lambda: _run_catalog(model)))


def _run_catalog(model: Model) -> tuple[Diagnostic, ...]:
    found: list[Diagnostic] = []
    _duplicates(model, found)
    if system_nature(model) is Nature.QUANTUM:
        natures = {layer.nature for layer in model._index["layer"].values()}
        if Nature.CLASSICAL not in natures or Nature.QUANTUM not in natures:
            found.append(error(
                "R1",
                "a quantum software system requires at least one classical and one quantum layer",
                model.name,
            ))
    else:
        found.append(warning(
            "P3", "model is purely classical; QCFP size is CFPv5-equivalent", model.name
        ))
    _sweep(model, found)
    for cycle in _cycles(model):
        chain = " -> ".join(cycle + (cycle[0],))
        span = model.process(cycle[0]).span
        found.append(error("R9", f"cyclic uses chain: {chain}", cycle[0], span))
    found.sort(key=sort_key)
    return tuple(found)


def _duplicates(model: Model, found: list[Diagnostic]) -> None:
    """S2 for each later declaration of a name, built by ``diagnostics.duplicate``
    like the parser's.

    An attribute has no span of its own, so its S2 carries its data group's.
    """
    for category, attr in CATEGORIES.items():
        seen: set[str] = set()
        for decl in getattr(model, attr):
            if decl.name in seen:
                found.append(duplicate(category, decl.name, decl.span))
            seen.add(decl.name)
    for group in model.data_groups:
        seen = set()
        for attribute in group.attributes:
            if attribute.name in seen:
                found.append(duplicate("attribute", attribute.name, group.span))
            seen.add(attribute.name)


def _sweep(model: Model, found: list[Diagnostic]) -> None:
    """P1 per process and R2-R8 per movement, each read once; then P2."""
    # R8: a flow between two processes is identified by (sender, receiver,
    # group, quantum?). Declaring it as an exit in the sender and again as an
    # entry in the receiver would double-count one movement. Each flow keeps
    # the side (sends?) and owner of its first declaration; the first
    # declaration from the other side is reported, once per flow.
    first: dict[tuple[str, str, str, bool], tuple[bool, str]] = {}
    reported: set[tuple[str, str, str, bool]] = set()
    # P2: layers and users are strategy-phase declarations and may
    # legitimately go unreferenced; data groups and storages exist only to
    # be moved.
    moved_groups: set[str] = set()
    moved_storages: set[str] = set()

    def report(code: str, message: str) -> None:
        """An error on the movement the sweep is at."""
        found.append(error(
            code, f"{format_movement(movement)}: {message}", process.name, movement.span
        ))

    index = model._index
    for process in index["process"].values():
        layer, groups, counterparts = _resolution(process, model)
        if not process.movements:
            found.append(warning(
                "P1",
                "process declares no data movements and is not measurable",
                process.name,
                process.span,
            ))
        for movement, group, (counterpart, _) in zip(process.movements, groups, counterparts):
            kind, cp, conversion = movement.kind, movement.counterpart, movement.conversion
            quantum_kind = kind in QUANTUM_KINDS
            to_storage = cp.kind is EndpointKind.STORAGE
            storage_kind = kind in STORAGE_KINDS
            # R2: read/write target storage, entry/exit do not. R3 (storage
            # nature matches the kind family) applies once R2 holds.
            if storage_kind and not to_storage:
                report("R2", "read and write movements must target storage")
            elif not storage_kind and to_storage:
                report("R2", "entry and exit movements cannot target storage")
            elif to_storage and counterpart is Nature.QUANTUM and not quantum_kind:
                report("R3", "quantum storage accepts only qread/qwrite")
            elif to_storage and counterpart is Nature.CLASSICAL and quantum_kind:
                report("R3", "classical storage accepts only read/write")
            # R4: classical structures may only exchange classical payloads.
            # A quantum movement without a conversion is quantum end to end,
            # so neither its counterpart nor its owning layer may be
            # classical. Storage counterparts are R3's concern.
            if quantum_kind and conversion is Conversion.NONE:
                if layer.nature is Nature.CLASSICAL:
                    report("R4", f"quantum data handled inside classical layer {layer.name!r}")
                if not to_storage and counterpart is Nature.CLASSICAL:
                    report("R4", (
                        f"classical {cp.kind.value} {cp.name!r} "
                        "cannot exchange quantum data without a conversion"
                    ))
            # R5: prepare only on a qentry, measure only on a qexit, both in
            # a quantum-layer process facing a classical counterpart.
            if conversion is not Conversion.NONE:
                word = conversion.value
                required = MovementKind.QE if conversion is Conversion.PREPARE else MovementKind.QX
                if kind is not required:
                    report("R5", (
                        f"'via {word}' is only legal on {_KIND_WORDS[required][0]} movements"
                    ))
                elif layer.nature is not Nature.QUANTUM:
                    report("R5", "conversion crossings belong to a process in a quantum layer")
                elif counterpart is not Nature.CLASSICAL:
                    report("R5", (
                        f"'via {word}' crosses from or to a classical element, "
                        "but the counterpart is quantum"
                    ))
            # R6/R7: a quantum group moves only via quantum kinds; a classical
            # group moves via a quantum kind only when the payload starts or
            # ends classical by design (a conversion).
            if group is Nature.QUANTUM and not quantum_kind:
                report("R6", (
                    f"quantum data group {movement.data_group!r} requires a quantum movement kind"
                ))
            elif group is Nature.CLASSICAL and quantum_kind and conversion is Conversion.NONE:
                report("R7", (
                    f"classical data group {movement.data_group!r} moves via "
                    "a quantum kind but never converts"
                ))
            moved_groups.add(movement.data_group)
            if to_storage:
                moved_storages.add(cp.name)
            # R8 reads only entries and exits between processes
            if cp.kind is not EndpointKind.PROCESS or storage_kind:
                continue
            sends = kind not in INBOUND_KINDS
            sender, receiver = (process.name, cp.name) if sends else (cp.name, process.name)
            flow = (sender, receiver, movement.data_group, quantum_kind)
            side = first.get(flow)
            if side is None:
                first[flow] = sends, process.name
            elif side[0] is not sends and flow not in reported:
                reported.add(flow)
                report("R8", (
                    f"this flow is already declared in process {side[1]!r}; "
                    "declare each inter-process movement exactly once"
                ))

    for group in index["datagroup"].values():
        if group.name not in moved_groups:
            found.append(warning("P2", "data group is never moved", group.name, group.span))
    for storage in index["storage"].values():
        if storage.name not in moved_storages:
            found.append(
                warning("P2", "storage is never read or written", storage.name, storage.span)
            )


def _cycles(model: Model) -> list[tuple[str, ...]]:
    """Strongly connected components of the uses graph that form cycles.

    Tarjan's algorithm with an explicit stack of (node, successor iterator)
    frames, so a uses chain of any depth stays within Python's recursion
    limit. A use of an undeclared name raises UnresolvedReferenceError.
    """
    edges = {name: p.uses for name, p in model._index["process"].items()}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    frames: list[tuple[str, Iterator[str]]] = []
    components: list[list[str]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        frames.append((node, iter(edges[node])))

    for root in edges:
        if root in index:
            continue
        visit(root)
        while frames:
            node, successors = frames[-1]
            for succ in successors:
                if succ not in edges:
                    raise UnresolvedReferenceError("process", succ)
                if succ not in index:
                    visit(succ)
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)

    cycles: list[tuple[str, ...]] = []
    position = {name: i for i, name in enumerate(edges)}
    for component in components:
        if len(component) > 1 or component[0] in edges[component[0]]:
            cycles.append(tuple(sorted(component, key=position.__getitem__)))
    cycles.sort(key=lambda c: position[c[0]])
    return cycles
