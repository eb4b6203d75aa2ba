"""Independent brute-force counters used as test oracles.

These deliberately re-derive results from first principles (explicit list
scans, no shared helpers with the package) so that agreement with the
production code is meaningful.
"""

from __future__ import annotations

from qcosmic import Model, Nature

CLASSICAL_KINDS = {"E", "X", "R", "W"}


def cosmic_count(model: Model) -> dict:
    """A COSMIC counter that only knows the four classical movement kinds.

    Valid only for purely classical models: every movement is charged to
    the layer of the process that declares it.
    """
    per_process: dict[str, int] = {}
    per_layer: dict[str, int] = {layer.name: 0 for layer in model.layers}
    tallies: dict[str, dict[str, int]] = {}
    total = 0
    for process in model.processes:
        seen: list[tuple] = []
        tally = {kind: 0 for kind in CLASSICAL_KINDS}
        for movement in process.movements:
            kind = movement.kind.value
            assert kind in CLASSICAL_KINDS, f"non-classical kind {kind} in classical model"
            key = (kind, movement.data_group, movement.counterpart.kind.value,
                   movement.counterpart.name)
            if key in seen:
                continue
            seen.append(key)
            tally[kind] += 1
        count = len(seen)
        per_process[process.name] = count
        per_layer[process.layer] += count
        tallies[process.name] = tally
        total += count
    return {
        "per_process": per_process,
        "per_layer": per_layer,
        "tallies": tallies,
        "total": total,
    }


def brute_force_process_nature(process, model: Model) -> Nature:
    """OR together the natures of everything the process touches."""
    natures = [model.layer(process.layer).nature]
    for movement in process.movements:
        group = model.data_group(movement.data_group)
        natures.extend(attr.nature for attr in group.attributes)
        if movement.conversion.value != "none":
            natures.append(Nature.QUANTUM)
    if Nature.QUANTUM in natures:
        return Nature.QUANTUM
    return Nature.CLASSICAL


def brute_force_cycles(model: Model) -> list[tuple[str, ...]]:
    """Cycles of the uses graph by mutual reachability.

    Two processes share a cycle iff each reaches the other; a process is on
    a cycle iff it reaches itself. Uses of undeclared names are ignored.
    Members are listed in declaration order, cycles by their first member.
    """
    names = [p.name for p in model.processes]
    uses = {p.name: [u for u in p.uses if u in names] for p in model.processes}
    reach: dict[str, list[str]] = {}
    for start in names:
        seen: list[str] = []
        todo = list(uses[start])
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.append(node)
                todo.extend(uses[node])
        reach[start] = seen
    cycles: list[tuple[str, ...]] = []
    for name in names:
        if name in reach[name]:
            members = tuple(m for m in names if m in reach[name] and name in reach[m])
            if members not in cycles:
                cycles.append(members)
    return cycles


def brute_force_system_nature(model: Model) -> Nature:
    """Exhaustive OR over every element nature in the model."""
    natures = []
    natures.extend(layer.nature for layer in model.layers)
    natures.extend(user.nature for user in model.users)
    natures.extend(storage.nature for storage in model.storages)
    for group in model.data_groups:
        natures.extend(attr.nature for attr in group.attributes)
    for process in model.processes:
        natures.append(brute_force_process_nature(process, model))
    if Nature.QUANTUM in natures:
        return Nature.QUANTUM
    return Nature.CLASSICAL
