"""Independent brute-force counters used as test oracles.

These deliberately re-derive results from first principles (explicit list
scans, no shared helpers with the package) so that agreement with the
production code is meaningful.
"""

from __future__ import annotations

from qcosmic import Diagnostic, Model, Nature, Severity, Span

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


QUANTUM_KINDS = {"QE", "QX", "QR", "QW"}


def brute_force_layer_totals(model: Model, dedup) -> dict:
    """Per-layer QCFP by the README's "Counting rules", by list scans.

    A quantum movement is charged to the owning process's layer. A
    classical movement is charged to the owning layer too, unless that
    layer is quantum and the counterpart names a classical layer on the
    far side: a layer endpoint, or a process declared in one. ``dedup`` is
    a ``DedupMode``; "cosmic" keys on (kind, group), anything else also on
    the counterpart. Returns the totals by layer name and the number of
    unique movements charged to a far-side layer.
    """

    def first(declared, name):
        for item in declared:
            if item.name == name:
                return item
        raise AssertionError(f"undeclared name {name!r}")

    per_layer = {layer.name: 0 for layer in model.layers}
    far_side = 0
    for process in model.processes:
        owner = first(model.layers, process.layer)
        seen: list[tuple] = []
        for movement in process.movements:
            key = (movement.kind.value, movement.data_group)
            if dedup.value != "cosmic":
                key += (movement.counterpart.kind.value, movement.counterpart.name)
            if key in seen:
                continue
            seen.append(key)
            charged = owner
            if movement.kind.value not in QUANTUM_KINDS and owner.nature is Nature.QUANTUM:
                cp = movement.counterpart
                far = None
                if cp.kind.value == "layer":
                    far = first(model.layers, cp.name)
                elif cp.kind.value == "process":
                    far = first(model.layers, first(model.processes, cp.name).layer)
                if far is not None and far.nature is Nature.CLASSICAL:
                    charged = far
                    far_side += 1
            per_layer[charged.name] += 1
    return {"per_layer": per_layer, "far_side": far_side}


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


REFERENCE_KEYWORDS = frozenset(
    {
        "system", "purpose", "scope",
        "layer", "user", "storage", "datagroup", "attr", "process",
        "classical", "quantum",
        "in", "uses", "from", "to", "via", "prepare", "measure",
        "entry", "exit", "read", "write",
        "qentry", "qexit", "qread", "qwrite",
    }
)
_REFERENCE_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def reference_tokenize(
    text: str, file: str = "<input>"
) -> tuple[list[tuple[str, str, Span]], list[Diagnostic]]:
    """The character-at-a-time lexer that ``qcosmic.tokenize`` replaced.

    Tokens are ``(kind value, text, span)``. Line and column are tracked
    while scanning, so agreement checks the line index of the real lexer.
    """
    tokens: list[tuple[str, str, Span]] = []
    diagnostics: list[Diagnostic] = []
    pos, line, col = 0, 1, 1
    n = len(text)

    def error(message: str, eline: int, ecol: int, length: int = 1) -> None:
        diagnostics.append(
            Diagnostic(Severity.ERROR, "L1", message, span=Span(file, eline, ecol, length))
        )

    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch == "\r":
            pos += 1
            if pos < n and text[pos] == "\n":
                pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t":
            pos += 1
            col += 1
            continue
        if ch == "/" and pos + 1 < n and text[pos + 1] == "/":
            while pos < n and text[pos] not in "\r\n":
                pos += 1
            continue
        if ch in "{}:,":
            tokens.append(("punctuation", ch, Span(file, line, col, 1)))
            pos += 1
            col += 1
            continue
        if ch == '"':
            start_line, start_col, start_pos = line, col, pos
            pos += 1
            col += 1
            value: list[str] = []
            closed = False
            while pos < n:
                c = text[pos]
                if c == '"':
                    pos += 1
                    col += 1
                    closed = True
                    break
                if c in "\r\n":
                    break
                if c == "\\" and pos + 1 < n and text[pos + 1] not in "\r\n":
                    value.append(_REFERENCE_ESCAPES.get(text[pos + 1], text[pos + 1]))
                    pos += 2
                    col += 2
                    continue
                value.append(c)
                pos += 1
                col += 1
            if not closed:
                error("unterminated string literal", start_line, start_col, pos - start_pos)
                continue
            tokens.append(
                ("string", "".join(value), Span(file, start_line, start_col, pos - start_pos))
            )
            continue
        if ch.isascii() and (ch.isalpha()):
            start_col, start_pos = col, pos
            while pos < n and text[pos].isascii() and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
                col += 1
            word = text[start_pos:pos]
            kind = "keyword" if word in REFERENCE_KEYWORDS else "identifier"
            tokens.append((kind, word, Span(file, line, start_col, len(word))))
            continue
        error(f"illegal character {ch!r}", line, col)
        pos += 1
        col += 1

    tokens.append(("end-of-input", "", Span(file, line, col, 0)))
    return tokens, diagnostics
