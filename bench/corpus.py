"""Seeded `.qcm` corpus generator and its own correctness reference.

This module imports nothing from qcosmic. Each generator builds a model as
plain tuples, writes it as `.qcm` source, and derives the expected results
from that construction alone, following the counting rules and the rule
catalog in README.md:

* unique-movement totals (total, classical, quantum), per process and per
  layer, and process natures;
* the number of DOT edges (unique movements plus `uses` edges);
* the canonical `fmt` text;
* the diagnostic codes `check` reports and its exit path.

Names are built from an index, so any size terminates. The same seed and
scale always give byte-identical text.

Families:

``text``     purely classical, few declarations, long quoted names with
             escapes, `//` comments, about 60 movements per process.
``resolve``  hybrid classical/quantum; declarations grow with the process
             count, short names, about 10 movements per process, process
             flows and `via prepare` / `via measure` crossings.
``bad-parse`` the text family with lexical, syntax, duplicate and
             unresolved-reference defects: parsing fails (exit path 2).
``bad-rules`` the resolve family with R2-R9 defects: it parses, and
             validation fails (exit path 1).
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass, field

#: Processes per scale unit. Scale 16 gives models of about 1 MB.
TEXT_PROCESSES_PER_UNIT = 7
RESOLVE_PROCESSES_PER_UNIT = 56
TEXT_MOVEMENTS = 60
RESOLVE_MOVEMENTS = 10

_KIND_WORDS = {
    "E": "entry", "X": "exit", "R": "read", "W": "write",
    "QE": "qentry", "QX": "qexit", "QR": "qread", "QW": "qwrite",
}
_FROM_KINDS = frozenset({"E", "QE", "R", "QR"})
_WORDS = (
    "ledger", "quarterly", "regional", "archive", "signal", "relay",
    "beacon", "vault", "sensor", "registry", "batch", "north-east",
    "settlement", "payroll", "inventory", "telemetry",
)
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


@dataclass
class Process:
    name: str
    layer: str
    # (kind, group, endpoint kind, endpoint name, conversion or "")
    movements: list[tuple[str, str, str, str, str]] = field(default_factory=list)
    uses: list[str] = field(default_factory=list)


@dataclass
class Spec:
    name: str
    purpose: str
    scope: str
    layers: list[tuple[str, str]]  # (nature, name)
    users: list[tuple[str, str]]
    storages: list[tuple[str, str]]
    groups: list[tuple[str, list[tuple[str, str]]]]  # (name, [(attr, nature)])
    processes: list[Process]


@dataclass
class Generated:
    """One model: its source text and the expected results."""

    source: str
    expected: dict
    canonical: str | None = None


def quote(value: str) -> str:
    return '"' + "".join(_ESCAPES.get(ch, ch) for ch in value) + '"'


def movement_line(movement) -> str:
    kind, group, ep_kind, ep_name, conv = movement
    prep = "from" if kind in _FROM_KINDS else "to"
    line = f"{_KIND_WORDS[kind]} {quote(group)} {prep} {ep_kind} {quote(ep_name)}"
    return line + (f" via {conv}" if conv else "")


def _process_head(process: Process) -> str:
    head = f"  process {quote(process.name)} in layer {quote(process.layer)}"
    if process.uses:
        head += " uses " + ", ".join(quote(u) for u in process.uses)
    return head


def canonical_sections(spec: Spec) -> list[list[str]]:
    """The canonical layout, one list of lines per blank-line-separated section."""
    sections: list[list[str]] = []
    header = []
    if spec.purpose:
        header.append(f"  purpose {quote(spec.purpose)}")
    if spec.scope:
        header.append(f"  scope {quote(spec.scope)}")
    if header:
        sections.append(header)
    for category, declared in (("layer", spec.layers), ("user", spec.users),
                               ("storage", spec.storages)):
        if declared:
            sections.append([f"  {category} {nature} {quote(name)}" for nature, name in declared])
    for name, attrs in spec.groups:
        if not attrs:
            sections.append([f"  datagroup {quote(name)} {{}}"])
            continue
        lines = [f"  datagroup {quote(name)} {{"]
        lines += [f"    attr {attr}: {nature}" for attr, nature in attrs]
        lines.append("  }")
        sections.append(lines)
    for process in spec.processes:
        if not process.movements:
            sections.append([_process_head(process) + " {}"])
            continue
        lines = [_process_head(process) + " {"]
        lines += ["    " + movement_line(m) for m in process.movements]
        lines.append("  }")
        sections.append(lines)
    return sections


def canonical_text(spec: Spec) -> str:
    lines = [f"system {quote(spec.name)} {{"]
    for index, section in enumerate(canonical_sections(spec)):
        if index:
            lines.append("")
        lines.extend(section)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- expected results ----------------------------------------------------------


def _is_quantum_kind(kind: str) -> bool:
    return kind.startswith("Q")


def expected_results(spec: Spec) -> dict:
    """Counting and rule results derived from the construction (README rules)."""
    layer_nature = {name: nature for nature, name in spec.layers}
    process_layer = {p.name: p.layer for p in spec.processes}
    group_quantum = {
        name: any(nature == "quantum" for _, nature in attrs) for name, attrs in spec.groups
    }

    def movement_layer(owner: Process, movement) -> str:
        kind, _, ep_kind, ep_name, _ = movement
        if _is_quantum_kind(kind) or layer_nature[owner.layer] == "classical":
            return owner.layer
        if ep_kind == "layer":
            far = ep_name
        elif ep_kind == "process":
            far = process_layer[ep_name]
        else:
            return owner.layer
        return far if layer_nature[far] == "classical" else owner.layer

    layer_totals = {name: 0 for _, name in spec.layers}
    per_process, natures = [], []
    quantum = 0
    for process in spec.processes:
        seen = set()
        for movement in process.movements:
            key = movement[:4]
            if key in seen:
                continue
            seen.add(key)
            layer_totals[movement_layer(process, movement)] += 1
            quantum += _is_quantum_kind(movement[0])
        per_process.append(len(seen))
        is_quantum = layer_nature[process.layer] == "quantum" or any(
            m[4] or group_quantum[m[1]] for m in process.movements
        )
        natures.append("quantum" if is_quantum else "classical")
    total = sum(per_process)
    system_quantum = (
        any(n == "quantum" for n, _ in spec.layers + spec.users + spec.storages)
        or any(group_quantum.values())
        or "quantum" in natures
    )
    used_groups = {m[1] for p in spec.processes for m in p.movements}
    used_storages = {m[3] for p in spec.processes for m in p.movements if m[2] == "storage"}
    warnings = Counter()
    warnings["P1"] = sum(1 for p in spec.processes if not p.movements)
    warnings["P2"] = sum(1 for name, _ in spec.groups if name not in used_groups)
    warnings["P2"] += sum(1 for _, name in spec.storages if name not in used_storages)
    warnings["P3"] = 0 if system_quantum else 1
    return {
        "movements": sum(len(p.movements) for p in spec.processes),
        "total": total,
        "classical": total - quantum,
        "quantum": quantum,
        "processes": per_process,
        "natures": natures,
        "layers": [layer_totals[name] for _, name in spec.layers],
        "dot_edges": total + sum(len(p.uses) for p in spec.processes),
        "cfpv5": not system_quantum,
        "exit": 0,
        "codes": {code: n for code, n in sorted(warnings.items()) if n},
    }


# -- families -----------------------------------------------------------------


def _long_name(rng: random.Random, prefix: str, index: int) -> str:
    a, b, c = (rng.choice(_WORDS) for _ in range(3))
    return f'{prefix} {index:05d} "{a}" {b} \\ {c} of the {rng.choice(_WORDS)} office'


def text_spec(rng: random.Random, scale: int) -> Spec:
    layers = [("classical", _long_name(rng, "Layer", i)) for i in range(2)]
    users = [("classical", _long_name(rng, "User", i)) for i in range(4)]
    storages = [("classical", _long_name(rng, "Storage", i)) for i in range(2)]
    groups = [
        (_long_name(rng, "Record", i),
         [(f"{rng.choice(_WORDS).replace('-', '_')}_{j}", "classical") for j in range(2 + i % 2)])
        for i in range(8)
    ]
    group_names = [name for name, _ in groups]
    processes: list[Process] = []
    for i in range(TEXT_PROCESSES_PER_UNIT * scale):
        process = Process(_long_name(rng, "Process", i), rng.choice(layers)[1])
        if processes and rng.random() < 0.3:
            process.uses.append(rng.choice(processes).name)
        for _ in range(TEXT_MOVEMENTS):
            group = rng.choice(group_names)
            roll = rng.random()
            if roll < 0.25:
                kind = rng.choice("RW")
                movement = (kind, group, "storage", rng.choice(storages)[1], "")
            elif roll < 0.4:
                movement = (rng.choice("EX"), group, "layer", rng.choice(layers)[1], "")
            else:
                movement = (rng.choice("EX"), group, "user", rng.choice(users)[1], "")
            process.movements.append(movement)
        processes.append(process)
    return Spec(
        name=f'Bulk "text" model \\ {rng.randrange(10**6)}',
        purpose="Size a large purely classical back office; names carry \"quotes\" and \\ slashes.",
        scope="Every batch and reconciliation use case.",
        layers=layers, users=users, storages=storages, groups=groups, processes=processes,
    )


def _with_comments(rng: random.Random, spec: Spec) -> str:
    """Source text: the canonical text with `//` comments woven in."""
    lines = [f"// generated bulk model {rng.randrange(10**9)}", f"system {quote(spec.name)} {{"]
    for index, section in enumerate(canonical_sections(spec)):
        if index:
            lines.append("")
        if section[0].startswith("  process"):
            lines.append(f"  // {rng.choice(_WORDS)} use case {index}, reviewed by \"ops\"")
        for line in section:
            if line.startswith("    ") and rng.random() < 0.15:
                line += f"  // {rng.choice(_WORDS)} {rng.choice(_WORDS)}"
            lines.append(line)
    lines.append("}")
    return "\n".join(lines) + "\n"


def resolve_spec(rng: random.Random, scale: int) -> Spec:
    count = RESOLVE_PROCESSES_PER_UNIT * scale
    layers = [("classical", "Classical 0"), ("classical", "Classical 1"),
              ("quantum", "Quantum 0"), ("quantum", "Quantum 1")]
    side = max(2, count // 20)
    users = [("classical" if j % 2 == 0 else "quantum", f"user {j:03d}") for j in range(side)]
    storages = [("classical" if j % 2 == 0 else "quantum", f"store {j:03d}") for j in range(side)]
    pools = {
        (kind, nature): [name for n, name in declared if n == nature]
        for kind, declared in (("user", users), ("storage", storages), ("layer", layers))
        for nature in ("classical", "quantum")
    }
    in_quantum = [i % 2 == 0 for i in range(count)]
    rng.shuffle(in_quantum)
    names = [f"proc {i:05d}" for i in range(count)]
    for i in range(count):
        kind = "quantum" if in_quantum[i] else "classical"
        pools.setdefault(("process", kind), []).append(names[i])

    groups: list[tuple[str, list[tuple[str, str]]]] = []
    group_pool: dict[str, list[str]] = {"classical": [], "quantum": []}
    quantum_groups: set[str] = set()
    for i in range(count):
        for k in (2 * i, 2 * i + 1):
            nature = "quantum" if in_quantum[i] and rng.random() < 0.5 else "classical"
            name = f"data {k:05d}"
            attrs = [("key", "classical"), ("payload", nature), ("checksum", "classical")]
            groups.append((name, attrs))
            group_pool[nature].append(name)
            if nature == "quantum":
                quantum_groups.add(name)

    def pick(kind: str, nature: str, exclude: str = "") -> str:
        options = pools.get((kind, nature), [])
        choice = rng.choice(options)
        while choice == exclude and len(options) > 1:
            choice = rng.choice(options)
        return choice

    def classical_movement(owner: int, group: str):
        roll = rng.random()
        if roll < 0.3:
            return (rng.choice("EX"), group, "user", pick("user", "classical"), "")
        if roll < 0.5:
            return (rng.choice("RW"), group, "storage", pick("storage", "classical"), "")
        if roll < 0.7:
            return (rng.choice("EX"), group, "layer", rng.choice(layers)[1], "")
        target = rng.randrange(count)
        if target == owner:
            target = (target + 1) % count
        return ("X", group, "process", names[target], "")

    def crossing(group: str):
        kind = rng.choice(("user", "layer", "process"))
        conv = rng.choice(("prepare", "measure"))
        return ("QE" if conv == "prepare" else "QX", group, kind, pick(kind, "classical"), conv)

    def quantum_movement(owner: Process, group: str):
        roll = rng.random()
        if roll < 0.25:
            return crossing(group)
        if roll < 0.45:
            return (rng.choice(("QE", "QX")), group, "user", pick("user", "quantum"), "")
        if roll < 0.65:
            return (rng.choice(("QR", "QW")), group, "storage", pick("storage", "quantum"), "")
        if roll < 0.8:
            return (rng.choice(("QE", "QX")), group, "layer", pick("layer", "quantum"), "")
        return ("QX", group, "process", pick("process", "quantum", exclude=owner.name), "")

    processes: list[Process] = []
    for i in range(count):
        layer = rng.choice(layers[2:] if in_quantum[i] else layers[:2])[1]
        process = Process(names[i], layer)
        if processes and rng.random() < 0.25:
            process.uses.append(rng.choice(processes).name)
        own = [groups[2 * i][0], groups[2 * i + 1][0]]
        for j in range(RESOLVE_MOVEMENTS):
            if j > 2 and rng.random() < 0.1:
                process.movements.append(rng.choice(process.movements))
                continue
            if j < 2:
                group = own[j]
            elif in_quantum[i] and rng.random() < 0.5:
                group = rng.choice(group_pool["quantum"] or group_pool["classical"])
            else:
                group = rng.choice(group_pool["classical"])
            if group in quantum_groups:
                movement = quantum_movement(process, group)
            elif in_quantum[i] and rng.random() < 0.2:
                movement = crossing(group)
            else:
                movement = classical_movement(i, group)
            process.movements.append(movement)
        processes.append(process)
    return Spec(
        name=f"Bulk hybrid model {rng.randrange(10**6)}",
        purpose="Size a large hybrid system.",
        scope="",
        layers=layers, users=users, storages=storages, groups=groups, processes=processes,
    )


def text_model(seed: int, scale: int) -> Generated:
    rng = random.Random(f"text:{seed}:{scale}")
    spec = text_spec(rng, scale)
    return Generated(_with_comments(rng, spec), expected_results(spec), canonical_text(spec))


def resolve_model(seed: int, scale: int) -> Generated:
    rng = random.Random(f"resolve:{seed}:{scale}")
    spec = resolve_spec(rng, scale)
    text = canonical_text(spec)
    return Generated(text, expected_results(spec), text)


def bad_parse_model(seed: int, scale: int) -> Generated:
    """Text-family model whose parse fails with L1, S1, S2 and S3 findings.

    Each defect sits on a movement that is not the last of its process, so
    the parser's recovery resumes at the next movement keyword and the
    count of each code is known exactly:

    * an illegal character between two tokens: one L1;
    * a string left open at end of line: one L1, then one S1 at the
      next movement keyword;
    * a dangling ``via``: one S1;
    * a data group no declaration names: one S3;
    * a second declaration of a process or data group name: one S2.
    """
    rng = random.Random(f"bad-parse:{seed}:{scale}")
    spec = text_spec(rng, scale)
    codes = Counter()
    sections = canonical_sections(dataclasses.replace(spec, processes=[]))
    for p_index, process in enumerate(spec.processes):
        section = [_process_head(process) + " {"]
        last = len(process.movements) - 1
        for m_index, movement in enumerate(process.movements):
            line = "    " + movement_line(movement)
            if m_index < last and rng.random() < 0.35:
                defect = rng.randrange(4)
                word, rest = line.strip().split(" ", 1)
                if defect == 0:
                    line = f"    {word} {rng.choice('@#$%?')} {rest}"
                    codes["L1"] += 1
                elif defect == 1:
                    line = f'    {word} "{movement[1][:8]}'
                    codes["L1"] += 1
                    codes["S1"] += 1
                elif defect == 2:
                    line += " via"
                    codes["S1"] += 1
                else:
                    ghost = (movement[0], f"ghost record {p_index}.{m_index}") + movement[2:]
                    line = "    " + movement_line(ghost)
                    codes["S3"] += 1
            section.append(line)
        section.append("  }")
        sections.append(section)
    for process in rng.sample(spec.processes, max(1, len(spec.processes) // 8)):
        sections.append(
            [_process_head(process) + " {"]
            + ["    " + movement_line(m) for m in process.movements[:3]]
            + ["  }"]
        )
        codes["S2"] += 1
    for name, _ in spec.groups[:4]:
        sections.append([f"  datagroup {quote(name)} {{}}"])
        codes["S2"] += 1
    lines = [f"system {quote(spec.name)} {{"]
    for index, section in enumerate(sections):
        if index:
            lines.append("")
        lines.extend(section)
    lines.append("}")
    expected = {"exit": 2, "codes": dict(sorted(codes.items())),
                "movements": sum(len(p.movements) for p in spec.processes)}
    return Generated("\n".join(lines) + "\n", expected)


def bad_rules_model(seed: int, scale: int) -> Generated:
    """Resolve-family model that parses but breaks R2-R9.

    Each added movement or `uses` pair triggers exactly one finding:

    * R2 ``read`` of a classical group from a classical user;
    * R3 ``qread`` of a quantum group from classical storage;
    * R4 ``qentry`` of a quantum group from a classical user, no conversion;
    * R5 ``entry ... via prepare``;
    * R6 ``entry`` of a quantum group from a quantum layer;
    * R7 ``qentry`` of a classical group from a quantum layer, no conversion;
    * R8 the receiver also declares an existing process-to-process exit;
    * R9 two processes outside every other `uses` edge use each other.

    R3-R7 go into quantum-layer processes, so no process changes nature.
    """
    rng = random.Random(f"bad-rules:{seed}:{scale}")
    spec = resolve_spec(rng, scale)
    layer_nature = {name: nature for nature, name in spec.layers}
    quantum_groups = [n for n, attrs in spec.groups if attrs[1][1] == "quantum"]
    classical_groups = [n for n, attrs in spec.groups if attrs[1][1] == "classical"]
    c_user = next(name for nature, name in spec.users if nature == "classical")
    c_store = next(name for nature, name in spec.storages if nature == "classical")
    by_name = {p.name: p for p in spec.processes}
    quantum_procs = [p for p in spec.processes if layer_nature[p.layer] == "quantum"]
    codes = Counter()

    for process in quantum_procs:
        for _ in range(3):
            code = rng.choice(("R2", "R3", "R4", "R5", "R6", "R7"))
            cg, qg = rng.choice(classical_groups), rng.choice(quantum_groups)
            process.movements.insert(rng.randrange(len(process.movements) + 1), {
                "R2": ("R", cg, "user", c_user, ""),
                "R3": ("QR", qg, "storage", c_store, ""),
                "R4": ("QE", qg, "user", c_user, ""),
                "R5": ("E", cg, "layer", "Classical 0", "prepare"),
                "R6": ("E", qg, "layer", "Quantum 0", ""),
                "R7": ("QE", cg, "layer", "Quantum 1", ""),
            }[code])
            codes[code] += 1

    flows = sorted({
        (p.name, m[3], m[1])
        for p in spec.processes for m in p.movements
        if m[0] == "X" and m[2] == "process"
    })
    for sender, receiver, group in rng.sample(flows, min(len(flows), len(spec.processes) // 4)):
        by_name[receiver].movements.append(("E", group, "process", sender, ""))
        codes["R8"] += 1

    used = {u for p in spec.processes for u in p.uses}
    isolated = [p for p in spec.processes if not p.uses and p.name not in used]
    rng.shuffle(isolated)
    for a, b in zip(isolated[0:len(isolated) // 2:2], isolated[1:len(isolated) // 2:2]):
        a.uses.append(b.name)
        b.uses.append(a.name)
        codes["R9"] += 1

    expected = expected_results(spec)
    all_codes = Counter(expected["codes"]) + codes
    expected = {"exit": 1, "codes": dict(sorted(all_codes.items())), "movements": expected["movements"]}
    return Generated(canonical_text(spec), expected)


FAMILIES = {
    "text": text_model,
    "resolve": resolve_model,
    "bad-parse": bad_parse_model,
    "bad-rules": bad_rules_model,
}
