"""Seeded random model generator for property and corpus tests.

Generated models always pass validation with zero errors (warnings are
allowed); every structural rule in the catalog is respected by
construction. A fixed seed makes every corpus reproducible.
"""

from __future__ import annotations

import dataclasses
import random

from qcosmic import (
    Attribute,
    Conversion,
    DataGroup,
    DataMovement,
    Endpoint,
    EndpointKind,
    FunctionalProcess,
    FunctionalUser,
    Layer,
    Model,
    MovementKind,
    Nature,
    PersistentStorage,
    format_model,
    tokenize,
)
from conftest import FIXTURES

_WORDS = (
    "ledger", "account", "signal", "pipeline", "archive", "beacon",
    "cache", "relay", "vault", "sensor", "registry", "batch",
)

_ODD_CHARS = ('"', "\\", "\n", "\t", "é", "☼", "//", "  ")


def _name(rng: random.Random, prefix: str, taken: set[str], odd: bool, short: bool) -> str:
    while True:
        if short:
            name = f"{prefix[0]}{rng.randrange(100)}"
        else:
            name = f"{prefix} {rng.choice(_WORDS)} {rng.randrange(100)}"
        if odd and rng.random() < 0.12:
            pos = rng.randrange(len(name))
            name = name[:pos] + rng.choice(_ODD_CHARS) + name[pos:]
        if name not in taken:
            taken.add(name)
            return name


def random_model(
    rng: random.Random,
    *,
    max_processes: int = 10,
    max_movements: int = 8,
    allow_quantum: bool = True,
    odd_names: bool = True,
    short_names: bool = False,
) -> Model:
    """Build a random model that validates cleanly.

    Names are a kind, a word and a number, such as "proc ledger 42", and
    now and then hold a character that needs escaping (``odd_names``);
    ``short_names`` makes them the kind's initial and a number, such as "p42".
    """
    quantum_mode = allow_quantum and rng.random() < 0.7
    taken: set[str] = set()

    def fresh(prefix: str) -> str:
        return _name(rng, prefix, taken, odd_names, short_names)

    if quantum_mode:
        layer_count = rng.randint(2, 3)
        natures = [Nature.CLASSICAL, Nature.QUANTUM]
        natures += [rng.choice((Nature.CLASSICAL, Nature.QUANTUM))] * (layer_count - 2)
        rng.shuffle(natures)
        layers = [Layer(fresh("layer"), n) for n in natures]
    else:
        layers = [
            Layer(fresh("layer"), Nature.CLASSICAL)
            for _ in range(rng.randint(1, 3))
        ]

    users = [
        FunctionalUser(
            fresh("user"),
            Nature.QUANTUM if quantum_mode and rng.random() < 0.4 else Nature.CLASSICAL,
        )
        for _ in range(rng.randint(1, 3))
    ]

    storages = [
        PersistentStorage(fresh("store"), Nature.CLASSICAL)
        for _ in range(rng.randint(0, 2))
    ]
    if quantum_mode:
        storages += [
            PersistentStorage(fresh("qstore"), Nature.QUANTUM)
            for _ in range(rng.randint(0, 2))
        ]

    groups: list[DataGroup] = []
    for _ in range(rng.randint(1, 4)):
        quantum_group = quantum_mode and rng.random() < 0.4
        attrs = tuple(
            Attribute(f"{rng.choice(_WORDS)}_{i}", Nature.CLASSICAL)
            for i in range(rng.randint(0, 3))
        )
        if quantum_group:
            attrs += (Attribute("state_q", Nature.QUANTUM),)
        groups.append(DataGroup(fresh("group"), attrs))
    if all(g.attributes and g.attributes[-1].nature is Nature.QUANTUM for g in groups):
        groups.append(DataGroup(fresh("group"), ()))

    classical_groups = [g for g in groups if not any(a.nature is Nature.QUANTUM for a in g.attributes)]
    quantum_groups = [g for g in groups if any(a.nature is Nature.QUANTUM for a in g.attributes)]
    classical_storages = [s for s in storages if s.nature is Nature.CLASSICAL]
    quantum_storages = [s for s in storages if s.nature is Nature.QUANTUM]
    classical_layers = [l for l in layers if l.nature is Nature.CLASSICAL]
    quantum_layers = [l for l in layers if l.nature is Nature.QUANTUM]
    classical_users = [u for u in users if u.nature is Nature.CLASSICAL]
    quantum_users = [u for u in users if u.nature is Nature.QUANTUM]

    process_names = [
        fresh("proc") for _ in range(rng.randint(1, max_processes))
    ]
    process_layers = [rng.choice(layers) for _ in process_names]
    classical_processes = [
        name for name, layer in zip(process_names, process_layers)
        if layer.nature is Nature.CLASSICAL
    ]
    quantum_processes = [
        name for name, layer in zip(process_names, process_layers)
        if layer.nature is Nature.QUANTUM
    ]

    # inter-process flows already declared, to keep R8 happy:
    # (sender, receiver, group, quantum?) -> {"send", "receive"}
    flows: dict[tuple[str, str, str, bool], set[str]] = {}

    def classical_counterpart(owner: str) -> Endpoint | None:
        choices: list[Endpoint] = [Endpoint(EndpointKind.USER, u.name) for u in classical_users]
        choices += [Endpoint(EndpointKind.LAYER, l.name) for l in classical_layers]
        choices += [
            Endpoint(EndpointKind.PROCESS, p) for p in classical_processes if p != owner
        ]
        return rng.choice(choices) if choices else None

    def quantum_counterpart(owner: str) -> Endpoint | None:
        choices: list[Endpoint] = [Endpoint(EndpointKind.USER, u.name) for u in quantum_users]
        choices += [Endpoint(EndpointKind.LAYER, l.name) for l in quantum_layers]
        choices += [
            Endpoint(EndpointKind.PROCESS, p) for p in quantum_processes if p != owner
        ]
        return rng.choice(choices) if choices else None

    def any_counterpart(owner: str) -> Endpoint:
        choices: list[Endpoint] = [Endpoint(EndpointKind.USER, u.name) for u in users]
        choices += [Endpoint(EndpointKind.LAYER, l.name) for l in layers]
        choices += [Endpoint(EndpointKind.PROCESS, p) for p in process_names if p != owner]
        return rng.choice(choices)

    def flow_allows(owner: str, kind: MovementKind, cp: Endpoint, group: str) -> bool:
        if cp.kind is not EndpointKind.PROCESS:
            return True
        quantum = kind in (MovementKind.QE, MovementKind.QX)
        if kind in (MovementKind.X, MovementKind.QX):
            key, style = (owner, cp.name, group, quantum), "send"
        else:
            key, style = (cp.name, owner, group, quantum), "receive"
        styles = flows.setdefault(key, set())
        if (styles - {style}):
            return False
        styles.add(style)
        return True

    def make_movement(owner: str, owner_layer: Layer) -> DataMovement | None:
        quantum_owner = owner_layer.nature is Nature.QUANTUM
        for _ in range(8):
            choice = rng.random()
            if quantum_owner and choice < 0.25 and (quantum_groups or classical_groups):
                # quantum entry/exit, with or without a conversion
                kind = rng.choice((MovementKind.QE, MovementKind.QX))
                if rng.random() < 0.5:
                    cp = classical_counterpart(owner)
                    if cp is None:
                        continue
                    group = rng.choice(groups)
                    conversion = (
                        Conversion.PREPARE if kind is MovementKind.QE else Conversion.MEASURE
                    )
                else:
                    cp = quantum_counterpart(owner)
                    if cp is None or not quantum_groups:
                        continue
                    group = rng.choice(quantum_groups)
                    conversion = Conversion.NONE
                if not flow_allows(owner, kind, cp, group.name):
                    continue
                return DataMovement(kind, group.name, cp, conversion)
            if quantum_owner and choice < 0.4 and quantum_storages and quantum_groups:
                kind = rng.choice((MovementKind.QR, MovementKind.QW))
                storage = rng.choice(quantum_storages)
                group = rng.choice(quantum_groups)
                return DataMovement(kind, group.name, Endpoint(EndpointKind.STORAGE, storage.name))
            if choice < 0.75 and classical_groups:
                kind = rng.choice((MovementKind.E, MovementKind.X))
                cp = any_counterpart(owner)
                group = rng.choice(classical_groups)
                if not flow_allows(owner, kind, cp, group.name):
                    continue
                return DataMovement(kind, group.name, cp)
            if classical_storages and classical_groups:
                kind = rng.choice((MovementKind.R, MovementKind.W))
                storage = rng.choice(classical_storages)
                group = rng.choice(classical_groups)
                return DataMovement(kind, group.name, Endpoint(EndpointKind.STORAGE, storage.name))
        return None

    processes: list[FunctionalProcess] = []
    for index, (name, layer) in enumerate(zip(process_names, process_layers)):
        movements = []
        for _ in range(rng.randint(0, max_movements)):
            movement = make_movement(name, layer)
            if movement is not None:
                movements.append(movement)
        earlier = process_names[:index]
        uses = tuple(
            p for p in earlier if rng.random() < 0.2
        )
        processes.append(FunctionalProcess(name, layer.name, tuple(movements), uses))

    return Model(
        name=fresh("system"),
        purpose=rng.choice(("", "generated model for property testing")),
        scope=rng.choice(("", "all generated functional processes")),
        layers=tuple(layers),
        users=tuple(users),
        storages=tuple(storages),
        data_groups=tuple(groups),
        processes=tuple(processes),
    )


def inject_duplicate(model: Model, process_index: int, movement_index: int) -> Model:
    """Return a copy with one movement duplicated verbatim."""
    target = model.processes[process_index]
    duplicated = target.movements + (target.movements[movement_index],)
    patched = dataclasses.replace(target, movements=duplicated)
    processes = tuple(
        patched if i == process_index else p for i, p in enumerate(model.processes)
    )
    return dataclasses.replace(model, processes=processes)


def _with_process(model: Model, index: int, process: FunctionalProcess) -> Model:
    processes = model.processes[:index] + (process,) + model.processes[index + 1:]
    return dataclasses.replace(model, processes=processes)


_MIRRORS = {
    MovementKind.E: MovementKind.X, MovementKind.X: MovementKind.E,
    MovementKind.QE: MovementKind.QX, MovementKind.QX: MovementKind.QE,
}

_DECLARED = {
    EndpointKind.USER: "users", EndpointKind.STORAGE: "storages",
    EndpointKind.PROCESS: "processes", EndpointKind.LAYER: "layers",
}

_PERTURBATIONS = ("kind", "counterpart", "conversion", "mirror", "empty", "duplicate", "cycle")


def _perturb(rng: random.Random, model: Model) -> Model:
    """One edit that may break a rule; see perturbed_models."""
    edit = rng.choice(_PERTURBATIONS)
    index = rng.randrange(len(model.processes))
    process = model.processes[index]
    if edit == "empty":
        return _with_process(model, index, dataclasses.replace(process, movements=()))
    if edit == "cycle":
        # a uses edge back along an existing one closes a cycle; else use oneself
        position = {p.name: i for i, p in enumerate(model.processes)}
        back = [(position[name], p.name) for p in model.processes for name in p.uses]
        if back and rng.random() < 0.7:
            index, name = rng.choice(back)
            process = model.processes[index]
        else:
            name = process.name
        return _with_process(model, index, dataclasses.replace(process, uses=process.uses + (name,)))
    if not process.movements:
        return model
    at = rng.randrange(len(process.movements))
    movement = process.movements[at]
    if edit == "duplicate":
        return inject_duplicate(model, index, at)
    if edit == "mirror":
        # the same flow declared again from the other process, which R8 rejects
        # unless the kind drawn does not mirror this one
        other = rng.randrange(len(model.processes))
        target = model.processes[other]
        kind = _MIRRORS.get(movement.kind) if rng.random() < 0.7 else None
        mirrored = DataMovement(
            kind or rng.choice(tuple(_MIRRORS)),
            movement.data_group,
            Endpoint(EndpointKind.PROCESS, process.name),
            rng.choice((Conversion.NONE, movement.conversion)),
        )
        moved = dataclasses.replace(movement, counterpart=Endpoint(EndpointKind.PROCESS, target.name))
        movements = process.movements[:at] + (moved,) + process.movements[at + 1:]
        model = _with_process(model, index, dataclasses.replace(process, movements=movements))
        target = model.processes[other]
        return _with_process(
            model, other, dataclasses.replace(target, movements=target.movements + (mirrored,))
        )
    if edit == "kind":
        moved = dataclasses.replace(movement, kind=rng.choice(tuple(MovementKind)))
    elif edit == "conversion":
        moved = dataclasses.replace(movement, conversion=rng.choice(tuple(Conversion)))
    else:
        kind = rng.choice(tuple(EndpointKind))
        names = [d.name for d in getattr(model, _DECLARED[kind])]
        # now and then a name that is not declared, so validate raises
        name = rng.choice(names) if names and rng.random() < 0.95 else "nope"
        moved = dataclasses.replace(movement, counterpart=Endpoint(kind, name))
    movements = process.movements[:at] + (moved,) + process.movements[at + 1:]
    return _with_process(model, index, dataclasses.replace(process, movements=movements))


def _moved_only(model: Model) -> Model:
    moved = [m for p in model.processes for m in p.movements]
    groups = {m.data_group for m in moved}
    stored = {m.counterpart.name for m in moved if m.counterpart.kind is EndpointKind.STORAGE}
    return dataclasses.replace(
        model,
        data_groups=tuple(g for g in model.data_groups if g.name in groups),
        storages=tuple(s for s in model.storages if s.name in stored),
    )


def perturbed_models(seed: int, count: int) -> list[Model]:
    """``count`` small random models, each after 1-3 edits that may break a rule.

    An edit changes a movement's kind, counterpart or conversion; mirrors a
    movement into another process as E, X, QE or QX (R8); empties a
    process's movements (P1); duplicates a movement; or adds a uses edge
    that closes a cycle (R9). A changed counterpart now and then names an
    undeclared element, so the catalog's unresolved-reference path runs too.
    Before the edits, a model declares only the data groups and storages it
    moves, so P2 reports what the edits left unmoved. The models carry no
    spans, and their names are short.
    """
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        model = _moved_only(random_model(
            rng, max_processes=4, max_movements=8, odd_names=False, short_names=True
        ))
        for _ in range(rng.randint(1, 3)):
            model = _perturb(rng, model)
        models.append(model)
    return models


#: What dangling_model can leave undeclared: a data group, or a counterpart of each kind.
DANGLING = ("datagroup", *(kind.value for kind in EndpointKind))


def dangling_model(category: str) -> Model:
    """A measurable process "p" beside a process "q" whose one movement names
    an undeclared data group or counterpart (one of DANGLING) called "nope"."""
    movement = DataMovement(MovementKind.E, "g", Endpoint(EndpointKind.USER, "u"))
    if category == "datagroup":
        broken = dataclasses.replace(movement, data_group="nope")
    else:
        broken = dataclasses.replace(movement, counterpart=Endpoint(EndpointKind(category), "nope"))
    return Model(
        name="m",
        layers=(Layer("l", Nature.CLASSICAL),),
        users=(FunctionalUser("u", Nature.CLASSICAL),),
        data_groups=(DataGroup("g"),),
        processes=(FunctionalProcess("p", "l", (movement,)), FunctionalProcess("q", "l", (broken,))),
    )


_OTHER = {Nature.CLASSICAL: Nature.QUANTUM, Nature.QUANTUM: Nature.CLASSICAL}

# the model's declaration fields, spelled here apart from qcosmic's own table
_DECLARATIONS = ("layers", "users", "storages", "data_groups", "processes")


def repeat_declarations(rng: random.Random, model: Model) -> Model:
    """``model`` with a copy of one declaration inserted anywhere in its category,
    or of one attribute inserted anywhere in its data group.

    The copy is verbatim or has its nature flipped: a layer, user, storage or
    attribute takes the other nature, a data group gains or loses its quantum
    attributes, and a process moves to a layer of the other nature. A
    process's copy may instead have its uses or its movements edited. Every
    name the copy references is declared.
    """
    fields = [field for field in _DECLARATIONS if getattr(model, field)]
    if any(group.attributes for group in model.data_groups):
        fields.append("attributes")
    field = rng.choice(fields)
    if field == "attributes":
        return _repeat_attribute(rng, model)
    declared = getattr(model, field)
    copy = rng.choice(declared)
    edit = rng.choice(("verbatim", "nature", "uses", "movements"))
    if edit == "nature" and field == "data_groups":
        classical = tuple(a for a in copy.attributes if a.nature is Nature.CLASSICAL)
        if classical == copy.attributes:
            classical += (Attribute("flipped_q", Nature.QUANTUM),)
        copy = dataclasses.replace(copy, attributes=classical)
    elif edit == "nature" and field == "processes":
        nature = model.layer(copy.layer).nature
        layers = [l for l in model.layers if l.nature is not nature] or model.layers
        copy = dataclasses.replace(copy, layer=rng.choice(layers).name)
    elif edit == "nature":
        copy = dataclasses.replace(copy, nature=_OTHER[copy.nature])
    elif edit == "uses" and field == "processes":
        names = [p.name for p in model.processes]
        copy = dataclasses.replace(copy, uses=tuple(rng.sample(names, rng.randint(0, len(names)))))
    elif edit == "movements" and field == "processes":
        movements = [m for p in model.processes for m in p.movements]
        count = rng.randint(0, min(len(movements), 6))
        copy = dataclasses.replace(copy, movements=tuple(rng.sample(movements, count)))
    at = rng.randint(0, len(declared))
    return dataclasses.replace(model, **{field: declared[:at] + (copy,) + declared[at:]})


def _repeat_attribute(rng: random.Random, model: Model) -> Model:
    """``model`` with a copy of one attribute, verbatim or with its nature
    flipped, inserted anywhere in its data group."""
    groups = model.data_groups
    index = rng.choice([i for i, group in enumerate(groups) if group.attributes])
    attributes = groups[index].attributes
    copy = rng.choice(attributes)
    if rng.random() < 0.5:
        copy = dataclasses.replace(copy, nature=_OTHER[copy.nature])
    at = rng.randint(0, len(attributes))
    group = dataclasses.replace(groups[index], attributes=attributes[:at] + (copy,) + attributes[at:])
    return dataclasses.replace(model, data_groups=groups[:index] + (group,) + groups[index + 1:])


def _firsts(declared: tuple) -> tuple:
    """The first of ``declared`` by each name, in order."""
    names: dict[str, object] = {}
    for item in declared:
        names.setdefault(item.name, item)
    return tuple(names.values())


def first_declarations(model: Model) -> Model:
    """``model`` without the later declarations of any name, or of any
    attribute name within a data group."""
    firsts = {field: _firsts(getattr(model, field)) for field in _DECLARATIONS}
    firsts["data_groups"] = tuple(
        dataclasses.replace(group, attributes=_firsts(group.attributes))
        for group in firsts["data_groups"]
    )
    return dataclasses.replace(model, **firsts)


def hostile_texts(seed: int = 17, count: int = 400) -> list[str]:
    """Short random strings of keywords and lexer-hostile characters."""
    rng = random.Random(seed)
    pool = list('system layer { } : , " \\ // entry via né')
    return ["".join(rng.choice(pool) for _ in range(rng.randrange(0, 40))) for _ in range(count)]


# keywords, punctuation, an identifier, and strings, two of which read as a keyword
# or a brace but must never be taken for one
_INSERTS = (
    "system", "purpose", "scope", "layer", "user", "storage", "datagroup", "attr",
    "process", "classical", "quantum", "in", "uses", "from", "to", "via", "prepare",
    "measure", "entry", "qexit", "read", "qwrite", "{", "}", ":", ",", "name",
    '"x"', '"attr"', '"}"',
)

# shapes that random edits rarely reach: a datagroup left open, repeated
# headers, a repeated attribute or declaration, a list of used processes and a
# conversion written as a string
RECOVERY_SEEDS = (
    'system "S" { layer classical "L" datagroup "G" { attr a : classical\n'
    'process "P" in layer "L" { entry "G" from layer "L" } }',
    'system "S" { purpose "a" purpose "b" scope "c" scope "d" layer classical "L" }',
    'system "S" { datagroup "G" { attr a : classical attr a : quantum } }',
    'system "S" { datagroup "G" { attr a : classical',
    'system "S" { layer classical "L" layer quantum "L" user classical "U" user classical "U"\n'
    'storage classical "D" storage quantum "D" datagroup "G" { } datagroup "G" { }\n'
    'process "P" in layer "L" { } process "P" in layer "L" { } }',
    'system "S" { layer classical "L" process "A" in layer "L" { }\n'
    'process "B" in layer "L" { } process "C" in layer "L" uses "A", "B" { } }',
    'system "S" { layer quantum "Q" datagroup "G" { }\n'
    'process "P" in layer "Q" { qentry "G" from layer "Q" via "prepare" } }',
)


def _mutate(rng: random.Random, text: str) -> str:
    """Delete a token, insert one from ``_INSERTS``, or swap two tokens."""
    _, _, offsets, lengths, _, _ = tokenize(text)
    n = len(offsets) - 1  # the end-of-input token is never edited
    edit = ("delete", "insert", "swap")[rng.randrange(3)] if n >= 2 else "insert"
    if edit == "insert":
        at = offsets[rng.choice(range(n))] if n and rng.random() < 0.95 else len(text)
        return f"{text[:at]}{rng.choice(_INSERTS)} {text[at:]}"
    first, second = sorted(rng.sample(range(n), 2))
    a, b = offsets[first], offsets[second]
    a_end, b_end = a + lengths[first], b + lengths[second]
    if edit == "delete":
        return text[:a] + text[a_end:]
    return text[:a] + text[b:b_end] + text[a_end:b] + text[a:a_end] + text[b_end:]


def mutated_texts(seed: int, count: int) -> list[str]:
    """``count`` texts, each a fixture, recovery seed or random model after 1-3 token edits."""
    rng = random.Random(seed)
    sources = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.qcm"))]
    sources += RECOVERY_SEEDS
    sources += [
        format_model(random_model(rng, max_processes=2, max_movements=3)) for _ in range(30)
    ]
    texts = []
    for _ in range(count):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        texts.append(text)
    return texts
