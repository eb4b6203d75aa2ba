"""Domain types for hybrid classical/quantum software models.

The model mirrors the generic software model used by COSMIC-style
measurement: layers partition the system, functional processes own data
movements, and every movement carries a data group across a boundary to a
counterpart (user, storage, another process, or a layer).

Classicality is a two-valued tag. Layers, users, and storages declare it
explicitly; data groups and processes derive it:

* a data group is quantum iff at least one attribute is quantum, an
  attribute name declared twice reading as its first declaration;
* a process is quantum iff its layer is quantum, any movement touches a
  quantum data group, or any movement performs a state-preparation or
  measurement conversion;
* the system is quantum iff any element is quantum.

Name lookups (``Model.layer``, ``Model.data_group``, ...) go through an
index that the model builds once, at construction: per category, each name
maps to its first declaration, in declaration order. When a hand-built model
declares a name twice, every lookup, every nature, the rule catalog and the
diagram read the first declaration; only ``validate``'s S2, which reports
the later one, and ``format_model`` see it. Derived facts (the rule
catalog's findings, each data group's nature, and each declared process's
nature, layer and movement resolution) are computed on first use and kept in
a private per-model memo; ``dataclasses.replace`` gives the new model an
empty one. The rules, the counter and the diagram all read that one
resolution. The index and the memo are plain attributes, not dataclass
fields, so equality, hashing, ``dataclasses.fields``, ``asdict`` and
``astuple`` see only the declared fields.

Everything here is immutable and hashable; all operations are pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .diagnostics import Span

__all__ = [
    "Attribute",
    "Conversion",
    "DataGroup",
    "DataMovement",
    "Endpoint",
    "EndpointKind",
    "FunctionalProcess",
    "FunctionalUser",
    "Layer",
    "Model",
    "MovementKind",
    "Nature",
    "PersistentStorage",
    "UnresolvedReferenceError",
    "data_group_nature",
    "process_nature",
    "system_nature",
]


class UnresolvedReferenceError(LookupError):
    """A name used in the model does not resolve to a declaration."""

    def __init__(self, category: str, name: str):
        super().__init__(f"unresolved {category} reference: {name!r}")
        self.category = category
        self.name = name


class _Tag(enum.Enum):
    """Base of the model's enums: a member hashes by identity.

    ``enum.Enum.__hash__`` is a Python function, and the rules, the counter
    and the renderers hash members per movement. Members are singletons and
    compare by identity, so ``object.__hash__`` agrees with equality.
    """

    __hash__ = object.__hash__


class Nature(_Tag):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


class MovementKind(_Tag):
    """The eight countable data movement kinds."""

    E = "E"
    X = "X"
    R = "R"
    W = "W"
    QE = "QE"
    QX = "QX"
    QR = "QR"
    QW = "QW"


#: Movement kinds that target persistent storage.
STORAGE_KINDS = frozenset({MovementKind.R, MovementKind.W, MovementKind.QR, MovementKind.QW})

#: Movement kinds that carry quantum data.
QUANTUM_KINDS = frozenset({MovementKind.QE, MovementKind.QX, MovementKind.QR, MovementKind.QW})

#: Movement kinds whose data flows from the counterpart into the process.
INBOUND_KINDS = frozenset({MovementKind.E, MovementKind.QE, MovementKind.R, MovementKind.QR})

#: Canonical column/tally order for reports.
KIND_ORDER = tuple(MovementKind)

#: The declaration categories, in source order: each keyword of the
#: language mapped to the Model field that holds its declarations.
CATEGORIES = {
    "layer": "layers",
    "user": "users",
    "storage": "storages",
    "datagroup": "data_groups",
    "process": "processes",
}


class Conversion(_Tag):
    """Classical/quantum boundary conversion carried by a movement."""

    NONE = "none"
    PREPARE = "prepare"
    MEASURE = "measure"


class EndpointKind(_Tag):
    USER = "user"
    STORAGE = "storage"
    PROCESS = "process"
    LAYER = "layer"


@dataclass(frozen=True, slots=True)
class Endpoint:
    """The counterpart of a movement: what sits on the far side."""

    kind: EndpointKind
    name: str


@dataclass(frozen=True, slots=True)
class Layer:
    name: str
    nature: Nature
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class FunctionalUser:
    name: str
    nature: Nature
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class PersistentStorage:
    name: str
    nature: Nature
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Attribute:
    name: str
    nature: Nature


@dataclass(frozen=True, slots=True)
class DataGroup:
    name: str
    attributes: tuple[Attribute, ...] = ()
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class DataMovement:
    kind: MovementKind
    data_group: str
    counterpart: Endpoint
    conversion: Conversion = Conversion.NONE
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class FunctionalProcess:
    name: str
    layer: str
    movements: tuple[DataMovement, ...] = ()
    uses: tuple[str, ...] = ()
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Model:
    """A parsed system description. Declaration order is preserved."""

    name: str
    purpose: str = ""
    scope: str = ""
    layers: tuple[Layer, ...] = ()
    users: tuple[FunctionalUser, ...] = ()
    storages: tuple[PersistentStorage, ...] = ()
    data_groups: tuple[DataGroup, ...] = ()
    processes: tuple[FunctionalProcess, ...] = ()

    def __post_init__(self) -> None:
        # category -> name -> first declaration of that name, in declaration order
        index = {}
        for category, attr in CATEGORIES.items():
            names = index[category] = {}
            for declared in getattr(self, attr):
                names.setdefault(declared.name, declared)
        object.__setattr__(self, "_index", index)
        # key -> derived fact, filled on first use (see _memo)
        object.__setattr__(self, "_derived", {})

    def is_empty(self) -> bool:
        return not any(self._index.values())

    def _memo(self, key, compute):
        """The fact stored under ``key``, computed by ``compute()`` on first use.

        Concurrent first uses may both compute it; the results are equal.
        """
        derived = self._derived
        if key not in derived:
            derived[key] = compute()
        return derived[key]

    def _lookup(self, category: str, name: str):
        found = self._index[category].get(name)
        if found is None:
            raise UnresolvedReferenceError(category, name)
        return found

    def layer(self, name: str) -> Layer:
        return self._lookup("layer", name)

    def user(self, name: str) -> FunctionalUser:
        return self._lookup("user", name)

    def storage(self, name: str) -> PersistentStorage:
        return self._lookup("storage", name)

    def data_group(self, name: str) -> DataGroup:
        return self._lookup("datagroup", name)

    def process(self, name: str) -> FunctionalProcess:
        return self._lookup("process", name)


def data_group_nature(group: DataGroup) -> Nature:
    """Quantum iff at least one attribute stores quantum information.

    An attribute name declared twice reads as its first declaration.
    """
    natures: dict[str, Nature] = {}
    for attr in group.attributes:
        natures.setdefault(attr.name, attr.nature)
    return Nature.QUANTUM if Nature.QUANTUM in natures.values() else Nature.CLASSICAL


def process_nature(process: FunctionalProcess, model: Model) -> Nature:
    """Derive a process's classicality.

    Quantum iff the containing layer is quantum, any movement touches a
    quantum data group, or any movement carries a nonzero conversion.
    Raises UnresolvedReferenceError when a reference does not resolve.
    The result is kept in the model's memo when ``process`` is the model's
    own declaration of that name.
    """
    return _declared(process, model, "process", _nature_and_layer)[0]


def _resolution(process: FunctionalProcess, model: Model) -> tuple[Layer, tuple, tuple]:
    """A process's layer and, per movement, the moved group's nature and the
    counterpart's (nature, layer), where the layer is the named layer for a
    layer endpoint, the counterpart process's layer for a process endpoint,
    None otherwise. Raises UnresolvedReferenceError as process_nature does."""
    layer = _declared(process, model, "process", _nature_and_layer)[1]
    return layer, *_declared(process, model, "movements", _movement_facts)


def _declared(process: FunctionalProcess, model: Model, key: str, derive):
    """``derive(process, model)``, memoized for the model's own declaration."""
    if model._index["process"].get(process.name) is process:
        return model._memo((key, process.name), lambda: derive(process, model))
    return derive(process, model)


def _nature_and_layer(process: FunctionalProcess, model: Model) -> tuple[Nature, Layer]:
    layer = model.layer(process.layer)
    if layer.nature is Nature.QUANTUM:
        return Nature.QUANTUM, layer
    groups = _group_natures(model)
    for movement in process.movements:
        if movement.conversion is not Conversion.NONE:
            return Nature.QUANTUM, layer
        if _group_nature(groups, movement.data_group) is Nature.QUANTUM:
            return Nature.QUANTUM, layer
    return Nature.CLASSICAL, layer


def _group_natures(model: Model) -> dict[str, Nature]:
    """Every declared data group's nature, by name."""
    return model._memo("datagroups", lambda: {
        name: data_group_nature(group) for name, group in model._index["datagroup"].items()
    })


def _group_nature(groups: dict[str, Nature], name: str) -> Nature:
    nature = groups.get(name)
    if nature is None:
        raise UnresolvedReferenceError("datagroup", name)
    return nature


def _movement_facts(process: FunctionalProcess, model: Model) -> tuple[tuple, tuple]:
    groups = _group_natures(model)
    # (kind, name) -> the counterpart's shared (nature, layer), filled on first use
    known = model._memo("counterparts", dict)
    natures, counterparts = [], []
    for movement in process.movements:
        natures.append(_group_nature(groups, movement.data_group))
        endpoint = movement.counterpart
        key = (endpoint.kind, endpoint.name)
        counterpart = known.get(key)
        if counterpart is None:
            counterpart = known[key] = _counterpart(endpoint, model)
        counterparts.append(counterpart)
    return tuple(natures), tuple(counterparts)


def _counterpart(endpoint: Endpoint, model: Model) -> tuple[Nature, Layer | None]:
    declared = getattr(model, endpoint.kind._value_)(endpoint.name)  # model.user, .layer, ...
    if endpoint.kind is EndpointKind.PROCESS:
        return _declared(declared, model, "process", _nature_and_layer)
    return declared.nature, declared if endpoint.kind is EndpointKind.LAYER else None


def system_nature(model: Model) -> Nature:
    """Quantum iff any layer, user, storage, data group, or process is quantum."""
    index = model._index
    for category in ("layer", "user", "storage"):
        for declared in index[category].values():
            if declared.nature is Nature.QUANTUM:
                return Nature.QUANTUM
    if Nature.QUANTUM in _group_natures(model).values():
        return Nature.QUANTUM
    for process in index["process"].values():
        if process_nature(process, model) is Nature.QUANTUM:
            return Nature.QUANTUM
    return Nature.CLASSICAL
