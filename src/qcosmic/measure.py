"""QCFP counting: per process, per layer, per nature, and system totals.

One QCFP is one unique data movement. Within a process, duplicate
declarations of the same movement collapse to one; by default movements to
different counterparts stay distinct (``DedupMode.ENDPOINT``), while
``DedupMode.COSMIC`` collapses on (kind, data group) alone.

Per-layer totals attribute each unique movement to exactly one layer:

* quantum movements, including preparation and measurement crossings, count
  toward the owning process's (quantum) layer;
* classical movements count toward the owning process's layer when that
  layer is classical; a classical payload handled by a quantum-layer
  process counts toward the classical layer on the far side of the
  crossing when the counterpart names one (a layer endpoint, or a process
  declared in a classical layer).

This keeps layer totals additive with process totals while charging each
side of a hybrid process for the work it actually performs.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .diagnostics import Diagnostic, has_errors
from .model import (
    DataMovement,
    FunctionalProcess,
    KIND_ORDER,
    Model,
    Nature,
    QUANTUM_KINDS,
    _resolution,
    process_nature,
    system_nature,
)
from .rules import validate

__all__ = [
    "DedupMode",
    "LayerMeasure",
    "MeasurementReport",
    "ProcessMeasure",
    "Totals",
    "UnvalidatedModelError",
    "measure_system",
    "unique_movements",
]


class UnvalidatedModelError(ValueError):
    """Measurement was requested for a model with outstanding errors."""

    def __init__(self, diagnostics: list[Diagnostic]):
        errors = [d for d in diagnostics if d.is_error]
        super().__init__(f"unvalidated model: {len(errors)} validation error(s) outstanding")
        self.diagnostics = diagnostics


class DedupMode(enum.Enum):
    """How duplicate movements inside one process are collapsed."""

    ENDPOINT = "endpoint"
    COSMIC = "cosmic"


def _first_occurrences(process: FunctionalProcess, dedup: DedupMode) -> list[int]:
    """Positions of the countable movements of a process: the first of each dedup key.

    A key is a flat tuple: (kind, data group, counterpart kind, counterpart
    name), or (kind, data group) under ``DedupMode.COSMIC``. An ``Endpoint``
    in the key would hash through its dataclass ``__hash__``, in Python.
    """
    first: dict[tuple, int] = {}
    if dedup is DedupMode.ENDPOINT:
        for position, movement in enumerate(process.movements):
            cp = movement.counterpart
            first.setdefault((movement.kind, movement.data_group, cp.kind, cp.name), position)
    else:
        for position, movement in enumerate(process.movements):
            first.setdefault((movement.kind, movement.data_group), position)
    return list(first.values())


def unique_movements(
    process: FunctionalProcess, dedup: DedupMode = DedupMode.ENDPOINT
) -> list[DataMovement]:
    """The countable movements of a process, first occurrence order."""
    return [process.movements[i] for i in _first_occurrences(process, dedup)]


# The report's records. tally maps every MovementKind, in KIND_ORDER, to its
# count; the percents are percent() strings; per_process and per_layer are
# tuples in declaration order.
ProcessMeasure = namedtuple("ProcessMeasure", "name layer nature qcfp tally")
LayerMeasure = namedtuple("LayerMeasure", "name nature qcfp")
Totals = namedtuple(
    "Totals", "total_qcfp classical_qcfp quantum_qcfp classical_percent quantum_percent"
)
MeasurementReport = namedtuple(
    "MeasurementReport", "system_name per_process per_layer totals cfpv5_equivalent"
)


def percent(part: int, total: int) -> str:
    """Share of ``total`` as a percentage string with one decimal, half-up.

    ``part`` and ``total`` are counts with ``0 <= part <= total``.
    """
    if total == 0:
        return "0.0"
    tenths, rest = divmod(1000 * part, total)
    if 2 * rest >= total:
        tenths += 1
    return f"{tenths // 10}.{tenths % 10}"


def measure_system(model: Model, dedup: DedupMode = DedupMode.ENDPOINT) -> MeasurementReport:
    """Measure a validated model; refuses when validation errors exist."""
    diagnostics = validate(model)
    if has_errors(diagnostics):
        raise UnvalidatedModelError(diagnostics)

    per_process = []
    layer_totals = {layer.name: 0 for layer in model.layers}  # S2 refused a repeated name
    quantum_qcfp = 0
    for process in model.processes:
        layer, _, counterparts = _resolution(process, model)
        unique = _first_occurrences(process, dedup)
        tally = {kind: 0 for kind in KIND_ORDER}
        for position in unique:
            kind = process.movements[position].kind
            far = counterparts[position][1]
            tally[kind] += 1
            charged = layer  # the per-layer rule of the module docstring
            if kind in QUANTUM_KINDS:
                quantum_qcfp += 1
            elif layer.nature is Nature.QUANTUM and far is not None and far.nature is Nature.CLASSICAL:
                charged = far
            layer_totals[charged.name] += 1
        nature = process_nature(process, model)
        per_process.append(ProcessMeasure(process.name, process.layer, nature, len(unique), tally))
    total_qcfp = sum(p.qcfp for p in per_process)
    classical_qcfp = total_qcfp - quantum_qcfp
    per_layer = tuple(
        LayerMeasure(layer.name, layer.nature, layer_totals[layer.name]) for layer in model.layers
    )
    return MeasurementReport(
        system_name=model.name,
        per_process=tuple(per_process),
        per_layer=per_layer,
        totals=Totals(
            total_qcfp=total_qcfp,
            classical_qcfp=classical_qcfp,
            quantum_qcfp=quantum_qcfp,
            classical_percent=percent(classical_qcfp, total_qcfp),
            quantum_percent=percent(quantum_qcfp, total_qcfp),
        ),
        cfpv5_equivalent=system_nature(model) is Nature.CLASSICAL,
    )
