"""qcosmic: functional size measurement for hybrid classical/quantum software.

Parses textual system models (``.qcm``), validates them against a stable
rule catalog, and counts functional size in QCFP (one point per unique data
movement, classical or quantum) with per-process, per-layer, and
classical/quantum breakdowns.
"""

from .diagnostics import Diagnostic, Severity, Span
from .emit import RenderOptions, render_csv, render_dot, render_json, render_text
from .formatter import format_model
from .measure import (
    DedupMode,
    LayerMeasure,
    MeasurementReport,
    ProcessMeasure,
    Totals,
    UnvalidatedModelError,
    measure_system,
    unique_movements,
)
from .model import (
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
    UnresolvedReferenceError,
    data_group_nature,
    process_nature,
    system_nature,
)
from .parser import ParseResult, TokenKind, parse_model, tokenize
from .rules import validate

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "Conversion",
    "DataGroup",
    "DataMovement",
    "DedupMode",
    "Diagnostic",
    "Endpoint",
    "EndpointKind",
    "FunctionalProcess",
    "FunctionalUser",
    "Layer",
    "LayerMeasure",
    "MeasurementReport",
    "Model",
    "MovementKind",
    "Nature",
    "ParseResult",
    "PersistentStorage",
    "ProcessMeasure",
    "RenderOptions",
    "Severity",
    "Span",
    "TokenKind",
    "Totals",
    "UnresolvedReferenceError",
    "UnvalidatedModelError",
    "data_group_nature",
    "format_model",
    "measure_system",
    "parse_model",
    "process_nature",
    "render_csv",
    "render_dot",
    "render_json",
    "render_text",
    "system_nature",
    "tokenize",
    "unique_movements",
    "validate",
    "__version__",
]
