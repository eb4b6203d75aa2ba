"""qcosmic: functional size measurement for hybrid classical/quantum software.

Parses textual system models (``.qcm``), validates them against a stable
rule catalog, and counts functional size in QCFP (one point per unique data
movement, classical or quantum) with per-process, per-layer, and
classical/quantum breakdowns.

``import qcosmic`` loads none of the modules below. Each public name, and
each of these modules by its own name, is imported on first use (PEP 562)
and then kept here, so ``from qcosmic import X`` gives the defining
module's object.
"""

__version__ = "0.1.0"

# each module, and the public names the package re-exports from it
_EXPORTS = {
    "diagnostics": ("Diagnostic", "Severity", "Span"),
    "emit": ("RenderOptions", "render_csv", "render_dot", "render_json", "render_text"),
    "formatter": ("format_model",),
    "measure": (
        "DedupMode", "LayerMeasure", "MeasurementReport", "ProcessMeasure", "Totals",
        "UnvalidatedModelError", "measure_system", "unique_movements",
    ),
    "model": (
        "Attribute", "Conversion", "DataGroup", "DataMovement", "Endpoint", "EndpointKind",
        "FunctionalProcess", "FunctionalUser", "Layer", "Model", "MovementKind", "Nature",
        "PersistentStorage", "UnresolvedReferenceError", "data_group_nature",
        "process_nature", "system_nature",
    ),
    "parser": ("ParseResult", "TokenKind", "parse_model", "tokenize"),
    "rules": ("validate",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    # imported here, so that `import qcosmic` itself loads nothing more
    from importlib import import_module

    if name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
