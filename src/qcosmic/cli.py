"""Command-line interface: parse, check, measure, diagram, format.

Exit codes are stable for CI use:

  0  success, no validation errors (warnings allowed)
  1  validation errors found
  2  parse or lexical failure
  3  usage or I/O error, including input that is not valid UTF-8 and a closed
     or unwritable stdout or stderr, even when validation errors were found
  4  internal error: a fault in qcosmic itself, never reported as 0 or 1
  130  interrupted (Ctrl-C), reported as one line on stderr, also while the
       command's modules are still loading

Reports go to stdout (or the ``-o`` file); diagnostics go to stderr. The
two streams never carry each other's content. A report on stdout is UTF-8,
byte-identical to the ``-o`` file, whatever the locale's encoding.
"""

import os
import sys

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


def _report(message: str, code: int) -> int:
    """Write ``message`` to stderr if it can still take it, and return ``code``.

    A stream that cannot be written gets the null device, so the flush at
    exit has nothing to fail on.
    """
    for stream, text in ((sys.stderr, message + "\n"), (sys.stdout, "")):
        if stream is not None:
            try:
                stream.write(text)
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


# Ctrl-C while these load ends as it does once main runs. The stage names stay
# module attributes: main calls them through this module's globals, where the
# benchmark's tracer wraps them.
try:
    import argparse

    from .diagnostics import Diagnostic, has_errors, render_all, sort_key
    from .emit import RenderOptions, render_csv, render_dot, render_json, render_text
    from .formatter import format_model
    from .measure import DedupMode, measure_system
    from .model import Model, UnresolvedReferenceError
    from .parser import parse_model
    from .rules import validate
except KeyboardInterrupt:
    raise SystemExit(_report("qcosmic: interrupted", EXIT_INTERRUPTED))

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Stop(Exception):
    """The diagnostics are written; ``main`` exits with the code in ``args[0]``."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        sys.stdout.flush()  # after --help: help that cannot be written is an I/O error
        super().exit(status, message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="qcosmic",
        description="Functional size measurement for hybrid classical/quantum software models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a model and report diagnostics")
    check.add_argument("input", help="path to a .qcm model file")

    measure = sub.add_parser("measure", help="measure a model and print the QCFP report")
    measure.add_argument("input", help="path to a .qcm model file")
    measure.add_argument(
        "--format",
        choices=["text", "json", "csv"],
        default="text",
        help="report format (default: text)",
    )
    measure.add_argument(
        "--dedup",
        choices=[mode.value for mode in DedupMode],
        default=DedupMode.ENDPOINT.value,
        help="movement de-duplication key: include the counterpart (endpoint) "
        "or collapse on kind and data group alone (cosmic)",
    )
    measure.add_argument(
        "--by-layer",
        action="store_true",
        help="add the per-layer table to the text report (JSON always has layers; CSV has none)",
    )
    measure.add_argument("-o", "--output", help="write the report to a file instead of stdout")

    diagram = sub.add_parser("diagram", help="emit a DOT context diagram")
    diagram.add_argument("input", help="path to a .qcm model file")
    diagram.add_argument("--format", choices=["dot"], default="dot", help="diagram format")
    diagram.add_argument("--scope", help="diagram a single functional process")
    diagram.add_argument("-o", "--output", help="write the diagram to a file instead of stdout")

    fmt = sub.add_parser("fmt", help="print the model in canonical form")
    fmt.add_argument("input", help="path to a .qcm model file")
    fmt.add_argument("-o", "--output", help="write the formatted model to a file instead of stdout")

    return parser


def _read_input(path: str) -> str:
    with open(path, encoding="utf-8-sig") as file:
        return file.read()


def _emit_diagnostics(diagnostics: list[Diagnostic]) -> None:
    if diagnostics:
        print(render_all(sorted(diagnostics, key=sort_key)), file=sys.stderr, flush=True)


def _write_output(text: str, output: str | None) -> None:
    data = text.encode("utf-8")
    if output is not None:
        with open(output, "wb") as file:
            file.write(data)
    elif hasattr(sys.stdout, "buffer"):
        # past the text layer, whose encoding may not hold every name
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(text)


def _load(path: str) -> tuple[Model, list[Diagnostic]]:
    """Parse the input file into its model and parse diagnostics."""
    try:
        text = _read_input(path)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _UsageError(f"cannot read {path}: {reason}")
    result = parse_model(text, file=path)
    if result.model is None:
        _emit_diagnostics(result.diagnostics)
        raise _Stop(EXIT_PARSE)
    return result.model, result.diagnostics


def _load_valid(path: str) -> Model:
    """Parse and validate the input file, writing its diagnostics; the model is error-free."""
    model, diagnostics = _load(path)
    diagnostics += validate(model)
    _emit_diagnostics(diagnostics)
    if has_errors(diagnostics):
        raise _Stop(EXIT_VALIDATION)
    return model


def _run_check(args) -> None:
    _load_valid(args.input)


def _run_measure(args) -> None:
    model = _load_valid(args.input)
    report = measure_system(model, dedup=DedupMode(args.dedup))
    if args.format == "json":
        text = render_json(report)
    elif args.format == "csv":
        text = render_csv(report)
    else:
        text = render_text(report, RenderOptions(by_layer=args.by_layer))
    _write_output(text, args.output)


def _run_diagram(args) -> None:
    model = _load_valid(args.input)
    try:
        text = render_dot(model, RenderOptions(scope=args.scope))
    except UnresolvedReferenceError as exc:
        raise _UsageError(f"--scope: {exc}")
    _write_output(text, args.output)


def _run_fmt(args) -> None:
    model, diagnostics = _load(args.input)
    _emit_diagnostics(diagnostics)
    _write_output(format_model(model), args.output)


_COMMANDS = {
    "check": _run_check,
    "measure": _run_measure,
    "diagram": _run_diagram,
    "fmt": _run_fmt,
}


def main(argv: list[str] | None = None) -> int:
    try:
        if sys.stdout is None or sys.stderr is None:
            raise _UsageError("standard output or error is closed")
        args = _build_parser().parse_args(argv)
        _COMMANDS[args.command](args)
        return EXIT_OK
    except _Stop as stop:
        return stop.args[0]
    except (_UsageError, OSError) as exc:
        message, code = f"qcosmic: {exc}", EXIT_USAGE
    except KeyboardInterrupt:
        message, code = "qcosmic: interrupted", EXIT_INTERRUPTED
    except Exception as exc:
        # CI reads 0 as clean and 1 as validation errors; a fault in qcosmic
        # must not pass for either, nor end in a traceback
        message, code = f"qcosmic: internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    return _report(message, code)


if __name__ == "__main__":
    raise SystemExit(main())
