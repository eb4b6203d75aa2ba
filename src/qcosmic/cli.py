"""Command-line interface: parse, check, measure, diagram, format.

Exit codes are stable for CI use:

  0  success, no validation errors (warnings allowed)
  1  validation errors found
  2  parse or lexical failure
  3  usage or I/O error, including input that is not valid UTF-8
  4  internal error: a fault in qcosmic itself, never reported as 0 or 1
  130  interrupted (Ctrl-C), reported as one line on stderr

Reports go to stdout (or the ``-o`` file); diagnostics go to stderr. The
two streams never carry each other's content. A report on stdout is UTF-8,
byte-identical to the ``-o`` file, whatever the locale's encoding.
"""

from __future__ import annotations

import argparse
import sys

from .diagnostics import Diagnostic, has_errors, render_all, sort_key
from .emit import RenderOptions, render_csv, render_dot, render_json, render_text
from .formatter import format_model
from .measure import DedupMode, measure_system
from .model import Model, UnresolvedReferenceError
from .parser import parse_model
from .rules import validate

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


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
        choices=["endpoint", "cosmic"],
        default="endpoint",
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
        print(render_all(sorted(diagnostics, key=sort_key)), file=sys.stderr)


def _write_output(text: str, output: str | None) -> None:
    data = text.encode("utf-8")
    if output is not None:
        with open(output, "wb") as file:
            file.write(data)
    elif hasattr(sys.stdout, "buffer"):
        # past the text layer, whose encoding may not hold every name
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:
        sys.stdout.write(text)


def _load(path: str) -> tuple[Model | None, list[Diagnostic], int]:
    """Parse the input file; on failure the exit code is already decided."""
    try:
        text = _read_input(path)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"qcosmic: cannot read {path}: {reason}", file=sys.stderr)
        return None, [], EXIT_USAGE
    result = parse_model(text, file=path)
    if result.model is None:
        _emit_diagnostics(result.diagnostics)
        return None, [], EXIT_PARSE
    return result.model, result.diagnostics, EXIT_OK


def _load_valid(path: str) -> tuple[Model | None, int]:
    """Parse and validate the input file; the model is None unless it is error-free."""
    model, parse_diags, code = _load(path)
    if model is None:
        return None, code
    diagnostics = parse_diags + validate(model)
    _emit_diagnostics(diagnostics)
    if has_errors(diagnostics):
        return None, EXIT_VALIDATION
    return model, EXIT_OK


def _run_check(args) -> int:
    return _load_valid(args.input)[1]


def _run_measure(args) -> int:
    model, code = _load_valid(args.input)
    if model is None:
        return code
    report = measure_system(model, dedup=DedupMode(args.dedup))
    if args.format == "json":
        text = render_json(report)
    elif args.format == "csv":
        text = render_csv(report)
    else:
        text = render_text(report, RenderOptions(by_layer=args.by_layer))
    _write_output(text, args.output)
    return EXIT_OK


def _run_diagram(args) -> int:
    model, code = _load_valid(args.input)
    if model is None:
        return code
    try:
        text = render_dot(model, RenderOptions(scope=args.scope))
    except UnresolvedReferenceError as exc:
        print(f"qcosmic: --scope: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(text, args.output)
    return EXIT_OK


def _run_fmt(args) -> int:
    model, parse_diags, code = _load(args.input)
    if model is None:
        return code
    _emit_diagnostics(parse_diags)
    _write_output(format_model(model), args.output)
    return EXIT_OK


_COMMANDS = {
    "check": _run_check,
    "measure": _run_measure,
    "diagram": _run_diagram,
    "fmt": _run_fmt,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"qcosmic: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"qcosmic: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("qcosmic: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:
        # CI reads 0 as clean and 1 as validation errors; a fault in qcosmic
        # must not pass for either, nor end in a traceback
        print(f"qcosmic: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
