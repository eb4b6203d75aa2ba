"""The public surface: every exported name exists, the plain records keep their
contract, and the package and the CLI load only what they use.

The CLI and the parser also run under ``python -I -S``: no site-packages and
no ``PYTHON*`` variables, so an import of any third-party package fails and
only ``src`` (and ``bench`` for its corpus) is on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import pkgutil
import shlex
import subprocess
import sys

import pytest

import qcosmic
from qcosmic import (
    LayerMeasure,
    MeasurementReport,
    MovementKind,
    Nature,
    ParseResult,
    ProcessMeasure,
    RenderOptions,
    Span,
    Totals,
)
from qcosmic.diagnostics import error
from conftest import FIXTURES
from test_golden_cli import GOLDEN_ENTRIES, cases

SRC = FIXTURES.parent / "src"
BENCH = FIXTURES.parent / "bench"
MODULES = ["qcosmic"] + [
    f"qcosmic.{info.name}" for info in pkgutil.iter_modules(qcosmic.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


PACKAGE_EXPORTS = [
    "Attribute", "Conversion", "DataGroup", "DataMovement", "DedupMode", "Diagnostic",
    "Endpoint", "EndpointKind", "FunctionalProcess", "FunctionalUser", "Layer",
    "LayerMeasure", "MeasurementReport", "Model", "MovementKind", "Nature", "ParseResult",
    "PersistentStorage", "ProcessMeasure", "RenderOptions", "Severity", "Span", "TokenKind",
    "Totals", "UnresolvedReferenceError", "UnvalidatedModelError", "data_group_nature",
    "format_model", "measure_system", "parse_model", "process_nature", "render_csv",
    "render_dot", "render_json", "render_text", "system_nature", "tokenize",
    "unique_movements", "validate", "__version__",
]


def test_package_exports_are_the_defining_modules_objects():
    assert qcosmic.__all__ == PACKAGE_EXPORTS
    for name in PACKAGE_EXPORTS[:-1]:
        value = getattr(qcosmic, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("qcosmic.") and getattr(home, name) is value, name
    assert set(PACKAGE_EXPORTS) <= set(dir(qcosmic))
    namespace = {}
    exec("from qcosmic import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(PACKAGE_EXPORTS)
    with pytest.raises(AttributeError, match="^module 'qcosmic' has no attribute 'nope'$"):
        qcosmic.nope


_PROCESS = ProcessMeasure("p", "l", Nature.QUANTUM, 2, {MovementKind.E: 1, MovementKind.QX: 1})
_LAYER = LayerMeasure("l", Nature.CLASSICAL, 3)
_TOTALS = Totals(4, 3, 1, "75.0", "25.0")
_FINDING = error("S1", "expected '}'", "s", Span("a.qcm", 2, 5))

# record, its fields in order with sample values, another value per field, the sample's repr
RECORDS = [
    (ProcessMeasure, {
        "name": "p", "layer": "l", "nature": Nature.QUANTUM, "qcfp": 2,
        "tally": {MovementKind.E: 1, MovementKind.QX: 1},
    }, {
        "name": "q", "layer": "k", "nature": Nature.CLASSICAL, "qcfp": 1,
        "tally": {MovementKind.E: 1},
    }, "ProcessMeasure(name='p', layer='l', nature=<Nature.QUANTUM: 'quantum'>, qcfp=2, "
       "tally={<MovementKind.E: 'E'>: 1, <MovementKind.QX: 'QX'>: 1})"),
    (LayerMeasure, {"name": "l", "nature": Nature.CLASSICAL, "qcfp": 3},
     {"name": "m", "nature": Nature.QUANTUM, "qcfp": 0},
     "LayerMeasure(name='l', nature=<Nature.CLASSICAL: 'classical'>, qcfp=3)"),
    (Totals, {
        "total_qcfp": 4, "classical_qcfp": 3, "quantum_qcfp": 1,
        "classical_percent": "75.0", "quantum_percent": "25.0",
    }, {
        "total_qcfp": 5, "classical_qcfp": 4, "quantum_qcfp": 2,
        "classical_percent": "80.0", "quantum_percent": "20.0",
    }, "Totals(total_qcfp=4, classical_qcfp=3, quantum_qcfp=1, "
       "classical_percent='75.0', quantum_percent='25.0')"),
    (MeasurementReport, {
        "system_name": "s", "per_process": (_PROCESS,), "per_layer": (_LAYER,),
        "totals": _TOTALS, "cfpv5_equivalent": False,
    }, {
        "system_name": "t", "per_process": (), "per_layer": (),
        "totals": Totals(0, 3, 1, "75.0", "25.0"), "cfpv5_equivalent": True,
    }, "MeasurementReport(system_name='s', per_process=(ProcessMeasure(name='p', layer='l', "
       "nature=<Nature.QUANTUM: 'quantum'>, qcfp=2, tally={<MovementKind.E: 'E'>: 1, "
       "<MovementKind.QX: 'QX'>: 1}),), per_layer=(LayerMeasure(name='l', "
       "nature=<Nature.CLASSICAL: 'classical'>, qcfp=3),), totals=Totals(total_qcfp=4, "
       "classical_qcfp=3, quantum_qcfp=1, classical_percent='75.0', quantum_percent='25.0'), "
       "cfpv5_equivalent=False)"),
    (RenderOptions, {"by_layer": True, "scope": "p"}, {"by_layer": False, "scope": None},
     "RenderOptions(by_layer=True, scope='p')"),
    (ParseResult, {"model": None, "diagnostics": [_FINDING]},
     {"model": qcosmic.Model("m"), "diagnostics": []},
     "ParseResult(model=None, diagnostics=[Diagnostic(severity=<Severity.ERROR: 'error'>, "
     "code='S1', message=\"expected '}'\", subject='s', span=Span(file='a.qcm', line=2, "
     "column=5, length=0))])"),
]


@pytest.mark.parametrize(
    "record, values, others, text", RECORDS, ids=[record.__name__ for record, *_ in RECORDS]
)
class TestRecords:
    """Each plain record is built by keyword or in field order, read by attribute,
    compared by value and shown by its repr."""

    def test_keyword_construction_follows_field_order(self, record, values, others, text):
        assert record(**values) == record(*values.values())

    def test_attributes(self, record, values, others, text):
        sample = record(**values)
        assert {name: getattr(sample, name) for name in values} == values

    def test_equal_by_value_and_unequal_when_one_field_differs(self, record, values, others, text):
        assert record(**values) == record(**dict(values))
        for name in values:
            assert record(**{**values, name: others[name]}) != record(**values), name

    def test_repr(self, record, values, others, text):
        assert repr(record(**values)) == text


@pytest.mark.parametrize(
    "record, values, others", [(r, v, o) for r, v, o, _ in RECORDS],
    ids=[record.__name__ for record, *_ in RECORDS],
)
def test_record_assignment_raises(record, values, others):
    sample = record(**values)
    for name in values:
        with pytest.raises(AttributeError):
            setattr(sample, name, others[name])
    assert sample == record(**values)


def test_default_render_options():
    assert RenderOptions() == RenderOptions(by_layer=False, scope=None)


def test_dataclasses_are_the_model_classes_span_and_diagnostic():
    """Each dataclass costs about 1 ms of import; the plain records are named tuples."""
    defined = {
        f"{name}.{attr}"
        for name in MODULES
        for attr, value in vars(importlib.import_module(name)).items()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
        and value.__module__ == name
    }
    assert defined == {
        "qcosmic.diagnostics.Diagnostic",
        "qcosmic.diagnostics.Span",
        *(f"qcosmic.model.{name}" for name in (
            "Attribute", "DataGroup", "DataMovement", "Endpoint", "FunctionalProcess",
            "FunctionalUser", "Layer", "Model", "PersistentStorage",
        )),
    }


def test_cli_import_does_not_load_typing():
    probe = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}]; import qcosmic.cli; "
        "print('typing' in sys.modules, 'pathlib' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False\n"


_STAGES = [f"qcosmic.{name}" for name in (
    "diagnostics", "emit", "formatter", "measure", "model", "parser", "rules",
)]


@pytest.mark.parametrize("statement, loaded", [
    ("import qcosmic", ["qcosmic"]),
    ("from qcosmic import parse_model",
     ["qcosmic", "qcosmic.diagnostics", "qcosmic.model", "qcosmic.parser"]),
    ("import qcosmic; qcosmic.model", ["qcosmic", "qcosmic.diagnostics", "qcosmic.model"]),
    ("import qcosmic.cli", ["csv", "json", "qcosmic", "qcosmic.cli", *_STAGES]),
])
def test_package_loads_only_what_is_used(statement, loaded):
    probe = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}]; {statement}; "
        "print(*sorted(name for name in sys.modules "
        "if name in ('csv', 'json') or name.partition('.')[0] == 'qcosmic'))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == loaded


def _bare(code: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """``code`` run by ``python -I -S -c`` with ``args``."""
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, *args], capture_output=True, timeout=60, **kwargs
    )


# each argv list read from stdin through cli.main, streams captured as in run_cli
_REPLAY = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1]]
from qcosmic.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(results, sys.stdout)
"""


def test_cli_replays_the_golden_without_site_packages():
    keyed = [
        (key, [command[0], str(FIXTURES / name), *command[1:]]) for key, command, name in cases()
    ]
    result = _bare(_REPLAY, str(SRC), input=json.dumps([argv for _, argv in keyed]).encode())
    assert result.returncode == 0, result.stderr.decode()
    for (key, _), replayed in zip(keyed, json.loads(result.stdout), strict=True):
        replayed["stderr"] = replayed["stderr"].replace(str(FIXTURES), "<fixtures>")
        assert replayed == GOLDEN_ENTRIES[key], key


# the CLI as its own process, writing its report through sys.stdout.buffer
_MAIN = (
    "import sys; sys.path[:0] = [sys.argv.pop(1)]; from qcosmic.cli import main; "
    "sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "command, name, code",
    [
        ("measure", "factoring.qcm", 0),
        ("check", "bad_syntax.qcm", 2),
        ("measure", "nonexistent.qcm", 3),
    ],
)
def test_cli_process_without_site_packages(command, name, code):
    result = _bare(_MAIN, str(SRC), command, str(FIXTURES / name))
    assert result.returncode == code, result.stderr.decode()
    golden = GOLDEN_ENTRIES.get(f"{command} {name}", {"stdout": ""})
    assert result.stdout == golden["stdout"].encode("utf-8")
    if "stderr" in golden:
        stderr = result.stderr.decode("utf-8").replace(str(FIXTURES), "<fixtures>")
        assert stderr == golden["stderr"]


@pytest.mark.parametrize("argv, redirect", [
    (("check", "bad_r4.qcm"), "2>&-"),
    (("check", "bad_r4.qcm"), "2>/dev/full"),
    (("measure", "factoring.qcm"), ">/dev/full"),
    (("measure", "factoring.qcm"), ">&-"),
    (("--help",), ">/dev/full"),
], ids=["stderr-closed", "stderr-full", "stdout-full", "stdout-closed", "help-stdout-full"])
def test_failed_standard_stream_exits_three(argv, redirect):
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    argv = [str(FIXTURES / arg) if arg.endswith(".qcm") else arg for arg in argv]
    command = shlex.join([sys.executable, "-I", "-S", "-c", _MAIN, str(SRC), *argv])
    result = subprocess.run(["sh", "-c", f"{command} {redirect}"], capture_output=True, timeout=60)
    assert result.returncode == 3, result.stderr
    # nothing crosses to stdout, and Python's exit has no buffer left to fail on
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert b"Exception ignored" not in result.stderr
    assert result.stderr == b"" or (
        result.stderr.startswith(b"qcosmic: ") and len(result.stderr.splitlines()) == 1
    )


# Ctrl-C at a fixed point while qcosmic loads: a finder that raises
# KeyboardInterrupt when the module named by argv[2] is looked up, then one of
# the CLI's two entry forms, `python -m qcosmic.cli` and the console script's
# import of main
_INTERRUPTED = """
import sys
sys.path[:0] = [sys.argv.pop(1)]
loading = sys.argv.pop(1)

class Interrupt:
    @staticmethod
    def find_spec(name, *args):
        if name == loading:
            raise KeyboardInterrupt
        return None

sys.meta_path.insert(0, Interrupt)
"""
_ENTRY_FORMS = {
    "run-module": "import runpy; runpy.run_module('qcosmic.cli', run_name='__main__')",
    "console-script": "from qcosmic.cli import main; sys.exit(main())",
}


@pytest.mark.parametrize("form", _ENTRY_FORMS)
@pytest.mark.parametrize("loading", ["__future__", "argparse", *_STAGES])
def test_interrupt_while_loading_exits_130(loading, form):
    result = _bare(
        _INTERRUPTED + _ENTRY_FORMS[form], str(SRC), loading, "check", str(FIXTURES / "factoring.qcm")
    )
    assert result.returncode == 130, result.stderr
    assert result.stdout == b""
    assert result.stderr == b"qcosmic: interrupted\n"


@pytest.mark.parametrize("form", _ENTRY_FORMS)
@pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"])
def test_interrupt_while_loading_with_failed_stderr_exits_130(redirect, form):
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    code = _INTERRUPTED + _ENTRY_FORMS[form]
    argv = [sys.executable, "-I", "-S", "-c", code, str(SRC), "qcosmic.rules", "check",
            str(FIXTURES / "factoring.qcm")]
    # exec: the status is Python's own, not the shell's 130 for a death by SIGINT
    result = subprocess.run(
        ["sh", "-c", f"exec {shlex.join(argv)} {redirect}"], capture_output=True, timeout=60
    )
    assert result.returncode == 130, result.stderr
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert b"Exception ignored" not in result.stderr


_ROUND_TRIP = """
import sys
sys.path[:0] = sys.argv[1:]
import corpus
from qcosmic import format_model, parse_model
for build in (corpus.resolve_model, corpus.text_model):
    generated = build(3, 16)
    model = parse_model(generated.source).model
    assert model is not None, build.__name__
    assert format_model(model) == generated.canonical, build.__name__
"""


def test_benchmark_models_round_trip_without_site_packages():
    result = _bare(_ROUND_TRIP, str(SRC), str(BENCH))
    assert result.returncode == 0, result.stderr.decode()
