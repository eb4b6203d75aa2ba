"""The public surface: every exported name exists, and the CLI loads only what it uses.

The CLI and the parser also run under ``python -I -S``: no site-packages and
no ``PYTHON*`` variables, so an import of any third-party package fails and
only ``src`` (and ``bench`` for its corpus) is on ``sys.path``.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import shlex
import subprocess
import sys

import pytest

import qcosmic
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
