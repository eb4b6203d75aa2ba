"""Byte-identical CLI output on every fixture, against a committed capture.

`golden/cli_fixtures.json` holds the exit code, stdout and stderr of
`cli.main` for each fixture under each command below, and for
``diagram --scope`` of every process that a validating fixture declares.
The fixture
directory is written as ``<fixtures>`` in stderr, so the capture does not
depend on where the repository lives. To refresh it after an intended
output change, run ``PYTHONPATH=src python tests/test_golden_cli.py``
and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from qcosmic import parse_model, validate
from qcosmic.cli import main
from qcosmic.diagnostics import has_errors
from conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_fixtures.json"

COMMANDS = (
    ("check",),
    ("measure",),
    ("measure", "--format", "json"),
    ("measure", "--format", "csv", "--by-layer"),
    ("measure", "--by-layer", "--dedup", "cosmic"),
    ("diagram",),
    ("fmt",),
)


def run_cli(command: tuple[str, ...], name: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(FIXTURES / name), *command[1:]])
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue().replace(str(FIXTURES), "<fixtures>"),
    }


def scoped_commands(path: Path) -> list[tuple[str, ...]]:
    """``diagram --scope`` for each declared process, when the fixture validates."""
    model = parse_model(path.read_text(encoding="utf-8")).model
    if model is None or has_errors(validate(model)):
        return []
    return [("diagram", "--scope", process.name) for process in model.processes]


def cases() -> list[tuple[str, tuple[str, ...], str]]:
    """(key, command, fixture name) for every fixture under every command."""
    return [
        (f"{' '.join(command)} {path.name}", command, path.name)
        for path in sorted(FIXTURES.glob("*.qcm"))
        for command in COMMANDS + tuple(scoped_commands(path))
    ]


def capture() -> dict:
    return {key: run_cli(command, name) for key, command, name in cases()}


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_capture_covers_every_fixture_and_command():
    assert set(GOLDEN_ENTRIES) == {key for key, _, _ in cases()}


@pytest.mark.parametrize("key, command, name", cases(), ids=[key for key, _, _ in cases()])
def test_cli_output_matches_capture(key, command, name):
    assert run_cli(command, name) == GOLDEN_ENTRIES[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
