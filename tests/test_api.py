"""The public surface: every exported name exists, and the CLI loads only what it uses."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

import pytest

import qcosmic
from conftest import FIXTURES

SRC = FIXTURES.parent / "src"
MODULES = ["qcosmic"] + [
    f"qcosmic.{info.name}" for info in pkgutil.iter_modules(qcosmic.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_cli_import_does_not_load_typing():
    # -I -S: no site-packages and no PYTHON* variables, as in the bare CI step
    probe = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}]; import qcosmic.cli; "
        "print('typing' in sys.modules, 'pathlib' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False\n"
