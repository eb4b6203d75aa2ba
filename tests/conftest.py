from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from qcosmic import Model, parse_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def bench_corpus():
    """``bench/corpus.py``, the benchmark's model generator, loaded by path."""
    path = FIXTURES.parent / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def factoring_text() -> str:
    return load_fixture("factoring.qcm")


@pytest.fixture(scope="session")
def factoring_model(factoring_text) -> Model:
    result = parse_model(factoring_text, file="factoring.qcm")
    assert result.model is not None, [d.render() for d in result.diagnostics]
    return result.model
