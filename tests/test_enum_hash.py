"""The stages after parsing hash no enum member through Python code.

``enum.Enum.__hash__`` is a Python function. The model's enums hash by
identity instead, and the dedup keys are flat tuples, so validation,
counting and rendering never call it, however many movements a model has.
"""

from __future__ import annotations

import dataclasses
import enum
import random

import pytest

from qcosmic import (
    DedupMode,
    RenderOptions,
    format_model,
    measure_system,
    parse_model,
    render_csv,
    render_dot,
    render_json,
    render_text,
    validate,
)
from qcosmic.diagnostics import has_errors
from conftest import load_fixture
from gen import random_model


def _models():
    models = [parse_model(load_fixture("factoring.qcm")).model]
    models += [random_model(random.Random(seed), max_processes=6) for seed in range(40)]
    return models


def _stages(model) -> dict:
    """Each post-parse stage as a thunk on a fresh copy of ``model`` (empty memo)."""
    report = measure_system(dataclasses.replace(model))
    model = dataclasses.replace(model)
    stages = {
        "validate": lambda: validate(model),
        "measure endpoint": lambda: measure_system(model),
        "measure cosmic": lambda: measure_system(model, DedupMode.COSMIC),
        "render text/json/csv": lambda: [
            render(report) for render in (render_text, render_json, render_csv)
        ],
        "render_dot": lambda: render_dot(model),
        "format_model": lambda: format_model(model),
    }
    for process in model.processes:
        stages[f"render_dot scope {process.name!r}"] = (
            lambda name=process.name: render_dot(model, RenderOptions(scope=name))
        )
    return stages


@pytest.fixture
def enum_hashes(monkeypatch) -> list[int]:
    """``[calls]``: calls of ``enum.Enum.__hash__`` while the test runs."""
    calls = [0]
    original = enum.Enum.__hash__

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(enum.Enum, "__hash__", counted)
    return calls


def test_no_python_level_enum_hash_after_parsing(enum_hashes):
    models = _models()
    assert all(not has_errors(validate(dataclasses.replace(m))) for m in models)
    counts: dict[str, int] = {}
    for model in models:
        for name, run in _stages(model).items():
            enum_hashes[0] = 0
            run()
            key = name.split(" scope")[0]
            counts[key] = counts.get(key, 0) + enum_hashes[0]
    assert counts == dict.fromkeys(counts, 0)


def test_the_counter_sees_python_level_hashing(enum_hashes):
    class Plain(enum.Enum):
        A = "a"

    {Plain.A}
    assert enum_hashes[0] == 1
