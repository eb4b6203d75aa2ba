"""Whole-CLI fuzzing: hostile texts, random models and token-level mutants through every command.

Every run must end in a defined exit code with no traceback and no internal
error. Where a run succeeds, the JSON totals must add up and `fmt` output
must re-parse to the same model and be its own canonical form.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from qcosmic import format_model, parse_model
from qcosmic.cli import main
from gen import hostile_texts, mutated_texts, random_model

COMMANDS = (
    ("check",),
    ("measure",),
    ("measure", "--format", "json"),
    ("measure", "--format", "csv", "--by-layer"),
    ("measure", "--by-layer", "--dedup", "cosmic"),
    ("diagram",),
    ("diagram", "--scope"),
    ("fmt",),
)


def _texts() -> list[str]:
    rng = random.Random(29)
    rendered = [format_model(random_model(rng)) for _ in range(50)]
    # cut points land inside strings, keywords and blocks alike
    truncated = [text[: rng.randrange(len(text))] for text in rendered[:25]]
    # every declared nature quantum: rule errors instead of a clean model
    flipped = [text.replace(" classical", " quantum") for text in rendered[25:]]
    # token-level edits reach the parser's recovery paths past the system header
    return hostile_texts() + rendered + truncated + flipped + mutated_texts(seed=43, count=150)


TEXTS = _texts()


def _scope(text: str) -> str:
    model = parse_model(text).model
    return model.processes[0].name if model is not None and model.processes else "none"


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_every_input_ends_in_a_defined_result(tmp_path, command):
    source = tmp_path / "model.qcm"
    for text in TEXTS:
        source.write_text(text, encoding="utf-8")
        argv = [command[0], str(source), *command[1:]]
        if command[-1] == "--scope":
            argv.append(_scope(text))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stdout, stderr = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3), (argv, text, stderr)
        assert "Traceback" not in stderr and "internal error" not in stderr, (text, stderr)
        if code != 0:
            assert stdout == "", text
        elif command == ("measure", "--format", "json"):
            report = json.loads(stdout)
            assert report["total_qcfp"] == report["classical_qcfp"] + report["quantum_qcfp"]
            assert report["total_qcfp"] == sum(p["qcfp"] for p in report["processes"])
        elif command == ("fmt",):
            reparsed = parse_model(stdout).model
            assert reparsed == parse_model(text).model, text
            assert format_model(reparsed) == stdout
