"""Parser diagnostics and spans on mutated models, against a committed capture.

`golden/parse_recovery.json` holds, for every text of the corpus below,
each `parse_model` diagnostic as (severity, code, message, subject, line,
column, length), and, when the text parses, the span of every declaration
and movement. The corpus is the hand-written recovery seeds, token-level
mutants of the fixtures and of rendered random models, and the hostile
pool, so it walks the parser's recovery paths. To refresh the capture
after an intended change, run ``PYTHONPATH=src python tests/test_golden_parse.py``
and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from qcosmic import parse_model
from gen import RECOVERY_SEEDS, hostile_texts, mutated_texts

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_recovery.json"

# every message the parser and its lexer can produce, one pattern each
TEMPLATES = {
    "L1": [
        r"unterminated string literal",
        r"illegal character '.'",
    ],
    "S1": [
        rf"expected {what}, found .+"
        for what in (
            "'system'", "system name string", "'{'", "purpose string", "scope string",
            "a declaration", "'classical' or 'quantum'", "layer name string",
            "user name string", "storage name string", "datagroup name string",
            "'attr' or '}'", "attribute name", "':'", "process name string", "'in'",
            "'layer'", "a movement or '}'", "data group string", "'from' or 'to'",
            "'user', 'storage', 'process', or 'layer'", "endpoint name string",
            "'prepare' or 'measure'",
        )
    ] + [
        r"'(purpose|scope)' must appear before declarations",
        r"expected '}' to close the system block",
        r"unexpected content after system block: .+",
    ],
    "S2": [
        rf"duplicate {category} name '.*'"
        for category in (
            "layer", "user", "storage", "datagroup", "process", "purpose header",
            "scope header", "attribute",
        )
    ],
    "S3": [
        rf"unresolved {category} reference '.*'"
        for category in ("layer", "user", "storage", "datagroup", "process")
    ],
    "W1": [r"empty system: no declarations"],
}


def corpus() -> list[str]:
    return list(RECOVERY_SEEDS) + mutated_texts(seed=41, count=500) + hostile_texts()


def _span(node) -> list[int]:
    return [node.span.line, node.span.column, node.span.length]


def record(text: str) -> list:
    """[diagnostics, spans when the text parses]; severity as its first letter."""
    result = parse_model(text)
    entry = [
        [
            [d.severity.value[0], d.code, d.message, d.subject, *_span(d)]
            for d in result.diagnostics
        ],
    ]
    model = result.model
    if model is not None:
        nodes = [*model.layers, *model.users, *model.storages, *model.data_groups]
        for process in model.processes:
            nodes += [process, *process.movements]
        entry.append([value for node in nodes for value in _span(node)])
    return entry


def digest(texts: list[str]) -> str:
    return hashlib.sha1("\0".join(texts).encode("utf-8")).hexdigest()


TEXTS = corpus()
GOLDEN_DATA = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
GOLDEN_ENTRIES = GOLDEN_DATA.get("entries", [])


def test_capture_covers_the_corpus():
    assert GOLDEN_DATA["corpus"] == digest(TEXTS)
    assert len(GOLDEN_ENTRIES) == len(TEXTS)


@pytest.mark.parametrize("start", range(0, len(TEXTS), 100))
def test_parse_matches_capture(start):
    for index in range(start, min(start + 100, len(TEXTS))):
        assert record(TEXTS[index]) == GOLDEN_ENTRIES[index], (index, TEXTS[index])


@pytest.mark.parametrize(
    "code, template", [(code, t) for code, templates in TEMPLATES.items() for t in templates]
)
def test_corpus_raises_every_parser_message(code, template):
    pattern = re.compile(template, re.DOTALL)
    assert any(
        diag[1] == code and pattern.fullmatch(diag[2])
        for entry in GOLDEN_ENTRIES
        for diag in entry[0]
    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # one entry per line, so a change shows as a diff of the texts it touches
    entries = ",\n".join(
        json.dumps(record(text), ensure_ascii=False, separators=(",", ":")) for text in TEXTS
    )
    GOLDEN.write_text(
        f'{{"corpus": "{digest(TEXTS)}", "entries": [\n{entries}\n]}}\n', encoding="utf-8"
    )
