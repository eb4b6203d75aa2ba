"""Rule-catalog findings on perturbed models, against a committed capture.

`golden/rule_findings.json` holds, for every model of the corpus below,
the findings of `validate` in order, each as (severity, code, message,
subject, span), where the span is (line, column, length) or null. For a
model whose references do not resolve it holds the
`UnresolvedReferenceError` as (category, name) instead. The corpus is
span-less random models after rule-breaking edits (`gen.perturbed_models`)
and the token-level mutants of `gen.mutated_texts` that parse, which carry
spans. To refresh the capture after an intended change, run
``PYTHONPATH=src python tests/test_golden_rules.py`` and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from qcosmic import UnresolvedReferenceError, parse_model, validate
from gen import mutated_texts, perturbed_models

GOLDEN = Path(__file__).resolve().parent / "golden" / "rule_findings.json"

# every message of the catalog, one pattern each; a movement's findings start
# with the movement in canonical form
_MOVED = r".+: "
TEMPLATES = {
    "R1": [r"a quantum software system requires at least one classical and one quantum layer"],
    "R2": [
        _MOVED + r"read and write movements must target storage",
        _MOVED + r"entry and exit movements cannot target storage",
    ],
    "R3": [
        _MOVED + r"quantum storage accepts only qread/qwrite",
        _MOVED + r"classical storage accepts only read/write",
    ],
    "R4": [
        _MOVED + r"quantum data handled inside classical layer '.+'",
        _MOVED + r"classical (user|process|layer) '.+' "
        r"cannot exchange quantum data without a conversion",
    ],
    "R5": [
        _MOVED + r"'via (prepare|measure)' is only legal on (qentry|qexit) movements",
        _MOVED + r"conversion crossings belong to a process in a quantum layer",
        _MOVED + r"'via (prepare|measure)' crosses from or to a classical element, "
        r"but the counterpart is quantum",
    ],
    "R6": [_MOVED + r"quantum data group '.+' requires a quantum movement kind"],
    "R7": [_MOVED + r"classical data group '.+' moves via a quantum kind but never converts"],
    "R8": [
        _MOVED + r"this flow is already declared in process '.+'; "
        r"declare each inter-process movement exactly once",
    ],
    "R9": [r"cyclic uses chain: .+ -> .+"],
    "P1": [r"process declares no data movements and is not measurable"],
    "P2": [r"data group is never moved", r"storage is never read or written"],
    "P3": [r"model is purely classical; QCFP size is CFPv5-equivalent"],
}


def corpus() -> list:
    """Span-less perturbed models, then the parsed mutants with spans."""
    parsed = [parse_model(text).model for text in mutated_texts(seed=47, count=3000)]
    return perturbed_models(seed=9, count=1000) + [m for m in parsed if m is not None]


def record(model) -> list | dict:
    """The findings in order, severity as its first letter, or the unresolved reference."""
    try:
        findings = validate(model)
    except UnresolvedReferenceError as exc:
        return {"unresolved": [exc.category, exc.name]}
    return [
        [
            d.severity.value[0], d.code, d.message, d.subject,
            None if d.span is None else [d.span.line, d.span.column, d.span.length],
        ]
        for d in findings
    ]


def digest(models: list) -> str:
    return hashlib.sha1("\0".join(map(repr, models)).encode("utf-8")).hexdigest()


MODELS = corpus()
GOLDEN_DATA = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
GOLDEN_ENTRIES = GOLDEN_DATA.get("entries", [])


def test_capture_covers_the_corpus():
    assert GOLDEN_DATA["corpus"] == digest(MODELS)
    assert len(GOLDEN_ENTRIES) == len(MODELS)


@pytest.mark.parametrize("start", range(0, len(MODELS), 100))
def test_findings_match_capture(start):
    for index in range(start, min(start + 100, len(MODELS))):
        assert record(MODELS[index]) == GOLDEN_ENTRIES[index], (index, MODELS[index])


@pytest.mark.parametrize(
    "code, template", [(code, t) for code, templates in TEMPLATES.items() for t in templates]
)
def test_corpus_raises_every_catalog_message(code, template):
    pattern = re.compile(template, re.DOTALL)
    assert any(
        finding[1] == code and pattern.fullmatch(finding[2])
        for entry in GOLDEN_ENTRIES if isinstance(entry, list)
        for finding in entry
    )


def test_corpus_covers_spans_and_unresolved_references():
    findings = [f for entry in GOLDEN_ENTRIES if isinstance(entry, list) for f in entry]
    assert any(f[4] is None for f in findings) and any(f[4] is not None for f in findings)
    assert any(isinstance(entry, dict) for entry in GOLDEN_ENTRIES)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # one entry per line, so a change shows as a diff of the models it touches
    entries = ",\n".join(
        json.dumps(record(model), ensure_ascii=False, separators=(",", ":")) for model in MODELS
    )
    GOLDEN.write_text(
        f'{{"corpus": "{digest(MODELS)}", "entries": [\n{entries}\n]}}\n', encoding="utf-8"
    )
