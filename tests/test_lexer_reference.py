"""The lexer against the character-at-a-time reference lexer it replaced.

Both must give the same tokens, spans and L1 diagnostics on every input,
and every span a parsed model stores must be the span of the reference
token it was read from.
"""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcosmic import format_model, parse_model, tokenize
from qcosmic.parser import KEYWORDS, MOVEMENT_KEYWORDS
from conftest import FIXTURES, bench_corpus
from gen import hostile_texts, random_model
from oracles import REFERENCE_KEYWORDS, reference_tokenize

ALPHABET = ' \t\r\n"\\/{}:,' + string.ascii_letters + string.digits + "_é€\x00\x0c"


def assert_same_as_reference(text: str) -> None:
    kinds, texts, offsets, lengths, lines, diagnostics = tokenize(text, file="d.qcm")
    expected_tokens, expected_diagnostics = reference_tokenize(text, file="d.qcm")
    spans = map(lines.span, offsets, lengths)
    tokens = [(kind.value, word, span) for kind, word, span in zip(kinds, texts, spans)]
    assert tokens == expected_tokens
    assert diagnostics == expected_diagnostics

    model = parse_model(text, file="d.qcm").model
    if model is None:
        return
    at = {span: (kind, value) for kind, value, span in expected_tokens}
    for declared in (model.layers, model.users, model.storages, model.data_groups, model.processes):
        for decl in declared:
            assert at[decl.span] == ("string", decl.name)
    for process in model.processes:
        for movement in process.movements:
            kind, word = at[movement.span]
            assert kind == "keyword" and MOVEMENT_KEYWORDS[word] is movement.kind


def test_keywords_are_the_reference_keywords():
    """The lexer's keywords, built from the parser's tables, equal the
    reference's hand-written list, including words that no corpus text uses."""
    assert KEYWORDS == REFERENCE_KEYWORDS


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.qcm")), ids=lambda p: p.name)
def test_fixtures(path):
    assert_same_as_reference(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("build", ["resolve_model", "bad_parse_model"])
def test_bench_corpus(build):
    assert_same_as_reference(getattr(bench_corpus(), build)(3, 4).source)


def test_round_trip_corpus():
    rng = random.Random(21)
    for _ in range(200):
        assert_same_as_reference(format_model(random_model(rng)))


def test_hostile_pool():
    for text in hostile_texts():
        assert_same_as_reference(text)


@settings(max_examples=500)
@given(st.text(alphabet=ALPHABET, max_size=80))
def test_random_text(text):
    assert_same_as_reference(text)
