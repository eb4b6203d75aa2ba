"""Canonical formatting and the parse/format round trip."""

from __future__ import annotations

import random

import pytest

from qcosmic import Attribute, DataGroup, Model, Nature, format_model, parse_model
from gen import random_model


def test_factoring_round_trip(factoring_model):
    canonical = format_model(factoring_model)
    reparsed = parse_model(canonical)
    assert reparsed.model is not None
    assert reparsed.model == factoring_model


def test_idempotence(factoring_text):
    first = format_model(parse_model(factoring_text).model)
    second = format_model(parse_model(first).model)
    assert first == second


def test_declaration_order_is_preserved():
    text = (
        'system "S" { layer classical "B" layer classical "A" '
        'user classical "Z" user classical "Y" }'
    )
    output = format_model(parse_model(text).model)
    assert output.index('"B"') < output.index('"A"')
    assert output.index('"Z"') < output.index('"Y"')


def test_empty_model():
    assert format_model(parse_model('system "S" {}').model) == 'system "S" {}\n'


def test_string_escapes_survive():
    model = parse_model(r'system "a\"b\\c\nd" {}').model
    assert model.name == 'a"b\\c\nd'
    reparsed = parse_model(format_model(model)).model
    assert reparsed == model


def test_prepositions_are_normalized():
    text = (
        'system "S" { layer classical "A" user classical "U" datagroup "g" {} '
        'process "P" in layer "A" { entry "g" to user "U" } }'
    )
    output = format_model(parse_model(text).model)
    assert 'entry "g" from user "U"' in output


def test_random_models_round_trip():
    rng = random.Random(21)
    for _ in range(200):
        model = random_model(rng)
        text = format_model(model)
        result = parse_model(text)
        assert result.model is not None, (
            text,
            [d.render() for d in result.diagnostics],
        )
        assert result.model == model
        assert format_model(result.model) == text


def _model_with_attribute(name: str) -> Model:
    return Model("S", data_groups=(DataGroup("g", (Attribute(name, Nature.CLASSICAL),)),))


@pytest.mark.parametrize("name", ["a b", "", "_x", "9x"])
def test_attribute_name_that_is_not_a_word_is_refused(name):
    with pytest.raises(ValueError, match=f"data group 'g': attribute {name!r} is not a word"):
        format_model(_model_with_attribute(name))


def test_keyword_attribute_name_round_trips():
    model = _model_with_attribute("layer")
    assert parse_model(format_model(model)).model == model
