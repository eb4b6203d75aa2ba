"""Canonical formatting and the parse/format round trip."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcosmic import (
    Attribute,
    Conversion,
    DataGroup,
    DataMovement,
    Endpoint,
    EndpointKind,
    FunctionalProcess,
    FunctionalUser,
    Layer,
    Model,
    MovementKind,
    Nature,
    PersistentStorage,
    UnresolvedReferenceError,
    format_model,
    measure_system,
    parse_model,
    render_dot,
    validate,
)
from qcosmic.diagnostics import has_errors
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


# names that quoting, line splitting or decoding could get wrong, beside any text at all
_HOSTILE = [
    "", '"', "\\", 'a"b\\', "\r\n", "\r", "\u2028", "\ufeff", "\x00", "\U0001f600", "layer", "x_1"
]
_NAMES = st.one_of(st.sampled_from(_HOSTILE), st.text(max_size=4))
_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*")  # README's attribute name rule
_DOT_NODE = re.compile(r' *("(?:[^"\\]|\\.)*") \[')


@st.composite
def hand_built_models(draw) -> Model:
    """A model of hostile names. A category may declare a name twice; a
    reference into an empty category, and a use of the stray name, name
    nothing declared."""
    pool = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    stray = draw(_NAMES)
    nature = st.sampled_from(Nature)

    def some(strategy, size):
        return st.lists(strategy, max_size=size).map(tuple)

    def names(size, least=0):
        unique = draw(st.integers(0, 3)) > 0  # one list in four may repeat a name
        return draw(st.lists(st.sampled_from(pool), min_size=least, max_size=size, unique=unique))

    def ref(declared):  # a name of the category when it has one
        return st.sampled_from(declared or [stray, *pool])

    layers = tuple(Layer(n, draw(nature)) for n in names(3, least=1))
    users = tuple(FunctionalUser(n, draw(nature)) for n in names(2))
    storages = tuple(PersistentStorage(n, draw(nature)) for n in names(2))
    words = st.sampled_from(["v", "layer", "x_1"])
    attribute = st.builds(Attribute, st.one_of(words, _NAMES), nature)
    groups = tuple(DataGroup(n, draw(some(attribute, 2))) for n in names(3, least=1))
    process_names = names(3, least=1)
    declared = {
        EndpointKind.LAYER: [d.name for d in layers],
        EndpointKind.USER: [d.name for d in users],
        EndpointKind.STORAGE: [d.name for d in storages],
        EndpointKind.PROCESS: process_names,
    }
    movement = st.sampled_from(EndpointKind).flatmap(lambda kind: st.builds(
        DataMovement, st.sampled_from(MovementKind), ref([g.name for g in groups]),
        st.builds(Endpoint, st.just(kind), ref(declared[kind])), st.sampled_from(Conversion),
    ))
    processes = tuple(
        FunctionalProcess(
            n, draw(ref(declared[EndpointKind.LAYER])), draw(some(movement, 4)),
            draw(some(st.sampled_from([*process_names, stray]), 2)),
        )
        for n in process_names
    )
    return Model(
        draw(_NAMES), purpose=draw(_NAMES), layers=layers, users=users, storages=storages,
        data_groups=groups, processes=processes,
    )


@settings(max_examples=150, deadline=None)
@given(hand_built_models())
def test_hand_built_models_that_validate_round_trip_and_measure(model):
    try:
        findings = validate(model)
    except UnresolvedReferenceError:
        return
    nodes = [m[1] for m in map(_DOT_NODE.match, render_dot(model).split("\n")) if m]
    assert len(nodes) == len(set(nodes))
    if any(f.code == "S2" for f in findings):
        return  # a name declared twice has no source text of its own
    attributes = [a.name for g in model.data_groups for a in g.attributes]
    if not all(_WORD.fullmatch(name) for name in attributes):
        with pytest.raises(ValueError):
            format_model(model)
        return
    text = format_model(model)
    result = parse_model(text)
    assert not has_errors(result.diagnostics), [d.render() for d in result.diagnostics]
    assert result.model == model
    assert format_model(result.model) == text
    if not has_errors(findings):
        report = measure_system(model)
        assert sum(layer.qcfp for layer in report.per_layer) == report.totals.total_qcfp
