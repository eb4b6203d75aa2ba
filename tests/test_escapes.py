"""Byte-identical DOT and canonical source for names that need escaping.

Every name below holds characters that ``quote`` or the DOT HTML labels
escape (``"``, ``\\``, newline, tab, CR, ``<``, ``>``, ``&``) or non-ASCII
text, and recurs in at least two processes as a user, storage, process or
layer counterpart, so the ``ltail``/``lhead`` cluster edges appear too.
`golden/escapes.json` holds ``render_dot`` of the whole model, of each
process scope, and ``format_model``. To refresh it after an intended output
change, run ``PYTHONPATH=src python tests/test_escapes.py`` and review the
diff.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

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

GOLDEN = Path(__file__).resolve().parent / "golden" / "escapes.json"

CLASSICAL_LAYER = 'classic "<edge>" \\ layer'
QUANTUM_LAYER = "quantum\tlayer & co\r\n☼"
USER = 'op"er\\ator <1> & é'
QUANTUM_USER = "q-user\n<2> \"ψ\""
STORE = 'store\r"a" & <b>'
QUANTUM_STORE = "qstore ☼\t\\ >"
GROUP = 'rec<"1">\n& ü'
QUANTUM_GROUP = "qreg\\ ψ\t<&>"
P1 = 'load "all" <rows>\\'
P2 = "merge\n& émit\t"
P3 = 'prepare\r\n"state" <☼>'
P4 = "sample & \\measure\\ >\"<"

E, X, R, W = MovementKind.E, MovementKind.X, MovementKind.R, MovementKind.W
QE, QX, QR, QW = MovementKind.QE, MovementKind.QX, MovementKind.QR, MovementKind.QW


def _user(name: str) -> Endpoint:
    return Endpoint(EndpointKind.USER, name)


def _storage(name: str) -> Endpoint:
    return Endpoint(EndpointKind.STORAGE, name)


def _process(name: str) -> Endpoint:
    return Endpoint(EndpointKind.PROCESS, name)


def _layer(name: str) -> Endpoint:
    return Endpoint(EndpointKind.LAYER, name)


def escape_model() -> Model:
    return Model(
        name='escapes "system" <&>\\\n☼',
        purpose='pin "escapes"\tacross\\renderers\r\n',
        scope="<all> & ünicode",
        layers=(Layer(CLASSICAL_LAYER, Nature.CLASSICAL), Layer(QUANTUM_LAYER, Nature.QUANTUM)),
        users=(FunctionalUser(USER, Nature.CLASSICAL), FunctionalUser(QUANTUM_USER, Nature.QUANTUM)),
        storages=(
            PersistentStorage(STORE, Nature.CLASSICAL),
            PersistentStorage(QUANTUM_STORE, Nature.QUANTUM),
        ),
        data_groups=(
            DataGroup(GROUP, (Attribute("id", Nature.CLASSICAL), Attribute("text", Nature.CLASSICAL))),
            DataGroup(QUANTUM_GROUP, (Attribute("state", Nature.QUANTUM),)),
        ),
        processes=(
            FunctionalProcess(P1, CLASSICAL_LAYER, (
                DataMovement(E, GROUP, _user(USER)),
                DataMovement(R, GROUP, _storage(STORE)),
                DataMovement(W, GROUP, _storage(STORE)),
                DataMovement(X, GROUP, _process(P3)),
                DataMovement(X, GROUP, _layer(QUANTUM_LAYER)),
                DataMovement(E, GROUP, _layer(QUANTUM_LAYER)),
                DataMovement(E, GROUP, _user(USER)),
            ), uses=(P2,)),
            FunctionalProcess(P2, CLASSICAL_LAYER, (
                DataMovement(E, GROUP, _user(USER)),
                DataMovement(X, GROUP, _user(USER)),
                DataMovement(R, GROUP, _storage(STORE)),
                DataMovement(E, GROUP, _process(P1)),
                DataMovement(X, GROUP, _layer(QUANTUM_LAYER)),
                DataMovement(X, GROUP, _process(P3)),
            )),
            FunctionalProcess(P3, QUANTUM_LAYER, (
                DataMovement(QE, GROUP, _user(USER), Conversion.PREPARE),
                DataMovement(QX, GROUP, _user(USER), Conversion.MEASURE),
                DataMovement(QE, QUANTUM_GROUP, _user(QUANTUM_USER)),
                DataMovement(QR, QUANTUM_GROUP, _storage(QUANTUM_STORE)),
                DataMovement(QW, QUANTUM_GROUP, _storage(QUANTUM_STORE)),
                DataMovement(X, GROUP, _layer(CLASSICAL_LAYER)),
                DataMovement(QE, QUANTUM_GROUP, _process(P4)),
                DataMovement(QR, QUANTUM_GROUP, _storage(QUANTUM_STORE)),
            ), uses=(P4,)),
            FunctionalProcess(P4, QUANTUM_LAYER, (
                DataMovement(QE, QUANTUM_GROUP, _user(QUANTUM_USER)),
                DataMovement(QR, QUANTUM_GROUP, _storage(QUANTUM_STORE)),
                DataMovement(QX, QUANTUM_GROUP, _user(QUANTUM_USER)),
                DataMovement(E, GROUP, _layer(CLASSICAL_LAYER)),
                DataMovement(X, GROUP, _process(P1)),
                DataMovement(QX, GROUP, _process(P2), Conversion.MEASURE),
            )),
        ),
    )


def capture() -> dict[str, str]:
    model = escape_model()
    outputs = {"dot": render_dot(model), "fmt": format_model(model)}
    for process in model.processes:
        outputs[f"dot --scope {process.name}"] = render_dot(model, RenderOptions(scope=process.name))
    return outputs


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_model_validates():
    assert not has_errors(validate(escape_model()))


def test_capture_covers_every_output():
    assert set(GOLDEN_ENTRIES) == set(capture())


@pytest.mark.parametrize("key", sorted(capture()))
def test_output_matches_capture(key):
    assert capture()[key].encode("utf-8") == GOLDEN_ENTRIES[key].encode("utf-8")


def test_cluster_edges_appear():
    dot = GOLDEN_ENTRIES["dot"]
    assert "ltail=" in dot and "lhead=" in dot


def test_formatted_source_reparses_to_an_equal_model():
    model = escape_model()
    result = parse_model(format_model(model))
    assert result.model == model, [d.render() for d in result.diagnostics]


def test_json_report_gives_back_every_name():
    model = escape_model()
    payload = json.loads(render_json(measure_system(model)))
    assert payload["system"] == model.name
    assert [p["name"] for p in payload["processes"]] == [p.name for p in model.processes]
    assert [p["layer"] for p in payload["processes"]] == [p.layer for p in model.processes]
    assert [l["name"] for l in payload["layers"]] == [l.name for l in model.layers]


def test_csv_report_gives_back_every_process_and_layer():
    model = escape_model()
    rows = list(csv.reader(io.StringIO(render_csv(measure_system(model)), newline="")))
    assert [row[:2] for row in rows[1:-1]] == [[p.name, p.layer] for p in model.processes]


def test_text_report_contains_every_process_and_layer():
    model = escape_model()
    text = render_text(measure_system(model), RenderOptions(by_layer=True))
    for name in [p.name for p in model.processes] + [l.name for l in model.layers]:
        assert name in text


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
