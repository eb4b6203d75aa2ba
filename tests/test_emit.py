"""Report and diagram rendering."""

from __future__ import annotations

import json
import time

import pytest

from qcosmic import (
    DataGroup,
    DataMovement,
    Endpoint,
    EndpointKind,
    FunctionalProcess,
    Layer,
    Model,
    MovementKind,
    Nature,
    RenderOptions,
    UnresolvedReferenceError,
    measure_system,
    parse_model,
    render_csv,
    render_dot,
    render_json,
    render_text,
)
from conftest import load_fixture


@pytest.fixture(scope="module")
def factoring_report():
    model = parse_model(load_fixture("factoring.qcm")).model
    return measure_system(model)


@pytest.fixture(scope="module")
def empty_report():
    return measure_system(parse_model('system "Empty" {}').model)


@pytest.fixture(scope="module")
def classical_report():
    return measure_system(parse_model(load_fixture("warn_p3.qcm")).model)


class TestText:
    def test_footer_line(self, factoring_report):
        text = render_text(factoring_report)
        assert "TOTAL 10 QCFP (classical 8 / quantum 2)" in text
        assert "split: classical 80.0%, quantum 20.0%" in text

    def test_one_row_per_process(self, factoring_report):
        lines = render_text(factoring_report).splitlines()
        assert any(line.startswith("Factor Large Integer") for line in lines)
        assert any(line.startswith("Break RSA") for line in lines)

    def test_empty_report(self, empty_report):
        assert "TOTAL 0 QCFP" in render_text(empty_report)

    def test_cfpv5_note_on_classical_models(self, classical_report, factoring_report):
        assert "CFPv5-equivalent" in render_text(classical_report)
        assert "CFPv5-equivalent" not in render_text(factoring_report)

    def test_by_layer_section(self, factoring_report):
        with_layers = render_text(factoring_report, RenderOptions(by_layer=True))
        assert "Quantum" in with_layers
        lines = [l for l in with_layers.splitlines() if l.startswith("Quantum")]
        assert any("2" in line for line in lines)


class TestJson:
    def test_total_and_per_process(self, factoring_report):
        payload = json.loads(render_json(factoring_report))
        assert payload["total_qcfp"] == 10
        assert payload["schema"] == "qcosmic-report/1"
        by_name = {p["name"]: p for p in payload["processes"]}
        assert by_name["Factor Large Integer"]["qcfp"] == 6
        assert by_name["Break RSA"]["qcfp"] == 4
        assert by_name["Factor Large Integer"]["movements"]["QE"] == 1

    def test_keys_sorted_and_bytes_stable(self, factoring_report):
        first = render_json(factoring_report)
        second = render_json(factoring_report)
        assert first == second
        payload = json.loads(first)
        assert list(payload) == sorted(payload)

    def test_percent_rendered_as_string(self, factoring_report):
        payload = json.loads(render_json(factoring_report))
        assert payload["classical_percent"] == "80.0"
        assert isinstance(payload["classical_percent"], str)

    def test_empty_report(self, empty_report):
        assert json.loads(render_json(empty_report))["total_qcfp"] == 0

    def test_totals_agree_with_text_and_csv(self, factoring_report):
        payload = json.loads(render_json(factoring_report))
        assert f"TOTAL {payload['total_qcfp']} QCFP" in render_text(factoring_report)
        assert render_csv(factoring_report).splitlines()[-1].endswith(
            f",{payload['total_qcfp']}"
        )


class TestCsv:
    def test_header_and_rows(self, factoring_report):
        lines = render_csv(factoring_report).splitlines()
        assert lines[0] == "process,layer,nature,E,X,R,W,QE,QX,QR,QW,qcfp"
        assert lines[1] == "Factor Large Integer,Quantum,quantum,2,2,0,0,1,1,0,0,6"
        assert lines[2] == "Break RSA,Classical,classical,2,2,0,0,0,0,0,0,4"
        assert lines[3].startswith("TOTAL,")
        assert lines[3].endswith(",10")

    def test_row_tallies_sum_to_qcfp(self, factoring_report):
        for line in render_csv(factoring_report).splitlines()[1:]:
            cells = line.split(",")
            assert sum(int(c) for c in cells[3:11]) == int(cells[11])

    def test_empty_report_is_header_plus_total(self, empty_report):
        lines = render_csv(empty_report).splitlines()
        assert len(lines) == 2
        assert lines[1] == "TOTAL,,,0,0,0,0,0,0,0,0,0"

    def test_fields_with_commas_are_quoted(self):
        model = parse_model(
            'system "S" { layer classical "A, B" user classical "U" '
            'datagroup "g" {} '
            'process "P, Q" in layer "A, B" { entry "g" from user "U" } }'
        ).model
        lines = render_csv(measure_system(model)).splitlines()
        assert lines[1].startswith('"P, Q","A, B",')


class TestDot:
    def test_quantum_layer_has_double_border_and_bold_label(self, factoring_model):
        dot = render_dot(factoring_model)
        cluster = dot[dot.index("cluster layer Quantum"):]
        cluster = cluster[: cluster.index("}")]
        assert "peripheries=2" in cluster
        assert "<<B>Quantum</B>>" in cluster

    def test_classical_elements_have_single_border(self, factoring_model):
        dot = render_dot(factoring_model)
        cluster = dot[dot.index("cluster layer Classical"):]
        cluster = cluster[: cluster.index("}")]
        assert "peripheries=1" in cluster

    def test_empty_model_is_header_and_brace_only(self):
        model = parse_model('system "Empty" {}').model
        assert render_dot(model) == 'digraph "Empty" {\n}\n'

    def test_scope_diagram_has_exactly_the_unique_movement_edges(self, factoring_model):
        opts = RenderOptions(scope="Factor Large Integer")
        dot = render_dot(factoring_model, opts)
        edges = [l for l in dot.splitlines() if " -> " in l]
        assert len(edges) == 6

    def test_unknown_scope_raises(self, factoring_model):
        opts = RenderOptions(scope="Nonexistent")
        with pytest.raises(UnresolvedReferenceError):
            render_dot(factoring_model, opts)

    def test_whole_model_movement_edges_match_total(self, factoring_model):
        dot = render_dot(factoring_model)
        movement_edges = [
            l for l in dot.splitlines() if " -> " in l and "label=uses" not in l
        ]
        assert len(movement_edges) == 10

    def test_conversions_are_labeled(self, factoring_model):
        dot = render_dot(factoring_model)
        assert "(prepare)" in dot
        assert "(measure)" in dot

    def test_quantum_edges_are_thicker(self, factoring_model):
        dot = render_dot(factoring_model)
        quantum_edges = [l for l in dot.splitlines() if "QE: " in l or "QX: " in l]
        assert quantum_edges and all("penwidth=2" in l for l in quantum_edges)

    def test_dashed_software_boundary(self, factoring_model):
        dot = render_dot(factoring_model)
        assert "style=dashed;" in dot

    def test_uses_edges_only_in_whole_model_diagrams(self, factoring_model):
        whole = render_dot(factoring_model)
        assert any("label=uses" in l for l in whole.splitlines())
        scoped = render_dot(
            factoring_model,
            RenderOptions(scope="Break RSA"),
        )
        assert not any("label=uses" in l for l in scoped.splitlines())

    def test_storage_drawn_outside_software_cluster(self):
        model = parse_model(load_fixture("ok_r3.qcm")).model
        dot = render_dot(model)
        storage_line = next(l for l in dot.splitlines() if "cylinder" in l)
        assert dot.index(storage_line) < dot.index("cluster software")

    def test_determinism(self, factoring_model):
        assert render_dot(factoring_model) == render_dot(factoring_model)


def test_scoped_diagram_is_linear_in_its_counterparts():
    # one hub process that exits to 10,000 distinct processes of its own layer
    count = 10_000
    hub = FunctionalProcess("hub", "l", tuple(
        DataMovement(MovementKind.X, "g", Endpoint(EndpointKind.PROCESS, f"p{i}"))
        for i in range(count)
    ))
    spokes = tuple(FunctionalProcess(f"p{i}", "l") for i in range(count))
    model = Model(
        "m", layers=(Layer("l", Nature.CLASSICAL),), data_groups=(DataGroup("g"),),
        processes=(hub, *spokes),
    )

    def best(options):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            render_dot(model, options)
            times.append(time.perf_counter() - start)
        return min(times)

    whole = best(RenderOptions())
    scoped = best(RenderOptions(scope="hub"))
    assert scoped <= 5 * whole, (scoped, whole)
