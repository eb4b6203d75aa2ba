"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import re
import time
from contextlib import contextmanager

from qcosmic import (
    Attribute,
    DedupMode,
    Layer,
    MovementKind,
    Nature,
    Severity,
    format_model,
    measure_system,
    parse_model,
    render_dot,
    validate,
)
from qcosmic.cli import main
from qcosmic.parser import quote
from conftest import FIXTURES, load_fixture
from gen import inject_duplicate, random_model
from oracles import cosmic_count

import dataclasses


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked-example reproduction"):
        started = time.perf_counter()
        result = parse_model(load_fixture("factoring.qcm"), file="factoring.qcm")
        assert result.model is not None
        model = result.model
        report = measure_system(model)

        uc1 = next(p for p in report.per_process if p.name == "Factor Large Integer")
        uc2 = next(p for p in report.per_process if p.name == "Break RSA")
        assert uc1.qcfp == 6
        assert {k.value: v for k, v in uc1.tally.items() if v} == {
            "E": 2, "X": 2, "QE": 1, "QX": 1,
        }
        assert uc2.qcfp == 4
        assert {k.value: v for k, v in uc2.tally.items() if v} == {"E": 2, "X": 2}

        assert {l.name: l.qcfp for l in report.per_layer} == {"Classical": 8, "Quantum": 2}
        uc1_only = dataclasses.replace(model, processes=(model.process(uc1.name),))
        uc1_layers = measure_system(uc1_only).per_layer
        assert {l.name: l.qcfp for l in uc1_layers}["Classical"] == 4

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_cosmic_backward_compatibility():
    with criterion(2, "COSMIC backward compatibility"):
        rng = random.Random(1002)
        for _ in range(120):
            model = random_model(rng, allow_quantum=False)
            report = measure_system(model)
            oracle = cosmic_count(model)
            assert report.cfpv5_equivalent is True
            assert report.totals.total_qcfp == oracle["total"]
            assert report.totals.quantum_qcfp == 0
            assert {p.name: p.qcfp for p in report.per_process} == oracle["per_process"]
            assert {l.name: l.qcfp for l in report.per_layer} == oracle["per_layer"]
            for p in report.per_process:
                classical_tally = {
                    k.value: v for k, v in p.tally.items() if k.value in oracle["tallies"][p.name]
                }
                assert classical_tally == oracle["tallies"][p.name]


def test_criterion_3_deduplication_invariance():
    with criterion(3, "de-duplication invariance"):
        rng = random.Random(1003)
        cases = 0
        while cases < 1000:
            model = random_model(rng)
            baseline = measure_system(model)
            for index, process in enumerate(model.processes):
                if not process.movements:
                    continue
                which = rng.randrange(len(process.movements))
                duplicated = inject_duplicate(model, index, which)
                assert measure_system(duplicated) == baseline
                assert measure_system(duplicated, DedupMode.COSMIC) == measure_system(
                    model, DedupMode.COSMIC
                )
                cases += 1
        assert cases >= 1000


def test_criterion_4_rule_catalog_coverage(capsys):
    with criterion(4, "rule catalog coverage"):
        for code in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"]:
            trigger = FIXTURES / f"bad_{code.lower()}.qcm"
            exit_code = main(["check", str(trigger)])
            err = capsys.readouterr().err
            assert exit_code == 1, f"{trigger.name} exited {exit_code}"
            assert f"error[{code}]" in err
            triggered = [
                d.code
                for d in validate(parse_model(trigger.read_text()).model)
                if d.severity is Severity.ERROR
            ]
            assert triggered == [code]

            ok = FIXTURES / f"ok_{code.lower()}.qcm"
            exit_code = main(["check", str(ok)])
            err = capsys.readouterr().err
            assert exit_code == 0, f"{ok.name} exited {exit_code}"
            assert f"[{code}]" not in err

        for code in ["P1", "P2", "P3"]:
            trigger = FIXTURES / f"warn_{code.lower()}.qcm"
            exit_code = main(["check", str(trigger)])
            err = capsys.readouterr().err
            assert exit_code == 0, f"{trigger.name} exited {exit_code}"
            assert f"warning[{code}]" in err

            ok = FIXTURES / f"ok_{code.lower()}.qcm"
            exit_code = main(["check", str(ok)])
            err = capsys.readouterr().err
            assert exit_code == 0
            assert f"[{code}]" not in err


def test_criterion_5_parser_round_trip():
    with criterion(5, "parser round trip"):
        rng = random.Random(1005)
        for _ in range(1000):
            model = random_model(rng)
            text = format_model(model)
            reparsed = parse_model(text)
            assert reparsed.model is not None, [d.render() for d in reparsed.diagnostics]
            assert reparsed.model == model
            assert format_model(reparsed.model) == text


def test_criterion_6_determinism(capsys):
    with criterion(6, "determinism"):
        path = str(FIXTURES / "factoring.qcm")
        assert main(["measure", path, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["measure", path, "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["total_qcfp"] == 10


def test_criterion_7_additivity_and_split_invariants():
    with criterion(7, "additivity and split invariants"):
        rng = random.Random(1007)
        for quantum in (False, True):
            for _ in range(120):
                model = random_model(rng, allow_quantum=quantum)
                report = measure_system(model)
                totals = report.totals
                assert totals.total_qcfp == sum(p.qcfp for p in report.per_process)
                assert totals.total_qcfp == sum(l.qcfp for l in report.per_layer)
                assert totals.classical_qcfp + totals.quantum_qcfp == totals.total_qcfp
                for p in report.per_process:
                    assert sum(p.tally.values()) == p.qcfp


# -- criterion 8: size is blind to nature, but no more -------------------------

QUANTUM = Nature.QUANTUM
QUANTUM_KIND = {
    MovementKind.E: MovementKind.QE,
    MovementKind.X: MovementKind.QX,
    MovementKind.R: MovementKind.QR,
    MovementKind.W: MovementKind.QW,
}


def quantum(declaration):
    return dataclasses.replace(declaration, nature=QUANTUM)


def quantized(model):
    """``model`` with every kind, layer, user, storage and attribute quantum, a
    quantum attribute in each group that has none, and one empty classical
    layer added; returns the model and the added layer's name."""
    spare = "spare layer"
    while any(layer.name == spare for layer in model.layers):
        spare += "'"
    groups = tuple(
        dataclasses.replace(
            group, attributes=tuple(map(quantum, group.attributes)) or (Attribute("q", QUANTUM),)
        )
        for group in model.data_groups
    )
    processes = tuple(
        dataclasses.replace(process, movements=tuple(
            dataclasses.replace(movement, kind=QUANTUM_KIND[movement.kind])
            for movement in process.movements
        ))
        for process in model.processes
    )
    return dataclasses.replace(
        model,
        layers=tuple(map(quantum, model.layers)) + (Layer(spare, Nature.CLASSICAL),),
        users=tuple(map(quantum, model.users)),
        storages=tuple(map(quantum, model.storages)),
        data_groups=groups,
        processes=processes,
    ), spare


def single_flips(model):
    """Each model that makes one layer, user, storage or attribute of ``model``
    quantum, with the flipped layer's name, or None when no layer is flipped."""
    for field in ("layers", "users", "storages"):
        declared = getattr(model, field)
        for i, declaration in enumerate(declared):
            flipped = declared[:i] + (quantum(declaration),) + declared[i + 1:]
            layer = declaration.name if field == "layers" else None
            yield dataclasses.replace(model, **{field: flipped}), layer
    groups = model.data_groups
    for g, group in enumerate(groups):
        attributes = group.attributes
        for a, attribute in enumerate(attributes):
            flipped = attributes[:a] + (quantum(attribute),) + attributes[a + 1:]
            group = dataclasses.replace(groups[g], attributes=flipped)
            yield dataclasses.replace(model, data_groups=groups[:g] + (group,) + groups[g + 1:]), None


def summary(report) -> dict:
    """What the relations compare, read from a ``MeasurementReport``."""
    totals = report.totals
    return {
        "total": totals.total_qcfp,
        "split": (
            totals.classical_qcfp, totals.quantum_qcfp,
            totals.classical_percent, totals.quantum_percent,
        ),
        "processes": {p.name: (p.qcfp, p.nature.value) for p in report.per_process},
        "layers": {layer.name: layer.qcfp for layer in report.per_layer},
        "cfpv5": report.cfpv5_equivalent,
    }


def json_summary(text: str) -> dict:
    """What the relations compare, read from a ``measure --format json`` report."""
    report = json.loads(text)
    return {
        "total": report["total_qcfp"],
        "split": (
            report["classical_qcfp"], report["quantum_qcfp"],
            report["classical_percent"], report["quantum_percent"],
        ),
        "processes": {p["name"]: (p["qcfp"], p["nature"]) for p in report["processes"]},
        "layers": {layer["name"]: layer["qcfp"] for layer in report["layers"]},
        "cfpv5": report["cfpv5_equivalent"],
    }


def assert_size_blind_to_nature(before: dict, after: dict, spare: str) -> None:
    assert after["total"] == before["total"]
    assert {name: qcfp for name, (qcfp, _) in after["processes"].items()} == {
        name: qcfp for name, (qcfp, _) in before["processes"].items()
    }
    assert after["layers"] == {**before["layers"], spare: 0}
    classical, quantum_qcfp, classical_percent, quantum_percent = before["split"]
    assert after["split"] == (quantum_qcfp, classical, quantum_percent, classical_percent)
    assert before["cfpv5"] is True and after["cfpv5"] is False
    assert {nature for _, nature in after["processes"].values()} <= {"quantum"}


def assert_visible(before: dict, after: dict, layer: str | None, model) -> None:
    assert after["cfpv5"] is False
    assert (after["total"], after["split"]) == (before["total"], before["split"])
    if layer is not None:
        for process in model.processes:
            if process.layer == layer:
                assert after["processes"][process.name][1] == "quantum"


# the borders of each process node; a quantum name's HTML label keeps its line breaks
PROCESS_BORDERS = re.compile(r'^      "process .*?, peripheries=(\d)\];$', re.MULTILINE | re.DOTALL)


def assert_drawn_double(dot: str, layer: str, model) -> None:
    """The DOT cluster of ``layer`` and each of its process nodes have two borders."""
    start = dot.index(f"\n    subgraph {quote('cluster layer ' + layer)} {{\n")
    cluster = dot[start:dot.index("\n    }\n", start)]
    assert "\n      peripheries=2;\n" in cluster
    borders = PROCESS_BORDERS.findall(cluster)
    assert borders == ["2"] * sum(process.layer == layer for process in model.processes)


def run(capsys, *args: str) -> tuple[int, str]:
    code = main(list(args))
    return code, capsys.readouterr().out


def test_criterion_8_size_is_blind_to_nature_but_no_more(tmp_path, capsys):
    """The paper's claim: on a purely classical system, making it quantum
    changes no size, only the split; and any one quantum element shows."""
    with criterion(8, "size is blind to nature, but no more"):
        rng = random.Random(7)
        for count in range(400):
            model = random_model(rng, allow_quantum=False)
            after, spare = quantized(model)
            assert not any(d.is_error for d in validate(after))
            for mode in DedupMode:
                assert_size_blind_to_nature(
                    summary(measure_system(model, mode)), summary(measure_system(after, mode)), spare
                )
            if count >= 10:
                continue
            before_path, after_path = tmp_path / "before.qcm", tmp_path / "after.qcm"
            before_path.write_text(format_model(model), encoding="utf-8")
            after_path.write_text(format_model(after), encoding="utf-8")
            for mode in DedupMode:
                reports = [
                    run(capsys, "measure", str(path), "--format", "json", "--dedup", mode.value)
                    for path in (before_path, after_path)
                ]
                assert [code for code, _ in reports] == [0, 0]
                assert_size_blind_to_nature(*(json_summary(out) for _, out in reports), spare)
            assert run(capsys, "check", str(after_path))[0] == 0
            for path, border in ((before_path, "1"), (after_path, "2")):
                code, dot = run(capsys, "diagram", str(path))
                assert code == 0
                assert PROCESS_BORDERS.findall(dot) == [border] * len(model.processes)

        rng = random.Random(11)
        shown = {"error": 0, "visible": 0}
        for count in range(300):
            model = random_model(rng, allow_quantum=False)
            before = {mode: summary(measure_system(model, mode)) for mode in DedupMode}
            for flipped, layer in single_flips(model):
                findings = validate(flipped)
                failed = any(d.is_error for d in findings)
                if failed:
                    shown["error"] += 1
                else:
                    shown["visible"] += 1
                    assert "P3" not in {d.code for d in findings}
                    for mode in DedupMode:
                        after = summary(measure_system(flipped, mode))
                        assert_visible(before[mode], after, layer, model)
                    if layer is not None:
                        assert_drawn_double(render_dot(flipped), layer, model)
                if count >= 10:
                    continue
                path = tmp_path / "flipped.qcm"
                path.write_text(format_model(flipped), encoding="utf-8")
                code, _ = run(capsys, "check", str(path))
                assert code == (1 if failed else 0)
                if code == 0:
                    for mode in DedupMode:
                        code, out = run(
                            capsys, "measure", str(path), "--format", "json", "--dedup", mode.value
                        )
                        assert code == 0
                        assert_visible(before[mode], json_summary(out), layer, model)
                    if layer is not None:
                        code, dot = run(capsys, "diagram", str(path))
                        assert code == 0
                        assert_drawn_double(dot, layer, model)
        assert shown["error"] and shown["visible"], shown
