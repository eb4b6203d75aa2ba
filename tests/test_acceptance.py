"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

from qcosmic import (
    DedupMode,
    Severity,
    format_model,
    measure_system,
    parse_model,
    validate,
)
from qcosmic.cli import main
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
