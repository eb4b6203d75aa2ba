"""QCFP counting: de-duplication, per-process, per-layer, system totals."""

from __future__ import annotations

import dataclasses
import random
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcosmic import (
    DataGroup,
    DataMovement,
    DedupMode,
    Endpoint,
    EndpointKind,
    FunctionalProcess,
    FunctionalUser,
    Layer,
    Model,
    MovementKind,
    Nature,
    UnresolvedReferenceError,
    UnvalidatedModelError,
    measure_system,
    parse_model,
    unique_movements,
    validate,
)
from qcosmic.diagnostics import has_errors
from qcosmic.measure import percent
from conftest import FIXTURES, load_fixture
from gen import DANGLING, dangling_model, inject_duplicate, random_model
from oracles import brute_force_layer_totals, cosmic_count


def movement(kind, group="g", ep_kind=EndpointKind.USER, ep_name="u"):
    return DataMovement(kind, group, Endpoint(ep_kind, ep_name))


class TestUniqueMovements:
    def test_exact_duplicates_collapse(self):
        process = FunctionalProcess(
            "p", "l", (movement(MovementKind.E), movement(MovementKind.E))
        )
        # oracle: a hand scan of (kind, group, counterpart) triples
        triples = []
        for m in process.movements:
            triple = (m.kind, m.data_group, m.counterpart)
            if triple not in triples:
                triples.append(triple)
        assert len(triples) == 1
        assert len(unique_movements(process)) == 1

    def test_distinct_kinds_stay_distinct(self):
        process = FunctionalProcess(
            "p", "l", (movement(MovementKind.E), movement(MovementKind.X))
        )
        assert len(unique_movements(process)) == 2

    def test_empty_process(self):
        assert unique_movements(FunctionalProcess("p", "l", ())) == []

    def test_endpoint_mode_distinguishes_counterparts(self):
        process = FunctionalProcess(
            "p",
            "l",
            (movement(MovementKind.E, ep_name="u1"), movement(MovementKind.E, ep_name="u2")),
        )
        assert len(unique_movements(process, DedupMode.ENDPOINT)) == 2
        assert len(unique_movements(process, DedupMode.COSMIC)) == 1

    def test_counterpart_key_is_its_kind_and_name(self):
        process = FunctionalProcess(
            "p",
            "l",
            tuple(
                movement(MovementKind.X, ep_kind=kind, ep_name="A")
                for kind in (EndpointKind.USER, EndpointKind.PROCESS, EndpointKind.LAYER,
                             EndpointKind.USER)
            ),
        )
        assert [m.counterpart.kind for m in unique_movements(process)] == [
            EndpointKind.USER, EndpointKind.PROCESS, EndpointKind.LAYER,
        ]
        assert len(unique_movements(process, DedupMode.COSMIC)) == 1

    def test_first_occurrence_order(self):
        process = FunctionalProcess(
            "p",
            "l",
            (
                movement(MovementKind.X),
                movement(MovementKind.E),
                movement(MovementKind.X),
            ),
        )
        assert [m.kind for m in unique_movements(process)] == [MovementKind.X, MovementKind.E]


def qcfp_by_process(model, dedup=DedupMode.ENDPOINT) -> dict[str, int]:
    return {p.name: p.qcfp for p in measure_system(model, dedup).per_process}


def qcfp_by_layer(model, dedup=DedupMode.ENDPOINT) -> dict[str, int]:
    return {l.name: l.qcfp for l in measure_system(model, dedup).per_layer}


class TestMeasureProcess:
    def test_factor_large_integer_is_six(self, factoring_model):
        assert qcfp_by_process(factoring_model)["Factor Large Integer"] == 6

    def test_break_rsa_is_four(self, factoring_model):
        assert qcfp_by_process(factoring_model)["Break RSA"] == 4

    def test_empty_process_is_zero(self):
        model = parse_model(
            'system "S" { layer classical "A" user classical "U" datagroup "g" {} '
            'process "P" in layer "A" { entry "g" from user "U" } '
            'process "Idle" in layer "A" {} }'
        ).model
        assert sorted(d.code for d in validate(model)) == ["P1", "P3"]
        assert qcfp_by_process(model) == {"P": 1, "Idle": 0}

    def test_both_dedup_modes_agree_on_the_fixture(self, factoring_model):
        assert qcfp_by_process(factoring_model, DedupMode.ENDPOINT) == qcfp_by_process(
            factoring_model, DedupMode.COSMIC
        )
        assert qcfp_by_layer(factoring_model, DedupMode.ENDPOINT) == qcfp_by_layer(
            factoring_model, DedupMode.COSMIC
        )


class TestMeasureLayer:
    def test_quantum_layer_is_two(self, factoring_model):
        assert qcfp_by_layer(factoring_model)["Quantum"] == 2

    def test_classical_layer_uc1_contribution_is_four(self, factoring_model):
        uc1_only = dataclasses.replace(
            factoring_model,
            processes=(factoring_model.process("Factor Large Integer"),),
        )
        # dropping Break RSA leaves its four data groups unreferenced
        assert [d.code for d in validate(uc1_only)] == ["P2"] * 4
        assert qcfp_by_layer(uc1_only)["Classical"] == 4

    def test_classical_layer_total_is_eight(self, factoring_model):
        assert qcfp_by_layer(factoring_model)["Classical"] == 8

    def test_isolated_layer_measures_zero(self):
        model = parse_model(
            'system "S" { layer classical "A" layer classical "Empty" '
            'user classical "U" datagroup "g" {} '
            'process "P" in layer "A" { entry "g" from user "U" } }'
        ).model
        assert qcfp_by_layer(model) == {"A": 1, "Empty": 0}

    @pytest.mark.parametrize("second", [Nature.CLASSICAL, Nature.QUANTUM])
    def test_layer_declared_twice_is_refused(self, second):
        # validate reports S2 for the second "l", so per_layer never sees it
        model = Model(
            "S",
            layers=(Layer("l", Nature.CLASSICAL), Layer("m", Nature.QUANTUM), Layer("l", second)),
            users=(FunctionalUser("u", Nature.CLASSICAL),),
            data_groups=(DataGroup("g"),),
            processes=(FunctionalProcess("p", "l", (movement(MovementKind.E),)),),
        )
        with pytest.raises(UnvalidatedModelError) as refused:
            measure_system(model)
        assert [(d.code, d.message) for d in refused.value.diagnostics if d.is_error] == [
            ("S2", "duplicate layer name 'l'"),
        ]
        report = measure_system(dataclasses.replace(model, layers=model.layers[:2]))
        assert [(l.name, l.nature, l.qcfp) for l in report.per_layer] == [
            ("l", Nature.CLASSICAL, 1), ("m", Nature.QUANTUM, 0),
        ]


def validating_fixture_models() -> list:
    models = [parse_model(path.read_text(encoding="utf-8")).model
              for path in sorted(FIXTURES.glob("*.qcm"))]
    return [m for m in models if m is not None and not has_errors(validate(m))]


class TestLayerOracle:
    """Per-layer totals against a brute-force re-derivation of the charge rule."""

    @pytest.mark.parametrize("dedup", list(DedupMode))
    def test_agrees_over_generated_models(self, dedup):
        rng = random.Random(43)
        far_side = 0
        for _ in range(200):
            model = random_model(rng)
            oracle = brute_force_layer_totals(model, dedup)
            report = measure_system(model, dedup)
            assert {l.name: l.qcfp for l in report.per_layer} == oracle["per_layer"]
            far_side += oracle["far_side"]
        # the corpus exercises the far-side branch of the charge rule
        assert far_side == {DedupMode.ENDPOINT: 313, DedupMode.COSMIC: 225}[dedup]

    @pytest.mark.parametrize("dedup", list(DedupMode))
    def test_agrees_over_fixtures(self, dedup):
        models = validating_fixture_models()
        assert len(models) >= 10
        for model in models:
            report = measure_system(model, dedup)
            oracle = brute_force_layer_totals(model, dedup)
            assert {l.name: l.qcfp for l in report.per_layer} == oracle["per_layer"]


class TestUnresolvedReferences:
    @pytest.mark.parametrize("category", DANGLING)
    def test_measure_system_raises(self, category):
        with pytest.raises(UnresolvedReferenceError):
            measure_system(dangling_model(category))


class TestMeasureSystem:
    def test_factoring_totals(self, factoring_model):
        report = measure_system(factoring_model)
        assert report.totals.total_qcfp == 10
        assert [p.qcfp for p in report.per_process] == [6, 4]
        assert report.totals.classical_qcfp == 8
        assert report.totals.quantum_qcfp == 2
        assert report.totals.classical_percent == "80.0"
        assert report.totals.quantum_percent == "20.0"
        assert report.cfpv5_equivalent is False

    def test_factoring_tallies(self, factoring_model):
        report = measure_system(factoring_model)
        uc1, uc2 = report.per_process
        assert {k.value: v for k, v in uc1.tally.items() if v} == {
            "E": 2, "X": 2, "QE": 1, "QX": 1,
        }
        assert {k.value: v for k, v in uc2.tally.items() if v} == {"E": 2, "X": 2}

    def test_classical_model_is_cfpv5_equivalent(self):
        model = parse_model(load_fixture("warn_p3.qcm")).model
        report = measure_system(model)
        assert report.cfpv5_equivalent is True
        assert report.totals.quantum_qcfp == 0

    def test_single_movement_model(self):
        model = parse_model(
            'system "S" { layer classical "A" user classical "U" '
            'datagroup "g" {} '
            'process "P" in layer "A" { entry "g" from user "U" } }'
        ).model
        report = measure_system(model)
        assert report.totals.total_qcfp == 1
        assert report.totals.classical_percent == "100.0"

    def test_refuses_model_with_errors(self):
        result = parse_model(load_fixture("bad_r3.qcm"))
        assert result.model is not None  # structurally fine, semantically not
        with pytest.raises(UnvalidatedModelError, match="unvalidated model"):
            measure_system(result.model)

    def test_duplication_invariance_smoke(self, factoring_model):
        before = measure_system(factoring_model)
        bigger = inject_duplicate(factoring_model, 0, 0)
        assert measure_system(bigger) == before

    def test_additivity_over_corpus(self):
        rng = random.Random(41)
        for _ in range(100):
            model = random_model(rng)
            report = measure_system(model)
            assert report.totals.total_qcfp == sum(p.qcfp for p in report.per_process)
            assert report.totals.total_qcfp == sum(l.qcfp for l in report.per_layer)
            assert (
                report.totals.classical_qcfp + report.totals.quantum_qcfp
                == report.totals.total_qcfp
            )
            for p in report.per_process:
                assert sum(p.tally.values()) == p.qcfp

    def test_cosmic_oracle_agreement_smoke(self):
        rng = random.Random(42)
        for _ in range(30):
            model = random_model(rng, allow_quantum=False)
            report = measure_system(model)
            oracle = cosmic_count(model)
            assert report.totals.total_qcfp == oracle["total"]
            assert {p.name: p.qcfp for p in report.per_process} == oracle["per_process"]
            assert {l.name: l.qcfp for l in report.per_layer} == oracle["per_layer"]
            assert report.cfpv5_equivalent is True


class TestPercent:
    @pytest.mark.parametrize(
        "part,total,expected",
        [
            (8, 10, "80.0"),
            (2, 10, "20.0"),
            (1, 3, "33.3"),
            (2, 3, "66.7"),
            (1, 16, "6.3"),    # 6.25 rounds half-up
            (1, 8, "12.5"),
            (0, 0, "0.0"),
            (5, 5, "100.0"),
            (1, 1000, "0.1"),
            (1, 2000, "0.1"),  # 0.05 rounds half-up
        ],
    )
    def test_one_decimal_half_up(self, part, total, expected):
        assert percent(part, total) == expected

    @staticmethod
    def reference(part: int, total: int) -> str:
        if total == 0:
            return "0.0"
        value = Decimal(100 * part) / Decimal(total)
        return str(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))

    def test_equals_decimal_half_up_for_every_share_up_to_1000(self):
        wrong = [
            (part, total)
            for total in range(1001)
            for part in range(total + 1)
            if percent(part, total) != self.reference(part, total)
        ]
        assert wrong == []

    @settings(max_examples=500)
    @given(st.integers(0, 10**9).flatmap(lambda total: st.tuples(st.integers(0, total), st.just(total))))
    def test_equals_decimal_half_up_up_to_a_billion(self, share):
        part, total = share
        assert percent(part, total) == self.reference(part, total)
