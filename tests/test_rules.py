"""Rule catalog behavior: every rule triggers and passes on fixtures."""

from __future__ import annotations

import dataclasses
import random

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
    Severity,
    Span,
    UnresolvedReferenceError,
    UnvalidatedModelError,
    data_group_nature,
    format_model,
    measure_system,
    parse_model,
    validate,
)
from qcosmic import cli, rules
from qcosmic.model import QUANTUM_KINDS
from conftest import FIXTURES, load_fixture
from gen import random_model
from oracles import brute_force_cycles
from qcosmic.rules import _cycles

ERROR_RULES = ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"]
WARNING_RULES = ["P1", "P2", "P3"]


def uses_chain(length: int, ring: bool) -> Model:
    """Processes p0..pN-1 where each uses the next; in a ring the last uses p0."""
    lines = ['system "S" {', '  layer classical "L"']
    for i in range(length):
        target = (i + 1) % length if ring or i + 1 < length else None
        uses = f' uses "p{target}"' if target is not None else ""
        lines.append(f'  process "p{i}" in layer "L"{uses} {{}}')
    result = parse_model("\n".join(lines + ["}"]))
    assert result.model is not None
    return result.model


def check_fixture(name: str):
    result = parse_model(load_fixture(name), file=name)
    assert result.model is not None, [d.render() for d in result.diagnostics]
    return validate(result.model)


def errors(text: str) -> list[tuple[str, str]]:
    """(code, message) of each error that validate reports on ``text``."""
    model = parse_model(text).model
    assert model is not None
    return [(d.code, d.message) for d in validate(model) if d.severity is Severity.ERROR]


class TestTriggers:
    @pytest.mark.parametrize("code", ERROR_RULES)
    def test_error_rule_triggers_exactly(self, code):
        diagnostics = check_fixture(f"bad_{code.lower()}.qcm")
        errors = [d.code for d in diagnostics if d.severity is Severity.ERROR]
        assert errors == [code]

    @pytest.mark.parametrize("code", WARNING_RULES)
    def test_warning_rule_triggers_exactly(self, code):
        diagnostics = check_fixture(f"warn_{code.lower()}.qcm")
        assert [d.code for d in diagnostics] == [code]
        assert diagnostics[0].severity is Severity.WARNING


class TestPasses:
    @pytest.mark.parametrize("code", ERROR_RULES + WARNING_RULES)
    def test_pass_fixture_is_free_of_the_code(self, code):
        diagnostics = check_fixture(f"ok_{code.lower()}.qcm")
        assert code not in {d.code for d in diagnostics}
        assert not any(d.severity is Severity.ERROR for d in diagnostics)

    def test_factoring_fixture_is_clean(self, factoring_model):
        assert validate(factoring_model) == []


class TestRuleDetails:
    def test_r1_missing_classical_layer(self):
        # quantum-only layer set with a quantum element: exactly one R1
        diagnostics = check_fixture("bad_r1.qcm")
        assert sum(1 for d in diagnostics if d.code == "R1") == 1

    def test_r1_fires_once_even_when_both_natures_missing(self):
        text = 'system "S" { storage quantum "QS" }'
        model = parse_model(text).model
        errors = [d for d in validate(model) if d.code == "R1"]
        assert len(errors) == 1

    def test_r2_rejects_entry_from_storage(self):
        text = (
            'system "S" { layer classical "L" storage classical "D" datagroup "g" { } '
            'process "P" in layer "L" { entry "g" from storage "D" } }'
        )
        assert errors(text) == [
            ("R2", 'entry "g" from storage "D": entry and exit movements cannot target storage')
        ]

    def test_r3_rejects_quantum_kind_on_classical_storage(self):
        text = (
            'system "S" { layer classical "C" layer quantum "Q" storage classical "D" '
            'datagroup "g" { attr s: quantum } '
            'process "P" in layer "Q" { qread "g" from storage "D" } }'
        )
        assert errors(text) == [
            ("R3", 'qread "g" from storage "D": classical storage accepts only read/write')
        ]

    def test_r4_message_names_the_counterpart(self):
        diagnostics = check_fixture("bad_r4.qcm")
        assert "Mathematician" in diagnostics[0].message

    def test_r4_rejects_quantum_movement_in_classical_layer(self):
        text = (
            'system "S" { layer classical "C" layer quantum "Q" '
            'user quantum "QU" datagroup "qg" { attr s: quantum } '
            'process "P" in layer "C" { qentry "qg" from user "QU" } }'
        )
        model = parse_model(text).model
        codes = [d.code for d in validate(model) if d.severity is Severity.ERROR]
        assert codes == ["R4"]

    def test_r5_rejects_conversion_outside_quantum_layer(self):
        text = (
            'system "S" { layer classical "C" layer quantum "Q" '
            'datagroup "g" { attr v: classical } '
            'process "P" in layer "C" { qentry "g" from layer "Q" via prepare } }'
        )
        model = parse_model(text).model
        codes = [d.code for d in validate(model) if d.severity is Severity.ERROR]
        assert codes == ["R5"]

    def test_r5_rejects_quantum_counterpart(self):
        text = (
            'system "S" { layer classical "C" layer quantum "Q" '
            'user quantum "QU" datagroup "g" { attr v: classical } '
            'process "P" in layer "Q" { qentry "g" from user "QU" via prepare } }'
        )
        model = parse_model(text).model
        codes = [d.code for d in validate(model) if d.severity is Severity.ERROR]
        assert codes == ["R5"]

    def test_r8_reports_the_pair_once(self):
        diagnostics = check_fixture("bad_r8.qcm")
        assert sum(1 for d in diagnostics if d.code == "R8") == 1

    def test_r8_ignores_a_read_from_a_process(self):
        # the read is R2's concern; it declares no flow, so the exit stays single
        text = (
            'system "S" { layer classical "L" datagroup "g" { } '
            'process "A" in layer "L" { exit "g" to process "B" } '
            'process "B" in layer "L" { read "g" from process "A" } }'
        )
        assert errors(text) == [
            ("R2", 'read "g" from process "A": read and write movements must target storage')
        ]

    def test_r9_reports_each_cycle_once_with_the_chain(self):
        diagnostics = check_fixture("bad_r9.qcm")
        r9 = [d for d in diagnostics if d.code == "R9"]
        assert len(r9) == 1
        assert "Schedule" in r9[0].message and "Execute" in r9[0].message

    def test_r9_self_use(self):
        text = (
            'system "S" { layer classical "C" '
            'process "P" in layer "C" uses "P" {} }'
        )
        model = parse_model(text).model
        assert any(d.code == "R9" for d in validate(model))

    def test_r9_deep_acyclic_chain(self):
        diagnostics = validate(uses_chain(3000, ring=False))
        assert not any(d.code == "R9" for d in diagnostics)

    def test_r9_deep_ring_is_one_cycle_in_declaration_order(self):
        r9 = [d for d in validate(uses_chain(3000, ring=True)) if d.code == "R9"]
        assert len(r9) == 1
        chain = " -> ".join([f"p{i}" for i in range(3000)] + ["p0"])
        assert r9[0].message == f"cyclic uses chain: {chain}"
        assert r9[0].subject == "p0"

    def test_p3_message_mentions_cfpv5(self):
        diagnostics = check_fixture("warn_p3.qcm")
        assert "CFPv5" in diagnostics[0].message


class TestInvariants:
    def test_cycles_agree_with_brute_force(self):
        # small random uses graphs with self-loops, repeated and dangling uses
        rng = random.Random(29)
        shapes = set()
        for _ in range(300):
            names = [f"p{i}" for i in range(rng.randrange(1, 9))]
            pool = names + ["ghost"]
            processes = tuple(
                FunctionalProcess(name, "L", uses=tuple(rng.choices(pool, k=rng.randrange(4))))
                for name in names
            )
            model = Model(name="m", processes=processes)
            if any("ghost" in p.uses for p in processes):
                with pytest.raises(UnresolvedReferenceError, match="'ghost'"):
                    _cycles(model)
                shapes.add("dangling")
                continue
            cycles = _cycles(model)
            assert cycles == brute_force_cycles(model)
            shapes.update(len(c) for c in cycles)
            shapes.add(f"{len(cycles)} cycles")
        assert {1, 2, 3, "0 cycles", "2 cycles", "3 cycles", "dangling"} <= shapes

    def test_determinism(self, factoring_text):
        model = parse_model(factoring_text).model
        assert validate(model) == validate(model)

    def test_r6_r7_soundness_over_corpus(self):
        # after a clean validation, a movement kind is quantum exactly when
        # the moved group is quantum or the movement converts
        rng = random.Random(31)
        checked = 0
        for _ in range(150):
            model = random_model(rng)
            assert not any(d.severity is Severity.ERROR for d in validate(model))
            for process in model.processes:
                for movement in process.movements:
                    group_quantum = (
                        data_group_nature(model.data_group(movement.data_group))
                        is Nature.QUANTUM
                    )
                    converts = movement.conversion is not Conversion.NONE
                    assert (movement.kind in QUANTUM_KINDS) == (group_quantum or converts)
                    checked += 1
        assert checked > 500

    @pytest.mark.parametrize(
        "source,expected",
        [
            ('system "S" { layer quantum "Q" user quantum "U" }', 1),
            ('system "S" { layer classical "C" storage quantum "QS" }', 1),
            ('system "S" { user quantum "U" }', 1),
            (
                'system "S" { layer classical "A" layer classical "B" '
                'datagroup "qg" { attr s: quantum } }',
                1,
            ),
            (
                'system "S" { layer classical "C" layer quantum "Q" '
                'datagroup "qg" { attr s: quantum } }',
                0,
            ),
            ('system "S" { layer classical "C" user classical "U" }', 0),
        ],
    )
    def test_r1_completeness(self, source, expected):
        # a quantum system lacking either layer nature gets exactly one R1
        model = parse_model(source).model
        assert model is not None
        r1 = [d for d in validate(model) if d.code == "R1"]
        assert len(r1) == expected

    def test_severity_monotonicity(self):
        # adding an unrelated declaration never clears an existing error
        from qcosmic import FunctionalUser

        for fixture in [f"bad_{c.lower()}.qcm" for c in ERROR_RULES]:
            text = load_fixture(fixture)
            model = parse_model(text, file=fixture).model
            before = {d.code for d in validate(model) if d.severity is Severity.ERROR}
            grown = dataclasses.replace(
                model,
                users=model.users + (FunctionalUser("Unrelated Observer", Nature.CLASSICAL),),
            )
            after = {d.code for d in validate(grown) if d.severity is Severity.ERROR}
            assert before <= after

    def test_diagnostic_rendering_contract(self):
        result = parse_model(load_fixture("bad_r3.qcm"), file="bad_r3.qcm")
        diagnostics = validate(result.model)
        line = diagnostics[0].render()
        assert line.startswith("error[R3] Persist: ")
        assert line.endswith("(bad_r3.qcm:12:5)")

    def test_stable_ordering_by_position_then_code(self):
        text = (
            'system "S" { layer classical "C" layer quantum "Q" '
            'user classical "U" storage quantum "QS" '
            'datagroup "qg" { attr s: quantum } '
            'process "A" in layer "C" { write "qg" to storage "QS" } '
            'process "B" in layer "C" { qexit "qg" to user "U" } }'
        )
        model = parse_model(text).model
        diagnostics = validate(model)
        positions = [(d.span.line, d.span.column) if d.span else (0, 0) for d in diagnostics]
        assert positions == sorted(positions)


def count_catalog_runs(monkeypatch) -> list:
    """Record each run of the rule catalog through R9's one call of _cycles."""
    runs = []
    original = rules._cycles

    def counted(model):
        runs.append(model)
        return original(model)

    monkeypatch.setattr(rules, "_cycles", counted)
    return runs


class TestCatalogRunsOnce:
    @pytest.mark.parametrize(
        "argv",
        [["check"], ["measure"], ["measure", "--format", "json"], ["diagram"]],
    )
    def test_each_command_runs_the_catalog_once(self, monkeypatch, capsys, argv):
        runs = count_catalog_runs(monkeypatch)
        assert cli.main([argv[0], str(FIXTURES / "factoring.qcm"), *argv[1:]]) == 0
        assert len(runs) == 1

    def test_validate_then_measure_runs_the_catalog_once(self, monkeypatch, factoring_text):
        model = parse_model(factoring_text).model
        runs = count_catalog_runs(monkeypatch)
        validate(model)
        assert measure_system(model).totals.total_qcfp == 10
        assert len(runs) == 1

    def test_validate_returns_equal_but_distinct_lists(self):
        model = parse_model(load_fixture("bad_r4.qcm")).model
        first = validate(model)
        expected = list(first)
        first.append(first[0])
        second = validate(model)
        assert second == expected
        assert second is not first


C, Q = Nature.CLASSICAL, Nature.QUANTUM
# category -> a model built in code that declares the name "x" twice in it
_DECLARED_TWICE = {
    "layer": Model("S", layers=(Layer("x", C), Layer("x", Q))),
    "user": Model("S", users=(FunctionalUser("x", C), FunctionalUser("x", C))),
    "storage": Model("S", storages=(PersistentStorage("x", C), PersistentStorage("x", C))),
    "datagroup": Model("S", data_groups=(DataGroup("x"), DataGroup("x"))),
    "process": Model(
        "S",
        layers=(Layer("l", C),),
        processes=(FunctionalProcess("x", "l"), FunctionalProcess("x", "l")),
    ),
    "attribute": Model("S", data_groups=(DataGroup("g", (Attribute("x", C), Attribute("x", C))),)),
}


class TestDeclaredTwice:
    @pytest.mark.parametrize("category", _DECLARED_TWICE)
    def test_later_declaration_is_s2_in_the_parsers_words(self, category):
        model = _DECLARED_TWICE[category]
        found = [(d.code, d.message, d.subject) for d in validate(model) if d.is_error]
        assert found == [("S2", f"duplicate {category} name 'x'", "x")]
        parsed = parse_model(format_model(model)).diagnostics
        assert found == [(d.code, d.message, d.subject) for d in parsed if d.is_error]
        with pytest.raises(UnvalidatedModelError):
            measure_system(model)

    def test_each_later_declaration_is_reported_at_its_span(self):
        spans = [Span("m.qcm", line, 1) for line in (1, 2, 3)]
        model = Model("S", users=tuple(FunctionalUser("u", C, span) for span in spans))
        found = [d for d in validate(model) if d.code == "S2"]
        assert [d.span for d in found] == spans[1:]

    def test_the_same_object_twice_is_declared_twice(self):
        layer = Layer("l", C)
        assert [d.code for d in validate(Model("S", layers=(layer, layer)))] == ["P3", "S2"]


def test_spanless_order_across_processes_and_within_a_movement():
    # Without spans every sort key is ("", 0, 0, code, subject), so findings
    # of one code and subject keep the sweep's order: declaration order of
    # processes and movements, and R4's layer finding before its
    # counterpart finding on the same movement.
    user = Endpoint(EndpointKind.USER, "U")
    model = Model(
        name="S",
        layers=(Layer("C", Nature.CLASSICAL), Layer("Q", Nature.QUANTUM)),
        users=(FunctionalUser("U", Nature.CLASSICAL),),
        data_groups=(
            DataGroup("cg"),
            DataGroup("qg", (Attribute("s", Nature.QUANTUM),)),
        ),
        processes=(
            FunctionalProcess("B", "C", (
                DataMovement(MovementKind.QX, "qg", user),
                DataMovement(MovementKind.E, "qg", user),
                DataMovement(MovementKind.R, "cg", user),
                DataMovement(MovementKind.W, "cg", user),
            )),
            FunctionalProcess("A", "Q", (
                DataMovement(MovementKind.E, "qg", user),
                DataMovement(MovementKind.W, "cg", user),
                DataMovement(MovementKind.QE, "cg", user),
            )),
        ),
    )
    assert [(d.code, d.subject, d.message) for d in validate(model)] == [
        ("R2", "A", 'write "cg" to user "U": read and write movements must target storage'),
        ("R2", "B", 'read "cg" from user "U": read and write movements must target storage'),
        ("R2", "B", 'write "cg" to user "U": read and write movements must target storage'),
        ("R4", "A", 'qentry "cg" from user "U": classical user \'U\' '
                    "cannot exchange quantum data without a conversion"),
        ("R4", "B", 'qexit "qg" to user "U": quantum data handled inside classical layer \'C\''),
        ("R4", "B", 'qexit "qg" to user "U": classical user \'U\' '
                    "cannot exchange quantum data without a conversion"),
        ("R6", "A", 'entry "qg" from user "U": quantum data group \'qg\' '
                    "requires a quantum movement kind"),
        ("R6", "B", 'entry "qg" from user "U": quantum data group \'qg\' '
                    "requires a quantum movement kind"),
        ("R7", "A", 'qentry "cg" from user "U": classical data group \'cg\' moves via '
                    "a quantum kind but never converts"),
    ]
