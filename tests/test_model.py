"""Nature derivation: data groups, processes, systems."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given
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
    RenderOptions,
    Span,
    UnresolvedReferenceError,
    UnvalidatedModelError,
    data_group_nature,
    measure_system,
    process_nature,
    render_dot,
    system_nature,
    validate,
)
from qcosmic.model import QUANTUM_KINDS
from gen import DANGLING, dangling_model, first_declarations, random_model, repeat_declarations
from oracles import brute_force_process_nature, brute_force_system_nature

C, Q = Nature.CLASSICAL, Nature.QUANTUM


def group(*attrs: tuple[str, Nature]) -> DataGroup:
    return DataGroup("g", tuple(Attribute(n, v) for n, v in attrs))


class TestDataGroupNature:
    def test_all_classical(self):
        assert data_group_nature(group(("n", C))) is C

    def test_one_quantum_attribute_makes_the_group_quantum(self):
        assert data_group_nature(group(("amplitude", Q), ("label", C))) is Q

    def test_empty_group_defaults_to_classical(self):
        assert data_group_nature(group()) is C

    @given(
        st.lists(
            st.tuples(st.text(min_size=1), st.sampled_from([C, Q])),
            max_size=6,
        )
    )
    def test_order_independent(self, attrs):
        names = {f"a{i}": nature for i, (_, nature) in enumerate(attrs)}
        attrs = [(name, nature) for name, nature in names.items()]
        rng = random.Random(0)
        shuffled = attrs[:]
        rng.shuffle(shuffled)
        assert data_group_nature(group(*attrs)) is data_group_nature(group(*shuffled))


def small_model(layer_nature=C, group_attrs=(("v", C),), kind=MovementKind.E, conversion=None):
    from qcosmic import Conversion

    movement = DataMovement(
        kind,
        "g",
        Endpoint(EndpointKind.USER, "u"),
        conversion or Conversion.NONE,
    )
    return Model(
        name="m",
        layers=(Layer("l", layer_nature),),
        users=(FunctionalUser("u", C),),
        data_groups=(group(*group_attrs),),
        processes=(FunctionalProcess("p", "l", (movement,)),),
    )


class TestProcessNature:
    def test_purely_classical(self):
        model = small_model()
        assert process_nature(model.processes[0], model) is C

    def test_quantum_layer_makes_process_quantum(self):
        model = small_model(layer_nature=Q)
        assert process_nature(model.processes[0], model) is Q

    def test_quantum_data_group_makes_process_quantum(self):
        model = small_model(group_attrs=(("amp", Q),), kind=MovementKind.QE)
        assert process_nature(model.processes[0], model) is Q

    def test_conversion_makes_process_quantum(self):
        from qcosmic import Conversion

        model = small_model(kind=MovementKind.QE, conversion=Conversion.PREPARE)
        assert process_nature(model.processes[0], model) is Q

    def test_unresolved_layer_reference(self):
        process = FunctionalProcess("p", "missing", ())
        model = Model(name="m", processes=(process,))
        with pytest.raises(UnresolvedReferenceError) as exc:
            process_nature(process, model)
        assert "missing" in str(exc.value)

    def test_first_declaration_of_a_name_wins(self):
        first, second = Layer("l", C), Layer("l", Q)
        model = Model(name="m", layers=(first, second))
        assert model.layer("l") is first

    def test_unresolved_data_group_names_its_category(self):
        with pytest.raises(UnresolvedReferenceError) as exc:
            small_model().data_group("nope")
        assert exc.value.category == "datagroup"
        assert exc.value.name == "nope"

    def test_agrees_with_brute_force_over_corpus(self):
        rng = random.Random(11)
        for _ in range(150):
            model = random_model(rng)
            for process in model.processes:
                assert process_nature(process, model) is brute_force_process_nature(
                    process, model
                )


class TestSystemNature:
    def test_classical_only(self):
        assert system_nature(small_model()) is C

    def test_factoring_model_is_quantum(self, factoring_model):
        assert system_nature(factoring_model) is Q

    def test_single_quantum_storage_flips_the_system(self):
        base = small_model()
        model = Model(
            name=base.name,
            layers=base.layers,
            users=base.users,
            storages=(PersistentStorage("qs", Q),),
            data_groups=base.data_groups,
            processes=base.processes,
        )
        assert system_nature(model) is Q
        assert system_nature(model) is brute_force_system_nature(model)

    def test_a_conversion_alone_makes_the_system_quantum(self):
        # every declaration is classical; only the movement's 'via prepare' is
        # quantum, so the system lacks a quantum layer
        model = small_model(kind=MovementKind.QE, conversion=Conversion.PREPARE)
        assert system_nature(model) is Q
        assert [d.code for d in validate(model)] == ["R1", "R5"]

    def test_agrees_with_brute_force_over_corpus(self):
        rng = random.Random(12)
        for _ in range(150):
            model = random_model(rng)
            assert system_nature(model) is brute_force_system_nature(model)


class TestDerivedFacts:
    def test_replaced_model_derives_its_own_facts(self):
        model = small_model()
        process = model.processes[0]
        assert process_nature(process, model) is C
        assert system_nature(model) is C
        assert [d.code for d in validate(model)] == ["P3"]
        flipped = dataclasses.replace(model, layers=(Layer("l", Q),))
        assert flipped.processes[0] is process
        assert process_nature(process, flipped) is Q
        assert system_nature(flipped) is Q
        assert [d.code for d in validate(flipped)] == ["R1"]
        # the original keeps its own facts
        assert process_nature(process, model) is C
        assert [d.code for d in validate(model)] == ["P3"]

    def test_foreign_process_with_a_declared_name_is_derived_from_itself(self):
        model = small_model()
        assert process_nature(model.processes[0], model) is C
        converting = DataMovement(
            MovementKind.QE, "g", Endpoint(EndpointKind.USER, "u"), Conversion.PREPARE
        )
        foreign = FunctionalProcess("p", "l", (converting,))
        assert process_nature(foreign, model) is Q
        assert process_nature(model.processes[0], model) is C

    def test_memo_takes_no_part_in_equality_or_hashing(self):
        fresh, used = small_model(), small_model()
        system_nature(used)
        validate(used)
        assert fresh == used
        assert hash(fresh) == hash(used)
        assert "_derived" not in repr(used)

    def test_the_dataclass_interface_is_the_declarations(self, factoring_model):
        assert [f.name for f in dataclasses.fields(Model)] == [
            "name", "purpose", "scope", "layers", "users", "storages", "data_groups", "processes",
        ]
        before = dataclasses.asdict(factoring_model), dataclasses.astuple(factoring_model)
        validate(factoring_model)
        measure_system(factoring_model)
        render_dot(factoring_model)
        after = dataclasses.asdict(factoring_model), dataclasses.astuple(factoring_model)
        assert after == before


class TestUnresolvedReferences:
    """Hand-built models may name what they never declare; parsed ones cannot."""

    @pytest.mark.parametrize("category", ["datagroup", "layer"])
    def test_process_nature_of_another_process_stays_lazy(self, category):
        model = dangling_model("datagroup")
        p, q = model.processes
        if category == "layer":
            q = dataclasses.replace(q, layer="nope")
            model = dataclasses.replace(model, processes=(p, q))
        assert process_nature(p, model) is C
        with pytest.raises(UnresolvedReferenceError) as exc:
            process_nature(q, model)
        assert exc.value.category == category

    @pytest.mark.parametrize("category", DANGLING)
    def test_validate_raises(self, category):
        with pytest.raises(UnresolvedReferenceError) as exc:
            validate(dangling_model(category))
        assert (exc.value.category, exc.value.name) == (category, "nope")

    @pytest.mark.parametrize("category", DANGLING)
    @pytest.mark.parametrize("scope", [None, "q"])
    def test_render_dot_raises(self, category, scope):
        with pytest.raises(UnresolvedReferenceError) as exc:
            render_dot(dangling_model(category), RenderOptions(scope=scope))
        assert (exc.value.category, exc.value.name) == (category, "nope")

    @pytest.mark.parametrize("category", DANGLING)
    def test_raised_error_chains_no_other_exception(self, category):
        model = dangling_model(category)
        calls = [
            lambda: validate(model),
            lambda: measure_system(model),
            lambda: render_dot(model),
            lambda: render_dot(model, RenderOptions(scope="q")),
        ]
        if category == "datagroup":  # a counterpart takes no part in the process's nature
            calls.append(lambda: process_nature(model.processes[1], model))
        for call in calls:
            with pytest.raises(UnresolvedReferenceError) as exc:
                call()
            assert exc.value.__context__ is None

    def test_scoped_diagram_resolves_only_its_process(self):
        model = dangling_model("user")
        assert '"process p"' in render_dot(model, RenderOptions(scope="p"))

    def test_use_of_an_undeclared_process_raises(self):
        model = small_model()
        (p,) = model.processes
        model = dataclasses.replace(model, processes=(dataclasses.replace(p, uses=("nope",)),))
        for whole in (validate, measure_system, render_dot):
            with pytest.raises(UnresolvedReferenceError) as exc:
                whole(model)
            assert (exc.value.category, exc.value.name) == ("process", "nope"), whole.__name__
        assert "nope" not in render_dot(model, RenderOptions(scope="p"))


def test_a_repeated_name_reads_as_its_first_declaration():
    """Metamorphic: declaring a name or an attribute again changes nothing but S2."""
    rng = random.Random(3)
    for _ in range(300):
        model = repeat_declarations(rng, random_model(rng, max_processes=5, max_movements=6))
        first = first_declarations(model)
        findings = [d for d in validate(model) if d.code != "S2"]
        assert findings == validate(first)
        assert render_dot(model) == render_dot(first)
        assert system_nature(model) is system_nature(first)
        with pytest.raises(UnvalidatedModelError):
            measure_system(model)


LOOKUPS = ("layer", "user", "storage", "data_group", "process")


class TestResolveOnce:
    """validate, measure_system and render_dot look names up a bounded number
    of times, however many movements the model has."""

    @staticmethod
    def lookups(monkeypatch, model: Model) -> tuple[int, int]:
        """Lookup calls made by validate + measure_system, then by render_dot."""
        calls: list[str] = []
        for name in LOOKUPS:
            method = getattr(Model, name)
            monkeypatch.setattr(
                Model, name, lambda self, key, _m=method: calls.append(key) or _m(self, key)
            )
        validate(model)
        measure_system(model)
        before_dot = len(calls)
        render_dot(model)
        monkeypatch.undo()
        return before_dot, len(calls) - before_dot

    def test_lookups_are_bounded_by_declarations(self, monkeypatch):
        rng = random.Random(5)
        for _ in range(20):
            model = random_model(rng, max_processes=20, max_movements=12)
            declarations = sum(map(len, (
                model.layers, model.users, model.storages, model.data_groups, model.processes,
            )))
            pipeline, dot = self.lookups(monkeypatch, model)
            assert pipeline <= len(model.processes) + declarations
            assert dot == 0
            doubled = dataclasses.replace(model, processes=tuple(
                dataclasses.replace(p, movements=p.movements * 2) for p in model.processes
            ))
            assert self.lookups(monkeypatch, doubled) == (pipeline, 0)


class TestMovementIsQuantum:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            (MovementKind.E, False),
            (MovementKind.X, False),
            (MovementKind.R, False),
            (MovementKind.W, False),
            (MovementKind.QE, True),
            (MovementKind.QX, True),
            (MovementKind.QR, True),
            (MovementKind.QW, True),
        ],
    )
    def test_table(self, kind, expected):
        assert (kind in QUANTUM_KINDS) is expected


def test_nature_derivation_is_monotone():
    # flipping any attribute to quantum never turns a derived nature back
    # to classical anywhere in the model
    rng = random.Random(13)
    for _ in range(60):
        model = random_model(rng)
        flippable = [
            (gi, ai)
            for gi, g in enumerate(model.data_groups)
            for ai, a in enumerate(g.attributes)
            if a.nature is C
        ]
        if not flippable:
            continue
        gi, ai = rng.choice(flippable)
        before_groups = [data_group_nature(g) for g in model.data_groups]
        before_processes = [process_nature(p, model) for p in model.processes]
        before_system = system_nature(model)

        import dataclasses

        g = model.data_groups[gi]
        attrs = tuple(
            dataclasses.replace(a, nature=Q) if i == ai else a
            for i, a in enumerate(g.attributes)
        )
        groups = tuple(
            dataclasses.replace(g, attributes=attrs) if i == gi else other
            for i, other in enumerate(model.data_groups)
        )
        flipped = dataclasses.replace(model, data_groups=groups)

        for before, after_group in zip(before_groups, flipped.data_groups):
            if before is Q:
                assert data_group_nature(after_group) is Q
        for before, process in zip(before_processes, flipped.processes):
            if before is Q:
                assert process_nature(process, flipped) is Q
        if before_system is Q:
            assert system_nature(flipped) is Q


@pytest.mark.parametrize("line, column, length", [(0, 1, 0), (1, 0, 0), (1, 1, -1)])
def test_span_rejects_positions_before_the_start(line, column, length):
    with pytest.raises(ValueError, match="invalid span"):
        Span("m.qcm", line, column, length)
