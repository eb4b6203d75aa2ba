"""Every pipeline stage makes a constant number of calls per movement, and the
parse holds a constant number of bytes per token.

``cProfile`` counts every Python and built-in call exactly, the same on any
machine, so a stage whose work grows faster than its input fails here where
a clock would only drift. Each stage runs at scales 1 and 4, and its calls
per movement (per token for ``tokenize``) at 4x may be at most ``BOUND``
times those at 1x.

Inputs: the four ``bench/corpus.py`` families, each through the stages that
its path reaches (a bad-parse model stops at the parse, a bad-rules model at
validation), and one wide process. The corpus grows by adding processes of
a fixed length, so it cannot show work that is quadratic within a process;
the wide model is one process whose movements, users and data groups all
grow with the scale. Its names compare through a Python ``__eq__``, so a
scan over names is counted even when a built-in such as ``in`` runs it.

The ``tracemalloc`` peak of ``parse_model`` per token, after one warm-up
parse, is held to the same bound for the four corpus families, so a parse
that keeps more than a constant amount per token fails too.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import pstats
import tracemalloc

import pytest

from qcosmic import (
    Attribute,
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
    format_model,
    measure_system,
    parse_model,
    render_dot,
    render_json,
    tokenize,
    validate,
)
from conftest import bench_corpus

BOUND = 1.05
SCALES = (1, 4)
WIDE_MOVEMENTS = 128  # per scale unit
SEED = 3

PARSE_STAGES = ("tokenize", "parse_model")
CHECK_STAGES = PARSE_STAGES + ("validate",)
ALL_STAGES = CHECK_STAGES + ("measure_system", "render_json", "render_dot", "format_model")
FAMILY_STAGES = {
    "text": ALL_STAGES,
    "resolve": ALL_STAGES,
    "bad-parse": PARSE_STAGES,
    "bad-rules": CHECK_STAGES,
    "wide": ALL_STAGES,
}


class _Name(str):
    """A name whose ``==`` is a Python call, which the profiler counts."""

    __slots__ = ()
    __hash__ = str.__hash__

    def __eq__(self, other):
        return str.__eq__(self, other)


def _wide_model(scale: int) -> Model:
    """One process with one entry per user, each of its own data group."""
    count = WIDE_MOVEMENTS * scale
    layer = _Name("layer")
    users = tuple(FunctionalUser(_Name(f"user {i}"), Nature.CLASSICAL) for i in range(count))
    groups = tuple(
        DataGroup(_Name(f"group {i}"), (Attribute("a", Nature.CLASSICAL),)) for i in range(count)
    )
    movements = tuple(
        DataMovement(MovementKind.E, group.name, Endpoint(EndpointKind.USER, user.name))
        for group, user in zip(groups, users)
    )
    return Model(
        "Wide",
        layers=(Layer(layer, Nature.CLASSICAL),),
        users=users,
        data_groups=groups,
        processes=(FunctionalProcess(_Name("process"), layer, movements),),
    )


def _calls(function, *args) -> tuple[int, object]:
    profiler = cProfile.Profile()
    result = profiler.runcall(function, *args)
    return pstats.Stats(profiler).total_calls, result


@functools.lru_cache(maxsize=None)
def _calls_per_unit(family: str, scale: int) -> dict[str, float]:
    """Each stage's calls per movement, and per token for ``tokenize``."""
    if family == "wide":
        model = _wide_model(scale)
        text, movements = format_model(model), WIDE_MOVEMENTS * scale
    else:
        generated = bench_corpus().FAMILIES[family](SEED, scale)
        text, movements = generated.source, generated.expected["movements"]
    stages = FAMILY_STAGES[family]
    calls = {}
    tokenize_calls, (kinds, *_) = _calls(tokenize, text)
    calls["parse_model"], result = _calls(parse_model, text)
    assert (result.model is None) == (family == "bad-parse")
    if family != "wide":
        model = result.model
    if "validate" in stages:
        calls["validate"], _ = _calls(validate, model)
    if "measure_system" in stages:
        calls["measure_system"], report = _calls(measure_system, model)
        calls["render_json"], _ = _calls(render_json, report)
        calls["render_dot"], _ = _calls(render_dot, model)
        calls["format_model"], _ = _calls(format_model, model)
    per_unit = {stage: count / movements for stage, count in calls.items()}
    per_unit["tokenize"] = tokenize_calls / len(kinds)
    return per_unit


@pytest.mark.parametrize(
    ("family", "stage"),
    [(family, stage) for family, stages in FAMILY_STAGES.items() for stage in stages],
)
def test_calls_per_movement_do_not_grow_with_scale(family, stage):
    small, large = (_calls_per_unit(family, scale)[stage] for scale in SCALES)
    assert large <= BOUND * small, (
        f"{family} {stage}: {small:.2f} calls per unit at {SCALES[0]}x, "
        f"{large:.2f} at {SCALES[1]}x"
    )


@functools.lru_cache(maxsize=None)
def _peak_bytes_per_token(family: str, scale: int) -> float:
    text = bench_corpus().FAMILIES[family](SEED, scale).source
    tokens = len(tokenize(text)[0])
    parse_model(text)  # fills what the first parse in a process builds once
    gc.collect()
    tracemalloc.start()
    try:
        parse_model(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / tokens


@pytest.mark.parametrize("family", ["text", "resolve", "bad-parse", "bad-rules"])
def test_parse_peak_memory_per_token_does_not_grow_with_scale(family):
    small, large = (_peak_bytes_per_token(family, scale) for scale in SCALES)
    assert large <= BOUND * small, (
        f"{family}: {small:.0f} bytes per token at {SCALES[0]}x, {large:.0f} at {SCALES[1]}x"
    )
