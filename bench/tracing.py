"""In-memory spans and counters around the calls into qcosmic's modules.

Spans are recorded only from the benchmark's own files: the benchmark wraps
module attributes (the names the pipeline looks up at call time) and
restores them afterwards, so no file under `src/` changes. A span is
(id, parent, request, name, start, end); a layer's self time is its
duration minus that of its direct children, which nest fully because the
pipeline is single-threaded.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def wrap(self, fn, name: str, on_result=None, on_args=None):
        """A wrapper of ``fn`` that records a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in when the call ends
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            if on_args is not None:
                on_args(self.counts, args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, self.request, name, start, end)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def counting(self, fn, counter: str):
        """A wrapper of ``fn`` that only counts calls; lookups are too many for spans."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- per request ---------------------------------------------------------------

    def begin_request(self) -> None:
        self.request += 1
        self.counts = Counter()

    def request_summary(self) -> dict:
        """Per span name: total ms, self ms and calls, plus the counters, for the current request."""
        mine = [s for s in self.spans[self._first_span_of(self.request):] if s[2] == self.request]
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, start, end in mine:
            if parent >= 0:
                child_time[parent] += end - start
        stages: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for span_id, _, _, name, start, end in mine:
            entry = stages[name]
            entry[0] += (end - start) * 1000
            entry[1] += (end - start - child_time[span_id]) * 1000
            entry[2] += 1
        return {"stages": dict(stages), "counts": dict(self.counts)}

    def _first_span_of(self, request: int) -> int:
        index = len(self.spans)
        while index > 0 and self.spans[index - 1][2] == request:
            index -= 1
        return index

    def write(self, path) -> None:
        """Write every span as one JSON line: id, parent, request, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap the attributes the pipeline looks up inside qcosmic.

    ``modules`` maps a short name (``cli``, ``parser``, ...) to the imported
    module. Nested calls are seen through the module globals the callers
    read at call time: ``parse_model`` calls ``parser.tokenize`` and
    ``measure_system`` calls ``measure.validate``; the CLI calls every stage
    through ``cli.*``. Returns the wrapped stage functions by name, for
    callers that drive the library path themselves.
    """
    cli, parser, measure, model = modules["cli"], modules["parser"], modules["measure"], modules["model"]

    def tokens(counts, result):
        counts["parser.tokens"] += len(result[0])

    def validate_calls(counts, result):
        counts["rules.validate_calls"] += 1
        counts["rules.diagnostics"] += len(result)

    def rendered(counts, args):
        counts["diagnostics.count"] += len(args[0])

    tracer.patch(parser, "tokenize", tracer.wrap(parser.tokenize, "parser.tokenize", on_result=tokens))
    tracer.patch(measure, "validate",
                 tracer.wrap(measure.validate, "rules.validate", on_result=validate_calls))
    ops = {}
    for attr, name, hooks in (
        ("parse_model", "parser.parse_model", {}),
        ("validate", "rules.validate", {"on_result": validate_calls}),
        ("measure_system", "measure.measure_system", {}),
        ("render_text", "emit.render_text", {}),
        ("render_json", "emit.render_json", {}),
        ("render_csv", "emit.render_csv", {}),
        ("render_dot", "emit.render_dot", {}),
        ("format_model", "formatter.format_model", {}),
        ("render_all", "diagnostics.render_all", {"on_args": rendered}),
    ):
        ops[attr] = tracer.wrap(getattr(cli, attr), name, **hooks)
        tracer.patch(cli, attr, ops[attr])
    for method in ("layer", "user", "storage", "data_group", "process"):
        tracer.patch(model.Model, method, tracer.counting(getattr(model.Model, method), "model.lookups"))
    for module in (model, modules["rules"], measure, modules["emit"]):
        tracer.patch(module, "process_nature",
                     tracer.counting(module.process_nature, "model.process_nature_calls"))
    return ops
