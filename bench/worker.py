"""Benchmark worker: the only benchmark process that imports qcosmic.

`run.py` starts it from the root of a checkout and talks to it with one JSON
object per line on stdin and stdout:

  {"cmd": "warmup", "job": {...}}   run one untimed request, reply with problems
  {"cmd": "run", "seconds": S, "trace": 0|1}
                                    run the closed loop, reply with samples
  {"cmd": "quit"}                   exit

A bulk job lists model files, each with its expected results from corpus.py.
A CLI job lists fixture requests; in this process they call
`qcosmic.cli.main(argv)` in-process (the traced CLI run). Every output is
checked with check.py after its request's clock has stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, "src")

import check  # noqa: E402
import tracing  # noqa: E402
from qcosmic import (  # noqa: E402
    RenderOptions, cli, diagnostics, emit, formatter, measure, model, parser, rules,
)

MODULES = {"cli": cli, "parser": parser, "rules": rules, "measure": measure,
           "emit": emit, "model": model, "diagnostics": diagnostics}

PLAIN_OPS = {
    "parse_model": parser.parse_model,
    "validate": rules.validate,
    "measure_system": measure.measure_system,
    "render_text": emit.render_text,
    "render_json": emit.render_json,
    "render_csv": emit.render_csv,
    "render_dot": emit.render_dot,
    "format_model": formatter.format_model,
    "render_all": diagnostics.render_all,
    "sort": lambda found: sorted(found, key=diagnostics.sort_key),
    "main": cli.main,
}


def _failure(exc: BaseException) -> list[str]:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return [f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})"[:300]]


# -- one request -----------------------------------------------------------------


def clean_request(ops: dict, item: dict) -> tuple[float, list[str]]:
    """check + measure (text, json, csv) + diagram + fmt on one clean model."""
    start = time.perf_counter()
    text = Path(item["path"]).read_text(encoding="utf-8")
    result = ops["parse_model"](text, file=item["name"])
    found = ops["validate"](result.model)
    report = ops["measure_system"](result.model)
    outputs = {
        "text": ops["render_text"](report, RenderOptions(by_layer=True)),
        "json": ops["render_json"](report),
        "csv": ops["render_csv"](report),
        "dot": ops["render_dot"](result.model),
        "fmt": ops["format_model"](result.model),
    }
    elapsed = time.perf_counter() - start
    outputs["validate_codes"] = dict(sorted(Counter(d.code for d in found).items()))
    outputs["canonical"] = Path(item["canonical"]).read_text(encoding="utf-8")
    return elapsed, check.check_report(outputs, item["expected"])


def invalid_request(ops: dict, item: dict) -> tuple[float, list[str]]:
    """The `check` path: parse, validate when a model results, sort and render."""
    start = time.perf_counter()
    text = Path(item["path"]).read_text(encoding="utf-8")
    result = ops["parse_model"](text, file=item["name"])
    found = list(result.diagnostics)
    if result.model is None:
        exit_path = 2
    else:
        found += ops["validate"](result.model)
        exit_path = 1 if diagnostics.has_errors(found) else 0
    rendered = ops["render_all"](ops["sort"](found))
    elapsed = time.perf_counter() - start
    return elapsed, check.check_invalid(exit_path, rendered, item["expected"])


def cli_request(ops: dict, item: dict) -> tuple[float, list[str]]:
    """One `qcosmic` command run in-process with its streams captured."""
    argv = [item["argv"][0], item["path"], *item["argv"][1:]]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ops["main"](argv)
    elapsed = time.perf_counter() - start
    return elapsed, check.check_cli(item["fixture"], tuple(item["argv"]), code,
                                    out.getvalue(), err.getvalue(), item["ref"])


REQUESTS = {"clean": clean_request, "invalid": invalid_request, "cli": cli_request}


# -- loops ------------------------------------------------------------------------


class Runner:
    def __init__(self, job: dict):
        self.job = job
        self.failures: list[str] = []

    def one(self, ops: dict, item: dict) -> list:
        """[ms, source bytes, failed] for one checked request."""
        try:
            elapsed, problems = REQUESTS[item["request"]](ops, item)
        except Exception as exc:  # a traceback is a failed operation, not a crash of the benchmark
            elapsed, problems = float("nan"), _failure(exc)
        if problems and len(self.failures) < 20:
            self.failures.append(f"{item['name']}: {'; '.join(problems)}")
        return [elapsed * 1000, item["bytes"], bool(problems)]

    def loop(self, ops: dict, items: list[dict], seconds: float, on_done=None) -> list[list]:
        """Closed loop over whole cycles of ``items``, at least one.

        It stops at the end of the cycle closest to ``seconds``, judged by
        the length of the cycle just run.
        """
        samples = []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for item in items:
                samples.append(self.one(ops, item))
                if on_done is not None:
                    on_done(item)
            now = time.perf_counter()
            if now - start + (now - cycle_start) / 2 >= seconds:
                return samples

    def run(self, seconds: float, traced: bool) -> dict:
        items = self.job["items"]
        if not traced:
            samples = self.loop(PLAIN_OPS, items, seconds)
            return {"samples": samples, "failures": self.failures, "peak_rss_mb": peak_rss_mb()}

        plain = self.loop(PLAIN_OPS, items, seconds / 2)
        tracer = tracing.Tracer()
        ops = dict(PLAIN_OPS, **tracing.install(tracer, MODULES))
        ops["sort"] = tracer.wrap(PLAIN_OPS["sort"], "diagnostics.sort")
        ops["main"] = tracer.wrap(cli.main, "cli.main")
        summaries: list[dict] = []

        def record(item):
            summary = tracer.request_summary()
            summary.update(scale=item.get("scale", 0), movements=item["movements"])
            summaries.append(summary)
            tracer.begin_request()

        tracer.begin_request()
        try:
            traced = self.loop(ops, items, seconds / 2, record)
            # each 1x and 4x model twice, for the scaling ratios
            probe = self.loop(ops, self.job["probe"] * 2, 0, record) if self.job.get("probe") else []
        finally:
            tracer.restore()
        tracer.write(self.job["spans"])
        metrics = layer_metrics(summaries, self.job.get("scale", 0))
        metrics["trace.overhead_ratio"] = _median_ms(traced) / _median_ms(plain)
        return {"samples": plain + traced + probe, "failures": self.failures,
                "peak_rss_mb": peak_rss_mb(), "layer": metrics}


def _median_ms(samples: list[list]) -> float:
    return statistics.median(s[0] for s in samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(summaries: list[dict], scale: int) -> dict[str, float]:
    """Per-layer metrics from the traced requests; 0 where no request reached a layer.

    Times and counts are medians over the requests, at the corpus scale,
    that called the stage. ``*_scaling`` is t(scale) / (scale * t(1)).
    """
    main = [s for s in summaries if s["scale"] == scale]

    def stage(name: str, field: int = 0, group=None) -> float:
        values = [s["stages"][name][field] for s in (group or main) if name in s["stages"]]
        return statistics.median(values) if values else 0.0

    def count(name: str) -> float:
        values = [s["counts"][name] for s in main if s["counts"].get(name)]
        return statistics.median(values) if values else 0.0

    def scaling(name: str, field: int = 0) -> float:
        if scale <= 1:
            return 0.0
        small = stage(name, field, [s for s in summaries if s["scale"] == 1])
        return stage(name, field) / (scale * small) if small else 0.0

    tokens = sum(s["counts"].get("parser.tokens", 0) for s in main)
    tokenize_s = sum(s["stages"].get("parser.tokenize", [0])[0] for s in main) / 1000
    per_movement = [s["counts"]["model.lookups"] / s["movements"]
                    for s in main if s["counts"].get("model.lookups") and s["movements"]]
    return {
        "cli.main_self_ms": stage("cli.main", 1),
        "parser.tokenize_ms": stage("parser.tokenize"),
        "parser.parse_self_ms": stage("parser.parse_model", 1),
        "parser.tokens": count("parser.tokens"),
        "parser.tokens_per_s": tokens / tokenize_s if tokenize_s else 0.0,
        "parser.tokenize_scaling": scaling("parser.tokenize"),
        "parser.parse_scaling": scaling("parser.parse_model", 1),
        "rules.validate_ms": stage("rules.validate"),
        "rules.validate_calls": count("rules.validate_calls"),
        "rules.validate_scaling": scaling("rules.validate"),
        "rules.diagnostics": count("rules.diagnostics"),
        "model.lookups": count("model.lookups"),
        "model.lookups_per_movement": statistics.median(per_movement) if per_movement else 0.0,
        "model.process_nature_calls": count("model.process_nature_calls"),
        "measure.measure_system_self_ms": stage("measure.measure_system", 1),
        "measure.measure_system_scaling": scaling("measure.measure_system", 1),
        "emit.render_text_ms": stage("emit.render_text"),
        "emit.render_json_ms": stage("emit.render_json"),
        "emit.render_csv_ms": stage("emit.render_csv"),
        "emit.render_dot_ms": stage("emit.render_dot"),
        "emit.render_dot_scaling": scaling("emit.render_dot"),
        "formatter.format_model_ms": stage("formatter.format_model"),
        "formatter.format_model_scaling": scaling("formatter.format_model"),
        "diagnostics.render_all_ms": stage("diagnostics.render_all"),
        "diagnostics.count": count("diagnostics.count"),
    }


def main() -> int:
    runner = None
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "warmup":
            runner = Runner(command["job"])
            sample = runner.one(PLAIN_OPS, runner.job["items"][0])
            reply = {"failed": sample[2], "failures": runner.failures}
            runner.failures = []
        elif command["cmd"] == "run":
            reply = runner.run(command["seconds"], bool(command["trace"]))
        else:
            return 0
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
