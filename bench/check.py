"""Output checks against references that do not come from qcosmic.

Generated models are checked against the expectations `corpus.py` derives from
its own construction. The fixtures under `fixtures/` are checked against a
hand-written table of exit codes and rule codes, plus a small line-based
reader of the fixture text that counts unique movements. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter

_CODE = re.compile(r"^(?:error|warning)\[(\w+)\]", re.M)
_STRING = r'"((?:[^"\\\r\n]|\\.)*)"'
_MOVEMENT = re.compile(
    r"^\s*(q?(?:entry|exit|read|write))\s+" + _STRING
    + r"\s+(?:from|to)\s+(user|storage|process|layer)\s+" + _STRING
    + r"(?:\s+via\s+(prepare|measure))?\s*(?://.*)?$"
)
_PROCESS = re.compile(r"^\s*process\s+" + _STRING + r"\s+in\s+layer\s+" + _STRING + r"(.*)$")
_LAYER = re.compile(r"^\s*layer\s+(?:classical|quantum)\s+" + _STRING)


def diagnostic_codes(rendered: str) -> dict[str, int]:
    """Count of each code in rendered ``severity[code] ...`` lines."""
    return dict(sorted(Counter(_CODE.findall(rendered)).items()))


def check_codes(actual: dict[str, int], expected: dict[str, int]) -> list[str]:
    if actual != expected:
        return [f"diagnostic codes {actual} != expected {expected}"]
    return []


def check_report(outputs: dict, expected: dict) -> list[str]:
    """Check one clean-model request: validate, measure, render, diagram, fmt."""
    problems = check_codes(outputs["validate_codes"], expected["codes"])
    total, classical, quantum = expected["total"], expected["classical"], expected["quantum"]

    report = json.loads(outputs["json"])
    got = (report["total_qcfp"], report["classical_qcfp"], report["quantum_qcfp"])
    if got != (total, classical, quantum):
        problems.append(f"json totals {got} != {(total, classical, quantum)}")
    if [p["qcfp"] for p in report["processes"]] != expected["processes"]:
        problems.append("json per-process qcfp differs from the reference")
    if [p["nature"] for p in report["processes"]] != expected["natures"]:
        problems.append("json process natures differ from the reference")
    if [layer["qcfp"] for layer in report["layers"]] != expected["layers"]:
        problems.append(
            f"json per-layer qcfp {[l['qcfp'] for l in report['layers']]} != {expected['layers']}"
        )
    if report["cfpv5_equivalent"] is not expected["cfpv5"]:
        problems.append("json cfpv5_equivalent differs from the reference")

    rows = list(csv.reader(io.StringIO(outputs["csv"])))
    if [int(row[-1]) for row in rows[1:-1]] != expected["processes"] or rows[-1][0] != "TOTAL" \
            or int(rows[-1][-1]) != total:
        problems.append("csv rows differ from the reference")

    problems += _check_text(outputs["text"], total, classical, quantum)
    edges = outputs["dot"].count(" -> ")
    if edges != expected["dot_edges"] or not outputs["dot"].startswith("digraph "):
        problems.append(f"dot has {edges} edges, expected {expected['dot_edges']}")
    if outputs["fmt"] != outputs["canonical"]:
        problems.append("fmt output differs from the canonical text")
    return problems


def _check_text(text: str, total: int, classical: int, quantum: int) -> list[str]:
    line = f"TOTAL {total} QCFP (classical {classical} / quantum {quantum})"
    return [] if f"\n{line}\n" in "\n" + text else [f"text report lacks {line!r}"]


def check_invalid(exit_path: int, rendered: str, expected: dict) -> list[str]:
    """Check one `check`-path request on a defective model."""
    problems = check_codes(diagnostic_codes(rendered), expected["codes"])
    if exit_path != expected["exit"]:
        problems.append(f"exit path {exit_path} != expected {expected['exit']}")
    return problems


# -- fixtures -------------------------------------------------------------------

#: Hand-written expectations: exit code of check/measure/diagram, and the
#: rule code the run must report on stderr. `fmt` exits 0 on every fixture
#: that parses and 2 on `bad_syntax.qcm`.
FIXTURE_EXPECT = {
    **{f"bad_r{n}.qcm": (1, f"R{n}") for n in range(1, 10)},
    "bad_syntax.qcm": (2, "S2"),
    **{f"ok_r{n}.qcm": (0, None) for n in range(1, 10)},
    **{f"ok_p{n}.qcm": (0, None) for n in range(1, 4)},
    **{f"warn_p{n}.qcm": (0, f"P{n}") for n in range(1, 4)},
    "factoring.qcm": (0, None),
}

#: The paper's worked example: 10 QCFP, classical 8 / quantum 2.
FACTORING_TOTALS = (10, 8, 2)

COMMANDS = (
    ("check",),
    ("measure",),
    ("measure", "--format", "json"),
    ("measure", "--format", "csv", "--by-layer"),
    ("diagram",),
    ("fmt",),
)
FACTORING_SCOPE = ("diagram", "--scope", "Factor Large Integer")


def fixture_reference(text: str) -> dict:
    """Unique movements, quantum share, layers and `uses` edges, read line by line."""
    processes: dict[str, set] = {}
    declared, uses, layers = 0, 0, 0
    current: set | None = None
    for line in text.splitlines():
        if match := _PROCESS.match(line):
            current = processes.setdefault(match.group(1), set())
            uses += len(re.findall(_STRING, match.group(3)))
        elif match := _MOVEMENT.match(line):
            declared += 1
            current.add(match.group(1, 2, 3, 4))
        elif _LAYER.match(line):
            layers += 1
    unique = sum(len(keys) for keys in processes.values())
    quantum = sum(1 for keys in processes.values() for key in keys if key[0].startswith("q"))
    return {
        "processes": {name: len(keys) for name, keys in processes.items()},
        "movements": declared,
        "total": unique,
        "quantum": quantum,
        "layers": layers,
        "uses": uses,
    }


def expected_exit(fixture: str, argv: tuple[str, ...]) -> int:
    code, _ = FIXTURE_EXPECT[fixture]
    if argv[0] == "fmt":
        return 2 if code == 2 else 0
    return code


def check_cli(fixture: str, argv: tuple[str, ...], returncode: int, stdout: str,
              stderr: str, ref: dict) -> list[str]:
    """Check one CLI request on a fixture."""
    problems = []
    want = expected_exit(fixture, argv)
    if returncode != want:
        problems.append(f"exit {returncode} != expected {want}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    _, code = FIXTURE_EXPECT[fixture]
    if code and argv[0] != "fmt" and f"[{code}]" not in stderr:
        problems.append(f"stderr lacks {code}")
    if returncode != 0 or problems:
        return problems

    command, total, quantum = argv[0], ref["total"], ref["quantum"]
    if fixture == "factoring.qcm" and (total, total - quantum, quantum) != FACTORING_TOTALS:
        problems.append("fixture reader disagrees with the worked example")
    if command == "measure":
        fmt = argv[2] if len(argv) > 2 else "text"
        if fmt == "json":
            report = json.loads(stdout)
            got = (report["total_qcfp"], report["quantum_qcfp"])
            layers = [layer["qcfp"] for layer in report["layers"]]
            if got != (total, quantum) or sum(layers) != total or len(layers) != ref["layers"]:
                problems.append(f"json totals {got} != {(total, quantum)}")
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(stdout)))
            if {r[0]: int(r[-1]) for r in rows[1:-1]} != ref["processes"] \
                    or int(rows[-1][-1]) != total:
                problems.append("csv rows differ from the fixture")
        else:
            problems += _check_text(stdout, total, total - quantum, quantum)
    elif command == "diagram":
        edges = ref["total"] + ref["uses"]
        if "--scope" in argv:
            edges = ref["processes"][argv[-1]]
        if stdout.count(" -> ") != edges:
            problems.append(f"dot has {stdout.count(' -> ')} edges, expected {edges}")
    elif command == "fmt":
        if fixture_reference(stdout) != ref:
            problems.append("fmt output changes the movements")
    return problems
