"""Compare two result sets of the benchmark: a parent commit and a change.

Collect alternating pairs (the side that runs first alternates, both sides
use the same seed within a pair and this copy of the benchmark code):

    python3 bench/compare.py pairs --parent ../parent --change . \
        --workload bulk-resolve --pairs 10 --out .bench_work/compare

Report on result sets collected earlier:

    python3 bench/compare.py report PARENT.jsonl CHANGE.jsonl

One row per workload and end-to-end metric: each side's median and
quartiles, the share of pairs the change won (ties count for neither
side), and a verdict. "better" needs at least 10 pairs, a win in nine
tenths of them, and a median difference larger than the parent's own
quartile spread. "unresolved" means a side's spread exceeds the metric's
bound and not every change run beat every parent run. "worse" means the
change's median is worse than the parent's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_PAIRS = 10


def load_metrics() -> dict[str, dict]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: str) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return {"meta": json.loads(lines[-2])["meta"], "result": json.loads(lines[-1])}


def collect(args) -> tuple[Path, Path]:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {"parent": out / "parent.jsonl", "change": out / "change.jsonl"}
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with files["parent"].open("a") as parent_out, files["change"].open("a") as change_out:
        sinks = {"parent": parent_out, "change": change_out}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                record = run_once(sides[side], args.workload, args.seed + pair, args.seconds)
                record.update(pair=pair, workload=args.workload, first=order[0])
                sinks[side].write(json.dumps(record) + "\n")
                sinks[side].flush()
                print(f"pair {pair} {side}: "
                      + json.dumps({k: v["value"] for k, v in record["result"]["metrics"].items()}),
                      file=sys.stderr)
    return files["parent"], files["change"]


def _read(path: Path) -> dict[tuple[str, int], dict]:
    records = {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        records[(record["workload"], record["pair"])] = record["result"]
    return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[float, str]:
    """Share of pairs won by the change, and the verdict for one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    gain = sign * (cm - pm)
    if len(parent) >= MIN_PAIRS and share >= 0.9 and gain > p3 - p1:
        return share, "better"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound and not all_better:
        return share, "unresolved"
    if -gain > bound * abs(pm):
        return share, "worse"
    return share, "within bound"


def report(parent_path: Path, change_path: Path) -> int:
    metrics = load_metrics()
    parent, change = _read(parent_path), _read(change_path)
    pairs = sorted(set(parent) & set(change))
    workloads = sorted({w for w, _ in pairs})
    print(f"{'workload':14} {'metric':16} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>5} verdict")
    worst = 0
    for workload in workloads:
        keys = [k for k in pairs if k[0] == workload]
        for name, spec in metrics.items():
            p = [parent[k]["metrics"][name]["value"] for k in keys]
            c = [change[k]["metrics"][name]["value"] for k in keys]
            share, word = verdict(p, c, spec["better"], spec["bound"])
            worst = max(worst, word == "worse")
            cells = []
            for values in (p, c):
                q1, median, q3 = _quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:14} {name:16} {cells[0]:>34} {cells[1]:>34} {share:5.0%} {word}"
                  + ("" if len(keys) >= MIN_PAIRS else f" ({len(keys)} pairs)"))
        failed = sum(change[k]["failed"] - parent[k]["failed"] for k in keys)
        if failed > 0:
            print(f"{workload:14} the change failed {failed} more operations than the parent")
            worst = 1
    return worst


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    pairs = sub.add_parser("pairs", help="run alternating parent/change pairs, then report")
    pairs.add_argument("--parent", required=True, help="checkout of the parent commit")
    pairs.add_argument("--change", required=True, help="checkout of the change")
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--pairs", type=int, default=MIN_PAIRS)
    pairs.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    pairs.add_argument("--seconds", default=str(json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    pairs.add_argument("--out", default=".bench_work/compare")
    rep = sub.add_parser("report", help="compare two result files")
    rep.add_argument("parent")
    rep.add_argument("change")
    args = ap.parse_args(argv)
    if args.mode == "pairs":
        return report(*collect(args))
    return report(Path(args.parent), Path(args.change))


if __name__ == "__main__":
    raise SystemExit(main())
