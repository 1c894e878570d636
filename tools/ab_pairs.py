#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with a verdict per metric.

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload h2o10_scoring --seed 1009 --pairs 10

Both paths are full checkouts. Each pair runs ``perfbench/run.py --trace 0``
once in each checkout, each run in a fresh process with the checkout as its
working directory; pair i runs the parent first when i is even and the
change first when it is odd, so a slow stretch of the host falls on both
sides alike. The end-to-end metrics, their direction and their regression
bounds come from the change's BENCHMARK.json.

For every metric it prints each side's median and quartiles, the pairs the
change won (ties count for neither) and two verdicts:

- gain: shown when at least ten pairs ran, the change won at least nine
  tenths of them, the medians differ in the change's favour by more than
  the parent's interquartile range, and no more of the change's runs than
  of the parent's failed their fingerprints;
- regression: "regression" when the change's median is worse than the
  parent's by more than the metric's bound, a share of the parent's median;
  otherwise "unresolved" when either side's interquartile range is wider
  than that bound, unless every run of the change beats every run of the
  parent; otherwise "none".

Runs always take the run length of the benchmark. The last stdout line is
one JSON object with every run's values, the verdicts, the workload, seed
and pair count, both checkouts' commit ids (``git describe --dirty``: a
"-dirty" suffix marks tracked files that differ from the commit) and the
host record ``perfbench/host.py`` made in the change's first run. ``--out
BENCH_<pr>_<workload>.json`` also writes that object to a file, the form in
which a performance claim is committed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10  # fewer pairs show no gain


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, dict | None]:
    """One untraced benchmark run; returns its result line and host record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_pairs: {' '.join(cmd)} in {checkout} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    host = next((json.loads(line[len("host: "):]) for line in lines
                 if line.startswith("host: ")), None)
    return json.loads(lines[-1]), host


def commit_id(checkout: Path) -> str | None:
    """The checkout's HEAD, "-dirty" when tracked files differ; None outside git."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty",
                           "--abbrev=40", "--exclude=*"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed: tuple[int, int] = (0, 0)) -> dict:
    """Gain and regression verdicts for one metric; failed is the number of
    (parent, change) runs that failed their fingerprints."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gap = sign * (p_med - c_med)
    allowed = bound * abs(p_med)
    if -gap > allowed:
        regression = "regression"
    elif max(p3 - p1, c3 - c1) > allowed and not all(
            sign * (p - c) > 0 for p in parent for c in change):
        regression = "unresolved"
    else:
        regression = "none"
    return {
        "parent": {"q1": p1, "median": p_med, "q3": p3},
        "change": {"q1": c1, "median": c_med, "q3": c3},
        "wins": wins,
        "pairs": len(parent),
        "gain": (len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent)
                 and gap > p3 - p1 and failed[1] <= failed[0]),
        "regression": regression,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="also write the final JSON object here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{path} has no perfbench/run.py")
    metrics = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    host = None
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, run_host = run_once(sides[side], args.workload, args.seed)
            if side == "change" and host is None:
                host = run_host
            runs[side].append(result)
            values = ", ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.4g}"
                               for m in metrics)
            flag = "" if result["correct"] else "  FINGERPRINT MISMATCH"
            print(f"pair {i + 1} {side:6s}: {values}{flag}", flush=True)

    failed = {side: sum(not r["correct"] for r in runs[side]) for side in runs}
    verdicts = {}
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        v = verdicts[name] = verdict(values["parent"], values["change"], m["better"],
                                     m["bound"], (failed["parent"], failed["change"]))
        print(f"{name} ({m['unit']}, {m['better']} is better, bound {m['bound']:g}): "
              f"parent median {v['parent']['median']:.4g} "
              f"[{v['parent']['q1']:.4g}, {v['parent']['q3']:.4g}], "
              f"change median {v['change']['median']:.4g} "
              f"[{v['change']['q1']:.4g}, {v['change']['q3']:.4g}], "
              f"change won {v['wins']}/{v['pairs']}; "
              f"gain {'shown' if v['gain'] else 'not shown'}; "
              f"regression {v['regression']}")
    print(f"runs failing fingerprints: parent {failed['parent']}, change {failed['change']}")
    summary = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "values": {side: [{k: r["metrics"][k]["value"] for k in r["metrics"]} for r in runs[side]]
                   for side in runs},
        "failed_runs": failed, "verdicts": verdicts,
        "commits": {side: commit_id(path) for side, path in sides.items()},
        "host": host,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
