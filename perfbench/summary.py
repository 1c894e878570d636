"""Run every workload of BENCHMARK.json once and print one table.

    python3 perfbench/summary.py [--seed 7] [--seconds 20] [--trace 0|1]

Each workload runs in its own ``run.py`` process, so ``peak_rss_mb`` is that
workload's own peak.  With ``--trace 1`` the table holds the per-layer
metrics, including the tracing overhead ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = [w["name"] for w in bench["workloads"]]
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])

    section = bench["per_layer" if args.trace else "end_to_end"]
    print(f"{'metric':32s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for m in section:
        cells = " ".join(f"{results[n]['metrics'][m['name']]['value']:14.6g}" for n in names)
        print(f"{m['name']:32s} {m['unit']:6s} {cells}")
    cells = " ".join(f"{results[n]['failed'] / results[n]['attempted']:14.6g}" for n in names)
    print(f"{'fail_frac':32s} {'ratio':6s} {cells}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
