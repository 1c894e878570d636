#!/usr/bin/env python3
"""The committed performance claims, one row per BENCH_<pr>_<workload>.json.

    python3 tools/bench_table.py [ROOT]

ROOT (default: the repository this script is in) holds the files that
``tools/ab_pairs.py --out`` wrote. Rows come in PR order. Each row gives the
PR, the workload, the seed and the pair count, then for every end-to-end
metric the parent's and the change's medians, the pairs the change won and
the gain and regression verdicts, as the file stores them. Units come from
ROOT's BENCHMARK.json when it names the metric.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

NAME = re.compile(r"BENCH_(\d+)_(\w+)\.json")
HEADER = ("pr | workload | seed | pairs | per metric: parent -> change median, "
          "pairs won, gain, regression")


def bench_files(root: Path) -> list[Path]:
    """root's BENCH files by PR number; a file named otherwise is an error."""
    paths = list(root.glob("BENCH_*.json"))
    for path in paths:
        if not NAME.fullmatch(path.name):
            raise SystemExit(f"bench_table: {path.name} is not BENCH_<pr>_<workload>.json")
    return sorted(paths, key=lambda p: (int(NAME.fullmatch(p.name).group(1)), p.name))


def row(path: Path, units: dict[str, str]) -> str:
    pr = NAME.fullmatch(path.name).group(1)
    data = json.loads(path.read_text())
    cells = [pr, data["workload"], f"seed {data['seed']}", f"{data['pairs']} pairs"]
    for name, v in data["verdicts"].items():
        unit = f" {units[name]}" if name in units else ""
        cells.append(
            f"{name} {v['parent']['median']:.4g} -> {v['change']['median']:.4g}{unit}, "
            f"won {v['wins']}/{v['pairs']}, gain {'shown' if v['gain'] else 'not shown'}, "
            f"regression {v['regression']}"
        )
    return " | ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                        help="directory holding the BENCH files and BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = args.root / "BENCHMARK.json"
    units = {}
    if bench.is_file():
        units = {m["name"]: m["unit"] for m in json.loads(bench.read_text())["end_to_end"]}
    print(HEADER)
    for path in bench_files(args.root):
        print(row(path, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
