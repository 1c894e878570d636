"""The benchmark's workloads: each is a list of ``mivqe`` CLI calls.

Every call gets ``--seed <seed> --output <dir>`` appended by the runner, so the
workload seed reaches every stage that draws random numbers (Lanczos start
vector, DMRG initial state, basin-hopping displacements).  Paths are relative
to the repository root, which the runner makes the working directory.
"""

from __future__ import annotations

import glob

H2O = ["--fcidump", "fixtures/h2o_1.80.fcidump"]


def _fixtures(pattern: str) -> list[str]:
    return sorted(glob.glob(f"fixtures/{pattern}"))


def calls(name: str) -> list[list[str]]:
    """argv lists (without seed/output) for one repetition of a workload."""
    if name == "h2o10_scoring":
        return [["run", *H2O, "--mapping", "jw", "--grouping", "abab",
                 "--max-steps", "1"]]
    if name == "mi_ladder":
        ladder = ["chi=2,sweeps=2", "chi=4,sweeps=1", "chi=4,sweeps=2",
                  "chi=4,sweeps=8", "chi=8,sweeps=8"]
        return [["mi-report", *H2O, "--mapping", "parity", "--grouping", "aabb",
                 "--spin-penalty", "0.5", "--max-steps", "2",
                 *(a for spec in ladder for a in ("--mps", spec))]]
    if name == "small_sweeps":
        return [["sweep", "--mapping", "bk", "--grouping", "abab", *_fixtures("h2_*.fcidump")],
                ["sweep", "--mapping", "parity", "--grouping", "aabb", *_fixtures("lih_*.fcidump")]]
    if name == "smoke":
        return [["sweep", "--mapping", "parity", "--grouping", "aabb", "fixtures/lih_1.60.fcidump"]]
    raise KeyError(name)


# BENCHMARK.json lists the measured workloads; smoke is run by the tests.
NAMES = ("h2o10_scoring", "mi_ladder", "small_sweeps", "smoke")
