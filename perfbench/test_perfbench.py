"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

The smoke workload is one ``sweep`` over ``fixtures/lih_1.60.fcidump``
(parity/aabb) and takes about a second.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import fingerprint  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_passes_its_fingerprint(trace, section):
    result, _ = _bench("--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCH[section]]
    for m in BENCH[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_unrecorded_seed_runs_as_seed_mod_11():
    result, out = _bench("--workload", "smoke", "--seed", "18", "--seconds", "0")
    assert "seed 18 (program seed 7)" in out
    assert result["correct"]


def _perturbations():
    def energy(fp):
        fp["problems"][0]["energies"][2] += 2 * fingerprint.ENERGY_TOL

    def word(fp):
        words = fp["problems"][0]["words"]
        words[1], words[2] = words[2], words[1]

    def rate(fp):
        fp["problems"][0]["p_avg"] += 2 * fingerprint.RATE_TOL

    def row(fp):
        fp["sweep_rows"][0]["n_ent"] = "5"

    def exit_code(fp):
        fp["exit"] = 2

    return {"energy": (energy, "step 3: energy"), "word": (word, "step 2: entangler"),
            "rate": (rate, "p_avg"), "row": (row, "sweep.csv n_ent"),
            "exit": (exit_code, "exit code 0, expected 2")}


@pytest.fixture(scope="module")
def smoke_rep():
    cli, pipeline = run._load_mivqe()
    cwd = Path.cwd()
    try:
        os.chdir(ROOT)
        return run.run_rep(cli, pipeline, "smoke", 7)
    finally:
        os.chdir(cwd)


def test_smoke_rep_matches_record(smoke_rep):
    expected = run.load_record("smoke")["7"]
    assert run.check(smoke_rep, expected) == (1, 0, [])


@pytest.mark.parametrize("kind", sorted(_perturbations()))
def test_perturbed_fingerprint_is_a_failure(smoke_rep, kind):
    perturb, message = _perturbations()[kind]
    expected = copy.deepcopy(run.load_record("smoke")["7"])
    perturb(expected[0])
    attempted, failed, messages = run.check(smoke_rep, expected)
    assert (attempted, failed) == (1, 1)
    assert len(messages) == 1 and message in messages[0], messages


def test_tolerances_admit_float_noise():
    expected = run.load_record("smoke")["7"][0]
    got = copy.deepcopy(expected)
    got["problems"][0]["energies"][0] += 0.5 * fingerprint.ENERGY_TOL
    got["problems"][0]["p_max"] += 0.5 * fingerprint.RATE_TOL
    assert fingerprint.compare(expected, got) == {}



def test_untraced_run_takes_its_setup_samples_and_restores_prepare():
    cli, pipeline = run._load_mivqe()
    cwd = Path.cwd()
    try:
        os.chdir(ROOT)
        reps, setups = run.measure_untraced(cli, pipeline, "smoke", 7, seconds=0)
    finally:
        os.chdir(cwd)
    assert len(reps) == 1 and len(setups) == run.SETUP_SAMPLES
    assert pipeline.prepare_problem.__name__ == "prepare_problem"
